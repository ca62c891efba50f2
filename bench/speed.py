"""Machine-speed calibration for the timings the benchmark reports.

On a shared host the same single-threaded work can take up to 1.7 times as
long from one minute to the next, because other tenants load the cores.
That swing is larger than any bound a benchmark could usefully set, so the
machine's speed is sampled while each interval is timed.  A fixed probe
kernel (numpy on small arrays plus interpreter work, the mix rigkit runs,
and nothing from rigkit) runs right before and right after the interval and,
from a SIGALRM handler, every PROBE_PERIOD_S inside it.  The probes' mean
time per kernel round estimates how slow the machine was during the
interval, and the interval is scaled to the reference speed:

    scaled = (raw - time spent in probes) * REF_ROUND_S / mean(round times)

Scaled times are "seconds on the reference machine"; raw times are kept in
the full record.  The probe does the same work whatever rigkit does, so a
change to rigkit moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# Seconds per kernel round on the reference machine: 2 vCPUs of an
# "Intel(R) Xeon(R) Processor", Python 3.11, numpy 2.4, OpenBLAS 0.3.31,
# one thread, measured when the host was quiet.
REF_ROUND_S = 9.0e-5
PROBE_S = 0.01
PROBE_PERIOD_S = 0.1


def _kernel(rounds: int) -> float:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((10, 4, 4))
    v = rng.standard_normal((500, 3))
    e = rng.standard_normal((500, 3))
    acc = 0.0
    for _ in range(rounds):
        g = m @ m
        acc += float(np.einsum("kab,kb->", g[:, :3, :3], m[:, :3, 3]))
        h = np.cross(v, e)
        acc += float((h * v).sum())
        acc += sum(j * j for j in range(30))
        acc += len({k: k for k in range(10)})
    return acc


class ScaledClock:
    """Times calls and scales each time to the reference machine speed.

    ``on_probe(seconds)``, when given, is told how long each probe inside an
    interval took, so that a tracer can leave probe time out of its spans.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        t0 = perf_counter()
        _kernel(50)
        self.rounds = max(10, int(PROBE_S * 50 / (perf_counter() - t0)))

    def _probe(self) -> float:
        t0 = perf_counter()
        _kernel(self.rounds)
        return perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``; return (its result, raw seconds, scaled seconds)."""
        probes = [self._probe()]
        inside: list[float] = []

        def on_alarm(signum, frame):
            inside.append(self._probe())
            if self.on_probe is not None:
                self.on_probe(inside[-1])

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw -= sum(inside)
        probes += inside
        probes.append(self._probe())
        round_s = sum(probes) / (len(probes) * self.rounds)
        return result, raw, raw * REF_ROUND_S / round_s
