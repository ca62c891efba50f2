"""Span tracing of rigkit from the outside, by wrapping its module functions.

:meth:`Tracer.install` replaces every public function of the traced rigkit
modules with a wrapper that records a span (name, start, end, parent span)
around the call.  Because rigkit modules import each other's functions by
name, every module namespace holding a reference to a wrapped function is
patched, so calls between modules are traced too.  Nothing under
``src/rigkit`` is edited; :meth:`Tracer.uninstall` restores the originals.

Self time is a span's duration minus the durations of its child spans;
children of one span never overlap because rigkit runs on one thread.
Time spent in the speed probes of :mod:`speed` is left out of durations;
the dumped span records keep plain wall-clock start and end times.
Statistics are kept per phase ("setup" or "task") so that per-layer metrics
can be reported per set-up plus one task.  Spans themselves are kept in
memory up to a cap and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "core", "codec", "kernels", "geometry", "deform", "metrics", "animate",
    "gradcheck", "cli",
)
SPAN_CAP = 1_000_000
# Group statistics share the per-phase table with function statistics; the
# suffix keeps a group named like one of its members apart from it.
GROUP_SUFFIX = "/group"


class Stats:
    """Per-name totals for one phase: calls, inclusive and self seconds."""

    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans and per-phase statistics of wrapped rigkit functions.

    Names of wrapped functions are "<module>.<function>".  ``groups`` maps a
    layer metric to several such names; a group's inclusive time counts only
    outermost calls, so nested members (load_obj -> parse_obj) are not
    counted twice.  ``hooks`` maps a name to ``hook(tracer, args, kwargs)``,
    called before the function; it returns the (possibly replaced) args and
    kwargs and an optional callback that receives the result.  Hooks feed
    :meth:`count`.
    """

    def __init__(self, groups: dict[str, tuple[str, ...]], hooks: dict):
        self.group_of = {m: group for group, members in groups.items() for m in members}
        self.hooks = hooks
        self.phase = "setup"
        self.stats: dict[str, dict[str, Stats]] = {
            "setup": defaultdict(Stats), "task": defaultdict(Stats)
        }
        self.counts: dict[str, dict[str, float]] = {
            "setup": defaultdict(float), "task": defaultdict(float)
        }
        self._stack: list[int] = []  # span ids
        self._names_stack: list[str] = []
        self._child: list[float] = []  # child seconds per open span
        self._group_depth: dict[str, int] = defaultdict(int)
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        # Seconds spent in speed probes (see speed.py) while spans were
        # open; they are taken out of every span's duration and self time.
        self.excluded_s = 0.0
        self._patched: list[tuple[dict, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import rigkit

        targets: dict[int, tuple[str, object]] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"rigkit.{short}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (f"{short}.{name}", obj)
        wrappers = {
            key: self._wrap(qual, fn) for key, (qual, fn) in targets.items()
        }
        namespaces = [vars(rigkit)] + [
            vars(m) for n, m in list(sys.modules.items())
            if n.startswith("rigkit.") and m is not None
        ]
        for ns in namespaces:
            for name, obj in list(ns.items()):
                w = wrappers.get(id(obj))
                if w is not None and obj is targets[id(obj)][1]:
                    self._patched.append((ns, name, obj))
                    ns[name] = w
        # Two private tables name the units the layer metrics are reported
        # by: the grad-check battery's per-kernel checks, and the CLI's
        # per-command handlers (looked up by name when the parser is built).
        checks = sys.modules["rigkit.gradcheck"]._CHECKS
        for kernel, fn in list(checks.items()):
            self._patched.append((checks, kernel, fn))
            checks[kernel] = self._wrap(f"gradcheck.check.{kernel}", fn)
        cli = vars(sys.modules["rigkit.cli"])
        for name, fn in list(cli.items()):
            if name.startswith("_cmd_"):
                self._patched.append((cli, name, fn))
                command = name[len("_cmd_"):].replace("_", "-")
                cli[name] = self._wrap(f"cli.{command}", fn)

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patched):
            ns[name] = obj
        self._patched.clear()

    def exclude(self, seconds: float) -> None:
        self.excluded_s += seconds

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.phase][key] += amount

    def parent_name(self) -> str | None:
        return self._names_stack[-1] if self._names_stack else None

    def _wrap(self, qual: str, fn):
        tracer = self
        group = self.group_of.get(qual)
        hook = self.hooks.get(qual)
        name_id = self._name_ids.setdefault(qual, len(self._name_ids))
        stack, names, child = self._stack, self._names_stack, self._child
        depth = self._group_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(tracer, args, kwargs)
            parent = stack[-1] if stack else -1
            sid = tracer.spans_total
            tracer.spans_total += 1
            stack.append(sid)
            names.append(qual)
            child.append(0.0)
            if group is not None:
                depth[group] += 1
            if sid < SPAN_CAP:
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            excluded = tracer.excluded_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                names.pop()
                dur = t1 - t0 - (tracer.excluded_s - excluded)
                own = dur - child.pop()
                if child:
                    child[-1] += dur
                phase = tracer.stats[tracer.phase]
                st = phase[qual]
                st.calls += 1
                st.incl += dur
                st.self_s += own
                if group is not None:
                    depth[group] -= 1
                    gs = phase[group + GROUP_SUFFIX]
                    gs.calls += 1
                    gs.self_s += own
                    if depth[group] == 0:
                        gs.incl += dur
                if sid < SPAN_CAP:
                    tracer.span_start[sid] = t0
                    tracer.span_end[sid] = t1
            if hook is not None and after is not None:
                after(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def per_task(self, tasks: int):
        """Stats and counts for one set-up plus one task (task totals / tasks)."""
        merged: dict[str, Stats] = defaultdict(Stats)
        counts: dict[str, float] = defaultdict(float)
        for phase, scale in (("setup", 1.0), ("task", 1.0 / max(tasks, 1))):
            for name, st in self.stats[phase].items():
                m = merged[name]
                m.calls += st.calls * scale
                m.incl += st.incl * scale
                m.self_s += st.self_s * scale
            for key, value in self.counts[phase].items():
                counts[key] += value * scale
        return merged, counts

    def dump(self, path) -> None:
        """Write the recorded spans as a compressed numpy archive."""
        names = sorted(self._name_ids, key=self._name_ids.get)
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

