"""Summarize benchmark records written by run.py into bench/out/.

    python3 bench/summarize.py [--trace 0|1] [--json] [DIR]

For every workload and metric, prints the median, the quartiles, their
spread (interquartile distance over the median, as the acceptance rule
uses it) and the number of runs.  ``--json`` prints the same as one JSON
object instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for r in records:
        for name, m in r["metrics"].items():
            values[r["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    out: dict = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for name, v in metrics.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            out[workload][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "n": len(v), "unit": units[name],
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(Path(__file__).parent / "out"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    records = [
        json.loads(p.read_text())
        for p in sorted(Path(args.dir).glob(f"*-trace{args.trace}.json"))
    ]
    summary = summarize(records)
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for workload, metrics in summary.items():
        print(workload)
        for name, s in metrics.items():
            print(f"  {name:42s} median {s['median']:<12.6g} {s['unit']:<14s}"
                  f" q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g}"
                  f" spread {s['spread']:.3f}  n={s['n']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
