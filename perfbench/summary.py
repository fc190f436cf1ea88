"""Median and spread of the run records in perfbench/results/.

    for s in $(seq 101 110); do
        python3 perfbench/run.py --workload cli-fcn --seed $s --seconds 25 --trace 0
    done
    python3 perfbench/summary.py

For every workload and end-to-end metric it prints the median over the
records, the interquartile range over the median (the spread BENCHMARK.json
bounds are judged against), and the same for the unscaled figures.  With
traced records present it also prints the tracing overhead: the traced
runs' median over the untraced runs' median, minus one.
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    runs = {}
    for path in sorted(RESULTS.glob("BENCH_*.json")):
        run = json.loads(path.read_text())["run"]
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    if not runs:
        print(f"no run records in {RESULTS}", file=sys.stderr)
        return 1
    for (workload, trace), records in sorted(runs.items()):
        if trace or len(records) < 2:
            continue
        traced = runs.get((workload, 1), [])
        print(f"{workload}: {len(records)} runs, {len(traced)} traced")
        for name in records[0]["end_to_end"]:
            scaled = [r["end_to_end"][name] for r in records]
            raw = [r["end_to_end_unscaled"][name] for r in records]
            line = (f"  {name:13s} median {statistics.median(scaled):<12.6g}"
                    f" spread {spread(scaled):.3f}  unscaled median "
                    f"{statistics.median(raw):<12.6g} spread {spread(raw):.3f}")
            if traced and name in traced[0]["end_to_end"]:
                t = statistics.median(r["end_to_end"][name] for r in traced)
                line += f"  tracing {t / statistics.median(scaled) - 1:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
