"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workload verify-open --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric its median, quartiles and the quartile distance as a share of the
median, next to the bound in ``BENCHMARK.json``. A share above a third
of its bound is marked. ``--out`` writes the medians and every value as
JSON. With ``--trace 1`` it also reports whether the counts of the
traced runs (which differ by seed) repeat when one seed is run twice.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = [_run(workload, s, args.seconds, args.trace) for s in args.seeds]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"{sum(r['attempted'] for r in runs)} operations, {failed} failed")
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  <-- over a third of its bound" if bound and share > bound / 3 else ""
            print(f"  {name:32s} median {med:12.6g} {runs[0]['metrics'][name]['unit']:6s}"
                  f" q1 {q1:10.6g} q3 {q3:10.6g} spread {share:7.2%}"
                  + (f" bound {bound:.0%}" if bound else "") + flag)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values}
        if args.trace:
            again = _run(workload, args.seeds[0], args.seconds, 1)["metrics"]
            same = all(again[k]["value"] == runs[0]["metrics"][k]["value"]
                       for k, m in again.items() if m["unit"] == "count")
            print(f"  counts repeat exactly on seed {args.seeds[0]}: {same}")
        report[workload] = {"failed": failed, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
