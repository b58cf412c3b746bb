"""Steadiness report: do repeated sets of benchmark runs agree?

Usage:
    python3 bench/steadiness.py

Runs ``bench/run.py`` (untraced) RUNS times per set for SETS sets on every
workload of BENCHMARK.json, each run on its own seed (seeds from 1, the
workloads interleaved) and for the run_seconds of BENCHMARK.json.  For every
end-to-end metric and workload it prints each set's median, quartiles and
spread (the distance between the quartiles as a share of the median), and
says whether the spread stays within the metric's bound and whether each
later set's median is within the bound of the first set's, in the metric's
worse direction.  The exit code is 0 when every test passes and every run
was correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {(s, w, m["name"]): [] for s in range(SETS) for w in workloads for m in metrics}
    bad_runs = 0
    for s in range(SETS):
        for r in range(RUNS):
            seed = FIRST_SEED + s * RUNS + r
            for w in workloads:
                cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    bad_runs += 1
                    print(f"set {s} seed {seed} {w}: rc={proc.returncode} "
                          f"result={result} {proc.stderr[-500:]}", flush=True)
                    continue
                for m in metrics:
                    values[(s, w, m["name"])].append(result["metrics"][m["name"]]["value"])
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok = bad_runs == 0
    print(f"\n{'workload':9} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(SETS):
                vals = values[(s, w, name)]
                if len(vals) < 2:
                    print(f"{w:9} {name:12} {s:>3} too few correct runs")
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                verdicts = ["spread ok" if spread <= bound else "SPREAD TOO WIDE"]
                ok &= spread <= bound
                if first is None:
                    first = med
                else:
                    change = (med - first) / first
                    worse = change if m["better"] == "lower" else -change
                    agree = worse <= bound
                    verdicts.append(f"vs set 0 {change:+.1%} "
                                    + ("agrees" if agree else "DISAGREES"))
                    ok &= agree
                print(f"{w:9} {name:12} {s:>3} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{spread:7.1%} {bound:6.2f}  {'; '.join(verdicts)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
