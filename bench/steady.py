"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 bench/steady.py

Reads BENCHMARK.json and runs its command ten times on every workload in each
of two sets (every run with its own seed, workloads interleaved).  It reports
for every workload and end-to-end metric:

* spread: the distance between the first and third quartile of one set's
  values (``statistics.quantiles(values, n=4)``) as a share of their median;
  it must stay within the metric's bound and should stay below a third of it;
* drift: how much worse the second set's median is than the first set's, as
  a share of the first (negative when it is better); its size must stay
  within the bound either way, since both sets run the same code.

Writes the values and verdicts to bench/_work/steady.json.  Exits 1 when a
spread or drift is out of bounds or a run fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # per workload and set
SETS = 2


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def drift(first: list[float], second: list[float], better: str) -> float:
    """How much worse the median of `second` is than that of `first`, as a share of it."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    args = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} wrong outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdicts(spec: dict, values: dict) -> tuple[list[dict], bool]:
    """values[workload][metric] is a pair of sets, each a list of run values."""
    rows, ok = [], True
    for workload, metrics in values.items():
        for metric in spec["end_to_end"]:
            first, second = metrics[metric["name"]]
            bound = metric["bound"]
            spreads = [spread(first), spread(second)]
            worse = drift(first, second, metric["better"])
            passed = all(s <= bound for s in spreads) and abs(worse) <= bound
            ok &= passed
            rows.append({
                "workload": workload, "metric": metric["name"], "bound": bound,
                "medians": [statistics.median(first), statistics.median(second)],
                "spreads": spreads, "drift": worse, "pass": passed,
                "steady": all(s < bound / 3 for s in spreads),
            })
    return rows, ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    values = {w: {n: [[] for _ in range(SETS)] for n in names} for w in workloads}
    seed = 1
    for s in range(SETS):
        for r in range(RUNS):
            for workload in workloads:
                got = run_once(spec, workload, seed, spec["run_seconds"])
                seed += 1
                for n in names:
                    values[workload][n][s].append(got[n])
                print(f"set {s + 1} run {r + 1} {workload}: "
                      + " ".join(f"{n}={got[n]:.6g}" for n in names), flush=True)

    rows, ok = verdicts(spec, values)
    print(f"{'workload':<14} {'metric':<12} {'bound':>5} {'spreads':>15} {'drift':>7}  verdict")
    for row in rows:
        spreads = "/".join(f"{s:.3f}" for s in row["spreads"])
        verdict = "PASS" if row["pass"] else "FAIL"
        if row["pass"] and not row["steady"]:
            verdict += " (spread above a third of the bound)"
        print(f"{row['workload']:<14} {row['metric']:<12} {row['bound']:>5} {spreads:>15} "
              f"{row['drift']:>7.3f}  {verdict}")
    out = ROOT / "bench" / "_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"values": values, "rows": rows}, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
