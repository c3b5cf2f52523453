"""Steadiness check: two sets of ten runs of every workload, one seed each.

    python3 perfbench/steady.py             # two sets of ten runs per workload
    python3 perfbench/steady.py --traced    # counts repeat?  tracing overhead

For every workload it runs `run.py` once per seed (seeds 1..10 in the
first set, 11..20 in the second) for `run_seconds` from BENCHMARK.json,
and prints per metric the median, the quartiles, the spread
(Q3 - Q1) / median as Python's statistics.quantiles(values, n=4) gives
them, the bound from BENCHMARK.json and, for the second set, how far its
median moved from the first set's.  The result is STEADY when every
end-to-end metric's spread, `setup_s` included, is within its bound in both
sets, every median moved by no more than the bound in either direction,
and the share of failed jobs is the same in both sets.  The raw
wall-clock figures are shown beside the corrected ones.  With --traced it
makes two traced runs per workload and compares their counts, and reports
the tracing overhead: traced minus untraced wall time per round.  Runs are
made one at a time.  Results go to perfbench/out/steady.json.
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
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    report: dict = {}
    if args.traced:
        for w in workloads:
            (s1, t1), (s2, t2) = (run_once(w, 1, seconds, 1) for _ in range(2))
            s0, _ = run_once(w, 1, seconds, 0)
            counts = {k: v["value"] for k, v in t1["metrics"].items() if v["unit"] == "count"}
            same = counts == {k: v["value"] for k, v in t2["metrics"].items() if v["unit"] == "count"}
            per_round = [s["wall_s"] / s["rounds"] for s in (s1, s2, s0)]
            report[w] = {"counts": counts, "counts_repeat": same, "traced_round_s": per_round[:2],
                         "untraced_round_s": per_round[2],
                         "overhead_s_per_round": statistics.mean(per_round[:2]) - per_round[2]}
            print(w, json.dumps(report[w]))
        (HERE / "out" / "steady-traced.json").write_text(json.dumps(report, indent=1) + "\n")
        return 0 if all(r["counts_repeat"] for r in report.values()) else 1
    ok = True
    for w in workloads:
        report[w] = []
        for s in range(SETS):
            seeds = range(s * RUNS + 1, (s + 1) * RUNS + 1)
            values: dict[str, list] = {}
            fails = []
            for seed in seeds:
                summary, result = run_once(w, seed, seconds, 0)
                ok &= result["correct"]
                fails.append(result["failed"] / result["attempted"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                for name in ("raw_jobs_per_s", "raw_job_p50_ms", "raw_setup_s", "wall_s"):
                    values.setdefault(name, []).append(summary[name])
            stats = {name: describe(v) | {"values": v} for name, v in values.items()}
            report[w].append({"seeds": list(seeds), "failed_share": fails, "metrics": stats})
            for name, st in stats.items():
                bound = bounds.get(name)
                line = f"{w:10s} set{s + 1} {name:16s} median {st['median']:11.4f}  q1 {st['q1']:11.4f}  q3 {st['q3']:11.4f}  spread {st['spread']:6.3f}"
                if bound is not None:
                    line += f"  bound {bound:.2f}"
                    if st["spread"] > bound:
                        ok = False
                        line += "  SPREAD ABOVE BOUND"
                    if s:
                        first = report[w][0]["metrics"][name]["median"]
                        worse = (st["median"] - first) / first
                        if name == "jobs_per_s":
                            worse = -worse
                        line += f"  second-vs-first {worse:+.3f}"
                        if abs(worse) > bound:
                            ok = False
                            line += "  MEDIAN MOVED MORE THAN BOUND"
                print(line, flush=True)
            if s and set(fails) != set(report[w][0]["failed_share"]):
                ok = False
                print(f"{w}: failed share differs between sets", flush=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
