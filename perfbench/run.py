"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Generates the workload's job list from the seed, measures set-up time in
fresh interpreters, runs the job list in a fresh worker process for whole
rounds until `--seconds` have passed, checks every output of the first
round against the benchmark's own computations (and every later round
against the first), and prints one JSON object as the last line of
stdout.  With `--trace 0` it reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402

WORKLOADS = {"spectra": "spectra", "dual-hull": "dual_hull", "weights": "weights"}
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 15
WORKER_TIMEOUT_S = 110  # with the set-ups, the run ends within 180 s


def call_worker(req: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(req),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def check_outputs(module, jobs, result) -> tuple[list[str], int]:
    """Errors found, and the number of failed job runs."""
    first = result["outputs"]
    errors = []
    for job, out in zip(jobs, first):
        if "error" not in out:
            errors += module.check(job, out)
    digests = [worker.digest(out) for out in first]
    failed = 0
    for rnd, idx, _raw, _corr, dig, err in result["samples"]:
        if err:
            failed += 1
        elif dig != digests[idx]:
            errors.append(f"round {rnd} job {idx}: output differs from round 0")
    return errors, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "walshcodes" / "__init__.py").is_file():
        print(f"the program source is missing: {ROOT / 'src' / 'walshcodes'}", file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    jobs = module.make_jobs(random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    req = {"module": module.__name__, "trace": args.trace, "jobs": jobs, "seconds": args.seconds,
           "trace_path": str(OUT / f"{tag}.spans.jsonl")}

    setups = []
    if not args.trace:
        setup_req = {"module": module.__name__, "trace": 0, "setup_only": True}
        setups = [call_worker(setup_req, SETUP_TIMEOUT_S) for _ in range(SETUP_RUNS - 1)]
    result = call_worker(req, WORKER_TIMEOUT_S)
    setups.append({"setup_s": result["setup_s"], "setup_raw_s": result["setup_raw_s"]})

    errors, failed = check_outputs(module, jobs, result)
    ok = [s for s in result["samples"] if not s[5]]
    raw = [s[2] for s in ok]
    corr = [s[3] for s in ok]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_round": len(jobs),
        "rounds": result["rounds"],
        "wall_s": result["wall_s"],
        "raw_jobs_per_s": len(raw) / sum(raw),
        "raw_job_p50_ms": statistics.median(raw) * 1000,
        "raw_setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "errors": errors[:20],
    }
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in tracer.METRICS}
    else:
        metrics = {
            "jobs_per_s": {"value": len(corr) / sum(corr), "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(corr) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    line = {"correct": not errors, "attempted": len(result["samples"]), "failed": failed, "metrics": metrics}
    record = {"summary": summary, "result": line, "setups": setups, "samples": result["samples"]}
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
