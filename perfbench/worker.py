"""The process that runs the program: one workload, one client, closed loop.

Reads a request (JSON) on stdin and writes one JSON result on stdout.
Every timed interval is bracketed by `reference_loop()`; the interval is
scaled by NOMINAL_S / (the faster bracket), so a phase in which the host
runs everything slower or faster cancels out.  Raw times are kept too.

With "setup_only" the process only imports the program and builds the
workload's fields, then reports how long that took.  Otherwise it runs
whole rounds of the job list until `seconds` have passed, and reports per
job and round the raw and corrected time, a digest of the output and
whether the job raised.  The
outputs of the first round are returned in full for the caller to check.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The reference loop does integer arithmetic only: ints are not tracked by
# the garbage collector, so its time does not depend on how large the
# program's heap has grown.  NOMINAL_S is its typical time on the host the
# reference figures in README.md were taken on (2-vCPU x86-64, Python 3.11).
REFERENCE_ITERATIONS = 60_000
NOMINAL_S = 0.0100


def reference_loop() -> float:
    t0 = time.perf_counter()
    x = 1
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFFFFF
    return time.perf_counter() - t0


def digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def main() -> int:
    req = json.load(sys.stdin)
    if not (SRC / "walshcodes" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workload = importlib.import_module(req["module"])
    tracer = None

    before = reference_loop()
    t0 = time.perf_counter()
    import walshcodes
    import walshcodes.cli  # noqa: F401  (the CLI is part of the program users load)

    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(walshcodes)
        tracer.install()
        tracer.start_job("setup")
        t0 = time.perf_counter()
    workload.setup(walshcodes)
    t1 = time.perf_counter()
    after = reference_loop()
    setup_raw = t1 - t0
    setup_factor = NOMINAL_S / min(before, after)
    if tracer:
        tracer.end_job("setup", setup_factor)
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * setup_factor}
    if req.get("setup_only"):
        json.dump(result, sys.stdout)
        return 0

    jobs = req["jobs"]
    first_outputs, samples = [], []
    ref_prev = reference_loop()
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < req["seconds"]:
        for idx, job in enumerate(jobs):
            if tracer:
                tracer.start_job((rnd, idx))
            t0 = time.perf_counter()
            try:
                res, err = workload.run(walshcodes, job), None
            except Exception as ex:  # a failed job is counted; the run goes on
                res, err = None, f"{type(ex).__name__}: {ex}"
            t1 = time.perf_counter()
            ref_next = reference_loop()
            factor = NOMINAL_S / min(ref_prev, ref_next)
            ref_prev = ref_next
            if tracer:
                tracer.end_job((rnd, idx), factor)
            out = workload.encode(res) if err is None else {"error": err}
            if rnd == 0:
                first_outputs.append(out)
            samples.append([rnd, idx, t1 - t0, (t1 - t0) * factor, digest(out), err is not None])
        rnd += 1
    result.update(
        rounds=rnd,
        wall_s=time.perf_counter() - start,
        samples=samples,
        outputs=first_outputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        tracer.uninstall()
        result["layers"] = {"algebra.field_build_s": result["setup_s"], **tracer.layer_metrics(0)}
        tracer.write(req["trace_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
