"""latindex benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload survey-large --seed 1 --seconds 50 --trace 0

Each measured run happens in a fresh worker process (perfbench/workloads.py)
that imports latindex from ./src. With --trace 0 this prints the
end-to-end metrics; with --trace 1 it runs the workload once untraced and
once traced, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it
carry the stage breakdown and the environment. Metric definitions,
workloads and the expected effect of each layer are in perfbench/README.md.

Exit codes: 0 with a result, 1 if a worker failed or timed out, 2 if the
checkout holds no latindex source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
SETUP_PROBES = 4  # extra processes that only import and build inputs
DEADLINE_S = 170.0
# Untraced stage medians reported with the per-layer numbers (0 where a
# workload does not run the stage).
STAGE_METRICS = ("fit_ltm_s", "fit_ebp_s", "fit_lqmm_s", "light_stages_s", "replicate_s")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
# One BLAS thread: the kernels are small, and the benchmark shares two
# cores with the rest of the host.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, tag: str, *extra: str, deadline: float, seconds: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--work", work,
        *extra,
        "--launched", repr(time.monotonic()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for worker {tag}")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
            env={**os.environ, **ENV},
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {tag} timed out") from None
    finally:
        _remove_tree(work)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    key = name.rsplit(".", 1)[1]
    if key.startswith("us_per_"):
        return "us"
    if key.endswith(("_frac", "coverage")):
        return "fraction"
    if key == "mc_sd_max":
        return "index"
    for suffix in ("ms", "s"):
        if key.endswith("_" + suffix):
            return suffix
    return "count"


def untraced(args, deadline) -> tuple[dict, dict]:
    main = spawn(args, "main", deadline=deadline, seconds=args.seconds)
    probes = [main] + [
        spawn(args, f"setup{i}", "--setup-only", deadline=deadline, seconds=0.0)
        for i in range(SETUP_PROBES)
    ]
    setups = [p["setup_s"] for p in probes]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(main["pass_s"], "s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
        "success_frac": metric(1.0 - main["failed"] / main["attempted"], "fraction"),
    }
    main["setup_s_all"] = setups
    main["setup_wall_s_all"] = [p["setup_wall_s"] for p in probes]
    return main, metrics


def traced(args, deadline) -> tuple[dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    # Half the time untraced, half traced, so a traced run is no longer
    # than an untraced one.
    half = args.seconds / 2.0
    plain = spawn(args, "plain", deadline=deadline, seconds=half)
    main = spawn(args, "traced", "--trace", "1", "--spans", spans, deadline=deadline, seconds=half)
    layers = dict(main["layers"])
    layers["trace.overhead_s"] = main["pass_s"] - plain["pass_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["pass_s"]
    for name in STAGE_METRICS:
        layers[f"stage.{name}"] = plain["stages_s"].get(name, 0.0)
    metrics = {name: metric(value, layer_unit(name)) for name, value in layers.items()}
    main["untraced_pass_s"] = plain["pass_s"]
    main["attempted"] += plain["attempted"]
    main["failed"] += plain["failed"]
    main["failures"] += plain["failures"]
    return main, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one latindex benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "latindex", "__init__.py")):
        print("no latindex source under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind like an error: subprocess.run then kills and reaps
    # the running worker, and its scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, metrics = (traced if args.trace else untraced)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = {k: v for k, v in result.items() if k != "layers"}
    print("# run " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
