"""One measured process of a latindex benchmark workload.

Started by ``perfbench/run.py`` from the root of a source checkout; it
imports latindex from ``./src`` and nothing else. It generates the
workload's inputs from the seed, runs the workload's operations until the
time budget is spent, checks every output, and prints one JSON object
(timings, checks, environment and, when traced, per-layer numbers) as the
last line of its standard output.

Workloads (the reason for each is in perfbench/README.md):

- ``fixture``: the six CLI stages on the bundled fixture.
- ``coverage-study``: acceptance-criterion-10 replicates, library calls.
- ``survey-large``: five CLI stages (no fit-lqmm) on a 10x survey.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

ALL_STAGES = ("simulate", "features", "fit-ltm", "fit-ebp", "fit-lqmm", "report")
LIGHT_STAGES = ("simulate", "features", "report")
# The stage that writes each output file, for attributing a failed check.
PRODUCER = {
    "survey.csv": "simulate",
    "provinces.csv": "simulate",
    "frame.csv": "simulate",
    "items.csv": "features",
    "province_features.csv": "features",
    "ltm_model.json": "fit-ltm",
    "scores.json": "fit-ltm",
    "ebp_provinces.csv": "fit-ebp",
    "report.csv": "report",
}


def _producer(name: str) -> str:
    return "fit-lqmm" if name.startswith("lqmm_") else PRODUCER.get(name, "report")


def _seeds(seed: int, k: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


# Seconds one reference unit takes on the reference host in a quiet
# phase; times are reported scaled to this speed (see reference_s).
REF_UNIT_S = 0.004


def reference_s() -> float:
    """Median time of five reference units, to scale times to REF_UNIT_S.

    The host's speed drifts, by up to 2x over minutes, because other
    tenants share its cores. A unit is fixed numpy and pure-Python work
    that is not latindex code, so a change to latindex does not move it;
    timing it next to each pass measures the host's current speed.
    """
    import numpy as np

    a = np.random.default_rng(0).random(1500)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(40):
            np.lexsort((a, a))
            np.cumsum(a)
            a @ a
        total = 0
        for i in range(15000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(walls: list[float], refs: list[float]) -> list[float]:
    """Pass times at the reference speed: pass i lies between refs i and i+1."""
    return [w * 2.0 * REF_UNIT_S / (a + b) for w, a, b in zip(walls, refs, refs[1:])]


def fast_quartile(values: list[float]) -> float:
    """Lower quartile (inclusive method) of one run's pass times.

    Other tenants only ever add time, and the host's speed drifts over
    minutes, so a run's median follows whichever speed held for most of
    it. The lower quartile measures a typical pass on the quieter part of
    the run, and unlike the minimum it does not fall as a faster program
    fits more passes into the run.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _more(start: float, seconds: float, done: int) -> bool:
    """Start another operation if the run would then end closest to `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


class Failures:
    """Failed operations, keyed so that each operation counts once."""

    def __init__(self):
        self.keys: set[tuple] = set()
        self.notes: list[str] = []

    def add(self, key: tuple, note: str) -> None:
        self.keys.add(key)
        if len(self.notes) < 20:
            self.notes.append(f"{'/'.join(map(str, key))}: {note}")

    def check(self, ok: bool, key: tuple, note: str) -> None:
        if not ok:
            self.add(key, note)


# ---------------------------------------------------------------------------
# CLI pipelines: fixture and survey-large
# ---------------------------------------------------------------------------


class Pipeline:
    """Passes of CLI stages, each pass in a fresh directory of its own."""

    def __init__(self, work: str, *, stages, simulate: dict, ebp: dict, lqmm: dict):
        self.stages = tuple(stages)
        self.work = work
        self.settings = {
            "simulate": simulate,
            "ebp": ebp,
            "lqmm": lqmm,
        }
        self.attempted = 0
        self.failures = Failures()
        self.passes: list[dict[str, float]] = []
        self.check_pass: dict[str, float] = {}
        self.reference: dict[str, str] | None = None  # file name -> sha256
        self.lqmm_ops: list[int] = []

    def _config(self, k: int) -> str:
        base = os.path.join(self.work, f"pass{k}")
        os.makedirs(base, exist_ok=True)
        doc = {
            "survey_path": os.path.join(base, "survey.csv"),
            "province_path": os.path.join(base, "provinces.csv"),
            "frame_path": os.path.join(base, "frame.csv"),
            "output_dir": os.path.join(base, "out"),
            **self.settings,
        }
        path = os.path.join(base, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_pass(self, k: int, stages, tracer) -> dict[str, float]:
        from latindex.cli import main

        config = self._config(k)
        times: dict[str, float] = {}
        logs: dict[str, str] = {}
        broken = False
        for stage in stages:
            self.attempted += 1
            if broken:
                self.failures.add((k, stage), "not run: an earlier stage failed")
                continue
            buf = io.StringIO()
            index = len(tracer.spans) if tracer else -1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main([stage, "--config", config])
            except Exception:  # a stage must exit with a code, never raise
                traceback.print_exc()
                rc = -1
            times[stage] = time.perf_counter() - start
            logs[stage] = buf.getvalue()
            if stage == "fit-lqmm" and tracer:
                self.lqmm_ops += [i for i in range(index, len(tracer.spans)) if tracer.spans[i][0] == "cli.fit-lqmm"]
            if rc != 0:
                self.failures.add((k, stage), f"exit code {rc}")
                broken = True
        if not broken:
            self._check(k, stages, os.path.dirname(config), logs)
        shutil.rmtree(os.path.dirname(config))
        return times

    def _check(self, k: int, stages, base: str, logs: dict[str, str]) -> None:
        import numpy as np

        out = os.path.join(base, "out")
        f = self.failures
        files = {name: os.path.join(base, name) for name in ("survey.csv", "provinces.csv", "frame.csv")}
        files.update({name: os.path.join(out, name) for name in sorted(os.listdir(out))})

        with open(files["report.csv"], encoding="utf-8") as fh:
            report = fh.read().splitlines()
        rows = {line.split(",", 1)[0]: line.split(",") for line in report[1:]}
        f.check(len(report) == 111 and len(rows) == 110, (k, "report"), "report needs 110 province rows")
        f.check(rows.get("p110", ["", "", ""])[2] == "missing", (k, "report"), "p110 direct median must be missing")

        with open(files["scores.json"], encoding="utf-8") as fh:
            scaled = np.array([u["scaled"] for u in json.load(fh)["units"]])
        f.check(
            bool(np.all((scaled >= 0.0) & (scaled <= 1.0))) and scaled.min() == 0.0 and scaled.max() == 1.0,
            (k, "fit-ltm"),
            "scaled scores must lie in [0, 1] and reach both ends",
        )
        with open(files["ltm_model.json"], encoding="utf-8") as fh:
            f.check(json.load(fh)["converged"] is True, (k, "fit-ltm"), "EM did not converge")

        ebp = _read_csv(files["ebp_provinces.csv"])
        f.check(
            len(ebp) == 110 and all(math.isfinite(float(r["estimate"])) for r in ebp),
            (k, "fit-ebp"),
            "EBP estimates must be finite, one per province",
        )

        if "fit-lqmm" in stages:
            drops = re.findall(r"bootstrap_dropped=(\d+)/(\d+)", logs["fit-lqmm"])
            taus = self.settings["lqmm"]["taus"]
            f.check(
                len(drops) == len(taus) and all(int(d) <= 0.2 * int(b) for d, b in drops),
                (k, "fit-lqmm"),
                f"bootstrap drops {drops} exceed 20% (or a tau is missing)",
            )
            for name, path in files.items():
                if not name.startswith("lqmm_"):
                    continue
                for r in _read_csv(path):
                    point = float(r["estimate"] if "estimate" in r else r["point"])
                    lo, hi = float(r["ci_low"]), float(r["ci_high"])
                    ok = all(map(math.isfinite, (point, lo, hi))) and lo <= hi
                    if not name.startswith("lqmm_fit_"):
                        ok = ok and lo <= point <= hi
                    f.check(ok, (k, "fit-lqmm"), f"{name}: bad interval [{lo}, {hi}] for {point}")

        digests = {}
        for name, path in files.items():
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if self.reference is None:
            self.reference = digests
            return
        for name, digest in digests.items():
            f.check(digest == self.reference.get(name), (k, _producer(name)), f"{name} differs from pass 0")

    def run(self, seconds: float, tracer) -> None:
        start = time.perf_counter()
        self.refs = [reference_s()]
        while not self.passes or _more(start, seconds, len(self.passes)):
            self.passes.append(self.run_pass(len(self.passes), self.stages, tracer))
            self.refs.append(reference_s())
        self.timed_spans = len(tracer.spans) if tracer else 0
        if len(self.passes) < 2:
            # Rerun the stages that take seconds, not minutes, so that every
            # run checks byte-identical reruns.
            fast = [s for s in self.stages if s != "fit-lqmm"]
            self.check_pass = self.run_pass(len(self.passes), fast, tracer)

    def summary(self) -> dict:
        totals = [sum(p.values()) for p in self.passes]
        stage = {
            s: statistics.median(p.get(s, 0.0) for p in self.passes) for s in self.stages
        }
        light = statistics.median(sum(p.get(s, 0.0) for s in LIGHT_STAGES) for p in self.passes)
        return {
            "pass_s": fast_quartile(scaled(totals, self.refs)),
            "pass_wall_s": fast_quartile(totals),
            "median_pass_wall_s": statistics.median(totals),
            "reference_s": self.refs,
            "operations": len(self.passes),
            "operation": "pipeline pass",
            "stages_s": {
                **{f"{s.replace('-', '_')}_s": v for s, v in stage.items() if s not in LIGHT_STAGES},
                "light_stages_s": light,
            },
            "pass_stage_s": self.passes,
            "check_pass_stage_s": self.check_pass,
        }


def _read_csv(path: str) -> list[dict[str, str]]:
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Coverage study: criterion-10 replicates through the library
# ---------------------------------------------------------------------------


class CoverageStudy:
    """Replicates of acceptance criterion 10: n=160, J=20, tau 0.5."""

    J, N_J, GAMMA0, TAU, B = 20, 8, 0.5, 0.5, 200
    POOL = 512

    def __init__(self, seed: int):
        import numpy as np

        self.labels = [f"g{j:02d}" for j in range(self.J)]
        self.groups = [g for g in self.labels for _ in range(self.N_J)]
        self.inputs = []
        for k in range(self.POOL):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            u = np.repeat(rng.normal(0.0, 0.04, size=self.J), self.N_J)
            z = np.clip(self.GAMMA0 + u + rng.normal(0.0, 0.10, size=self.J * self.N_J), 0.0, 1.0)
            self.inputs.append((z, int(rng.integers(0, 2**31 - 1))))
        self.attempted = 0
        self.failures = Failures()
        self.times: list[float] = []
        self.lqmm_ops: list[int] = []

    def replicate(self, k: int, tracer) -> None:
        import numpy as np

        from latindex.quantile_mixed import GroupedData, bootstrap_fits, fit_lqmm

        z, boot_seed = self.inputs[k % self.POOL]

        def work():
            data = GroupedData(
                z=z, X=np.ones((z.size, 1)), group=self.groups,
                group_weights={g: 1.0 for g in self.labels},
            )
            fit = fit_lqmm(data, self.TAU, restarts=2, compute_modes=False)
            boot = bootstrap_fits(
                data, self.TAU, B=self.B, seed=boot_seed, base_fit=fit,
                group_effects=False, max_fev=400,
            )
            return fit, boot

        self.attempted += 1
        if tracer:
            self.lqmm_ops.append(len(tracer.spans))
        start = time.perf_counter()
        try:
            fit, boot = tracer.span("bench.replicate", work) if tracer else work()
        except Exception:  # one failed replicate must not end the run
            traceback.print_exc()
            self.failures.add((k,), "raised")
            return
        finally:
            self.times.append(time.perf_counter() - start)
        values = np.concatenate([fit.gamma, boot.ci_low, boot.ci_high, boot.std_error])
        self.failures.check(
            bool(np.all(np.isfinite(values))) and boot.ci_low[0] <= boot.ci_high[0] and boot.std_error[0] > 0,
            (k,),
            "non-finite estimate or empty interval",
        )
        self.failures.check(boot.n_dropped <= 0.2 * boot.B, (k,), f"{boot.n_dropped}/{boot.B} refits dropped")

    def run(self, seconds: float, tracer) -> None:
        start = time.perf_counter()
        self.refs = [reference_s()]
        while not self.times or _more(start, seconds, len(self.times)):
            self.replicate(len(self.times), tracer)
            self.refs.append(reference_s())
        self.timed_spans = len(tracer.spans) if tracer else 0

    def summary(self) -> dict:
        replicate = statistics.median(self.times)
        return {
            "pass_s": fast_quartile(scaled(self.times, self.refs)),
            "pass_wall_s": fast_quartile(self.times),
            "median_pass_wall_s": replicate,
            "reference_s": self.refs,
            "operations": len(self.times),
            "operation": "replicate",
            "stages_s": {"replicate_s": replicate},
            "replicate_s_all": self.times,
        }


def make_workload(name: str, seed: int, work: str):
    ebp_seed, lqmm_seed, sim_seed = _seeds(seed, 3)
    if name == "fixture":
        # The bundled fixture (default simulate seed) and default config,
        # except 50 bootstrap refits per tau instead of 200 (the smallest B
        # bootstrap_fits accepts), so that a run fits in the time budget.
        return Pipeline(
            work,
            stages=ALL_STAGES,
            simulate={},
            ebp={"seed": ebp_seed},
            lqmm={"seed": lqmm_seed, "taus": [0.25, 0.5, 0.75], "bootstrap_B": 50},
        )
    if name == "survey-large":
        return Pipeline(
            work,
            stages=[s for s in ALL_STAGES if s != "fit-lqmm"],
            simulate={"seed": sim_seed, "n_units": 13230},
            ebp={"seed": ebp_seed},
            lqmm={},
        )
    if name == "coverage-study":
        return CoverageStudy(seed)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("fixture", "coverage-study", "survey-large")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import latindex.cli  # the CLI imports every layer

    if not os.path.abspath(latindex.cli.__file__).startswith(SRC + os.sep):
        print(f"latindex imported from {latindex.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed, args.work)
    setup_wall_s = time.monotonic() - args.launched
    setup_s = setup_wall_s * REF_UNIT_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        workload.run(args.seconds, tracer)
    finally:
        if tracer and args.spans:
            tracer.dump(args.spans)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": workload.attempted,
        "failed": len(workload.failures.keys),
        "failures": workload.failures.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        **workload.summary(),
    }
    if tracer:
        from tracing import layer_metrics

        spans = tracer.spans[: workload.timed_spans]  # without the untimed check pass
        result["layers"] = layer_metrics(spans, result["operations"], workload.lqmm_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
