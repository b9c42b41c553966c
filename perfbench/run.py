"""Run one biteuler benchmark workload and print its metrics.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload conv-gl-fine --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: it times
``setup_s`` in fresh interpreter processes, then runs whole studies back to
back, untraced, for ``--seconds``.  ``--trace 1`` alternates untraced and
traced studies for ``--seconds`` and reports the per-layer metrics, the
tracing overhead, and whether two traced studies counted exactly the same
work.  ``--smoke`` runs every workload in trace mode at a tiny path count.

Times are reported in reference seconds: wall seconds scaled by
REF_KERNEL_S over the median time of a fixed calibration kernel that runs
after every study of the same run.  The kernel is numpy code in this file,
so a change to biteuler cannot move it.  It tracks how fast the machine ran
during the run, which on a shared host drifts by tens of percent from one
minute to the next.  The raw wall times are in the report.

Every study's output goes through the oracle in workloads.py.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
line before it is the full report (environment, samples, absent metrics),
which is also written with the trace spans to ``.bench_out/``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One thread per BLAS pool, set before numpy is loaded: the workloads choose
# their own thread counts, and a BLAS pool would add threads they did not ask
# for.  BITEULER_* variables would reconfigure the CLI workload.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("BITEULER_")]:
    del os.environ[_var]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7        # fresh processes timed for setup_s; the median is reported
MIN_STUDIES = 3          # even a short run makes this many, for a median
MIN_TRACED = 2           # two traced studies, so their counts can be compared
REF_KERNEL_S = 0.040     # calibration kernel time that makes one reference second
CALIBRATION_SHARE = 0.1  # kernel time after each study, as a share of the study
# power of the wall-to-reference scale that converts a metric of this unit
_TIME_POWER = {"s": 1, "ns": 1, "1/s": -1}

_SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import biteuler; "
                "from biteuler.models import catalog; catalog(); "
                "print('ready', flush=True)")


def calibration_kernel(steps: int = 1500, paths: int = 100) -> float:
    """Seconds of a fixed Euler-type loop over small arrays, written here
    and not in biteuler so that no change to the package can move it:
    per-path Philox streams, then a tamed, gated cubic-drift recursion."""
    import numpy as np
    t0 = perf_counter()
    h = 1.0 / steps
    dw = np.empty((paths, steps, 1))
    for j in range(paths):
        dw[j] = np.random.Generator(np.random.Philox(key=j)).standard_normal((steps, 1))
    dw *= math.sqrt(h)
    sigma = np.ones((paths, 1, 1))
    y = np.ones((paths, 1))
    states = np.empty((paths, steps + 1, 1))
    states[:, 0] = y
    for k in range(steps):
        x = dw[:, k]
        x2 = x * x
        nrm = np.sqrt(np.einsum("...d,...d->...", y, y))
        upd = (y - y * y * y) * h + np.einsum("...dm,...m->...d", sigma,
                                               x * np.exp(-x2 * x2 / h))
        y = np.where((nrm > 1e6)[:, None], y, y + upd)
        states[:, k + 1] = y
    return perf_counter() - t0


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import biteuler``
    and ``catalog()`` are done, once per sample."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                              cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process failed ({child.returncode})")
    return times


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": math.floor(100 * (n - 10) / n),
            "value": sorted(samples)[n - 11], "samples": n}


def environment(nproc: int) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit,
            "blas_threads": {v: os.environ[v] for v in _BLAS_THREAD_VARS}}


class Runner:
    """Runs, times and checks the studies of one workload."""

    def __init__(self, workload, seed: int, M: int):
        self.w = workload
        self.seed = seed
        self.M = M
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []  # every attempt, for pacing
        self.kernel_s: list[float] = []   # calibration kernel samples
        self.problems: list[str] = []

    def calibrate(self, budget: float) -> None:
        """Run the calibration kernel for about ``budget`` seconds."""
        end = perf_counter() + budget
        self.kernel_s.append(calibration_kernel())
        while perf_counter() < end:
            self.kernel_s.append(calibration_kernel())

    def scale(self) -> float:
        """Reference seconds per wall second in this run."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)

    def _check(self, output) -> bool:
        problems = self.w.verify(output, self.seed, self.M)
        for p in problems:
            print(f"check failed: {self.w.name}: {p}", file=sys.stderr)
        self.problems += problems
        return not problems

    def _attempt(self, call) -> float | None:
        """Seconds of one checked study, or None if it raised or failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            output = call()
        except Exception:
            traceback.print_exc()
            output = None
        seconds = perf_counter() - t0
        self.calibrate(CALIBRATION_SHARE * seconds)
        self.durations.append(perf_counter() - t0)
        if output is None or not self._check(output):
            self.failed += 1
            return None
        return seconds

    def untraced(self) -> float | None:
        return self._attempt(lambda: self.w.study(self.seed, self.M, OUT))

    def traced(self, tracing):
        """(tracer, root span) of one checked traced study, or None."""
        tracer = tracing.Tracer()

        def call():
            with tracing.instrument(tracer), tracer.span("study"):
                return self.w.study(self.seed, self.M, OUT)
        return None if self._attempt(call) is None else (tracer, tracer.spans[0])

    def time_left(self, start: float, seconds: float, per_study: int = 1) -> bool:
        """Whether another round of ``per_study`` studies fits in the run."""
        expected = per_study * statistics.median(self.durations)
        return perf_counter() - start + expected <= seconds


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(SETUP_SAMPLES)
    times = []
    start = perf_counter()
    while runner.attempted < MIN_STUDIES or runner.time_left(start, seconds):
        t = runner.untraced()
        if t is not None:
            times.append(t)
        if runner.attempted >= MIN_STUDIES and not times:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    if times:
        study_s = statistics.median(times)
        metrics = {"study_s": study_s,
                   "path_steps_per_s": runner.w.path_steps(runner.M) / study_s,
                   "peak_rss_mb": rss_mb,
                   "setup_s": statistics.median(setup)}
    detail = {"wall_study_s_samples": times,
              "wall_study_s_tail": tail_percentile(times),
              "wall_setup_s_samples": setup,
              "failed_frac": runner.failed / runner.attempted}
    return metrics, detail


def run_traced(runner: Runner, seconds: float, tracing) -> tuple[dict, dict]:
    plain, traced = [], []
    start = perf_counter()
    while (len(traced) < MIN_TRACED or not plain
           or runner.time_left(start, seconds, per_study=2)):
        t = runner.untraced()
        if t is not None:
            plain.append(t)
        result = runner.traced(tracing)
        if result is not None:
            traced.append(result)
        if runner.attempted >= 2 * MIN_TRACED and (not plain or not traced):
            break
    if not plain or not traced:
        return {}, {"failed_frac": runner.failed / runner.attempted}

    per_study = [tracing.layer_metrics(tracer, root) for tracer, root in traced]
    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in per_study]
    expected_steps = runner.w.path_steps(runner.M)
    if any(c != counts[0] for c in counts):
        runner.problems.append(f"traced studies counted different work: {counts}")
    if counts[0]["schemes.path_steps"] != expected_steps:
        runner.problems.append(
            f"traced path-steps {counts[0]['schemes.path_steps']} != "
            f"{expected_steps} from the workload shape")

    metrics = {}
    for name in per_study[0]:
        values = [m[name] for m in per_study]
        metrics[name] = (values[0] if values[0] is None or name in counts[0]
                         else statistics.median(values))
    overhead = statistics.median(m["trace.study_s"] for m in per_study) \
        / statistics.median(plain) - 1
    metrics["trace.overhead_frac"] = overhead
    # the spans must account for the traced study: what no span covers may
    # not exceed the tracing overhead (plus 1% for the benchmark's own loop)
    uncovered = max(m["trace.uncovered_frac"] for m in per_study)
    if uncovered > max(overhead, 0.0) + 0.01:
        runner.problems.append(f"spans leave {uncovered:.1%} of the traced "
                               f"study uncovered (overhead {overhead:.1%})")
    t0 = traced[0][1].start
    detail = {"failed_frac": runner.failed / runner.attempted,
              "wall_untraced_study_s_samples": plain,
              "wall_traced_study_s_samples": [m["trace.study_s"] for m in per_study],
              "counts": counts[0],
              "spans": [[s.as_dict(t0) for s in tracer.spans]
                        for tracer, _ in traced],
              "pools": [[(w, a - t0, b - t0) for w, a, b in tracer.pools]
                        for tracer, _ in traced]}
    return metrics, detail


def run_workload(w, seed: int, M: int, seconds: float, trace: bool,
                 declared: list[dict], env: dict) -> dict:
    runner = Runner(w, seed, M)
    if trace:
        import tracing
        measured, detail = run_traced(runner, seconds, tracing)
    else:
        measured, detail = run_untraced(runner, seconds)
    absent = sorted(n for n, v in measured.items() if v is None)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing and not runner.failed:
        runner.problems.append(f"metrics not measured: {missing}")
    correct = runner.failed == 0 and not runner.problems
    scale = runner.scale()
    units = {m["name"]: m["unit"] for m in declared}
    reported = {name: v * scale ** _TIME_POWER[units[name]]
                if v is not None and units[name] in _TIME_POWER else v
                for name, v in measured.items()}
    # a metric whose layer the workload never enters is listed in "absent"
    # and carried as 0 in the result line, which holds numbers only
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m["name"]: {"value": 0.0 if reported[m["name"]] is None
                                      else reported[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared if m["name"] in measured}}
    report = {"workload": w.name, "seed": seed, "M": M,
              "block_size": w.block_sizes(M), "threads": w.threads,
              "path_steps_per_study": w.path_steps(M), "trace": trace,
              "seconds": seconds, "environment": env, "absent": absent,
              "problems": runner.problems, "metrics": reported,
              "wall_metrics": measured, "reference_s_per_wall_s": scale,
              "kernel_s_samples": runner.kernel_s, **detail}
    name = f"{w.name}-seed{seed}-M{M}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    report.pop("spans", None)
    report.pop("pools", None)
    return {"report": report, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, traced, at a tiny path count")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "biteuler" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no biteuler source tree (src/biteuler) "
              f"or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import workloads

    nproc = len(os.sched_getaffinity(0))
    catalog = workloads.workloads(nproc)
    env = environment(nproc)
    if args.smoke:
        runs = [run_workload(w, workloads.SEED, workloads.M_SMOKE, 0, True,
                             spec["per_layer"], env) for w in catalog.values()]
        for r in runs:
            print(json.dumps(r["report"]))
        ok = all(r["result"]["correct"] for r in runs)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["result"]["attempted"] for r in runs),
                          "failed": sum(r["result"]["failed"] for r in runs),
                          "metrics": {}}))
        return 0 if ok else 1

    if args.workload not in catalog:
        parser.error(f"--workload must be one of {sorted(catalog)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = run_workload(catalog[args.workload], args.seed, workloads.M_BENCH,
                       args.seconds, bool(args.trace), declared, env)
    print(json.dumps(run["report"]))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
