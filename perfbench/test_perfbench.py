"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_runs_every_workload_through_oracle_and_trace():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    *report_lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0
    reports = {r["workload"]: r for r in map(json.loads, report_lines)}
    assert set(reports) == {"conv-gl-fine", "conv-gbm-cli", "sweeps-gl"}
    for name, r in reports.items():
        assert r["problems"] == []
        assert r["counts"]["schemes.path_steps"] == r["path_steps_per_study"]
        trace = ROOT / ".bench_out" / f"{name}-seed42-M10-trace1.json"
        assert json.loads(trace.read_text())["spans"]
    assert reports["conv-gbm-cli"]["metrics"]["cli.output_bytes"] > 0
    assert "cli.self_s" in reports["sweeps-gl"]["absent"]
    assert reports["sweeps-gl"]["metrics"]["experiments.worker_busy_frac"] > 0


def test_oracle_rejects_a_changed_digit(tmp_path):
    w = workloads.workloads(1)["conv-gbm-cli"]
    out = w.study(workloads.SEED, workloads.M_SMOKE, tmp_path)
    assert w.verify(out, workloads.SEED, workloads.M_SMOKE) == []
    header, first, *rest = out["csv"].splitlines(keepends=True)
    fields = first.split(",")
    fields[6] = format(math.nextafter(float(fields[6]), math.inf), ".17g")
    changed = dict(out, csv=header + ",".join(fields) + "".join(rest))
    problems = w.verify(changed, workloads.SEED, workloads.M_SMOKE)
    assert len(problems) == 1 and "digest" in problems[0]
    # invariants still apply at any other seed
    assert w.verify(changed, workloads.SEED + 1, workloads.M_SMOKE) == []


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "conv-gbm-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
