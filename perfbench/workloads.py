"""The benchmark's three workloads: how one study calls biteuler, how many
scheme path-steps it performs, and how its output is checked.

Each workload is shaped like an acceptance criterion of the README, at a
reduced path count M that is fixed here.  The library's block size follows
from M: the experiments engine splits M paths into 10 batches of at most
1000 (B = 100 at M = 1000), the diagnostics functions step blocks of
min(M, 1000).  Changing M changes the layer mix, so it is a benchmark
change, never a tuning knob.

The output oracle:

- at SEED (the acceptance seed) the canonical dump of a study's numeric
  output must hash to the digest pinned below: byte-identical CSV and
  sidecar for the CLI workload, a 17-significant-digit dump of the library
  reports for the others;
- at any seed the invariants of ``check`` must hold.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biteuler import cli, diagnostics, experiments, models
from biteuler.core import GridSpec
from biteuler.schemes import SchemeKind

SEED = 42
M_BENCH = 1000
M_SMOKE = 10

NS = tuple(2**k for k in range(4, 11))           # strong-rate and moment sweeps
N_REF = 2**13                                    # fine reference of conv-gl-fine
STOP_NS = tuple(2**k for k in range(4, 13))      # stopping sweep
DIV_NS = tuple(2**k for k in range(2, 11))       # divergence sweep
DIV_X0 = 5.0


def canonical(obj) -> str:
    """JSON dump with every float at 17 significant digits (exact round
    trip), dataclasses as field dicts and arrays as nested lists."""
    def enc(o):
        if isinstance(o, (bool, np.bool_)):
            return bool(o)
        if isinstance(o, (float, np.floating)):
            return format(float(o), ".17g")
        if isinstance(o, (int, np.integer)):
            return int(o)
        if isinstance(o, np.ndarray):
            return [enc(v) for v in o]
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return {f.name: enc(getattr(o, f.name))
                    for f in dataclasses.fields(o)}
        if isinstance(o, (list, tuple)):
            return [enc(v) for v in o]
        if isinstance(o, dict):
            return {str(k): enc(v) for k, v in o.items()}
        if isinstance(o, enum.Enum):
            return o.value
        return o
    return json.dumps(enc(obj), sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite_pos(x) -> bool:
    return math.isfinite(x) and x > 0


def _finite_nonneg(x) -> bool:
    return math.isfinite(x) and x >= 0


def _prob(x) -> bool:
    return 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# conv-gl-fine: acceptance criterion 2


def _gl_fine_study(seed: int, M: int, out_dir: Path):
    config = experiments.ConvergenceConfig(
        model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT, Ns=NS, M=M,
        seed=seed, reference="fine", N_ref=N_REF, threads=1)
    return experiments.strong_error(config)


def _gl_fine_check(table) -> list[str]:
    problems = []
    if tuple(r.N for r in table.rows) != NS:
        problems.append("rows do not cover Ns")
    for r in table.rows:
        if not (_finite_pos(r.sup_error) and _finite_nonneg(r.std_error)):
            problems.append(f"N={r.N}: error {r.sup_error}, stderr {r.std_error}")
        if not np.isfinite(r.per_gridpoint_errors).all():
            problems.append(f"N={r.N}: non-finite per-gridpoint error")
        if r.overflow_fraction != 0.0:
            problems.append(f"N={r.N}: bit overflowed ({r.overflow_fraction})")
    return problems


# ---------------------------------------------------------------------------
# conv-gbm-cli: acceptance criterion 1, through the command line


def _gbm_cli_study(seed: int, M: int, out_dir: Path):
    out = out_dir / "conv-gbm-cli.csv"
    argv = ["convergence", "--model", "gbm", "--scheme", "bit",
            "--Ns", ",".join(map(str, NS)), "--M", str(M), "--seed", str(seed),
            "--reference", "exact", "--format", "csv", "--threads", "1",
            "--output", str(out)]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"biteuler convergence exited with {code}")
    sidecar = Path(str(out) + ".ratefit.json")
    return {"csv": out.read_text(), "ratefit": sidecar.read_text()}


def _gbm_cli_check(out: dict) -> list[str]:
    lines = out["csv"].splitlines()
    problems = []
    if lines[0] != cli.CSV_HEADER:
        problems.append(f"CSV header {lines[0]!r}")
    rows = [dict(zip(cli.CSV_HEADER.split(","), ln.split(","))) for ln in lines[1:]]
    if tuple(int(r["N"]) for r in rows) != NS:
        problems.append("CSV rows do not cover Ns")
    for r in rows:
        if not (_finite_pos(float(r["sup_error"]))
                and _finite_nonneg(float(r["std_error"]))):
            problems.append(f"N={r['N']}: error {r['sup_error']}, "
                            f"stderr {r['std_error']}")
        if float(r["overflow_fraction"]) != 0.0:
            problems.append(f"N={r['N']}: bit overflowed")
    fit = json.loads(out["ratefit"])
    if sorted(fit) != ["intercept", "residual", "slope"] \
            or not all(math.isfinite(v) for v in fit.values()):
        problems.append(f"rate-fit sidecar {fit}")
    return problems


# ---------------------------------------------------------------------------
# sweeps-gl: acceptance criteria 5, 6 and 7, one after the other


def _sweeps_study(seed: int, M: int, out_dir: Path, threads: int):
    gl = models.catalog()["ginzburg-landau"].model
    moments = experiments.moment_sweep(gl, gl.lyapunov, NS, M, seed=seed,
                                       x0=[1.0], threads=threads)
    stopping = [diagnostics.stopping_probability(gl, GridSpec(1.0, n), M,
                                                 seed=seed, x0=[1.0])
                for n in STOP_NS]
    divergence = experiments.divergence_comparison(
        gl, DIV_NS, M, [DIV_X0], seed=seed, threads=threads)
    return {"moments": moments, "stopping": stopping, "divergence": divergence}


def _sweeps_check(out) -> list[str]:
    problems = []
    for r in out["moments"].rows:
        if not (_finite_pos(r.eu_estimate) and _finite_nonneg(r.eu_stderr)
                and _finite_pos(r.exp_estimate) and _finite_nonneg(r.exp_stderr)
                and _prob(r.exp_saturated_fraction)):
            problems.append(f"moment row N={r.N}: {r}")
    for r in out["stopping"]:
        if not (_prob(r.estimate) and _finite_nonneg(r.stderr)):
            problems.append(f"stopping N={r.N}: {r.estimate} +- {r.stderr}")
    rows = out["divergence"].rows
    for r in rows:
        if not (_prob(r.overflow_fraction) and _prob(r.explode_fraction)):
            problems.append(f"divergence {r.scheme} N={r.N}: fractions "
                            f"{r.overflow_fraction}, {r.explode_fraction}")
        if r.scheme == "bit" and (r.overflow_fraction or r.explode_fraction):
            problems.append(f"bit overflowed or exploded at N={r.N}")
    if not any(r.explode_fraction > 0 for r in rows if r.scheme == "em"):
        problems.append("EM never exploded in the divergence sweep")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    study: Callable            # (seed, M, out_dir) -> output
    check: Callable            # output -> list of problems
    steps_per_path: int        # scheme path-steps per path of one study
    digests: dict              # M -> sha256 of canonical output at SEED
    diagnostics: bool = False  # steps blocks through the diagnostics functions

    def path_steps(self, M: int) -> int:
        """Sum of B * N over every run_paths call of one study."""
        return M * self.steps_per_path

    def block_sizes(self, M: int) -> dict:
        """Effective B per library entry point at this M."""
        engine = min(math.ceil(M / 10), 1000)
        if self.diagnostics:
            return {"experiments": engine, "diagnostics": min(M, 1000)}
        return {"experiments": engine}

    def verify(self, output, seed: int, M: int) -> list[str]:
        """Problems with one study's output: the pinned digest at SEED,
        the invariants at any seed."""
        problems = self.check(output)
        text = canonical(output)
        if seed == SEED and M in self.digests and digest(text) != self.digests[M]:
            problems.append(f"output digest {digest(text)} differs from the "
                            f"pinned {self.digests[M]}")
        return problems


def workloads(nproc: int) -> dict[str, Workload]:
    threads = min(2, nproc)
    ws = [
        Workload(
            name="conv-gl-fine",
            threads=1,
            study=_gl_fine_study, check=_gl_fine_check,
            steps_per_path=N_REF + sum(NS),
            digests={M_SMOKE: "fd89d94bf2d75fa21b27fc8d64bcea14c05560c04e22541a4a893e399e16ffe9",
                     M_BENCH: "d1535cdb8c809b8397150abec7f5b5e9a1188a526ceda0bfce46467a05527020"}),
        Workload(
            name="conv-gbm-cli",
            threads=1,
            study=_gbm_cli_study, check=_gbm_cli_check,
            steps_per_path=sum(NS),
            digests={M_SMOKE: "747d677829be8b570f65c97b2792866fd156843c12f7c86f63bcd8d438d469e3",
                     M_BENCH: "bf3259b4b005e5cd79f9a102ef2e0d9d814aeaffd67d7f517c99b2527f9b1a8d"}),
        Workload(
            name="sweeps-gl",
            threads=threads,
            study=lambda seed, M, out_dir: _sweeps_study(seed, M, out_dir,
                                                         threads),
            check=_sweeps_check,
            # moment pass + exponential-moment pass, stopping, EM + bit
            steps_per_path=2 * sum(NS) + sum(STOP_NS) + 2 * sum(DIV_NS),
            digests={M_SMOKE: "bb4e57476e258dd70dddd8d49b43bf8da56e11da9fff4e9f9b0890fa25d8cc83",
                     M_BENCH: "9fd5f7019a4d115f7319ddd1e6725f7ad709d1a1b695b5f3767e1f3db3a43786"},
            diagnostics=True),
    ]
    return {w.name: w for w in ws}
