import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from biteuler.brownian import generate_block
from biteuler import diagnostics, experiments
from biteuler.core import ErrorRow, ErrorTable, GridSpec
from biteuler.experiments import (ConvergenceConfig, divergence_comparison,
                                  fit_rate, moment_sweep, strong_error)
from biteuler.models import catalog, model_gbm, model_ginzburg_landau
from biteuler.schemes import OVERFLOW_CAP, SchemeKind, run_paths


def test_config_validation():
    with pytest.raises(ValueError):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(),
                          M=10, seed=0)
    with pytest.raises(ValueError):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT,
                          Ns=(16, 32), M=10, seed=0, reference="fine",
                          N_ref=64)  # < 8*max(Ns)
    with pytest.raises(ValueError):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT,
                          Ns=(16, 24), M=10, seed=0, reference="fine",
                          N_ref=256)  # 24 does not divide 256
    with pytest.raises(ValueError, match="M must be >= 10"):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT,
                          Ns=(16, 32), M=9, seed=0)  # an empty stderr batch


@pytest.mark.parametrize("field,value,message", [
    ("seed", 2**64, "seed must be in"),   # used to alias seed 0
    ("seed", -1, "seed must be in"),
    ("r", math.nan, "r must be > 0"),      # used to fail only at the rate fit
    ("r", math.inf, "r must be > 0 and finite, got inf"),  # slope 0 at error 1
    ("Ns", (0, 8), "every N in Ns must be >= 1, got 0"),
    ("Ns", (4, 8, 4), "Ns must not repeat an N, got (4, 8, 4)"),
    ("T", -1.0, "T must be > 0"),
    # an exact reference used to run against the closed form, ignoring it
    ("N_ref", 4096, "N_ref must be 0 with an exact reference, got 4096"),
    # "auto" is the CLI's choice between the two, resolved before the config
    ("reference", "auto", "reference must be 'exact' or 'fine'")])
def test_config_rejects_out_of_range_settings(field, value, message):
    args = dict(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8), M=10,
                seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ConvergenceConfig(**{**args, field: value})


_SWEEPS = {
    "divergence_comparison": lambda Ns, T: divergence_comparison(
        _GL, Ns, 10, [5.0], seed=0, T=T),
    "moment_sweep": lambda Ns, T: moment_sweep(
        _GL, _GL.lyapunov, Ns, 10, seed=0, x0=[1.0], T=T),
}


@pytest.mark.parametrize("Ns,T,message", [
    ((4, 8), -1.0, "T must be > 0, got -1.0"),
    ((4, 8), 0.0, "T must be > 0, got 0.0"),
    ((4, 8), math.nan, "T must be > 0, got nan"),
    ((), 1.0, "Ns must be nonempty"),
    ((4, 0), 1.0, "every N in Ns must be >= 1, got 0"),
    # moment_sweep used to report a repeated N twice, divergence once
    ((16, 16), 1.0, "Ns must not repeat an N, got (16, 16)")])
@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_sweeps_reject_bad_grids_before_stepping(monkeypatch, name, Ns, T,
                                                 message):
    # T < 0 used to end in a TypeError from the growth fit, empty Ns in
    # max() of an empty sequence or an empty report, and N = 0 in an
    # N_fine message
    def no_paths(*args):
        raise AssertionError("a path was drawn or stepped")
    for module, binding in ((experiments, "generate_block"),
                            (experiments, "run_paths"),
                            (diagnostics, "BlockStream"),
                            (diagnostics, "run_paths")):
        monkeypatch.setattr(module, binding, no_paths)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SWEEPS[name](Ns, T)


_COUNTS = {
    "GridSpec": lambda N, M: GridSpec(1.0, N),
    "stopping_probability": lambda N, M: diagnostics.stopping_probability(
        _GL, GridSpec(1.0, N), M, seed=0, x0=[20.0]),
    "strong_error": lambda N, M: strong_error(ConvergenceConfig(
        model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=(4, N), M=M, seed=0)),
    "divergence_comparison": lambda N, M: divergence_comparison(
        _GL, (N, 8), M, [5.0], seed=0),
    "moment_sweep": lambda N, M: moment_sweep(
        _GL, _GL.lyapunov, (N, 8), M, seed=0, x0=[1.0]),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_entry_points_take_integer_counts(name):
    # stopping_probability and strong_error used to divide their sums by
    # M = 10.5, GridSpec(1.0, 2.5) failed only once stepped, and Ns = (4.0, 8)
    # ended in a TypeError from a slice
    run = _COUNTS[name]
    if name != "GridSpec":
        with pytest.raises(ValueError, match=r"^M must be an integer, got 10\.5$"):
            run(16, 10.5)
    n = "N" if name in ("GridSpec", "stopping_probability") else "every N in Ns"
    with pytest.raises(ValueError, match=f"^{n} must be an integer, got 4\\.0$"):
        run(4.0, 10)
    run(np.int64(16), np.int64(10))  # numpy integers are integers


@pytest.mark.parametrize("Ns", [(3, 4), (4, 6)])
def test_exact_reference_needs_ns_dividing_the_largest(Ns):
    # the exact reference runs on the largest N's grid; these used to end
    # in "min() arg is an empty sequence" from the coarsening levels
    with pytest.raises(ValueError, match=re.escape(
            f"the largest N must be a multiple of every N, got Ns = {Ns}")):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=Ns,
                          M=10, seed=0)


def test_reference_exact_requires_closed_form():
    config = ConvergenceConfig(model="ginzburg-landau",
                               scheme=SchemeKind.STOPPED_BIT,
                               Ns=(8, 16), M=10, seed=0, reference="exact")
    with pytest.raises(ValueError):
        strong_error(config)


def test_same_scheme_at_reference_resolution_gives_zero_error():
    config = ConvergenceConfig(model="ginzburg-landau",
                               scheme=SchemeKind.STOPPED_BIT,
                               Ns=(16, 128), M=50, seed=4, reference="fine",
                               N_ref=128 * 8)
    # append the reference resolution itself: identical computation
    config2 = ConvergenceConfig(model="ginzburg-landau",
                                scheme=SchemeKind.STOPPED_BIT,
                                Ns=(128 * 8,), M=50, seed=4, reference="fine",
                                N_ref=128 * 8)
    table = strong_error(config2)
    assert table.rows[0].sup_error == 0.0
    table = strong_error(config)
    assert all(r.sup_error > 0 for r in table.rows)


def test_gbm_euler_errors_decrease_classically():
    config = ConvergenceConfig(model="gbm", scheme=SchemeKind.EULER_MARUYAMA,
                               Ns=(16, 32, 64, 128, 256, 512, 1024), M=4000,
                               seed=7, reference="exact")
    table = strong_error(config)
    errs = [r.sup_error for r in table.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    fit = fit_rate(table)
    assert 0.4 < fit.slope < 0.6  # classical strong rate 1/2


def _gbm_exact_errors(a: float, b: float, T: float, N: int) -> list:
    """The L2 error at every node k of N's grid of the stopped tamed scheme
    on GBM from x0 = 1, as long as no path stops.  The solution and the
    scheme are products of i.i.d. one-step factors driven by the same
    increment dW ~ N(0, h): G = exp((a - b^2/2) h + b dW) and
    F = 1 + a h + b dW exp(-dW^4/h), so E|X_k - Y_k|^2 =
    E[G^2]^k - 2 E[GF]^k + E[F^2]^k, each mean a Gaussian integral."""
    with mpmath.workdps(30):
        a, b, h = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(T) / N

        def mean(f):  # E f(sqrt(h) Z), Z ~ N(0, 1)
            return mpmath.quad(
                lambda z: f(mpmath.sqrt(h) * z) * mpmath.exp(-z * z / 2),
                [-mpmath.inf, 0, mpmath.inf]) / mpmath.sqrt(2 * mpmath.pi)

        def F(w):
            return 1 + a * h + b * w * mpmath.exp(-w**4 / h)

        g2 = mpmath.exp((2 * a + b * b) * h)
        gf = mean(lambda w: mpmath.exp((a - b * b / 2) * h + b * w) * F(w))
        f2 = mean(lambda w: F(w) ** 2)
        return [float(mpmath.sqrt(g2**k - 2 * gf**k + f2**k))
                for k in range(N + 1)]


def test_strong_error_on_gbm_lies_within_its_stderr_of_the_exact_errors():
    # criterion 1's study (the catalog's GBM, a = 0.05 and b = 0.2, x0 = 1,
    # the exact reference) against the errors it estimates, in closed form
    Ns, M, seed = (16, 64, 256), 4000, 42
    table = strong_error(ConvergenceConfig(
        model="gbm", scheme=SchemeKind.STOPPED_BIT, Ns=Ns, M=M, seed=seed))
    # the product form holds only while the stopping gate stays shut
    runs = tuple((SchemeKind.STOPPED_BIT, N) for N in Ns)
    paths = diagnostics._Paths(catalog()["gbm"].model, np.ones(1), 1.0, seed,
                               runs, max(Ns))
    for key, (_, tau, overflow) in diagnostics._finals(paths, M).items():
        assert (tau == key[1]).all() and not overflow.any()
    for row in table.rows:
        exact = max(_gbm_exact_errors(0.05, 0.2, 1.0, row.N))
        assert abs(row.sup_error - exact) < 4.0 * row.std_error, (row.N, exact)


def test_gbm_from_zero_has_zero_error_when_the_exponential_overflows():
    # every state of the run is the solution, 0; the closed form's
    # 0 * exp(...) was 0 * inf = NaN, which the error sums capped at 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        table = strong_error(ConvergenceConfig(
            model="gbm", scheme=SchemeKind.EULER_MARUYAMA, Ns=(4, 8), M=10,
            seed=0, x0=(0.0,), T=1e5))
    assert [r.sup_error for r in table.rows] == [0.0, 0.0]


def test_gl_self_coupled_errors_finite_no_overflow():
    config = ConvergenceConfig(model="ginzburg-landau",
                               scheme=SchemeKind.STOPPED_BIT,
                               Ns=(16, 64, 256), M=500, seed=5,
                               reference="fine", N_ref=2048)
    table = strong_error(config)
    for row in table.rows:
        assert math.isfinite(row.sup_error)
        assert row.overflow_fraction == 0.0
        assert row.per_gridpoint_errors is not None
        assert row.per_gridpoint_errors[0] == 0.0  # shared start state
        assert row.sup_error == pytest.approx(row.per_gridpoint_errors.max())


def test_strong_error_saturates_a_nan_distance_at_the_cap(monkeypatch):
    # fmin drops the NaN operand: a reference that is NaN at a node counts
    # as the capped distance there, as an infinite one does, instead of
    # making the whole column NaN
    entry = catalog()["gbm"]

    def exact(x0, t, w):
        out = entry.model.exact_solution(x0, t, w)
        out[0, -1] = math.nan  # path 0 at the last node
        return out

    model = dataclasses.replace(entry.model, exact_solution=exact)
    monkeypatch.setattr(experiments, "catalog", lambda: {
        "gbm": dataclasses.replace(entry, model=model)})
    table = strong_error(ConvergenceConfig(
        model="gbm", scheme=SchemeKind.EULER_MARUYAMA, Ns=(4, 8), M=10,
        seed=0))
    for row in table.rows:
        assert np.isfinite(row.per_gridpoint_errors).all()
        assert row.sup_error == pytest.approx(math.sqrt(OVERFLOW_CAP / 10),
                                              rel=1e-15)
        assert row.per_gridpoint_errors[:-1].max() < 1.0


def test_fit_rate_exact_half_power():
    rows = tuple(ErrorRow(N=n, M=1, sup_error=(1.0 / n) ** 0.5, std_error=0.0,
                          seed=0) for n in (16, 32, 64, 128))
    fit = fit_rate(ErrorTable(scheme="bit", model="gbm", r=2.0, rows=rows))
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-20)


def test_fit_rate_constant_errors():
    rows = tuple(ErrorRow(N=n, M=1, sup_error=0.3, std_error=0.0, seed=0)
                 for n in (16, 32, 64))
    fit = fit_rate(ErrorTable(scheme="bit", model="gbm", r=2.0, rows=rows))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_log_linear_example():
    # three decades, errors falling one half-decade per decade
    rows = tuple(ErrorRow(N=n, M=1, sup_error=e, std_error=0.0, seed=0)
                 for n, e in ((100, 1e-2), (1000, 3.1623e-3), (10000, 1e-3)))
    fit = fit_rate(ErrorTable(scheme="bit", model="gbm", r=2.0, rows=rows))
    assert fit.slope == pytest.approx(0.5, abs=1e-6)


def test_fit_rate_excludes_zero_rows_with_warning():
    rows = tuple(ErrorRow(N=n, M=1, sup_error=e, std_error=0.0, seed=0)
                 for n, e in ((8, 0.0), (16, 0.25), (32, 0.177), (64, 0.125)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_rate(ErrorTable(scheme="bit", model="gbm", r=2.0, rows=rows))
    assert any("excluding" in str(w.message) for w in caught)
    assert len(fit.points) == 3


def test_fit_rate_needs_three_rows():
    rows = tuple(ErrorRow(N=n, M=1, sup_error=0.1, std_error=0.0, seed=0)
                 for n in (8, 16))
    with pytest.raises(ValueError):
        fit_rate(ErrorTable(scheme="bit", model="gbm", r=2.0, rows=rows))


def test_divergence_contrast_on_superlinear_model():
    gl = model_ginzburg_landau()
    report = divergence_comparison(gl, (4, 8, 16), 400, [5.0], seed=3)
    em_explode = [report.row(SchemeKind.EULER_MARUYAMA, n).explode_fraction
                  for n in (4, 8, 16)]
    assert max(em_explode) > 0
    for n in (4, 8, 16):
        row = report.row(SchemeKind.STOPPED_BIT, n)
        assert row.overflow_fraction == 0.0
        assert row.explode_fraction == 0.0
        assert row.second_moment_capped < 1e3


def test_divergence_control_row_stable_ode():
    # sigma = 0, x0 in the basin of attraction: Euler is stable too
    gl = dataclasses.replace(
        model_ginzburg_landau(),
        diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)))
    report = divergence_comparison(gl, (16, 64), 50, [0.5], seed=1)
    for n in (16, 64):
        assert report.row(SchemeKind.EULER_MARUYAMA, n).explode_fraction == 0.0


def test_divergence_with_fewer_paths_than_batches():
    # three paths leave seven of the ten batch-means batches empty; the
    # report is that of the three paths stepped directly
    gl = model_ginzburg_landau()
    report = divergence_comparison(gl, (8,), 3, [5.0], seed=4)
    dw = generate_block(1.0, 8, 1, seed=4, first_path=0, count=3)
    for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT):
        runs = run_paths(kind, gl, GridSpec(1.0, 8), [5.0], dw)
        row = report.row(kind, 8)
        assert row.overflow_fraction == runs.overflow.sum() / 3
        m2 = np.where(runs.overflow, 1e300, runs.states[:, -1, 0] ** 2)
        assert row.second_moment_capped == m2.sum() / 3


@pytest.mark.parametrize("x0,exploded", [
    (1e10, False), (-1e10, False),
    (math.nextafter(1e10, math.inf), True),
    (-math.nextafter(1e10, math.inf), True), (-1e11, True)])
def test_divergence_explodes_past_magnitude_1e10_of_either_sign(x0, exploded):
    # the stopped scheme holds a start beyond its threshold, so every
    # state of the path is x0: exploded means |x0| > 1e10, not >= and not
    # x0 > 1e10, and no path overflows
    report = divergence_comparison(model_gbm(0.05, 0.2), (4, 8), 10, [x0],
                                   seed=0)
    for N in (4, 8):
        row = report.row(SchemeKind.STOPPED_BIT, N)
        assert row.overflow_fraction == 0.0
        assert row.explode_fraction == float(exploded)


def test_divergence_row_names_a_row_it_does_not_hold():
    gl = model_ginzburg_landau()
    report = divergence_comparison(gl, (4, 8), 10, [5.0], seed=0)
    for kind in SchemeKind:
        row = report.row(kind, 8)
        assert (row.scheme, row.N) == (kind.value, 8)
        with pytest.raises(KeyError) as err:
            report.row(kind, 16)
        assert err.value.args == ((kind, 16),)


def test_divergence_sums_each_batch_on_its_own():
    # 2500 paths: blocks of four, four and two 250-path batches; each
    # batch's capped second moments are summed alone, then batch by batch
    gl = model_ginzburg_landau()
    report = divergence_comparison(gl, (4, 8), 2500, [5.0], seed=6)
    for N in (4, 8):
        dw = generate_block(1.0, N, 1, seed=6, first_path=0, count=2500)
        for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT):
            runs = run_paths(kind, gl, GridSpec(1.0, N), [5.0], dw)
            m2 = np.where(runs.overflow, 1e300, runs.states[:, -1, 0] ** 2)
            total = 0.0
            for b in range(10):
                total += float(m2[250 * b:250 * (b + 1)].sum())
            assert report.row(kind, N).second_moment_capped == total / 2500


def test_moment_sweep_trivial_u():
    import biteuler.core as core

    gl = model_ginzburg_landau()
    flat = core.LyapunovSpec(
        U=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        grad_U=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess_U=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        U_bar=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        rho=0.0, c=4.0, p=4, q0=4.0, q1=math.inf)
    report = moment_sweep(gl, flat, (16, 64), 200, seed=2, x0=[1.0])
    for row in report.rows:
        assert row.eu_estimate == 0.0
        assert row.exp_estimate == 1.0
    # a zero minimum leaves max/min, and its tolerance, infinite
    assert report.ratio == math.inf
    assert report.ratio_tolerance == math.inf


def test_moment_sweep_gl_flat():
    gl = model_ginzburg_landau()
    report = moment_sweep(gl, gl.lyapunov, (16, 64, 256), 4000, seed=6,
                          x0=[1.0])
    assert report.ratio < 1.25
    # criterion 5's bound comparison, over the rows at or past N0
    assert all(r.eu_estimate <= r.bound + 3.0 * r.eu_stderr
               for r in report.rows if r.N >= report.n0.N0)
    assert report.n0.log10_N0 > 3  # honest constants put N0 beyond the sweep


@pytest.mark.parametrize("Ns,seed", [((16, 64), 2), ((8, 32, 128), 5)])
def test_moment_sweep_ratio_tolerance_is_five_combined_relative_stderrs(Ns, seed):
    # 1 + 5 sqrt((se_hi/eu_hi)^2 + (se_lo/eu_lo)^2) from the report's rows
    gl = model_ginzburg_landau()
    report = moment_sweep(gl, gl.lyapunov, Ns, 200, seed=seed, x0=[1.0])
    hi = max(report.rows, key=lambda r: r.eu_estimate)
    lo = min(report.rows, key=lambda r: r.eu_estimate)
    rel = math.sqrt((hi.eu_stderr / hi.eu_estimate) ** 2
                    + (lo.eu_stderr / lo.eu_estimate) ** 2)
    assert report.ratio_tolerance == pytest.approx(1.0 + 5.0 * rel, rel=1e-12)
    assert report.ratio == pytest.approx(hi.eu_estimate / lo.eu_estimate,
                                         rel=1e-12)


def test_moment_sweep_steps_its_finals_on_the_pool(monkeypatch):
    # the finals pass hands its blocks to the pool that threads asks for;
    # the exponential-moment passes step serially
    made = []

    class Recording(experiments.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
    moment_sweep(_GL, _GL.lyapunov, (8, 16), 20, seed=0, x0=[1.0], threads=2)
    assert made == [2]


def test_determinism_across_thread_counts():
    base = dict(model="gbm", scheme=SchemeKind.STOPPED_BIT,
                Ns=(16, 64), M=300, seed=9, reference="exact")
    t1 = strong_error(ConvergenceConfig(**base, threads=1))
    t4 = strong_error(ConvergenceConfig(**base, threads=4))
    for a, b in zip(t1.rows, t4.rows):
        assert a.sup_error == b.sup_error
        assert a.std_error == b.std_error
        np.testing.assert_array_equal(a.per_gridpoint_errors,
                                      b.per_gridpoint_errors)


def _report_bytes(report) -> list:
    """Every field of a report, floats and arrays as exact bytes."""
    if dataclasses.is_dataclass(report):
        return [_report_bytes(getattr(report, f.name))
                for f in dataclasses.fields(report)]
    if isinstance(report, (list, tuple)):
        return [_report_bytes(v) for v in report]
    if isinstance(report, (float, np.ndarray)):
        return np.asarray(report, dtype=float).tobytes()
    return report


_GL = model_ginzburg_landau()

THREADED = {
    "strong_error": lambda M, threads: strong_error(ConvergenceConfig(
        model="ginzburg-landau", scheme=SchemeKind.STOPPED_BIT, Ns=(4, 8),
        M=M, seed=5, reference="fine", N_ref=64, x0=(5.0,), threads=threads)),
    "divergence_comparison": lambda M, threads: divergence_comparison(
        _GL, (4, 8), M, [5.0], seed=7, threads=threads),
    "moment_sweep": lambda M, threads: moment_sweep(
        _GL, _GL.lyapunov, (8, 16), M, seed=11, x0=[1.0], threads=threads),
}


@pytest.mark.parametrize("M", (1, 37, 1500))
@pytest.mark.parametrize("threads", (1, 2, 4))
@pytest.mark.parametrize("name", sorted(THREADED))
def test_threaded_estimators_are_byte_identical_across_thread_counts(
        name, threads, M):
    # 1500 paths make two blocks, so workers really share the work; M = 1
    # leaves nine of the ten batch-means batches empty, which only the
    # divergence comparison accepts: the others would report a NaN stderr
    if M == 1 and name != "divergence_comparison":
        with pytest.raises(ValueError, match="M must be >= "):
            THREADED[name](M, threads)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # stderr of one path
        serial = THREADED[name](M, 1)
        threaded = THREADED[name](M, threads)
    assert _report_bytes(threaded) == _report_bytes(serial)


def test_smallest_path_counts_give_finite_error_bars():
    # ten paths fill the ten batch-means batches; moment_sweep needs two
    table = strong_error(ConvergenceConfig(
        model="gbm", scheme=SchemeKind.EULER_MARUYAMA, Ns=(8, 16), M=10, seed=1))
    assert all(math.isfinite(row.std_error) for row in table.rows)
    report = moment_sweep(_GL, _GL.lyapunov, (8,), 2, seed=3, x0=[1.0])
    assert math.isfinite(report.rows[0].eu_stderr)


def test_threaded_estimators_reject_negative_threads():
    with pytest.raises(ValueError, match="threads"):
        ConvergenceConfig(model="gbm", scheme=SchemeKind.STOPPED_BIT,
                          Ns=(4, 8), M=10, seed=0, threads=-3)
    for name in ("divergence_comparison", "moment_sweep"):
        with pytest.raises(ValueError, match="threads"):
            THREADED[name](10, -1)


@pytest.mark.parametrize("arg,value,message", [
    ("threads", -1, "threads must be >= 0, got -1"),
    ("seed", -1, "seed must be in [0, 2**64), got -1")])
def test_moment_sweep_checks_threads_and_seed_before_its_growth_fit(
        monkeypatch, arg, value, message):
    # the growth fit (10,000 sampled points) used to run before a bad
    # setting was found at the first block
    def no_fit(*args, **kwargs):
        raise AssertionError("the growth constant was fitted")
    monkeypatch.setattr(experiments, "fit_growth_constant", no_fit)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        moment_sweep(_GL, _GL.lyapunov, (4, 8), 10, x0=[1.0],
                     **{"seed": 0, "threads": 1, arg: value})


def test_stderr_scales_with_path_count():
    base = dict(model="gbm", scheme=SchemeKind.EULER_MARUYAMA,
                Ns=(16, 32, 64, 128, 256), seed=12, reference="exact")
    small = strong_error(ConvergenceConfig(**base, M=2000))
    large = strong_error(ConvergenceConfig(**base, M=4000))
    ratios = [l.std_error / s.std_error
              for s, l in zip(small.rows, large.rows)]
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)