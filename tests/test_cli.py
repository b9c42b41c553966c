import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from biteuler import diagnostics, experiments
from biteuler.cli import (_COMMANDS, CSV_HEADER, UsageError, _render, emit,
                          main)
from biteuler.core import ErrorRow, ErrorTable, RateFit


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_csv_header_is_pinned():
    assert CSV_HEADER == ("scheme,model,r,N,M,seed,sup_error,std_error,"
                          "overflow_fraction")


_FIT = RateFit(slope=0.5, intercept=-1.0, residual=0.0, points=())


def _emitted(capsys, table, fmt):
    """What ``emit`` writes to stdout: for CSV the table without the rate
    fit's sidecar line, which follows it there."""
    emit(table, fmt, None, _FIT)
    out = capsys.readouterr().out
    if fmt == "csv":
        out, sidecar = out[:-1].rsplit("\n", 1)
        assert json.loads(sidecar) == {"slope": 0.5, "intercept": -1.0,
                                       "residual": 0.0}
        out += "\n"
    return out


def test_empty_table_is_header_only(capsys):
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=())
    assert _emitted(capsys, table, "csv") == CSV_HEADER + "\n"


def test_one_row_field_order(capsys):
    row = ErrorRow(N=16, M=100, sup_error=0.125, std_error=0.5,
                   seed=7, overflow_fraction=0.0)
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=(row,))
    lines = _emitted(capsys, table, "csv").splitlines()
    assert lines[1] == "bit,gbm,2,16,100,7,0.125,0.5,0"


def test_seventeen_digit_round_trip(capsys):
    val = 1.0 / 3.0 + 1e-17
    row = ErrorRow(N=16, M=1, sup_error=val, std_error=math.pi, seed=0)
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=(row,))
    fields = _emitted(capsys, table, "csv").splitlines()[1].split(",")
    assert float(fields[6]) == val
    assert float(fields[7]) == math.pi


def test_json_round_trip_exact(capsys):
    rows = (ErrorRow(N=16, M=5, sup_error=0.1 + 1e-16, std_error=0.01,
                     seed=3, per_gridpoint_errors=np.array([0.0, 0.05, 0.1]),
                     overflow_fraction=0.25),
            ErrorRow(N=32, M=5, sup_error=0.07, std_error=0.005, seed=3))
    table = ErrorTable(scheme="em", model="gbm", r=2.0, rows=rows, T=2.0)
    back = json.loads(_emitted(capsys, table, "json"))["table"]
    assert (back["scheme"], back["model"], back["r"], back["T"]) == \
        (table.scheme, table.model, table.r, table.T)
    for a, b in zip(back["rows"], table.rows):
        assert (a["N"], a["M"], a["seed"]) == (b.N, b.M, b.seed)
        assert a["sup_error"] == b.sup_error
        assert a["std_error"] == b.std_error
        assert a["overflow_fraction"] == b.overflow_fraction
        if b.per_gridpoint_errors is None:
            assert a["per_gridpoint_errors"] is None
        else:
            assert a["per_gridpoint_errors"] == b.per_gridpoint_errors.tolist()


def test_json_encodes_numpy_values_and_dataclasses():
    fit = RateFit(slope=np.float64(0.5), intercept=-1.0, residual=0.0,
                  points=((1.0, 2.0),))
    payload = {"n": np.int64(3), "a": np.array([[0.1, 2.0]]), "fit": fit}
    assert json.loads(_render("json", payload)) == {
        "n": 3, "a": [[0.1, 2.0]],
        "fit": {"slope": 0.5, "intercept": -1.0, "residual": 0.0,
                "points": [[1.0, 2.0]]}}
    with pytest.raises(TypeError):
        _render("json", {"x": object()})


def test_emit_csv_with_ratefit_sidecar(tmp_path):
    row = ErrorRow(N=16, M=1, sup_error=0.25, std_error=0.0, seed=0)
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=(row,))
    fit = RateFit(slope=0.5, intercept=-1.0, residual=0.0,
                  points=((1.0, 2.0),))
    out = tmp_path / "table.csv"
    emit(table, "csv", str(out), fit)
    assert out.read_text().startswith(CSV_HEADER)
    sidecar = json.loads((tmp_path / "table.csv.ratefit.json").read_text())
    assert sidecar == {"slope": 0.5, "intercept": -1.0, "residual": 0.0}


def test_emit_rejects_an_unknown_format_and_writes_nothing(tmp_path):
    table = ErrorTable(scheme="bit", model="gbm", r=2.0, rows=())
    out = tmp_path / "table.xml"
    with pytest.raises(UsageError, match="^unknown format 'xml'$"):
        emit(table, "xml", str(out), _FIT)
    assert list(tmp_path.iterdir()) == []


def test_missing_model_is_usage_error(capsys):
    assert main(["convergence", "--Ns", "16,32,64", "--M", "50"]) == 1
    assert "model" in capsys.readouterr().err


def test_unknown_model_is_usage_error(capsys):
    code = main(["simulate", "--model", "nope", "--N", "8", "--M", "10"])
    assert code == 1


def test_catalog_lists_models(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"gbm", "ginzburg-landau", "vdp"}
    assert payload["gbm"]["exact_solution"] is True
    assert payload["gbm"]["lyapunov"] is False


def test_catalog_default_is_structured_text(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gbm: d=1 m=1")
    assert "vdp:" in out


@pytest.mark.parametrize("args", (["--format", "csv"],
                                  ["--format", "csv", "--output", "c.csv"]))
def test_catalog_rejects_csv(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(["catalog", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "c.csv").exists()
    assert captured.err.startswith("error: ")
    assert "JSON or text" in captured.err


def test_negative_start_is_given_with_equals(capsys, monkeypatch):
    assert main(["simulate", "--model", "vdp", "--N", "8", "--M", "10",
                 "--x0=-1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == 10
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["simulate", "--help"]) == 0
    assert "--x0=-1,2" in " ".join(capsys.readouterr().out.split())


def test_convergence_rejects_non_power_of_two_ns(capsys):
    code = main(["convergence", "--model", "gbm", "--scheme", "em",
                 "--Ns", "16,24,32", "--M", "50"])
    assert code == 1
    assert "powers of two" in capsys.readouterr().err


def test_convergence_rejects_too_few_ns_before_running(tmp_path, capsys):
    # the rate fit needs three points; the study must not run first
    out = tmp_path / "t.csv"
    assert main(["convergence", "--model", "gbm", "--Ns", "16,32",
                 "--M", "50", "--output", str(out)]) == 1
    assert "at least three" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_auto_reference_without_closed_form(tmp_path):
    # falls back to a fine-grid run of the same scheme at 8*max(Ns)
    out = tmp_path / "gl.csv"
    code = main(["convergence", "--model", "ginzburg-landau", "--scheme",
                 "bit", "--Ns", "8,16,32", "--M", "100", "--seed", "1",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("reference", ("auto", "exact"))
def test_convergence_exact_reference_rejects_n_ref(capsys, reference):
    # gbm has a closed form, so auto picks it; both used to exit 0 against
    # the closed form without the 4096-step fine reference asked for
    assert main(["convergence", "--model", "gbm", "--Ns", "16,32,64",
                 "--N-ref", "4096", "--M", "10", "--reference", reference]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: N_ref must be 0 with an exact reference, "
                            "got 4096\n")


def test_simulate_writes_summary(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--model", "ginzburg-landau", "--scheme", "bit",
                 "--N", "32", "--M", "64", "--seed", "5",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overflow_fraction"] == 0.0
    assert 0.0 <= payload["stopped_fraction"] <= 1.0


@pytest.mark.parametrize("args,message", [
    (["--model", "vdp", "--x0", "1"], "2 component"),
    (["--model", "gbm", "--x0", "nan"], "finite"),
    (["--model", "gbm", "--M", "0"], "M must be >= 1"),
])
def test_simulate_rejects_bad_start_or_path_count(capsys, args, message):
    assert main(["simulate", "--N", "8", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_experiment_commands_reject_non_finite_start(capsys):
    assert main(["convergence", "--model", "gbm", "--Ns", "4,8,16", "--M",
                 "20", "--x0", "inf"]) == 1
    assert main(["moments", "--model", "ginzburg-landau", "--Ns", "8,16",
                 "--M", "20", "--x0", "1,2"]) == 1
    assert capsys.readouterr().err.count("error: x0 must") == 2


@pytest.mark.parametrize("args", [
    ["simulate", "--model", "gbm", "--N", "8", "--M", "4"],
    ["convergence", "--model", "gbm", "--Ns", "4,8,16", "--M", "20"],
    ["divergence", "--model", "ginzburg-landau", "--Ns", "4", "--M", "20"],
])
def test_negative_threads_is_an_error(capsys, monkeypatch, args):
    assert main([*args, "--threads", "-1"]) == 1
    monkeypatch.setenv("BITEULER_THREADS", "-2")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: threads must be >= 0") == 2


def test_simulate_memory_does_not_grow_with_path_count(tmp_path):
    def peak(M: int) -> int:
        tracemalloc.start()
        try:
            assert main(["simulate", "--model", "ginzburg-landau", "--N", "256",
                         "--M", str(M), "--seed", "3",
                         "--output", str(tmp_path / f"{M}.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time allocations of a first run stay out of the comparison
    small = peak(1000)
    # paths are stepped in blocks of at most 1000, so only the per-path
    # summaries (a few bytes each) grow with M
    assert peak(4000) <= 1.25 * small


def test_simulate_keeps_increments_not_states(tmp_path):
    # a whole-horizon run holds the (B, N + 1, d) states beside the
    # block's (B, N, m) increments
    tracemalloc.start()
    try:
        assert main(["simulate", "--model", "ginzburg-landau", "--N", "2048",
                     "--M", "1000", "--seed", "3",
                     "--output", str(tmp_path / "s.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1000 * 2048 * 8


@pytest.mark.parametrize("seed", (9, 2**64 - 1))  # the largest used to fail
def test_simulate_dumps_increments(tmp_path, seed):
    from biteuler.brownian import generate_path, load_increments

    dump = tmp_path / "w.bin"
    code = main(["simulate", "--model", "gbm", "--scheme", "em", "--N", "16",
                 "--M", "4", "--seed", str(seed), "--dump-increments", str(dump),
                 "--output", str(tmp_path / "s.json")])
    assert code == 0
    loaded = load_increments(str(dump))
    assert loaded.seed == seed
    oracle = generate_path(1.0, 16, 1, seed, 0)
    np.testing.assert_array_equal(loaded.increments, oracle.increments)


@pytest.mark.parametrize("args,message", [
    # seed 2**64 used to run seed 0's paths, and seed -1 seed 2**64 - 1's
    (["convergence", "--model", "gbm", "--Ns", "4,8,16", "--M", "10",
      "--seed", str(2**64)], "error: seed must be in [0, 2**64)"),
    (["divergence", "--model", "ginzburg-landau", "--Ns", "4,8", "--M", "10",
      "--seed", "-1"], "error: seed must be in [0, 2**64)"),
    (["simulate", "--model", "gbm", "--N", "8", "--M", "10", "--seed", "-1"],
     "error: seed must be in [0, 2**64)"),
    # used to print a TypeError traceback from the growth fit
    (["moments", "--model", "ginzburg-landau", "--Ns", "4,8", "--M", "10",
      "--T", "-1"], "error: T must be > 0"),
    # used to run the whole study before the rate fit failed
    (["convergence", "--model", "gbm", "--Ns", "4,8,16", "--M", "10",
      "--r", "nan"], "error: r must be > 0"),
    # r = inf printed sup_error 1 at every N and slope 0, and exited 0
    (["convergence", "--model", "gbm", "--Ns", "4,8,16", "--M", "10",
      "--r", "inf"], "error: r must be > 0 and finite, got inf"),
    # h = inf printed NaN estimates and exited 0, or 2 under --strict
    (["taming-check", "--h-values", "inf", "--samples", "100", "--strict"],
     "error: h must be finite and > 0, got inf"),
    # a repeated N used to print moments' row twice and divergence's once
    (["moments", "--model", "ginzburg-landau", "--Ns", "16,16", "--M", "10"],
     "error: Ns must not repeat an N, got (16, 16)"),
    (["divergence", "--model", "ginzburg-landau", "--Ns", "4,4", "--M", "10"],
     "error: Ns must not repeat an N, got (4, 4)"),
    # the sweeps have no default list of N
    (["convergence", "--model", "gbm", "--M", "10"], "error: missing --Ns"),
    (["divergence", "--model", "ginzburg-landau", "--M", "10"],
     "error: missing --Ns"),
    (["moments", "--model", "ginzburg-landau", "--M", "10"],
     "error: missing --Ns"),
    # gbm has no Lyapunov function for the moments or the checker to use
    (["moments", "--model", "gbm", "--Ns", "4,8", "--M", "10"],
     "error: model 'gbm' ships no Lyapunov data"),
    (["check-conditions", "--model", "gbm", "--n-points", "10"],
     "error: model 'gbm' ships no Lyapunov data")])
def test_out_of_range_settings_exit_1_before_stepping(monkeypatch, capsys,
                                                      tmp_path, args, message):
    def no_stepping(*a, **k):
        raise AssertionError("a path was stepped")
    for module in (experiments, diagnostics):
        monkeypatch.setattr(module, "run_paths", no_stepping)
    out = tmp_path / "o.json"
    assert main(args + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and not out.exists()


# what each command that takes --T needs besides it
WITH_T = {
    "simulate": ["--model", "gbm", "--N", "8", "--M", "10"],
    "convergence": ["--model", "gbm", "--Ns", "4,8,16", "--M", "10"],
    "divergence": ["--model", "ginzburg-landau", "--Ns", "4,8", "--M", "10"],
    "moments": ["--model", "ginzburg-landau", "--Ns", "4,8", "--M", "10"],
    "check-conditions": ["--model", "vdp", "--n-points", "100", "--strict"],
}


@pytest.mark.parametrize("command", WITH_T)
def test_an_infinite_horizon_exits_1_naming_T(capsys, tmp_path, command):
    # check-conditions exited 0 with no violation, the others 1 with
    # "math domain error"
    assert set(WITH_T) == {c for c, (_, _, flags) in _COMMANDS.items()
                           if "--T" in flags}
    out = tmp_path / "o.json"
    assert main([command, *WITH_T[command], "--T", "inf",
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: T must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", (-1, 2**64))
@pytest.mark.parametrize("command", (
    ["check-conditions", "--model", "vdp", "--n-points", "100"],
    ["taming-check", "--samples", "1000"]), ids=lambda c: c[0])
def test_sampled_checks_reject_a_seed_outside_the_key_range(capsys, tmp_path,
                                                            command, seed):
    # both used to key Philox with the seed itself: 2**64 ran and exited 0
    out = tmp_path / "o.json"
    assert main(command + ["--seed", str(seed), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: seed must be in [0, 2**64), got {seed}") and not out.exists()


@pytest.mark.parametrize("args,message", [
    # 0 and 1 used to exit 1 with numpy's "zero-size array to reduction
    # operation", -5 with "negative dimensions are not allowed"
    (["--n-points", "0"], "n_points must be >= 2, got 0"),
    (["--n-points", "1"], "n_points must be >= 2, got 1"),
    (["--n-points=-5"], "n_points must be >= 2, got -5"),
    # 0 sampled only the origin, -1 a reflected ball, and inf reported NaN
    # margins with no violation, so --strict exited 0
    (["--radius", "0"], "radius must be finite and > 0, got 0.0"),
    (["--radius=-1"], "radius must be finite and > 0, got -1.0"),
    (["--radius", "inf", "--strict"], "radius must be finite and > 0, got inf"),
    # 0 divided the monotonicity slack by zero (margin -inf, exit 0 under
    # --strict), and -1 reported violations that do not exist
    (["--T", "0", "--strict"], "T must be > 0, got 0.0"),
    (["--T=-1"], "T must be > 0, got -1.0")])
def test_check_conditions_rejects_what_it_cannot_sample(capsys, tmp_path,
                                                        args, message):
    out = tmp_path / "o.json"
    assert main(["check-conditions", "--model", "vdp", *args,
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and not out.exists()


@pytest.mark.parametrize("model,radius", [("vdp", "1e80"),
                                          ("ginzburg-landau", "1e200")])
def test_check_conditions_strict_fails_on_a_nan_margin(capsys, tmp_path,
                                                       model, radius):
    # the quartic terms overflow to inf - inf; the NaN margins used to count
    # as 0 violations, so --strict exited 0
    out = tmp_path / "o.csv"
    with np.errstate(all="ignore"):
        code = main(["check-conditions", "--model", model, "--radius", radius,
                     "--n-points", "400", "--strict", "--format", "csv",
                     "--output", str(out)])
    assert code == 2
    assert "condition violations" in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert any(r[3] == "nan" and int(r[2]) > 0 for r in rows)


@pytest.mark.parametrize("flag,text", [("--h-values", ","), ("--m-values", "")])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_taming_check_rejects_an_empty_list(capsys, tmp_path, monkeypatch,
                                            source, flag, text):
    # used to print the CSV header alone and exit 0, even with --strict
    out = tmp_path / "o.csv"
    args = ["taming-check", "--strict", "--format", "csv", "--output", str(out)]
    dest = flag.lstrip("-")
    if source == "flag":
        args.append(f"{flag}={text}")
    elif source == "config":
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[taming-check]\n{dest} = {text}\n")
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("BITEULER_" + dest.replace("-", "_").upper(), text)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid comma-separated" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag,text,message", [
    ("--max-ratio", "nan", "expected a finite number, got 'nan'"),
    ("--max-ratio", "inf", "expected a finite number, got 'inf'"),
    ("--max-ratio", "-inf", "expected a finite number, got '-inf'"),
    ("--expect-slope", "-inf:inf", "bad band '-inf:inf'"),
    ("--expect-slope", "nan:1", "bad band 'nan:1'"),
    ("--expect-slope", "0.6:0.4", "bad band '0.6:0.4'")])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_an_assertion_decided_before_the_run_is_a_usage_error(
        capsys, tmp_path, monkeypatch, source, flag, text, message):
    # NaN and infinite bounds used to make --max-ratio and --expect-slope
    # pass whatever the run gave (exit 0), and nan:1 or 0.6:0.4 fail it
    # whatever the run gave (exit 2)
    out = tmp_path / "o.json"
    command = "moments" if flag == "--max-ratio" else "convergence"
    args = [command, "--model", "ginzburg-landau" if command == "moments"
            else "gbm", "--Ns", "16,32,64", "--M", "20", "--output", str(out)]
    dest = flag.lstrip("-")
    where = ""
    if source == "flag":
        args.append(f"{flag}={text}")
    elif source == "config":
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{dest} = {text}\n")
        args += ["--config", str(cfg)]
        where = f"error: config key '{dest}' in [{command}]: "
    else:
        env = "BITEULER_" + dest.replace("-", "_").upper()
        monkeypatch.setenv(env, text)
        where = f"error: {env}: "
    assert main(args) == 1
    captured = capsys.readouterr()
    assert f"{where}argument {flag}: {message}" in captured.err
    assert captured.out == "" and not out.exists()


def test_catalog_ignores_the_seed(capsys):
    # catalog draws nothing, so no seed is out of range for it
    assert main(["catalog", "--seed", str(2**64)]) == 0
    assert "ginzburg-landau" in capsys.readouterr().out


def test_convergence_command_and_band_assertions(tmp_path):
    args = ["convergence", "--model", "gbm", "--scheme", "em",
            "--Ns", "16,32,64,128", "--M", "400", "--seed", "11",
            "--format", "csv", "--output", str(tmp_path / "t.csv")]
    assert main(args) == 0
    text = (tmp_path / "t.csv").read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 5
    # same run with an impossible band exits 2
    assert main(args + ["--expect-slope", "10:11"]) == 2
    assert main(args + ["--expect-slope", "0:2"]) == 0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nmodel = gbm\nscheme = em\nN = 64\nM = 16\n")
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(cfg), "--N", "128",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 128   # flag wins over config
    assert payload["M"] == 16    # config wins over default


def test_unknown_config_key_is_hard_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nmodle = gbm\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_is_hard_error(tmp_path, capsys):
    cfg = tmp_path / "absent.ini"
    assert main(["simulate", "--model", "gbm", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: config file {str(cfg)!r} not found\n"


def test_unknown_config_section_is_hard_error(tmp_path, capsys):
    # a misspelt command section would otherwise be skipped without a word
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulat]\nM = 7\n")
    assert main(["simulate", "--model", "gbm", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: unknown config section [simulat]\n"


@pytest.mark.parametrize("text", ("16,x", "4.5", ","))
def test_ns_that_are_not_integers_exit_1(capsys, text):
    assert main(["convergence", "--model", "gbm", "--M", "10",
                 "--Ns", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --Ns: expected positive integers such as 16,32,64, "
            f"got {text!r}") in captured.err


@pytest.mark.parametrize("args,message", [
    # gbm is linear, so Euler-Maruyama never explodes
    (["divergence", "--model", "gbm", "--Ns", "4,8", "--M", "50",
      "--expect-contrast"],
     "divergence contrast not observed (em explodes: False, bit clean: True)"),
    # max/min of E[U] is at least 1
    (["moments", "--model", "ginzburg-landau", "--Ns", "8,16", "--M", "100",
      "--max-ratio", "0.5"], "E[U] max/min ratio "),
    # the Laplacian bound fails below h ~ 0.05 (4.19 against 3.2 at 0.01)
    (["taming-check", "--h-values", "0.01", "--m-values", "1",
      "--samples", "20000", "--strict"],
     "a claimed taming bound failed its Monte Carlo check")])
def test_failed_assertions_exit_2_after_writing_the_output(capsys, tmp_path,
                                                           args, message):
    out = tmp_path / "o.json"
    assert main(args + ["--seed", "3", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("assertion failed: " + message)
    assert json.loads(out.read_text())


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BITEULER_M", "32")
    out = tmp_path / "o.json"
    assert main(["simulate", "--model", "gbm", "--scheme", "em", "--N", "8",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["M"] == 32


def test_config_file_has_no_environment_form(tmp_path, monkeypatch):
    # every other flag has a BITEULER_ form; the config file is named by
    # --config alone, so BITEULER_CONFIG leaves the defaults as they are
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nM = 7\n")
    monkeypatch.setenv("BITEULER_CONFIG", str(cfg))
    out = tmp_path / "o.json"
    args = ["simulate", "--model", "gbm", "--N", "8", "--output", str(out)]
    assert main(args) == 0
    assert json.loads(out.read_text())["M"] == 1000
    assert main(args + ["--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["M"] == 7


def test_divergence_command_assertion(tmp_path):
    args = ["divergence", "--model", "ginzburg-landau", "--Ns", "4,8",
            "--M", "100", "--x0", "5.0", "--seed", "2",
            "--output", str(tmp_path / "d.json"), "--expect-contrast"]
    assert main(args) == 0


def test_moments_command(tmp_path):
    args = ["moments", "--model", "ginzburg-landau", "--Ns", "16,32",
            "--M", "400", "--seed", "2", "--output", str(tmp_path / "m.json"),
            "--max-ratio", "1.5"]
    assert main(args) == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    assert len(payload["moments"]["rows"]) == 2


def test_taming_check_command(tmp_path):
    args = ["taming-check", "--h-values", "1,0.1", "--m-values", "1",
            "--samples", "20000", "--seed", "3", "--strict",
            "--output", str(tmp_path / "t.json")]
    assert main(args) == 0


def test_check_conditions_command(tmp_path):
    args = ["check-conditions", "--model", "ginzburg-landau",
            "--n-points", "2000", "--strict",
            "--output", str(tmp_path / "c.json")]
    assert main(args) == 0


def test_byte_identical_output_across_threads(tmp_path):
    base = ["convergence", "--model", "gbm", "--scheme", "bit",
            "--Ns", "16,32,64", "--M", "300", "--seed", "21",
            "--format", "csv"]
    f1 = tmp_path / "a.csv"
    f4 = tmp_path / "b.csv"
    assert main(base + ["--threads", "1", "--output", str(f1)]) == 0
    assert main(base + ["--threads", "4", "--output", str(f4)]) == 0
    assert f1.read_bytes() == f4.read_bytes()
    assert (tmp_path / "a.csv.ratefit.json").read_bytes() == \
        (tmp_path / "b.csv.ratefit.json").read_bytes()


def test_too_few_paths_for_an_error_bar_is_an_error(capsys):
    # with fewer paths than stderr batches (convergence) or than two
    # (moments) the stderr would be NaN, which is not JSON
    assert main(["convergence", "--model", "gbm", "--Ns", "16,32,64",
                 "--M", "5", "--format", "json"]) == 1
    assert main(["moments", "--model", "ginzburg-landau", "--Ns", "16,32",
                 "--M", "1", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: M must be >= ") == 2


def _settings_by_source(tmp_path, monkeypatch, command, flag, text):
    """Parsed settings of ``command`` with ``flag`` set to ``text`` by a
    config file, by the environment and by the flag itself."""
    from biteuler.cli import parse_settings

    dest = flag.lstrip("-").replace("-", "_")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{command}]\n{dest} = {text}\n")
    by_config = parse_settings([command, "--config", str(cfg)])
    by_config.config = None
    monkeypatch.setenv("BITEULER_" + dest.upper(), text)
    by_env = parse_settings([command])
    monkeypatch.delenv("BITEULER_" + dest.upper())
    switch = text == "true"
    by_flag = parse_settings([command, flag] + ([] if switch else [text]))
    return dest, (by_config, by_env, by_flag)


@pytest.mark.parametrize("command,flag,text,value", [
    ("simulate", "--M", "16", 16),
    ("simulate", "--T", "0.5", 0.5),
    ("simulate", "--scheme", "em", "em"),
    ("simulate", "--model", "vdp", "vdp"),
    ("taming-check", "--strict", "true", True),
    ("convergence", "--Ns", "16,32", (16, 32)),
    ("convergence", "--expect-slope", "0.4:0.6", (0.4, 0.6)),
    ("taming-check", "--h-values", "1,0.5", (1.0, 0.5)),
])
def test_config_env_and_flag_values_parse_alike(tmp_path, monkeypatch,
                                                command, flag, text, value):
    dest, parsed = _settings_by_source(tmp_path, monkeypatch, command, flag,
                                       text)
    for s in parsed:
        assert getattr(s, dest) == value
        assert vars(s) == vars(parsed[-1])


def test_layered_precedence(tmp_path, monkeypatch):
    from biteuler.cli import parse_settings

    cfg = tmp_path / "run.ini"
    cfg.write_text("[common]\nseed = 1\nthreads = 2\n"
                   "[taming-check]\nseed = 2\nstrict = true\nsamples = 5000\n")
    monkeypatch.setenv("BITEULER_STRICT", "false")
    monkeypatch.setenv("BITEULER_SAMPLES", "3000")
    s = parse_settings(["taming-check", "--config", str(cfg),
                        "--samples", "2000"])
    assert (s.threads, s.seed, s.strict, s.samples) == (2, 2, False, 2000)
    assert s.m_values == (1, 5)  # the declared default, parsed like a flag


@pytest.mark.parametrize("flag,text", [
    ("--format", "xml"), ("--scheme", "nope"), ("--M", "ten")])
@pytest.mark.parametrize("source", ["config", "env"])
def test_invalid_config_or_env_value_exits_1(tmp_path, monkeypatch, capsys,
                                             source, flag, text):
    dest = flag.lstrip("-")
    out = tmp_path / "o.json"
    args = ["simulate", "--model", "gbm", "--N", "8", "--output", str(out)]
    if source == "config":
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[simulate]\n{dest} = {text}\n")
        args += ["--config", str(cfg)]
        where = f"config key '{dest}' in [simulate]"
    else:
        monkeypatch.setenv("BITEULER_" + dest.upper(), text)
        where = "BITEULER_" + dest.upper()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {where}: argument {flag}: ")


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_malformed_expect_slope_writes_no_table(tmp_path, monkeypatch, capsys,
                                                source):
    out = tmp_path / "t.csv"
    args = ["convergence", "--model", "gbm", "--Ns", "16,32,64", "--M", "50",
            "--format", "csv", "--output", str(out)]
    if source == "flag":
        args += ["--expect-slope", "bogus"]
    elif source == "config":
        cfg = tmp_path / "run.ini"
        cfg.write_text("[convergence]\nexpect-slope = bogus\n")
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("BITEULER_EXPECT_SLOPE", "bogus")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "expected LO:HI" in captured.err


def test_malformed_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("model = gbm\n")  # no [section] header
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_shows_declared_defaults(capsys):
    assert main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"--M M\s+Monte Carlo paths\s+\(default:\s+1000\)", out)
