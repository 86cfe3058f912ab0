import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcpulse import (
    ControlSpec,
    compare_sequence_vs_single,
    error_rate_exact,
    make_coherent,
    resolve_pulse,
)
from jcpulse import cli
from jcpulse.cli import START_ANGLES, main

PI = math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def as_printed(value):
    """A float as the JSON output carries it: 12 significant digits."""
    return float(f"{value:.12g}")


def fresh_scaled_error(theta0, theta, n_mean):
    """N * error_rate_exact with a freshly built field and the nominal pulse area."""
    pulse = resolve_pulse("quarter-pi", n_mean, base=theta)
    return n_mean * error_rate_exact(ControlSpec(theta0, theta), make_coherent(n_mean), pulse)


class TestSweep:
    def test_header_and_monotonicity(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--theta0", "0", "--theta", "0.25",
                                 "--n-min", "10", "--n-max", "10000", "--points", "13")
        assert code == 0
        assert out.splitlines()[0] == \
            "N,P_exact,P_asymptotic,gea_banacloche,ozawa_bound,delta,vartheta_used"
        values = [float(r["P_exact"]) for r in parse_csv(out)]
        assert len(values) == 13
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_excited_start_sits_above_semiclassical_curve(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--theta0", "0.5", "--theta", "0.25",
                               "--n-min", "100", "--n-max", "100", "--points", "2")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["P_exact"]) > float(row["gea_banacloche"])

    def test_degenerate_grid_repeats_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-min", "50", "--n-max", "50",
                               "--points", "2")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3
        assert rows[1] == rows[2]

    def test_deterministic_output(self, capsys):
        # --seed is reserved interface surface; it must parse and not
        # perturb anything.
        args = ("sweep", "--n-min", "10", "--n-max", "1000", "--points", "5")
        _, first, _ = run_cli(capsys, *args, "--seed", "7")
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--n-min", "10", "--n-max", "100",
                            "--points", "3")
        rows = parse_csv(out)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.splitlines()[0].split(","))
        for row in rows:
            writer.writerow(f"{float(v):.12g}" for v in row.values())
        assert buf.getvalue() == out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-min", "10", "--n-max", "100",
                               "--points", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["command"] == "sweep"
        assert payload["meta"]["version"]
        assert payload["meta"]["params"]["points"] == 3
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"N", "P_exact", "P_asymptotic",
                                           "gea_banacloche", "ozawa_bound",
                                           "delta", "vartheta_used"}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--n-min", "10", "--n-max", "100",
                               "--points", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("N,P_exact")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--n-min", "-1", "--n-max", "10"),
        ("sweep", "--n-min", "100", "--n-max", "10"),
        ("sweep", "--points", "1"),
        ("sweep", "--vartheta-mode", "explicit"),
        ("sweep", "--theta0", "nan"),
        ("sweep", "--n-max", "inf"),
        ("sweep", "--vartheta-mode", "explicit", "--vartheta", "1e300", "--points", "2"),
        ("table2", "--n", "inf"),
        ("landscape", "--n", "inf"),
        ("sequence", "--n", "inf"),
        ("sequence", "--mode", "explicit"),
        # Arrays of 10**15 floats exceed the address space under any overcommit policy.
        ("landscape", "--grid", "1000000000000000"),
        ("sweep", "--points", "1000000000000000"),
        ("moments", "--k", "1000000000000000"),
        # 1/N overflows, or the 1/N reference does at a huge rotation.
        ("landscape", "--n", "1e-320"),
        ("sequence", "--n", "5e-324", "--tail-tol", "0.9"),
        ("sequence", "--n", "5e-324", "--tail-tol", "0.9", "--mode", "quarter-pi"),
        ("sweep", "--n-min", "5e-324", "--vartheta", "0", "--theta", "1e20"),
        ("sweep", "--n-min", "1e-296", "--theta", "1e20", "--points", "2"),
    ])
    def test_invalid_config_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip()
        if argv == ("sweep", "--n-min", "1e-296", "--theta", "1e20", "--points", "2"):
            # An angle in a diagnostic is echoed in the units it was typed in.
            assert "theta=1e+20*pi" in err

    @pytest.mark.parametrize("target", ["missing/sweep.csv", ""],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, capsys, monkeypatch, tmp_path, target):
        # The target is checked before the command computes anything.
        calls = []
        monkeypatch.setattr(cli, "make_coherent", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "sweep", "--n-min", "10", "--n-max", "100",
                                 "--points", "2", "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("jcpulse: error:")
        assert calls == []
        assert not any(tmp_path.iterdir())

    def test_out_in_unwritable_directory_exits_two(self, capsys, monkeypatch, tmp_path):
        # Root may write to any directory, so the permission check is faked.
        monkeypatch.setattr(cli.os, "access", lambda *a, **k: False)
        code, out, err = run_cli(capsys, "sweep", "--points", "2",
                                 "--out", str(tmp_path / "sweep.csv"))
        assert code == 2 and out == ""
        assert err == f"jcpulse: error: [Errno 13] Permission denied: '{tmp_path / 'sweep.csv'}'\n"
        assert not any(tmp_path.iterdir())

    def test_out_to_writable_file_in_unwritable_directory(self, capsys, monkeypatch,
                                                          tmp_path):
        # An existing file opens for writing without write access to its directory
        # (as /dev/null does for any user), so only the file's own access counts.
        target = tmp_path / "sweep.csv"
        target.write_text("")
        access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda p, mode: p != str(tmp_path) and access(p, mode))
        code, out, _ = run_cli(capsys, "sweep", "--n-min", "10", "--n-max", "100",
                               "--points", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("N,P_exact")

    def test_out_to_read_only_file_exits_two(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "sweep.csv"
        target.write_text("kept")
        access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda p, mode: p != str(target) and access(p, mode))
        code, out, err = run_cli(capsys, "sweep", "--points", "2", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"jcpulse: error: [Errno 13] Permission denied: '{target}'\n"
        assert target.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ("table2", "--n", "1e20"),
    ("sweep", "--n-max", "1e20", "--points", "2"),
    ("sequence", "--n", "1e20"),
    ("landscape", "--n", "1e20"),
    ("moments", "--n", "1e20"),
    ("kraus-dump", "--n", "1e20", "--kappa", "1e-10"),
])
def test_oversized_field_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "MAX_LEVELS" in err


def test_oversized_sweep_builds_no_field(capsys, monkeypatch):
    # The default 13-point grid reaches N ~ 3e10 before its first oversized
    # point; the widest window is checked before any field is built.
    calls = []
    monkeypatch.setattr(cli, "make_coherent", lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, "sweep", "--n-max", "1e20")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "N=1e+20" in err and "MAX_LEVELS" in err
    assert calls == []


def test_tail_tol_grows_no_window_above_the_threshold(capsys):
    # The quadrature truncates nothing, so a tolerance whose window would
    # grow past MAX_LEVELS at N = 1e11 is only validated.
    code, out, _ = run_cli(capsys, "table2", "--n", "1e11", "--tail-tol", "1e-300")
    assert code == 0 and len(parse_csv(out)) == 8


class TestTable2:
    def test_grid_and_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--n", "10000")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        assert all(float(r["relative_deviation"]) <= 0.03 for r in rows)
        coeffs = {(r["theta0"], r["theta"]): float(r["paper_coefficient"]) for r in rows}
        assert coeffs[("0", "0.25")] == pytest.approx((PI - 2) ** 2 / 64, rel=1e-10)
        assert coeffs[("0.25", "0.5")] == pytest.approx((PI + 2) ** 2 / 16, rel=1e-10)
        assert coeffs[("0.5", "0.5")] == pytest.approx(PI ** 2 / 16, rel=1e-10)

    def test_small_field_still_close(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--n", "100")
        assert code == 0
        rows = parse_csv(out)
        assert all(float(r["relative_deviation"]) <= 0.3 for r in rows)

    def test_rows_match_fresh_field_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--n", "2000", "--format", "json")
        assert code == 0
        expected = [as_printed(fresh_scaled_error(theta0, theta, 2000.0))
                    for theta in (PI / 4, PI / 2)
                    for theta0 in (0.0, PI / 4, PI / 2, 3 * PI / 4)]
        assert [r["N_times_P_exact"] for r in json.loads(out)["rows"]] == expected

    def test_rejects_small_n(self, capsys):
        code, out, err = run_cli(capsys, "table2", "--n", "50")
        assert code == 2 and out == "" and "error" in err


class TestSequenceCommand:
    def test_ground_start(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--start", "ground", "--n", "10000")
        assert code == 0
        rows = parse_csv(out)
        assert [r["step"] for r in rows] == ["1", "2"]
        cumulative = float(rows[-1]["P_exact"])
        assert 1e4 * cumulative == pytest.approx((PI ** 2 + 4) / 32, rel=0.05)
        assert float(rows[-1]["single_2N"]) < cumulative < float(rows[-1]["single_N"])

    def test_equatorial_start_accumulates_linearly(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--start", "plus", "--n", "10000")
        assert code == 0
        rows = parse_csv(out)
        first = float(rows[0]["P_exact"])
        increment = float(rows[1]["P_exact"]) - first
        assert increment == pytest.approx(first, rel=0.05)

    @pytest.mark.parametrize("start,mode", [
        ("ground", "bias-free"), ("plus", "quarter-pi"), ("excited", "optimal-fidelity"),
    ])
    def test_json_rows_match_comparison(self, capsys, start, mode):
        code, out, _ = run_cli(capsys, "sequence", "--start", start, "--n", "2000",
                               "--mode", mode, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        report, comparison = compare_sequence_vs_single(START_ANGLES[start], 2000.0, mode=mode)
        assert rows[1]["P_exact"] == as_printed(report.per_step_error[-1])
        for row in rows:
            assert row["single_N"] == as_printed(comparison.single_N)
            assert row["single_2N"] == as_printed(comparison.single_2N)

    def test_rejects_bad_n(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "--n", "-4")
        assert code == 2 and out == "" and err.strip()


class TestLandscapeCommand:
    def test_full_flip_profile(self, capsys):
        code, out, err = run_cli(capsys, "landscape", "--theta", "0.5", "--n", "10000",
                                 "--grid", "9")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        exact = [float(r["N_times_P_exact"]) for r in rows]
        assert exact.index(max(exact)) == 8  # midpoint pi/2
        assert exact.index(min(exact)) == 0  # midpoint 0
        assert "argmax_phi=0.5" in err and "argmin_phi=0" in err

    def test_half_turn_rotation_is_flat(self, capsys):
        # sin(theta) = 0 at theta = pi: the asymptote N*P = pi^2/4 everywhere.
        code, out, _ = run_cli(capsys, "landscape", "--theta", "1", "--n", "10000",
                               "--grid", "5")
        assert code == 0
        asym = [float(r["N_times_asymptote"]) for r in parse_csv(out)]
        assert all(v == pytest.approx(PI ** 2 / 4, rel=1e-12) for v in asym)

    def test_rows_match_fresh_field_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "landscape", "--theta", "0.75", "--n", "2000",
                               "--grid", "5", "--format", "json")
        assert code == 0
        theta = 0.75 * PI
        expected = [as_printed(fresh_scaled_error(float(mid) - theta / 2, theta, 2000.0))
                    for mid in np.linspace(0.0, PI / 2, 5)]
        assert [r["N_times_P_exact"] for r in json.loads(out)["rows"]] == expected

    def test_minimal_grid(self, capsys):
        code, out, _ = run_cli(capsys, "landscape", "--grid", "2")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "landscape", "--grid", "3", "--n", "1000",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["argmax_phi"] == 0.5
        assert payload["summary"]["argmin_phi"] == 0


class TestMomentsCommand:
    def test_direct_vs_recursive_table(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--n", "10", "--k", "6")
        assert code == 0
        rows = parse_csv(out)
        assert [r["k"] for r in rows] == [str(k) for k in range(7)]
        assert float(rows[0]["mu_direct"]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0]["mu_recursive"]) == 1.0
        assert abs(float(rows[1]["mu_direct"])) <= 1e-12
        assert float(rows[1]["mu_recursive"]) == 0.0
        assert all(abs(float(r["mu_direct"]) - float(r["mu_recursive"])) <= 1e-8
                   for r in rows)
        assert all(float(r["bound_1_over_N"]) == pytest.approx(0.1) for r in rows)

    # Numpy's overflow warnings would become errors here, so a passing case
    # leaves stderr with the one diagnostic line.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        pytest.param(("--k", "-1"), id="negative-order"),
        pytest.param(("--n", "1e-300"), id="recursion-underflow"),
        pytest.param(("--n", "1e-60"), id="direct-overflow"),
        pytest.param(("--n", "1e-320", "--k", "0"), id="bound-overflow"),
    ])
    def test_rejects_invalid_input(self, capsys, argv):
        code, out, err = run_cli(capsys, "moments", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("jcpulse: error:")


class TestKrausDump:
    def test_vacuum_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "kraus-dump", "--number", "0",
                               "--kappa", "0.7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["field"]) == {"n_offset", "magnitudes-log", "phase",
                                         "N", "tail_mass"}
        assert payload["completeness_residual"] <= 1e-12
        ops = {row["n"]: row["M"] for row in payload["rows"]}
        assert ops[0][0] == [pytest.approx(math.cos(0.7)), 0.0]
        assert ops[1][2] == [0.0, pytest.approx(-math.sin(0.7))]

    def test_json_field_rebuilds_the_rows(self, capsys):
        # At phi = 0, M00 = |C_n| cos(kappa sqrt(n+1)); both the dumped
        # log-magnitudes and the rows carry full precision.
        code, out, _ = run_cli(capsys, "kraus-dump", "--n", "100", "--kappa", "0.1",
                               "--phi", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        offset, logs = payload["field"]["n_offset"], payload["field"]["magnitudes-log"]
        for row in payload["rows"]:
            index = row["n"] - offset
            if 0 <= index < len(logs):
                m00 = math.exp(logs[index]) * math.cos(0.1 * math.sqrt(row["n"] + 1))
                assert row["M"][0] == [pytest.approx(m00, rel=2e-15, abs=0.0), 0.0]

    def test_coherent_csv_table(self, capsys):
        code, out, err = run_cli(capsys, "kraus-dump", "--n", "25", "--vartheta", "0.25")
        assert code == 0
        rows = parse_csv(out)
        assert set(rows[0]) == {"n", "M00_re", "M00_im", "M01_re", "M01_im",
                                "M10_re", "M10_im", "M11_re", "M11_im"}
        assert "completeness_residual=" in err

    @pytest.mark.parametrize("argv", [
        ("kraus-dump",),
        ("kraus-dump", "--n", "10", "--number", "3", "--kappa", "0.1"),
        ("kraus-dump", "--n", "10"),
        ("kraus-dump", "--number", "2", "--vartheta", "0.25"),
        ("kraus-dump", "--n", "inf", "--kappa", "0.1"),
        ("kraus-dump", "--n", "100", "--kappa", "0.1", "--phi", "1e308"),
        ("kraus-dump", "--n", "100", "--kappa", "1e308"),
        ("kraus-dump", "--number", "4", "--kappa", "1e308"),
    ])
    def test_invalid_combinations(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.strip()


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "jcpulse", "sweep", "--n-min", "10",
             "--n-max", "10", "--points", "2"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("N,P_exact")

    def test_cli_import_needs_no_scipy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, jcpulse.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_quadrature_needs_no_numpy_polynomial(self):
        # The Gauss-Hermite nodes come from numpy.linalg, which numpy loads
        # anyway; numpy 2 loads numpy.polynomial only on first use.
        result = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys, numpy\n"
             "before = 'numpy.polynomial' in sys.modules\n"
             "import jcpulse.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = jcpulse.cli.main(['table2', '--n', '1e4'])\n"
             "print(code, before, 'numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        code, before, after = result.stdout.split()
        assert code == "0" and after == before

    def test_unknown_command_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "jcpulse", "frobnicate"],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""


class TestParserReuse:
    """main builds its parser once per process and hands out shallow copies."""

    def test_build_parser_returns_distinct_copies(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_rebound_parse_args_stays_on_its_copy(self):
        first = cli.build_parser()
        first.parse_args = lambda *args, **kwargs: pytest.fail("reached the next parser")
        assert cli.build_parser().parse_args(["table2", "--n", "1e6"]).n == 1e6

    def test_main_runs_the_current_command_binding(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_table2", lambda args: seen.append(args.n))
        assert run_cli(capsys, "table2", "--n", "123") == (0, "", "")
        assert seen == [123.0]

    MIXED = (
        ("table2", "--n", "100"),
        ("landscape", "--grid", "1"),
        ("sweep", "--help"),
        ("--version",),
        ("frobnicate",),
        ("moments", "--n", "abc"),
        ("sequence", "--n", "1e3", "--format", "json"),
    )

    def test_second_pass_repeats_the_first(self, capsys):
        cli._parser.cache_clear()  # the first pass builds the parser
        first, second = ([run_cli(capsys, *argv) for argv in self.MIXED] for _ in range(2))
        assert first == second
        assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 2, 0]


# Values that break some option: zero, negatives, non-finite, subnormal,
# huge and unparseable.
HOSTILE = ("0", "-1", "nan", "inf", "-inf", "1e-320", "5e-324", "1e20", "abc")
# Valid values keep every field at N <= 1e4, so an example takes milliseconds.
VALID = {
    "--n": ("100", "1e3", "1e4"), "--n-min": ("10", "1e3"), "--n-max": ("1e3", "1e4"),
    "--points": ("2", "3"), "--grid": ("2", "5"), "--k": ("0", "6"),
    "--number": ("0", "3"), "--kappa": ("0.1", "0.7"),
    "--theta0": ("0", "0.5", "1.7"), "--theta": ("0.25", "1"), "--vartheta": ("0.25", "0"),
    "--phi": ("0", "0.5"), "--tail-tol": ("1e-12", "1e-6", "0.5"),
    "--format": ("csv", "json"), "--seed": ("7",),
    "--spacing": ("log", "linear"), "--vartheta-mode": cli.PULSE_MODES,
    "--mode": ("quarter-pi", "bias-free", "optimal-fidelity-plus"),
    "--start": tuple(START_ANGLES),
}
COMMON = ("--tail-tol", "--format", "--seed")
OPTIONS = {
    "sweep": ("--theta0", "--theta", "--n-min", "--n-max", "--points", "--spacing",
              "--vartheta-mode", "--vartheta", *COMMON),
    "table2": ("--n", *COMMON),
    "sequence": ("--start", "--n", "--mode", *COMMON),
    "landscape": ("--theta", "--n", "--grid", *COMMON),
    "moments": ("--n", "--k", *COMMON),
    "kraus-dump": ("--n", "--number", "--phi", "--kappa", "--vartheta", *COMMON),
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(OPTIONS[command]), unique=True, max_size=4)):
        argv += [option, draw(st.sampled_from(VALID[option] + HOSTILE))]
    return argv


@given(command_lines())
@settings(max_examples=200, deadline=None)
def test_cli_contract_over_argument_space(argv):
    # Every example runs through this process's one parser.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE.search(out.getvalue() + err.getvalue()), argv
    else:
        assert out.getvalue() == "", argv
