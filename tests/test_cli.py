import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from jcpulse import (
    ControlSpec,
    compare_sequence_vs_single,
    error_rate_exact,
    make_coherent,
    resolve_pulse,
)
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
        ("table2", "--n", "inf"),
        ("landscape", "--n", "inf"),
        ("sequence", "--n", "inf"),
    ])
    def test_invalid_config_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip()


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
        comparison = compare_sequence_vs_single(PI / 2, START_ANGLES[start], 2000.0, mode=mode)
        assert rows[1]["P_exact"] == as_printed(comparison.two_step)
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

    def test_unknown_command_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "jcpulse", "frobnicate"],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""
