"""Checks of one jcpulse command's exit code, stderr and output.

``check`` returns the problems it found; an empty list means the request
met the CLI contract and the output agrees with the paper's laws.  Only
the standard library is used, so the checks run in any benchmark
process.
"""

from __future__ import annotations

import json
import math
import re

from workloads import LAW_MIN_N, LAW_REL_TOL, MOMENT_TOL, RESIDUAL_TOL, Request

KRAUS_COLUMNS = ["n"] + [f"{m}_{p}" for m in ("M00", "M01", "M10", "M11") for p in ("re", "im")]
COLUMNS = {
    "sweep": ["N", "P_exact", "P_asymptotic", "gea_banacloche", "ozawa_bound", "delta",
              "vartheta_used"],
    "table2": ["theta0", "theta", "N_times_P_exact", "paper_coefficient", "relative_deviation"],
    "sequence": ["step", "target_angle", "P_exact", "P_mixture", "P_asymptote", "single_N",
                 "single_2N"],
    "landscape": ["Phi", "N_times_P_exact", "N_times_asymptote"],
    "moments": ["k", "mu_direct", "mu_recursive", "bound_1_over_N"],
    "kraus-dump": KRAUS_COLUMNS,
}

#: The CLI's documented defaults, for options a request leaves out.
DEFAULTS = {
    "sweep": {"--theta0": "0", "--theta": "0.25", "--n-min": "10", "--n-max": "1e4",
              "--points": "13", "--spacing": "log", "--vartheta-mode": "quarter-pi"},
    "table2": {"--n": "1e4"},
    "sequence": {"--start": "ground", "--n": "1e4", "--mode": "bias-free"},
    "landscape": {"--theta": "0.5", "--n": "1e4", "--grid": "9"},
    "moments": {"--n": "10", "--k": "6"},
    "kraus-dump": {},
}
START_ANGLES = {"ground": 0.0, "excited": math.pi / 2, "plus": math.pi / 4,
                "threequarter": 3 * math.pi / 4}

_NONFINITE = re.compile(r"(?i)(?<![\w-])-?(nan|inf|infinity)(?![\w-])")
_ERROR_LINE = re.compile(r"^jcpulse(?: [\w-]+)?: error: \S")
_STDERR_NOTE = {"landscape": "# argmax_phi=", "kraus-dump": "# completeness_residual="}


class CheckFailed(Exception):
    pass


def law(theta0: float, theta: float) -> float:
    """Leading coefficient c of P = c/N: (theta - cos(2 Phi) sin theta)^2 / 4."""
    amp = theta - math.cos(2.0 * theta0 + theta) * math.sin(theta)
    return amp * amp / 4.0


def _close(value: float, reference: float, rel: float, what: str) -> None:
    if not abs(value - reference) <= rel * abs(reference):
        raise CheckFailed(f"{what}: {value!r} vs {reference!r} (rel tol {rel:g})")


def _in_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise CheckFailed(f"{what} = {value!r} outside [0, 1]")


def _parse(sub: str, fmt: str, out: str) -> tuple[list[dict], dict]:
    """Rows as dicts of floats, plus the JSON payload (empty for CSV)."""
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["rows"]
        if sub == "kraus-dump":
            if any(list(row) != ["n", "M"] for row in rows):
                raise CheckFailed("kraus-dump JSON rows must have keys n, M")
            rows = [dict(zip(KRAUS_COLUMNS, [row["n"]] + [x for pair in row["M"] for x in pair]))
                    for row in rows]
        elif any(list(row) != COLUMNS[sub] for row in rows):
            raise CheckFailed(f"JSON row keys differ from {COLUMNS[sub]}")
        return [{k: float(v) for k, v in row.items()} for row in rows], payload
    lines = out.splitlines()
    if not lines or lines[0].split(",") != COLUMNS[sub]:
        raise CheckFailed(f"CSV header differs from {COLUMNS[sub]}")
    return [dict(zip(COLUMNS[sub], map(float, line.split(",")))) for line in lines[1:]], {}


def _rows(rows: list[dict], expected: int) -> None:
    if len(rows) != expected:
        raise CheckFailed(f"{len(rows)} rows, expected {expected}")


def _sweep(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    points = int(opts["--points"])
    _rows(rows, points)
    theta0, theta = float(opts["--theta0"]) * math.pi, float(opts["--theta"]) * math.pi
    n_min, n_max = float(opts["--n-min"]), float(opts["--n-max"])
    mode = opts["--vartheta-mode"]
    nominal = mode == "quarter-pi" or not math.isclose(theta, math.pi / 4)
    pole = any(math.isclose(theta0, a, abs_tol=1e-12) for a in (0.0, math.pi / 2))
    for i, row in enumerate(rows):
        if opts["--spacing"] == "log":
            n_mean = n_min * (n_max / n_min) ** (i / (points - 1))
        else:
            n_mean = n_min + (n_max - n_min) * i / (points - 1)
        _close(row["N"], n_mean, 1e-9, f"row {i} N")
        _in_unit(row["P_exact"], f"row {i} P_exact")
        if n_mean < LAW_MIN_N:
            continue
        if nominal:
            _close(row["N"] * row["P_exact"], law(theta0, theta), LAW_REL_TOL,
                   f"N*P at N={n_mean:.6g} against the 1/N law")
        elif pole:
            _close(row["P_exact"], row["P_asymptotic"], LAW_REL_TOL,
                   f"P at N={n_mean:.6g} against the first-order expansion")


def _table2(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    _rows(rows, 8)
    n_mean = float(opts["--n"])
    grid = [(t0, t) for t in (0.25, 0.5) for t0 in (0.0, 0.25, 0.5, 0.75)]
    for row, (t0, t) in zip(rows, grid):
        if (row["theta0"], row["theta"]) != (t0, t):
            raise CheckFailed(f"row ({row['theta0']}, {row['theta']}) out of order")
        coef = law(t0 * math.pi, t * math.pi)
        _close(row["paper_coefficient"], coef, 1e-9, f"coefficient at ({t0}, {t})")
        if n_mean >= LAW_MIN_N:
            _close(row["N_times_P_exact"], coef, LAW_REL_TOL, f"N*P at ({t0}, {t})")


def _sequence(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    _rows(rows, 2)
    n_mean = float(opts["--n"])
    theta0 = START_ANGLES[opts["--start"]]
    for i, row in enumerate(rows):
        if row["step"] != i + 1:
            raise CheckFailed(f"step column {row['step']} at row {i}")
        _close(row["target_angle"], theta0 / math.pi + 0.25 * (i + 1), 1e-9, "target_angle")
        for col in ("P_exact", "P_mixture", "single_N", "single_2N"):
            _in_unit(row[col], col)
    if n_mean < LAW_MIN_N:
        return
    flip = law(theta0, math.pi / 2)
    _close(n_mean * rows[0]["single_N"], flip, LAW_REL_TOL, "single flip at N")
    _close(2 * n_mean * rows[0]["single_2N"], flip, LAW_REL_TOL, "single flip at 2N")
    if opts["--mode"] == "quarter-pi":
        _close(n_mean * rows[0]["P_exact"], law(theta0, math.pi / 4), LAW_REL_TOL,
               "step 1 of a quarter-pi sequence")


def _landscape(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    grid = int(opts["--grid"])
    _rows(rows, grid)
    n_mean, theta = float(opts["--n"]), float(opts["--theta"]) * math.pi
    for i, row in enumerate(rows):
        phi = 0.5 * i / (grid - 1)
        _close(row["Phi"], phi, 1e-9, f"Phi at row {i}")
        coef = law(phi * math.pi - theta / 2, theta)
        _close(row["N_times_asymptote"], coef, 1e-9, f"asymptote at Phi={phi:.4g}")
        if n_mean >= LAW_MIN_N:
            _close(row["N_times_P_exact"], coef, LAW_REL_TOL, f"N*P at Phi={phi:.4g}")
    if payload:
        summary = payload["summary"]
        argmax, argmin = float(summary["argmax_phi"]), float(summary["argmin_phi"])
    else:
        match = re.match(r"# argmax_phi=(\S+) argmin_phi=(\S+) ", note)
        if not match:
            raise CheckFailed(f"landscape summary line unreadable: {note!r}")
        argmax, argmin = float(match[1]), float(match[2])
    if (argmax, argmin) != (0.5, 0.0):
        raise CheckFailed(f"argmax/argmin at Phi={argmax}/{argmin}, expected 0.5/0 (units of pi)")


def _moments(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    k_max = int(opts["--k"])
    _rows(rows, k_max + 1)
    n_mean = float(opts["--n"])
    for k, row in enumerate(rows):
        if row["k"] != k:
            raise CheckFailed(f"k column {row['k']} at row {k}")
        if not abs(row["mu_direct"] - row["mu_recursive"]) <= MOMENT_TOL:
            raise CheckFailed(f"mu_{k}: direct {row['mu_direct']!r} vs recursive "
                              f"{row['mu_recursive']!r}")
        _close(row["bound_1_over_N"], 1.0 / n_mean, 1e-9, "bound_1_over_N")


def _kraus_dump(opts: dict, rows: list[dict], payload: dict, note: str) -> None:
    ns = [int(row["n"]) for row in rows]
    if not ns or ns != list(range(ns[0], ns[0] + len(ns))):
        raise CheckFailed("Kraus indices are not one contiguous run")
    if "--number" in opts:
        m = int(opts["--number"])
        if ns != list(range(max(0, m - 1), m + 2)):
            raise CheckFailed(f"number-state indices {ns[0]}..{ns[-1]}, expected "
                              f"{max(0, m - 1)}..{m + 1}")
    elif payload:
        field = payload["field"]
        expected = len(field["magnitudes-log"]) + 1 + (field["n_offset"] > 0)
        _rows(rows, expected)
    elif not ns[0] <= float(opts["--n"]) <= ns[-1]:
        raise CheckFailed(f"window {ns[0]}..{ns[-1]} misses N={opts['--n']}")

    gram = [[0j, 0j], [0j, 0j]]
    for row in rows:
        m = [[complex(row[f"M{i}{j}_re"], row[f"M{i}{j}_im"]) for j in (0, 1)] for i in (0, 1)]
        for i in (0, 1):
            for k in (0, 1):
                gram[i][k] += m[0][i].conjugate() * m[0][k] + m[1][i].conjugate() * m[1][k]
    residual = max(abs(gram[i][k] - (i == k)) for i in (0, 1) for k in (0, 1))
    if payload:
        reported = float(payload["completeness_residual"])
    else:
        match = re.fullmatch(r"# completeness_residual=(\S+)", note)
        if not match:
            raise CheckFailed(f"completeness line unreadable: {note!r}")
        reported = float(match[1])
    if not (residual <= RESIDUAL_TOL and reported <= RESIDUAL_TOL):
        raise CheckFailed(f"completeness residual {residual:.3g} (reported {reported:.3g}) "
                          f"exceeds {RESIDUAL_TOL:g}")


_SEMANTICS = {"sweep": _sweep, "table2": _table2, "sequence": _sequence,
              "landscape": _landscape, "moments": _moments, "kraus-dump": _kraus_dump}


def options(argv) -> dict:
    """Options of a generated command line (all are --key value pairs)."""
    sub = argv[0]
    return {**DEFAULTS[sub], **dict(zip(argv[1::2], argv[2::2]))}


def check(request: Request, exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if exit_code != request.expect_exit:
        return [f"exit {exit_code}, expected {request.expect_exit}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    err_lines = stderr.splitlines()
    if exit_code == 2:
        problems = []
        if stdout:
            problems.append("stdout not empty on a usage error")
        if not err_lines or not _ERROR_LINE.match(err_lines[-1]):
            problems.append(f"no 'jcpulse: error:' diagnostic: {stderr[-200:]!r}")
        return problems
    if exit_code != 0:
        return [f"unexpected exit {exit_code}"]

    sub = request.argv[0]
    opts = options(request.argv)
    fmt = opts.get("--format", "csv")
    if _NONFINITE.search(stdout) or _NONFINITE.search(stderr):
        return ["NaN or inf in the output of a successful command"]
    note = ""
    if fmt == "csv" and sub in _STDERR_NOTE:
        if len(err_lines) != 1 or not err_lines[0].startswith(_STDERR_NOTE[sub]):
            return [f"stderr should be one '{_STDERR_NOTE[sub]}' line: {stderr[-200:]!r}"]
        note = err_lines[0]
    elif stderr:
        return [f"unexpected stderr: {stderr[-200:]!r}"]
    try:
        rows, payload = _parse(sub, fmt, stdout)
        _SEMANTICS[sub](opts, rows, payload, note)
    except CheckFailed as exc:
        return [str(exc)]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {fmt} output: {type(exc).__name__}: {exc}"]
    return []


def probe_rel_err(rows_by_request: list[tuple[Request, str]]) -> float:
    """max |N*P/coef - 1| over the probe's ground and excited rows."""
    worst = 0.0
    for request, stdout in rows_by_request:
        opts = options(request.argv)
        rows, _ = _parse("sweep", opts.get("--format", "csv"), stdout)
        sign = -1.0 if float(opts["--theta0"]) == 0.0 else 1.0
        coef = (math.pi + sign * 2.0) ** 2 / 64.0
        for row in rows:
            worst = max(worst, abs(row["N"] * row["P_exact"] / coef - 1.0))
    return worst
