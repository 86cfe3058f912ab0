"""Command-line front end: sweeps and scenario tables as CSV or JSON.

All angles on the command line are given in units of pi (0.25 means
pi/4).  Output is deterministic: fixed row order, floats printed with 12
significant digits (the arrays of ``kraus-dump --format json``, rows and
field, carry full precision), no randomness anywhere (--seed is accepted for
interface stability only).
"""

from __future__ import annotations

import argparse
import copy
import csv
import errno
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .fock_field import (
    DEFAULT_TAIL_TOL,
    central_moments_direct,
    central_moments_recursive,
    coherent_window,
    make_coherent,
    make_number_state,
)
from .jc_channel import PulseSpec, build_kraus
from .error_metrics import (PULSE_MODES, ControlSpec, asymptote, error_report, gea_banacloche,
                            landscape_asymptote, ozawa_bound, resolve_pulse)
from .pulse_sequence import compare_sequence_vs_single

START_ANGLES = {
    "ground": 0.0,
    "excited": math.pi / 2,
    "plus": math.pi / 4,
    "threequarter": 3 * math.pi / 4,
}


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    """Floats at 12 digits, dicts entry by entry; lists (the field's arrays) at full precision."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


def _emit(args, rows, meta_params, extra=None) -> None:
    """Write rows as CSV (default) or JSON to stdout or --out.

    The first row's keys give the CSV header and the JSON key order.
    """
    if args.format == "json":
        payload = {
            "meta": {
                "command": args.command,
                "params": {k: _json_value(v) for k, v in meta_params.items()},
                "version": __version__,
            },
            "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
        }
        if extra:
            payload.update(_json_value(extra))
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str | None) -> None:
    """Raise the OSError that opening ``path`` for writing would raise if it is a
    directory, an existing file without write access, or a new file in a missing
    or unwritable directory; create nothing."""
    if not path:  # stdout, as in _emit
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not (os.access(path, os.W_OK) if os.path.exists(path)
              else os.access(parent, os.W_OK | os.X_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _photon_number(value: float, name: str) -> float:
    """A mean photon number: positive and finite, with a finite 1/N."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(1.0 / value):
        raise ValueError(f"{name} {value} is too small: 1/N overflows")
    return value


def cmd_sweep(args) -> None:
    """One row per N.  delta reads the twin ControlSpec(theta0, -theta0) from the same
    error_report: its target is R(0)|0> = |0>, so its error is the population on |1>."""
    n_min = _photon_number(args.n_min, "--n-min")
    n_max = _photon_number(args.n_max, "--n-max")
    if n_min > n_max:
        raise ValueError(f"--n-min {n_min} exceeds --n-max {n_max}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    if args.vartheta_mode == "explicit" and args.vartheta is None:
        raise ValueError("--vartheta-mode explicit requires --vartheta")
    coherent_window(n_max)  # the grid's widest window; raises before any field is built

    if args.spacing == "log":
        grid = np.geomspace(n_min, n_max, args.points)
    else:
        grid = np.linspace(n_min, n_max, args.points)

    control, twin = ControlSpec(args.theta0, args.theta), ControlSpec(args.theta0, -args.theta0)
    rows = []
    for n_mean in map(float, grid):
        pulse = resolve_pulse(args.vartheta_mode, n_mean, base=args.theta,
                              start_angle=args.theta0, vartheta=args.vartheta)
        # No name keeps the field, so the next point's is built without this one alive.
        exact, excited = error_report(
            (control, twin), build_kraus(make_coherent(n_mean, tail_tol=args.tail_tol), pulse))
        rows.append({
            "N": n_mean,
            "P_exact": exact,
            "P_asymptotic": asymptote(control, pulse.vartheta, n_mean),
            "gea_banacloche": gea_banacloche(n_mean),
            "ozawa_bound": ozawa_bound(n_mean),
            "delta": abs(excited - math.sin(control.target_angle) ** 2),
            "vartheta_used": pulse.vartheta,
        })
    _emit(args, rows, {
        "theta0": args.theta0 / math.pi, "theta": args.theta / math.pi,
        "n_min": n_min, "n_max": n_max, "points": args.points,
        "spacing": args.spacing, "vartheta_mode": args.vartheta_mode,
        "tail_tol": args.tail_tol,
    })


def cmd_table2(args) -> None:
    n_mean = _photon_number(args.n, "--n")
    if n_mean < 100:
        raise ValueError(f"--n must be >= 100 for the coefficient table, got {n_mean}")
    field = make_coherent(n_mean, tail_tol=args.tail_tol)
    rows = []
    for theta in (math.pi / 4, math.pi / 2):
        kraus = build_kraus(field, PulseSpec.from_vartheta(theta, n_mean))
        controls = tuple(ControlSpec(theta0, theta)
                         for theta0 in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))
        for control, error in zip(controls, error_report(controls, kraus)):
            coeff = n_mean * landscape_asymptote(control.midpoint_altitude, theta, n_mean)
            scaled = n_mean * error
            rows.append({
                "theta0": control.theta0 / math.pi,
                "theta": theta / math.pi,
                "N_times_P_exact": scaled,
                "paper_coefficient": coeff,
                "relative_deviation": abs(scaled - coeff) / coeff,
            })
    _emit(args, rows, {"N": n_mean, "tail_tol": args.tail_tol})


def cmd_sequence(args) -> None:
    n_mean = _photon_number(args.n, "--n")
    report, comparison = compare_sequence_vs_single(START_ANGLES[args.start], n_mean,
                                                    mode=args.mode, tail_tol=args.tail_tol)
    rows = []
    for i in range(len(report.per_step_error)):
        rows.append({
            "step": i + 1,
            "target_angle": report.target_angles[i] / math.pi,
            "P_exact": report.per_step_error[i],
            "P_mixture": report.per_step_mixture[i],
            "P_asymptote": report.per_step_asymptote[i],
            "single_N": comparison.single_N,
            "single_2N": comparison.single_2N,
        })
    _emit(args, rows, {"start": args.start, "N": n_mean, "mode": args.mode,
                       "tail_tol": args.tail_tol})


def cmd_landscape(args) -> None:
    n_mean = _photon_number(args.n, "--n")
    if not 0.0 <= args.theta <= math.pi:
        raise ValueError(f"--theta must lie in [0, 1] (units of pi), got {args.theta / math.pi}")
    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")

    kraus = build_kraus(make_coherent(n_mean, tail_tol=args.tail_tol),
                        PulseSpec.from_vartheta(args.theta, n_mean))
    midpoints = [float(m) for m in np.linspace(0.0, math.pi / 2, args.grid)]
    errors = error_report(tuple(ControlSpec(m - args.theta / 2, args.theta) for m in midpoints),
                          kraus)
    rows = []
    for midpoint, error in zip(midpoints, errors):
        rows.append({
            "Phi": midpoint / math.pi,
            "N_times_P_exact": n_mean * error,
            "N_times_asymptote": n_mean * landscape_asymptote(midpoint, args.theta, n_mean),
        })
    exact = [row["N_times_P_exact"] for row in rows]
    argmax_phi = rows[exact.index(max(exact))]["Phi"]
    argmin_phi = rows[exact.index(min(exact))]["Phi"]
    summary = {"argmax_phi": argmax_phi, "argmin_phi": argmin_phi}
    _emit(args, rows,
          {"theta": args.theta / math.pi, "N": n_mean, "grid": args.grid,
           "tail_tol": args.tail_tol},
          extra={"summary": summary} if args.format == "json" else None)
    if args.format == "csv":
        # Keep the data stream parseable: the summary goes to stderr.
        print(f"# argmax_phi={_fmt(argmax_phi)} argmin_phi={_fmt(argmin_phi)} "
              "(units of pi)", file=sys.stderr)


def cmd_moments(args) -> None:
    n_mean = _photon_number(args.n, "--n")
    if args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")
    bound = 1.0 / n_mean
    field = make_coherent(n_mean, tail_tol=args.tail_tol)
    direct = central_moments_direct(field, args.k)
    recursive = central_moments_recursive(n_mean, args.k)
    rows = []
    for k in range(args.k + 1):
        rows.append({
            "k": k,
            "mu_direct": direct[k],
            "mu_recursive": recursive[k],
            "bound_1_over_N": bound,
        })
    _emit(args, rows, {"N": n_mean, "K": args.k, "tail_tol": args.tail_tol})


def cmd_kraus_dump(args) -> None:
    if (args.number is None) == (args.n is None):
        raise ValueError("provide exactly one of --n (coherent) or --number (Fock)")
    if args.kappa is None and args.vartheta is None:
        raise ValueError("provide --kappa or --vartheta")

    if args.number is not None:
        if args.number < 0:
            raise ValueError(f"--number must be >= 0, got {args.number}")
        field = make_number_state(args.number)
        if args.kappa is None:
            raise ValueError("number-state fields need an explicit --kappa")
    else:
        field = make_coherent(_photon_number(args.n, "--n"), phase=args.phi,
                              tail_tol=args.tail_tol)
    n_mean = field.mean_photon_number
    if args.kappa is not None:
        pulse = PulseSpec.from_kappa(args.kappa, n_mean)
    else:
        pulse = PulseSpec.from_vartheta(args.vartheta, n_mean)

    kraus = build_kraus(field, pulse)
    rows = kraus.to_json_rows()
    residual = kraus.completeness_residual()
    if args.format == "json":
        _emit(args, rows,
              {"kappa": pulse.kappa, "tail_tol": args.tail_tol},
              extra={"field": field.to_json_dict(),
                     "completeness_residual": residual})
    else:
        columns = ["n"] + [f"M{i}{j}_{p}" for i in "01" for j in "01" for p in ("re", "im")]
        flat = [dict(zip(columns, [row["n"], *(x for pair in row["M"] for x in pair)]))
                for row in rows]
        _emit(args, flat, {"kappa": pulse.kappa, "tail_tol": args.tail_tol})
        print(f"# completeness_residual={_fmt(residual)}", file=sys.stderr)


def _pi_units(text: str) -> float:
    value = float(text) * math.pi
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (see build_parser)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                        help="Poisson tail mass allowed by truncation (default 1e-12)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", help="write output to FILE instead of stdout")
    common.add_argument("--seed", type=int, default=None,
                        help="reserved; the model is deterministic")

    parser = argparse.ArgumentParser(
        prog="jcpulse",
        description="Exact qubit-control error rates under finite-strength "
                    "quantized fields.  Angles are in units of pi.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Angle defaults below are given directly in radians because argparse
    # applies ``type`` only to strings coming from the command line.
    p = sub.add_parser("sweep", parents=[common],
                       help="error rate vs mean photon number")
    p.add_argument("--theta0", type=_pi_units, default=0.0)
    p.add_argument("--theta", type=_pi_units, default=math.pi / 4)
    p.add_argument("--n-min", type=float, default=10.0)
    p.add_argument("--n-max", type=float, default=1e4)
    p.add_argument("--points", type=int, default=13)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("--vartheta-mode", choices=PULSE_MODES, default="quarter-pi")
    p.add_argument("--vartheta", type=_pi_units, default=None,
                   help="half pulse area for --vartheta-mode explicit")

    p = sub.add_parser("table2", parents=[common],
                       help="scaled errors of half and full flips vs start altitude")
    p.add_argument("--n", type=float, default=1e4)

    p = sub.add_parser("sequence", parents=[common],
                       help="two successive half rotations vs one full flip")
    p.add_argument("--start", choices=sorted(START_ANGLES), default="ground")
    p.add_argument("--n", type=float, default=1e4,
                   help="photon budget per pulse")
    # A sequence takes no --vartheta, so "explicit" has nothing to resolve.
    p.add_argument("--mode", choices=[m for m in PULSE_MODES if m != "explicit"],
                   default="bias-free")

    p = sub.add_parser("landscape", parents=[common],
                       help="error vs midpoint altitude for a fixed rotation")
    p.add_argument("--theta", type=_pi_units, default=math.pi / 2)
    p.add_argument("--n", type=float, default=1e4)
    p.add_argument("--grid", type=int, default=9)

    p = sub.add_parser("moments", parents=[common],
                       help="Poisson central moments, direct vs recursive")
    p.add_argument("--n", type=float, default=10.0)
    p.add_argument("--k", type=int, default=6)

    p = sub.add_parser("kraus-dump", parents=[common],
                       help="dump the Kraus operators of one pulse")
    p.add_argument("--n", type=float, default=None,
                   help="coherent field mean photon number")
    p.add_argument("--number", type=int, default=None,
                   help="Fock field photon number")
    p.add_argument("--phi", type=_pi_units, default=math.pi / 2,
                   help="coherent phase (units of pi, default 0.5)")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--vartheta", type=_pi_units, default=None)

    return parser


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a shallow copy of the one built per process.

    Rebinding an attribute of a copy, such as ``parse_args``, does not reach
    the next one.  The sub-parsers and actions are shared, so add no
    arguments to a copy; ``parse_args`` leaves them unchanged.
    """
    return copy.copy(_parser())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up per call, so a rebound cmd_* (a wrapper or a test double) is the one run.
    command = {"sweep": cmd_sweep, "table2": cmd_table2, "sequence": cmd_sequence,
               "landscape": cmd_landscape, "moments": cmd_moments,
               "kraus-dump": cmd_kraus_dump}[args.command]
    try:
        _check_out(args.out)  # before any work; _emit's open may still fail
        command(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"jcpulse: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
