"""Digest of the jcpulse command-line contract over a fixed command matrix.

Run from anywhere with ``python scripts/cli_digest.py``; it imports jcpulse
from the ``src`` directory next to this script and runs every command
in-process through ``jcpulse.cli.main``.  It prints one tab-separated line
per command: the command, its exit code, and the sha256 of its stdout and
of its stderr.  Two trees print the same lines exactly when their CLI
output is byte-identical over the matrix, so ``diff`` of two runs lists the
commands whose output changed.

The matrix is the ``sequence`` grid (N 1e2..1e8, four starts, seven pulse
modes, CSV and JSON), variants of the other subcommands (some on both sides
of the threshold N = 1e3 of the Gauss-Hermite rule), and invalid commands.  The script exits 1 on a contract break, reported on stderr: an
exit code other than 0 or 2, an exception, a NaN or infinite value in the
output on exit 0, or stdout on exit 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jcpulse import cli  # noqa: E402

STARTS = ("excited", "ground", "plus", "threequarter")
SEQUENCE_MODES = ("quarter-pi", "optimal-fidelity", "optimal-fidelity-plus",
                  "optimal-fidelity-minus", "bias-free", "bias-free-plus", "bias-free-minus")
SEQUENCE_N = ("1e2", "1e3", "1e4", "1e5", "1e6", "1e7", "1e8")

OTHER_COMMANDS = (
    ("--version",),
    ("sweep",),
    ("sweep", "--format", "json"),
    ("sweep", "--theta0", "0.5", "--n-min", "1e2", "--n-max", "1e6", "--points", "5"),
    ("sweep", "--vartheta-mode", "bias-free", "--n-min", "1e2", "--n-max", "1e8", "--points", "7"),
    ("sweep", "--vartheta-mode", "optimal-fidelity", "--theta0", "0.5", "--points", "4"),
    ("sweep", "--vartheta-mode", "explicit", "--vartheta", "0.2", "--points", "4"),
    ("sweep", "--spacing", "linear", "--n-min", "10", "--n-max", "1000", "--points", "4"),
    ("sweep", "--theta0", "0.3", "--theta", "0.7", "--n-min", "50", "--n-max", "5e4",
     "--points", "4", "--format", "json"),
    # Windows across the 2**14-level pieces of a streamed evaluation.
    ("sweep", "--spacing", "linear", "--n-min", "1e6", "--n-max", "4e6", "--points", "4"),
    ("sweep", "--n-min", "1e7", "--n-max", "1e8", "--points", "3", "--tail-tol", "1e-16"),
    ("sweep", "--theta0", "0.3", "--theta", "0.7", "--n-min", "1e6", "--n-max", "1e8",
     "--points", "3", "--format", "json"),
    ("table2",),
    ("table2", "--n", "100"),
    ("table2", "--n", "1e6", "--format", "json"),
    ("table2", "--n", "1e8"),
    ("landscape",),
    ("landscape", "--theta", "0.25", "--n", "1e3", "--grid", "5"),
    ("landscape", "--theta", "1", "--n", "1e6", "--format", "json"),
    ("landscape", "--theta", "0.75", "--n", "1e8", "--grid", "3"),
    ("moments",),
    ("moments", "--n", "1e6", "--k", "8"),
    ("moments", "--n", "1", "--format", "json"),
    ("kraus-dump", "--number", "0", "--kappa", "0.7"),
    ("kraus-dump", "--number", "5", "--kappa", "0.3", "--format", "json"),
    ("kraus-dump", "--n", "25", "--vartheta", "0.25"),
    ("kraus-dump", "--n", "100", "--kappa", "0.1"),
    ("kraus-dump", "--n", "100", "--kappa", "0.1", "--phi", "0", "--format", "json"),
    ("kraus-dump", "--n", "1e4", "--vartheta", "0.25", "--phi", "1.5"),
    # A generic coherent phase in JSON and a larger number state.
    ("kraus-dump", "--n", "1e4", "--vartheta", "0.25", "--phi", "0.13", "--format", "json"),
    ("kraus-dump", "--number", "17", "--kappa", "0.3"),
    # Both sides of QUAD_MIN_N = 1e3, where coherent fields switch from the
    # level sum to the Gauss-Hermite rule: a sweep across it, table2 just
    # below it and at it, and a sequence whose 2N flip crosses it.
    ("sweep", "--spacing", "linear", "--n-min", "500", "--n-max", "1500", "--points", "5"),
    ("table2", "--n", "999"),
    ("table2", "--n", "1000"),
    ("sequence", "--n", "600", "--start", "plus", "--format", "json"),
)

INVALID_COMMANDS = (
    ("frobnicate",),
    ("sweep", "--n-min", "-1", "--n-max", "10"),
    ("sweep", "--n-min", "100", "--n-max", "10"),
    ("sweep", "--points", "1"),
    ("sweep", "--vartheta-mode", "explicit"),
    ("sweep", "--theta0", "nan"),
    ("sweep", "--n-max", "inf"),
    ("sweep", "--n-max", "1e20", "--points", "2"),
    ("sweep", "--n-max", "1e20"),
    ("sweep", "--vartheta-mode", "explicit", "--vartheta", "1e300", "--points", "2"),
    ("sweep", "--points", "1000000000000000"),
    ("sweep", "--n-min", "5e-324", "--vartheta", "0", "--theta", "1e20"),
    ("sweep", "--n-min", "1e-296", "--theta", "1e20", "--points", "2"),
    ("table2", "--n", "inf"),
    ("table2", "--n", "50"),
    ("table2", "--n", "1e20"),
    ("table2", "--out", "/nonexistent/dir/x.csv"),
    ("landscape", "--n", "inf"),
    ("landscape", "--n", "1e20"),
    ("landscape", "--grid", "1"),
    ("landscape", "--grid", "1000000000000000"),
    ("landscape", "--n", "1e-320"),
    ("sequence", "--n", "inf"),
    ("sequence", "--n", "-4"),
    ("sequence", "--n", "1e20"),
    ("sequence", "--mode", "explicit"),
    ("sequence", "--n", "5e-324", "--tail-tol", "0.9"),
    ("sequence", "--n", "5e-324", "--tail-tol", "0.9", "--mode", "quarter-pi"),
    ("moments", "--n", "1e20"),
    ("moments", "--k", "-1"),
    ("moments", "--n", "1e-300"),
    ("moments", "--n", "1e-60"),
    ("moments", "--n", "1e-320", "--k", "0"),
    ("moments", "--k", "1000000000000000"),
    ("kraus-dump",),
    ("kraus-dump", "--n", "10", "--number", "3", "--kappa", "0.1"),
    ("kraus-dump", "--n", "10"),
    ("kraus-dump", "--number", "2", "--vartheta", "0.25"),
    ("kraus-dump", "--n", "inf", "--kappa", "0.1"),
    ("kraus-dump", "--n", "1e20", "--kappa", "1e-10"),
    ("kraus-dump", "--n", "100", "--kappa", "0.1", "--phi", "1e308"),
    ("kraus-dump", "--n", "100", "--kappa", "1e308"),
    ("kraus-dump", "--number", "4", "--kappa", "1e308"),
)

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def commands():
    for n_mean in SEQUENCE_N:
        for start in STARTS:
            for mode in SEQUENCE_MODES:
                for fmt in ("csv", "json"):
                    yield ("sequence", "--n", n_mean, "--start", start, "--mode", mode,
                           "--format", fmt)
    yield from OTHER_COMMANDS
    yield from INVALID_COMMANDS


def run(argv: tuple[str, ...]) -> tuple[object, str, str]:
    """Exit code (or the exception's type name), stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is itself a contract break
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def contract_break(code, stdout: str, stderr: str) -> str | None:
    if code not in (0, 2):
        return f"exit {code}"
    if code == 0 and (_NON_FINITE.search(stdout) or _NON_FINITE.search(stderr)):
        return "NaN or inf output on exit 0"
    if code == 2 and stdout:
        return "stdout on exit 2"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    warnings.simplefilter("always")  # each command's stderr depends on that command only
    breaks = 0
    for argv in commands():
        code, stdout, stderr = run(argv)
        print(" ".join(argv), code, sha256(stdout), sha256(stderr), sep="\t", flush=True)
        problem = contract_break(code, stdout, stderr)
        if problem:
            breaks += 1
            print(f"cli_digest: contract break: {' '.join(argv)}: {problem}", file=sys.stderr)
    return 1 if breaks else 0


if __name__ == "__main__":
    raise SystemExit(main())
