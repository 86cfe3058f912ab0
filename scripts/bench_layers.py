"""Median wall time of each jcpulse layer, of parsing and of six CLI commands, in-process.

Run from anywhere with ``python scripts/bench_layers.py``; it imports
jcpulse from the ``src`` directory next to this script and prints one JSON
object.  Every row is the median of REPEAT = 15 timed calls.  BLAS is pinned to one thread before numpy is imported,
as in ``perfbench``, so the numbers do not depend on the host's core count.

Each layer is timed separately at N = 1e4, 1e6 and 1e8 against a coherent
field of phase pi/2 and the quarter-pi pulse.  The first row counts the
points of the sum over n: ``nodes`` where the pulse is summed by the
field's Gauss-Hermite rule (N >= 1e3), ``levels`` where it walks the
number window.

- ``make_coherent``: the field (its validation; the window is built only
  where a layer reads it);
- ``error_report``: one control from the ground pole, one coupling column,
  the pass over the pulse's rule included (``sweep`` runs two
  columns per point: its control and the twin behind ``delta``);
- ``error_report_table2``: table2's eight controls (four start altitudes,
  each turned by pi/4 and by pi/2) batched on the one pulse, one column each;
- ``apply_channel``: the ground state through a freshly built Kraus set,
  so that work a Kraus set builds on its first use is counted;
- ``run_sequence``: two pi/4 steps from the ground pole on a built field.

The CLI rows run ``jcpulse.cli.main`` with stdout and stderr captured.
``table2 --n 100`` (a 200-level field) is the fixed cost of a command:
parsing, a small evaluation and the CSV output.  ``kraus-dump --n 1e4``
writes the 1.6k-level operator table and its completeness residual.  The ``cli_parse`` row is
``build_parser().parse_args`` of ``table2 --n 1e6`` alone.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from jcpulse import (  # noqa: E402
    ControlSpec,
    QubitState,
    apply_channel,
    build_kraus,
    error_report,
    make_coherent,
    resolve_pulse,
    run_sequence,
)
from jcpulse import cli  # noqa: E402

REPEAT = 15
LAYER_N = ("1e4", "1e6", "1e8")
CLI_COMMANDS = (
    ("table2", "--n", "100"),
    ("sweep", "--n-min", "1e4", "--n-max", "1e8", "--points", "5"),
    ("table2", "--n", "1e6"),
    ("landscape", "--n", "1e6"),
    ("sequence", "--n", "1e6"),
    ("kraus-dump", "--n", "1e4", "--vartheta", "0.25"),
)


def median_ms(fn, setup=lambda: None) -> float:
    """Median over REPEAT calls of fn(setup()); setup is not timed."""
    times = []
    for _ in range(REPEAT):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 4)


def layer_times(n_mean: float) -> dict[str, float]:
    field = make_coherent(n_mean)
    pulse = resolve_pulse("quarter-pi", n_mean)
    kraus = build_kraus(field, pulse)
    one_control = (ControlSpec(0.0, math.pi / 4),)
    table2 = tuple(ControlSpec(theta0, theta) for theta in (math.pi / 4, math.pi / 2)
                   for theta0 in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))
    ground = QubitState.ground()
    return {
        "nodes" if kraus.levels is None else "levels": len(kraus),
        "make_coherent": median_ms(lambda _: make_coherent(n_mean)),
        "error_report": median_ms(lambda _: error_report(one_control, kraus)),
        "error_report_table2": median_ms(lambda _: error_report(table2, kraus)),
        "apply_channel": median_ms(lambda fresh: apply_channel(ground, fresh),
                                   setup=lambda: build_kraus(field, pulse)),
        "run_sequence": median_ms(
            lambda _: run_sequence(0.0, [math.pi / 4] * 2, field)),
    }


def cli_ms(argv: tuple[str, ...]) -> float:
    def run(_):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"jcpulse {' '.join(argv)} exited {code}")
    return median_ms(run)


def parse_ms() -> float:
    return median_ms(lambda _: cli.build_parser().parse_args(["table2", "--n", "1e6"]))


def main() -> int:
    result = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "blas_threads": 1},
        "layers_ms": {f"N={n}": layer_times(float(n)) for n in LAYER_N},
        "cli_ms": {"cli_parse": parse_ms(),
                   **{" ".join(argv): cli_ms(argv) for argv in CLI_COMMANDS}},
    }
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
