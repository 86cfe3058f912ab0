"""Seeded request streams of the three benchmark workloads.

A request is one jcpulse command line plus what the benchmark expects of
it.  A stream is a pure function of (workload, seed) and yields cycles,
lists of requests that the closed-loop client runs back to back.  The
same seed gives the same command lines, and jcpulse sees nothing else.

Why these workloads:

- ``deep-sweep``: in-process ``sweep`` commands from N ~ 1e4 to 1e8.
  Every point has a new N, so no field or Kraus set is shared; this is
  the kernel workload (apply_channel, build_kraus, make_coherent).
- ``shared-field``: in-process ``table2``, ``landscape`` and two
  ``sequence`` commands, each at one N in [5e5, 2e6].  Many controls
  reuse one field and one pulse, so caching or batching shows here and
  should show nothing on ``deep-sweep``.
- ``cli-cold``: one fresh ``python -m jcpulse`` process per request,
  all six subcommands at default sizes plus invalid requests.  Import
  and argument parsing dominate, and the invalid requests run the error
  path the other workloads never reach.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("deep-sweep", "shared-field", "cli-cold")

#: Workloads whose commands run in the workload process through
#: ``jcpulse.cli.main``; the rest start one process per request.
IN_PROCESS = ("deep-sweep", "shared-field")

#: Relative tolerance of N*P against the paper's 1/N law for controls with
#: the nominal pulse area, checked at N >= LAW_MIN_N.  The 1/N^2 remainder
#: is about 2.4/N relative, so 5e-3 holds from N = 1e3 with a 2x margin.
LAW_REL_TOL = 5e-3
LAW_MIN_N = 1e3

#: Bound on the Kraus completeness residual max|sum M^dag M - I|; the
#: Poisson tail mass (default tail_tol 1e-12) is all it should carry.
RESIDUAL_TOL = 1e-9

#: Bound on |mu_direct - mu_recursive| for the moments subcommand.
MOMENT_TOL = 1e-8

#: Precision probe: ground and excited half rotations at N = 1e8 with the
#: quarter-pi pulse.  N*P/coef - 1 with coef = (pi -+ 2)^2/64 has a
#: physical part of about 1e-8, so its size measures numerical error.
PROBE_N = 1e8
PROBE_REQUESTS = tuple(
    ("sweep", "--theta0", theta0, "--theta", "0.25", "--n-min", "1e8",
     "--n-max", "1e8", "--points", "2")
    for theta0 in ("0", "0.5"))

#: Cycles of a workload's stream that one traced pass replays.
TRACE_CYCLES = {"deep-sweep": 4, "shared-field": 1, "cli-cold": 1}

STARTS = ("excited", "ground", "plus", "threequarter")
SEQUENCE_MODES = ("quarter-pi", "optimal-fidelity", "bias-free",
                  "optimal-fidelity-plus", "optimal-fidelity-minus",
                  "bias-free-plus", "bias-free-minus")

#: Invalid requests that meet the CLI contract today (exit 2, one error
#: line); one per cli-cold cycle, drawn by the seed.
INVALID_REQUESTS = (
    ("table2", "--n", "50"),
    ("sweep", "--n-min", "0"),
    ("sweep", "--points", "two"),
    ("landscape", "--grid", "1"),
    ("kraus-dump", "--n", "100"),
    ("moments", "--k", "-1"),
    ("sequence", "--n", "-5"),
)

#: Invalid requests known to break the contract: each should exit 2, and
#: every cli-cold cycle sends all of them.  They count as failed requests
#: until the program is fixed.
KNOWN_DEFECTS = {
    ("table2", "--n", "inf"): "OverflowError traceback, exit 1",
    ("sweep", "--theta0", "nan"): "NaN rows, exit 0",
    ("moments", "--n", "1e-300"): "ZeroDivisionError traceback, exit 1",
}

#: Share of cli-cold requests that are invalid: 1 + len(KNOWN_DEFECTS) of
#: the 11 requests in each cycle.
CLI_COLD_CYCLE = 7 + 1 + len(KNOWN_DEFECTS)


@dataclass(frozen=True)
class Request:
    """One command line and the outcome the CLI contract promises.

    ``evals`` counts the control evaluations (exact error rates) the
    command performs, taken from the command line alone.
    """

    argv: tuple[str, ...]
    expect_exit: int = 0
    evals: int = 0
    known_defect: str = ""


def _num(value: float) -> str:
    return f"{value:.6g}"


#: Step of the low-discrepancy sequences that place N in its range.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng: random.Random) -> Iterator[float]:
    """Points in [0, 1) from a seeded start, stepping by the golden ratio.

    Any run of consecutive points covers [0, 1) about evenly, so the cost
    of a run depends far less on the seed than with independent draws.
    """
    u = rng.random()
    while True:
        yield u
        u = (u + _GOLDEN) % 1.0


def _deep_sweep(rng: random.Random) -> Iterator[list[Request]]:
    # Controls come in shuffled blocks that hold every combination once,
    # so each run sends nearly the same mix whatever the seed.
    controls = list(itertools.product(("0", "0.5"), ("0.25", "0.5"),
                                      ("quarter-pi", "optimal-fidelity", "bias-free")))
    spread = _spread(rng)
    while True:
        rng.shuffle(controls)
        for (theta0, theta, mode), u in zip(controls, spread):
            n_min = float(_num(1e4 + 1e4 * u))
            yield [Request((
                "sweep",
                "--theta0", theta0,
                "--theta", theta,
                "--n-min", _num(n_min),
                "--n-max", _num(5000.0 * n_min),
                "--points", "5",
                "--vartheta-mode", mode,
            ), evals=5)]


def _shared_field(rng: random.Random) -> Iterator[list[Request]]:
    # The four commands of a cycle take N a quarter of the range apart, so
    # every cycle spans [5e5, 2e6] and does about the same work.
    for u in _spread(rng):
        n_mean = [_num(5e5 + 1.5e6 * ((u + slot / 4.0) % 1.0)) for slot in range(4)]
        cycle = [
            Request(("table2", "--n", n_mean[0]), evals=8),
            Request(("landscape", "--n", n_mean[1], "--grid", "9",
                     "--theta", rng.choice(("0.25", "0.5", "0.75"))), evals=9),
        ]
        for slot in (2, 3):
            cycle.append(Request(("sequence", "--n", n_mean[slot],
                                  "--start", rng.choice(STARTS),
                                  "--mode", rng.choice(SEQUENCE_MODES)), evals=4))
        yield cycle


def _cli_cold(rng: random.Random) -> Iterator[list[Request]]:
    def n_mean() -> float:
        return float(_num(rng.uniform(1e3, 1e4)))

    for k in itertools.count():
        dump_n = n_mean()
        valid = [  # (argv, control evaluations)
            (("sweep", "--n-max", _num(n_mean())), 13),
            (("table2", "--n", _num(n_mean())), 8),
            (("sequence", "--n", _num(n_mean()), "--start", rng.choice(STARTS),
              "--mode", rng.choice(SEQUENCE_MODES)), 4),
            (("landscape", "--n", _num(n_mean()),
              "--theta", rng.choice(("0.25", "0.5", "0.75"))), 9),
            (("moments", "--n", _num(n_mean())), 0),
            (("kraus-dump", "--n", _num(dump_n),
              "--kappa", _num(math.pi / 4 / math.sqrt(dump_n))), 0),
            (("kraus-dump", "--number", str(rng.randint(0, 40)),
              "--kappa", _num(rng.uniform(0.1, 1.5))), 0),
        ]
        # Formats alternate along the cycle and between cycles, so any two
        # consecutive cycles send each command once as CSV and once as JSON.
        cycle = [Request(argv + ("--format", ("csv", "json")[(j + k) % 2]), evals=evals)
                 for j, (argv, evals) in enumerate(valid)]
        cycle.append(Request(rng.choice(INVALID_REQUESTS), expect_exit=2))
        cycle += [Request(argv, expect_exit=2, known_defect=why)
                  for argv, why in KNOWN_DEFECTS.items()]
        yield cycle


_STREAMS = {"deep-sweep": _deep_sweep, "shared-field": _shared_field, "cli-cold": _cli_cold}


def stream(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless cycles of requests for ``workload``, determined by ``seed``."""
    return _STREAMS[workload](random.Random(f"{workload}/{seed}"))


def probe_requests() -> list[Request]:
    return [Request(argv) for argv in PROBE_REQUESTS]
