"""Successive pulse controls, each on a fresh copy of one field state.

Each step traces out its copy of the field (the qubit generally leaves a
step mixed) and the next step starts with an independent copy, so errors
accumulate open-loop: targets are the running classical Bloch states and
are never used to correct later pulses.

Alongside the exact error after each step the report carries two
estimates: a two-branch statistical-mixture composition of per-step
pure-state errors (exact up to the O(1/N^2) coherence it discards, valid
when each step's population bias is suppressed, hence the bias-free
default), read from the same Grams as the exact error, and the plain sum
of the per-step leading 1/N terms.

The running state is carried in the frame of its current target and that
target's orthogonal complement, where its O(1/N) entries are sums of
per-level products of their own size.  In the lab basis they would be
differences of O(1) entries, and the next step's error, which weighs the
state's small eigenvalue, would inherit their absolute rounding (about
1e-16, or 1e-7 relative at N = 1e8).  The targets are classical, so every
frame is known before any evaluation, and one pass over each distinct
pulse's Kraus index (KrausSet.grams) serves every step that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock_field import DEFAULT_TAIL_TOL, FieldState, make_coherent
from .jc_channel import build_kraus, frame_step
from .error_metrics import (
    ControlSpec,
    error_rate_exact,
    landscape_asymptote,
    orthogonal_target,
    resolve_pulse,
)


@dataclass(frozen=True)
class SequenceReport:
    """Errors of one sequence run after each step; the last entries are cumulative."""

    per_step_error: tuple[float, ...]
    target_angles: tuple[float, ...]
    per_step_mixture: tuple[float, ...]
    per_step_asymptote: tuple[float, ...]


class SequenceComparison(NamedTuple):
    single_N: float
    single_2N: float


def run_sequence(theta0: float, steps: Sequence[float], field: FieldState,
                 mode: str = "bias-free") -> SequenceReport:
    """Rotate R(theta0)|0> by each angle in ``steps``; report exact and estimated errors.

    Each step resolves its pulse by ``mode`` and acts with a fresh copy of
    ``field``; its classical target is R(theta0 + sum theta_i)|0>.  The run
    is deterministic: repeating it gives bitwise-identical reports.
    """
    n_mean = field.mean_photon_number
    angles = [theta0]
    for theta in steps:
        angles.append(angles[-1] + theta)
    # Rows R(angle)|0> and R(angle)|1>: each target and its orthogonal complement.
    frames = [np.array([[math.sin(a), math.cos(a)], orthogonal_target(a)]) for a in angles]
    pulses = [resolve_pulse(mode, n_mean, base=theta, start_angle=angle)
              for theta, angle in zip(steps, angles)]

    # One pass per distinct pulse.  Step i's Gram has the columns
    # b_a^T M_n u_k (u = frames[i], b = frames[i + 1]) in the order 2k + a;
    # step 1 starts from u_0 alone.
    grams = {}
    for pulse in dict.fromkeys(pulses):
        kraus = build_kraus(field, pulse)
        mine = [i for i, p in enumerate(pulses) if p == pulse]
        groups = [[kraus.coupling(b, u) for u in (frames[i][:1] if i == 0 else frames[i])
                   for b in frames[i + 1]] for i in mine]
        grams.update(zip(mine, kraus.grams(groups)))

    sigma = np.ones((1, 1))  # the start u_0 = R(theta0)|0> in the frame (u_0)
    mixture = 0.0
    asymptote = 0.0
    per_step, mixtures, asymptotes = [], [], []
    for i, theta in enumerate(steps):
        sigma = frame_step(sigma, grams[i])
        per_step.append(min(max(float(sigma[1, 1].real), 0.0), 1.0))

        # Two-branch mixture: the faithful branch starts on u_0 and errs into
        # b_1, the (k, a) = (0, 1) entry; the leaked branch starts on u_1 and
        # fails to follow its rotation into the new target b_0, the (1, 0)
        # entry.  Step 1 has no leaked branch.
        p_follow = min(float(grams[i][1, 1].real), 1.0)
        p_leaked = min(float(grams[i][2, 2].real), 1.0) if i else 0.0
        mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture

        asymptote += landscape_asymptote(angles[i] + 0.5 * theta, theta, n_mean)
        mixtures.append(mixture)
        asymptotes.append(asymptote)

    return SequenceReport(
        per_step_error=tuple(per_step),
        target_angles=tuple(angles[1:]),
        per_step_mixture=tuple(mixtures),
        per_step_asymptote=tuple(asymptotes),
    )


def compare_sequence_vs_single(theta0: float, n_mean: float, *, mode: str = "bias-free",
                               tail_tol: float = DEFAULT_TAIL_TOL
                               ) -> tuple[SequenceReport, SequenceComparison]:
    """Split a full flip into two pi/4 steps with budget N each; compare one flip with N or 2N.

    Returns the two-step run's report, whose ``per_step_error[-1]`` is the
    split flip's error, and the errors of the single flips.  The half
    rotations and the N flip share one field; the 2N flip builds its own.
    """
    field = make_coherent(n_mean, tail_tol=tail_tol)
    report = run_sequence(theta0, [math.pi / 4] * 2, field, mode=mode)

    control = ControlSpec(theta0, math.pi / 2)
    singles = []
    for flip_field in (field, make_coherent(2.0 * n_mean, tail_tol=tail_tol)):
        pulse = resolve_pulse("quarter-pi", flip_field.mean_photon_number, base=math.pi / 2,
                              start_angle=theta0)
        singles.append(error_rate_exact(control, flip_field, pulse))
    return report, SequenceComparison(*singles)
