"""Successive pulse controls, each on a fresh copy of one field state.

Each step traces out its copy of the field (the qubit generally leaves a
step mixed) and the next step starts with an independent copy, so errors
accumulate open-loop: targets are the running classical Bloch states and
are never used to correct later pulses.

Alongside the exact cumulative error the report carries two cheaper
estimates: a two-branch statistical-mixture composition of per-step
pure-state errors (exact up to the O(1/N^2) coherence it discards, valid
when each step's population bias is suppressed, hence the bias-free
default), and the plain sum of the per-step leading 1/N terms.

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
from .jc_channel import build_kraus
from .error_metrics import (
    ControlSpec,
    error_pair,
    error_rate_exact,
    landscape_asymptote,
    orthogonal_target,
    resolve_pulse,
)


@dataclass(frozen=True)
class SequenceReport:
    """Per-step and cumulative errors of one sequence run."""

    per_step_error: tuple[float, ...]
    cumulative_exact: float
    cumulative_mixture: float
    cumulative_asymptote: float
    target_angles: tuple[float, ...]
    per_step_mixture: tuple[float, ...]
    per_step_asymptote: tuple[float, ...]


class SequenceComparison(NamedTuple):
    two_step: float
    single_N: float
    single_2N: float


def _step(sigma: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """sum_kl sigma[k, l] H[(a, k), (b, l)] for each (a, b), where gram[2k + a, 2l + b]
    holds H; each real and imaginary part is one math.fsum of its products."""
    m = len(sigma)
    terms = (sigma[:, None, :, None] * gram.reshape(m, 2, m, 2)).transpose(1, 3, 0, 2)
    return np.array([[complex(math.fsum(t.real.ravel()), math.fsum(t.imag.ravel()))
                      for t in row] for row in terms])


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
    # step 1 starts from u_0 alone.  Its (k, a) = (0, 1) entry is the error
    # of the branch that follows, and a second group holds the error of the
    # leaked branch, which starts on the previous orthogonal target.
    grams, leaked = [None] * len(steps), [None] * len(steps)
    for pulse in dict.fromkeys(pulses):
        kraus = build_kraus(field, pulse)
        mine = [i for i, p in enumerate(pulses) if p == pulse]
        groups = []
        for i in mine:
            starts = frames[i][:1] if i == 0 else frames[i]
            groups.append([kraus.coupling(b, u) for u in starts for b in frames[i + 1]])
            groups.append([kraus.coupling(*error_pair(ControlSpec(angles[i] + math.pi / 2,
                                                                  steps[i])))])
        results = kraus.grams(groups)
        for i, gram, leak in zip(mine, results[::2], results[1::2]):
            grams[i], leaked[i] = gram, float(leak[0, 0].real)

    sigma = np.ones((1, 1))  # the start u_0 = R(theta0)|0> in the frame (u_0)
    mixture = 0.0
    asymptote = 0.0
    per_step, mixtures, asymptotes = [], [], []
    for i, theta in enumerate(steps):
        sigma = _step(sigma, grams[i])
        per_step.append(min(max(float(sigma[1, 1].real), 0.0), 1.0))

        # Two-branch mixture: the faithful branch sits on the previous
        # target, the leaked branch on its orthogonal complement; the
        # leaked branch reaches the new target exactly when it fails to
        # follow its own rotation.
        p_follow = min(float(grams[i][1, 1].real), 1.0)
        p_leaked = min(leaked[i], 1.0)
        mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture

        asymptote += landscape_asymptote(angles[i] + 0.5 * theta, theta, n_mean)
        mixtures.append(mixture)
        asymptotes.append(asymptote)

    return SequenceReport(
        per_step_error=tuple(per_step),
        cumulative_exact=per_step[-1] if per_step else 0.0,
        cumulative_mixture=mixture,
        cumulative_asymptote=asymptote,
        target_angles=tuple(angles[1:]),
        per_step_mixture=tuple(mixtures),
        per_step_asymptote=tuple(asymptotes),
    )


def compare_sequence_vs_single(theta0: float, n_mean: float, *, mode: str = "bias-free",
                               tail_tol: float = DEFAULT_TAIL_TOL
                               ) -> tuple[SequenceReport, SequenceComparison]:
    """Split a full flip into two pi/4 steps with budget N each; compare one flip with N or 2N.

    Returns the two-step run's report and the comparison.  The half
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
    return report, SequenceComparison(report.cumulative_exact, *singles)
