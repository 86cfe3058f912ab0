"""Successive pulse controls, each on a fresh copy of one field state.

Each step traces out its copy of the field (the qubit generally leaves a
step mixed) and the next step starts with an independent copy, so errors
accumulate open-loop: targets are the running classical Bloch states and
are never used to correct later pulses.

Alongside the exact cumulative error the report carries two cheaper
estimates: a two-branch statistical-mixture composition of per-step
pure-state errors (exact up to the O(1/N^2) coherence it discards, valid
when each step's population bias is suppressed, hence the bias-free
default), and the plain sum of the per-step leading 1/N terms.  A step
builds a Kraus set only when its resolved pulse changes; the running
state and both mixture branches share it.

The running state is carried in the basis of its current target and that
target's orthogonal complement, where its O(1/N) entries are sums of
per-level products of their own size.  In the lab basis they would be
differences of O(1) entries, and the next step's error, which weighs the
state's small eigenvalue, would inherit their absolute rounding (about
1e-16, or 1e-7 relative at N = 1e8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock_field import DEFAULT_TAIL_TOL, FieldState, make_coherent
from .jc_channel import KrausSet, QubitState, build_kraus, sum_of_squares
from .error_metrics import (
    ControlSpec,
    error_rate_exact,
    error_report,
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
    final_state: QubitState
    target_angles: tuple[float, ...]
    per_step_mixture: tuple[float, ...]
    per_step_asymptote: tuple[float, ...]


class SequenceComparison(NamedTuple):
    two_step: float
    single_N: float
    single_2N: float


def _output_in_basis(kraus: KrausSet, lam, vecs, basis: np.ndarray) -> np.ndarray:
    """B (sum_n M_n rho M_n^dag) B^T for rho = sum_k lam_k v_k v_k^dag.

    ``basis`` holds the real orthonormal rows B; ``vecs`` holds the v_k
    as columns.  Each branch's amplitudes on the two rows are computed
    once: the diagonal entries are their sums of squares and the
    off-diagonal one sums their per-level products.
    """
    out = np.zeros((2, 2), dtype=complex)
    for p, v in zip(lam, vecs.T):
        amp0, amp1 = kraus.amplitudes(basis[0], v), kraus.amplitudes(basis[1], v)
        out[0, 0] += p * sum_of_squares(amp0)
        out[1, 1] += p * sum_of_squares(amp1)
        out[0, 1] += p * np.sum(amp0 * amp1.conj())
    out[1, 0] = out[0, 1].conjugate()
    return out


def run_sequence(theta0: float, steps: Sequence[float], field: FieldState,
                 mode: str = "bias-free") -> SequenceReport:
    """Rotate R(theta0)|0> by each angle in ``steps``; report exact and estimated errors.

    Each step resolves its pulse by ``mode`` and acts with a fresh copy of
    ``field``; its classical target is R(theta0 + sum theta_i)|0>.  The run
    is deterministic: repeating it gives bitwise-identical reports.
    """
    n_mean = field.mean_photon_number
    final_state = QubitState.pure(theta0)
    lam, vecs = (1.0,), np.array([[math.sin(theta0)], [math.cos(theta0)]])
    angle = theta0
    kraus = None
    mixture = 0.0
    asymptote = 0.0
    per_step, targets, mixtures, asymptotes = [], [], [], []

    for theta in steps:
        pulse = resolve_pulse(mode, n_mean, base=theta, start_angle=angle)
        if kraus is None or kraus.pulse != pulse:
            kraus = build_kraus(field, pulse)
        target = angle + theta
        # The output state in the basis (target, orthogonal target); its
        # weight on the orthogonal target is the error.
        basis = np.array([[math.sin(target), math.cos(target)], orthogonal_target(target)])
        sigma = _output_in_basis(kraus, lam, vecs, basis)
        per_step.append(min(max(float(sigma[1, 1].real), 0.0), 1.0))
        lam, frame_vecs = np.linalg.eigh(sigma)
        vecs = basis.T @ frame_vecs
        final_state = QubitState(rho=basis.T @ sigma @ basis)

        # Two-branch mixture: the faithful branch sits on the previous
        # target, the leaked branch on its orthogonal complement; the
        # leaked branch reaches the new target exactly when it fails to
        # follow its own rotation.
        p_follow = error_report(ControlSpec(angle, theta), kraus).exact
        p_leaked = error_report(ControlSpec(angle + math.pi / 2, theta), kraus).exact
        mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture

        asymptote += landscape_asymptote(angle + 0.5 * theta, theta, n_mean)
        angle = target
        targets.append(target)
        mixtures.append(mixture)
        asymptotes.append(asymptote)

    return SequenceReport(
        per_step_error=tuple(per_step),
        cumulative_exact=per_step[-1] if per_step else 0.0,
        cumulative_mixture=mixture,
        cumulative_asymptote=asymptote,
        final_state=final_state,
        target_angles=tuple(targets),
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
