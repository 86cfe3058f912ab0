"""Successive pulse controls with a fresh coherent field per pulse.

Each step traces out its field (the qubit generally leaves a step mixed)
and the next step starts with an independent pulse, so errors accumulate
open-loop: targets are the running classical Bloch states and are never
used to correct later pulses.

Alongside the exact cumulative error the report carries two cheaper
estimates: a two-branch statistical-mixture composition of per-step
pure-state errors (exact up to the O(1/N^2) coherence it discards, valid
when each step's population bias is suppressed, hence the bias-free
default), and the plain sum of the per-step leading 1/N terms.  Each step
builds one field and one Kraus set, which the running state and both
mixture branches share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock_field import DEFAULT_TAIL_TOL, make_coherent
from .jc_channel import PulseSpec, QubitState, apply_channel, build_kraus
from .error_metrics import (
    ControlSpec,
    error_rate_exact,
    error_report,
    landscape_asymptote,
    orthogonal_target,
    resolve_pulse,
)


@dataclass(frozen=True)
class SequenceStep:
    """One pulse: intended rotation, photon budget, pulse-area policy."""

    theta: float
    field_N: float
    pulse: PulseSpec = PulseSpec(mode="bias-free")

    def __post_init__(self):
        if self.field_N <= 0:
            raise ValueError(f"per-step photon budget must be positive, got {self.field_N}")


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


def _infer_start_angle(rho0: QubitState) -> float:
    """Altitude of a real-plane state: cos 2a and sin 2a from the matrix."""
    m = rho0.rho
    return 0.5 * math.atan2(2.0 * m[0, 1].real, float(m[1, 1].real - m[0, 0].real))


def _resolved_step_pulse(step: SequenceStep, start_angle: float) -> PulseSpec:
    if step.pulse.is_resolved:
        return step.pulse
    return resolve_pulse(step.pulse.mode, step.field_N, base=step.theta,
                         start_angle=start_angle)


def run_sequence(rho0: QubitState, steps: Sequence[SequenceStep],
                 theta0: float | None = None,
                 tail_tol: float = DEFAULT_TAIL_TOL) -> SequenceReport:
    """Apply the steps to ``rho0`` and report exact and estimated errors.

    ``theta0`` anchors the running classical target R(theta0 + sum theta_i)|0>;
    when omitted it is inferred from ``rho0`` (meaningful for states in the
    real plane of the Bloch sphere).  Each step builds a fresh coherent
    field with phase pi/2.  The run is deterministic: repeating it gives
    bitwise-identical reports.
    """
    if theta0 is None:
        theta0 = _infer_start_angle(rho0)

    rho = rho0
    angle = theta0
    mixture = 0.0
    asymptote = 0.0
    per_step, targets, mixtures, asymptotes = [], [], [], []

    for step in steps:
        pulse = _resolved_step_pulse(step, angle)
        field = make_coherent(step.field_N, phase=math.pi / 2, tail_tol=tail_tol)
        kraus = build_kraus(field, pulse)
        target = angle + step.theta
        # P = sum_i lambda_i weight(perp, v_i) over the input state's eigenpairs.
        lam, vecs = np.linalg.eigh(rho.rho)
        error = sum(p * kraus.weight(orthogonal_target(target), v) for p, v in zip(lam, vecs.T))
        per_step.append(min(max(float(error), 0.0), 1.0))
        rho = apply_channel(rho, kraus)

        # Two-branch mixture: the faithful branch sits on the previous
        # target, the leaked branch on its orthogonal complement; the
        # leaked branch reaches the new target exactly when it fails to
        # follow its own rotation.
        p_follow = error_report(ControlSpec(angle, step.theta), kraus).exact
        p_leaked = error_report(ControlSpec(angle + math.pi / 2, step.theta), kraus).exact
        mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture

        asymptote += landscape_asymptote(angle + 0.5 * step.theta, step.theta, step.field_N)
        angle = target
        targets.append(target)
        mixtures.append(mixture)
        asymptotes.append(asymptote)

    return SequenceReport(
        per_step_error=tuple(per_step),
        cumulative_exact=per_step[-1] if per_step else 0.0,
        cumulative_mixture=mixture,
        cumulative_asymptote=asymptote,
        final_state=rho,
        target_angles=tuple(targets),
        per_step_mixture=tuple(mixtures),
        per_step_asymptote=tuple(asymptotes),
    )


def split_flip(theta0: float, n_mean: float, mode: str = "bias-free",
               tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[SequenceReport, SequenceComparison]:
    """Run two half rotations with budget N each once; compare one full flip with N or 2N."""
    quarter = math.pi / 4
    steps = [SequenceStep(quarter, n_mean, PulseSpec(mode=mode))] * 2
    report = run_sequence(QubitState.pure(theta0), steps, theta0=theta0, tail_tol=tail_tol)

    control = ControlSpec(theta0, math.pi / 2)
    singles = []
    for budget in (n_mean, 2.0 * n_mean):
        field = make_coherent(budget, phase=math.pi / 2, tail_tol=tail_tol)
        pulse = resolve_pulse("quarter-pi", budget, base=math.pi / 2, start_angle=theta0)
        singles.append(error_rate_exact(control, field, pulse))
    return report, SequenceComparison(report.cumulative_exact, *singles)


def compare_sequence_vs_single(theta_total: float, theta0: float, n_mean: float,
                               mode: str = "bias-free",
                               tail_tol: float = DEFAULT_TAIL_TOL) -> SequenceComparison:
    """Two half rotations with budget N each vs one full flip with N or 2N.

    Only the split of a full flip (theta_total = pi/2) into two pi/4 steps
    is implemented; see split_flip.
    """
    if not math.isclose(theta_total, math.pi / 2, abs_tol=1e-12):
        raise ValueError("only theta_total = pi/2 (a full flip) is supported")
    return split_flip(theta0, n_mean, mode=mode, tail_tol=tail_tol)[1]
