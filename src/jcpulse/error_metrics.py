"""Exact and asymptotic control error rates for rotation pulses.

Error rate convention: P = 1 - F^2, the population of the state
orthogonal to the target after the pulse.  Controls rotate the pure state
R(theta0)|0> toward R(theta0 + theta)|0>; the qubit phase is fixed to
zero, so everything lives in the real plane of the Bloch sphere.

``error_report`` returns only exact errors; the 1/N references
(``asymptote``, ``gea_banacloche``, ``ozawa_bound``) are separate closed forms.

Reference constants such as (pi +- 2)^2/64 are always computed from pi at
runtime, never hard-coded as decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_field import FieldState, make_coherent  # noqa: F401  (perfbench looks it up here)
from .jc_channel import KrausSet, PulseSpec, build_kraus

QUARTER_PI = math.pi / 4

#: Recognized pulse-area selection modes.  The "-plus"/"-minus" suffixes
#: pick the correction branch explicitly; the bare forms pick it from the
#: starting altitude of the control.
PULSE_MODES = (
    "quarter-pi",
    "optimal-fidelity-plus", "optimal-fidelity-minus", "optimal-fidelity",
    "bias-free-plus", "bias-free-minus", "bias-free",
    "explicit",
)


def gea_banacloche(n_mean: float) -> float:
    """Semiclassical half-pulse error reference (pi^2 + 4) / (64 N)."""
    return (math.pi ** 2 + 4.0) / (64.0 * n_mean)


def ozawa_bound(n_mean: float) -> float:
    """Uncertainty-principle reference scale 1 / (16 (N + 1)).

    A scale to compare against, not a bound on one control's error: the
    ground-pole half rotation lies below it (2.04e-6 against 6.25e-6 at
    N = 1e4).
    """
    return 1.0 / (16.0 * (n_mean + 1.0))


@dataclass(frozen=True)
class ControlSpec:
    """A rotation control: start altitude theta0, intended rotation theta."""

    theta0: float
    theta: float

    def __post_init__(self):
        for name, value in (("theta0", self.theta0), ("theta", self.theta)):
            if not math.isfinite(value):
                raise ValueError(f"control angle {name} must be finite, got {value}")

    @property
    def midpoint_altitude(self) -> float:
        """Altitude of the rotation midpoint, theta0 + theta/2."""
        return self.theta0 + 0.5 * self.theta

    @property
    def target_angle(self) -> float:
        return self.theta0 + self.theta


@dataclass(frozen=True)
class OptimalAngles:
    """First-order corrected half pulse areas for the two pole starts."""

    fidelity_optimal_plus: float
    fidelity_optimal_minus: float
    bias_free_plus: float
    bias_free_minus: float
    n_mean: float


def optimal_vartheta(n_mean: float) -> OptimalAngles:
    """Half pulse areas minimizing error or population bias at order 1/N.

    Fidelity-optimal: pi/4 - (3 pi/32 +- (pi+2)/16) / N.
    Bias-free:        pi/4 - pi (1 +- 2) / (32 N).
    """
    if n_mean <= 0:
        raise ValueError(f"mean photon number must be positive, got {n_mean}")
    base = QUARTER_PI
    return OptimalAngles(
        fidelity_optimal_plus=base - (3 * math.pi / 32 + (math.pi + 2) / 16) / n_mean,
        fidelity_optimal_minus=base - (3 * math.pi / 32 - (math.pi + 2) / 16) / n_mean,
        bias_free_plus=base - 3 * math.pi / (32 * n_mean),
        bias_free_minus=base + math.pi / (32 * n_mean),
        n_mean=float(n_mean),
    )


def resolve_pulse(mode: str, n_mean: float, base: float = QUARTER_PI,
                  start_angle: float | None = None,
                  vartheta: float | None = None) -> PulseSpec:
    """Turn a pulse-area mode into the PulseSpec of one control against N.

    ``base`` is the nominal half pulse area (the intended rotation angle);
    "explicit" mode takes ``vartheta`` instead.  The optimal-fidelity and
    bias-free corrections are defined for the half-rotation family (base
    pi/4); for any other base they fall back to the nominal value.  The bare "optimal-fidelity"/"bias-free" modes pick
    the plus branch when the control starts nearer the excited pole and
    the minus branch otherwise.
    """
    if mode not in PULSE_MODES:
        raise ValueError(f"unknown pulse mode {mode!r}; expected one of {PULSE_MODES}")
    if mode == "explicit":
        if vartheta is None:
            raise ValueError("explicit mode requires vartheta")
        return PulseSpec.from_vartheta(vartheta, n_mean)

    if mode == "quarter-pi" or not math.isclose(base, QUARTER_PI, abs_tol=1e-12):
        return PulseSpec.from_vartheta(base, n_mean)

    angles = optimal_vartheta(n_mean)
    sign = mode.rsplit("-", 1)[-1]
    if sign not in ("plus", "minus"):
        nearer_excited = start_angle is not None and math.sin(start_angle) ** 2 > 0.5
        sign = "plus" if nearer_excited else "minus"
    if mode.startswith("optimal-fidelity"):
        value = angles.fidelity_optimal_plus if sign == "plus" else angles.fidelity_optimal_minus
    else:
        value = angles.bias_free_plus if sign == "plus" else angles.bias_free_minus
    return PulseSpec.from_vartheta(value, n_mean)


def orthogonal_target(target_angle: float) -> np.ndarray:
    """R(target_angle)|1> = (cos, -sin)^T; its population after the pulse is P = 1 - F^2."""
    return np.array([math.cos(target_angle), -math.sin(target_angle)])


def error_rate_exact(control: ControlSpec, field: FieldState, pulse: PulseSpec) -> float:
    """Exact error P of one control against ``field``: error_report of one fresh pulse."""
    return error_report((control,), build_kraus(field, pulse))[0]


def asymptotic_p(vartheta: float, n_mean: float, sign: int) -> float:
    """First-order 1/N error of a half rotation at half pulse area vartheta:

    (1 - sin 2t)/2 + (1/16N) {(1 + 4t^2) sin 2t - 2t cos 2t +- 4t (1 - cos 2t)}.

    ``sign`` +1 starts from the excited pole, -1 from the ground pole.
    Raises ValueError if the 1/N term is not a finite float.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    s2, c2 = math.sin(2 * vartheta), math.cos(2 * vartheta)
    try:
        square = vartheta ** 2
    except OverflowError:  # |vartheta| above about 1e154
        square = math.inf
    bracket = (1 + 4 * square) * s2 - 2 * vartheta * c2 + sign * 4 * vartheta * (1 - c2)
    first_order = bracket / (16.0 * n_mean)
    if not math.isfinite(first_order):
        raise ValueError(f"the 1/N term at vartheta={_in_units_of_pi(vartheta)}, N={n_mean!r} "
                         "is not a finite float")
    return 0.5 * (1 - s2) + first_order


def landscape_asymptote(midpoint: float, theta: float, n_mean: float) -> float:
    """Leading 1/N error of a general control by its midpoint altitude:

    (theta - cos(2 midpoint) sin(theta))^2 / (4 N).

    Maximal at midpoint pi/2 -> (theta + sin theta)^2 / 4N, minimal at
    midpoint 0 -> (theta - sin theta)^2 / 4N.
    Raises ValueError if the result is not a finite float.
    """
    amp = theta - math.cos(2.0 * midpoint) * math.sin(theta)
    value = amp * amp / (4.0 * n_mean)
    if not math.isfinite(value):
        raise ValueError(f"the 1/N term at midpoint={_in_units_of_pi(midpoint)}, "
                         f"theta={_in_units_of_pi(theta)}, N={n_mean!r} is not a finite float")
    return value


def _in_units_of_pi(angle: float) -> str:
    """An angle in the command line's units, e.g. ``1e+20*pi`` for 1e20 pi rad."""
    return f"{angle / math.pi:.12g}*pi"


def asymptote(control: ControlSpec, vartheta: float, n_mean: float) -> float:
    """The control's leading 1/N error at half pulse area ``vartheta``: asymptotic_p
    for a half rotation (theta = pi/4) from a pole, else landscape_asymptote."""
    theta0, theta = control.theta0, control.theta
    if math.isclose(theta, QUARTER_PI, abs_tol=1e-12) and (
            math.isclose(theta0, 0.0, abs_tol=1e-12)
            or math.isclose(theta0, math.pi / 2, abs_tol=1e-12)):
        sign = -1 if math.isclose(theta0, 0.0, abs_tol=1e-12) else 1
        return asymptotic_p(vartheta, n_mean, sign)
    return landscape_asymptote(control.midpoint_altitude, theta, n_mean)


def error_report(controls: tuple[ControlSpec, ...], kraus: KrausSet) -> tuple[float, ...]:
    """Each control's exact error P = 1 - F^2, clipped at 1, in the order given.

    All controls share one pass over the pulse's Kraus index
    (KrausSet.grams), one coupling column per control: P is the weight
    sum_n |perp^T M_n psi|^2 of the start psi = R(theta0)|0> on
    perp = R(theta0 + theta)|1>.
    """
    columns = [[kraus.coupling(orthogonal_target(c.target_angle),
                               np.array([math.sin(c.theta0), math.cos(c.theta0)]))]
               for c in controls]
    return tuple(min(float(gram[0, 0].real), 1.0) for gram in kraus.grams(columns))
