"""Exact and asymptotic control error rates for rotation pulses.

Error rate convention: P = 1 - F^2, the population of the state
orthogonal to the target after the pulse.  Controls rotate the pure state
R(theta0)|0> toward R(theta0 + theta)|0>; the qubit phase is fixed to
zero, so everything lives in the real plane of the Bloch sphere.

``error_report`` returns only exact errors; the 1/N references
(``asymptote``, ``gea_banacloche``, ``ozawa_bound``) are separate closed
forms, and the first two raise ValueError for N <= 0.

``resolve_pulse`` sets a half rotation's pulse area: nominal pi/4, or one
of the first-order corrected areas pi/4 - a/N of the exact pulse-area
theorem (arXiv 1211.1092), whose four coefficients a are the one table
``FIRST_ORDER``.

Reference constants such as (pi +- 2)^2/64 are always computed from pi at
runtime, never hard-coded as decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock_field import FieldState, check_photon_number
from .fock_field import make_coherent  # noqa: F401  (perfbench looks it up here)
from .jc_channel import KrausSet, PulseSpec, bloch_rotation, build_kraus

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

#: The coefficient a of each signed mode's first-order corrected half pulse
#: area pi/4 - a/N: the plus branch is for starts nearer the excited pole,
#: the minus branch for starts nearer the ground pole.
FIRST_ORDER = {
    "optimal-fidelity-plus": 3 * math.pi / 32 + (math.pi + 2) / 16,
    "optimal-fidelity-minus": 3 * math.pi / 32 - (math.pi + 2) / 16,
    "bias-free-plus": 3 * math.pi / 32,
    "bias-free-minus": -math.pi / 32,
}


def gea_banacloche(n_mean: float) -> float:
    """Semiclassical half-pulse error reference (pi^2 + 4) / (64 N)."""
    check_photon_number(n_mean)
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


def resolve_pulse(mode: str, n_mean: float, base: float = QUARTER_PI,
                  start_angle: float | None = None,
                  vartheta: float | None = None) -> PulseSpec:
    """Turn a pulse-area mode into the PulseSpec of one control against N.

    ``base`` is the nominal half pulse area (the intended rotation angle);
    "explicit" mode takes ``vartheta`` instead.  The optimal-fidelity and
    bias-free corrections, pi/4 - a/N with a from FIRST_ORDER, are defined
    for the half-rotation family (base pi/4); for any other base they fall
    back to the nominal value.  The bare "optimal-fidelity"/"bias-free"
    modes take the plus branch when the control starts nearer the excited
    pole (sin^2(start_angle) > 1/2) and the minus branch otherwise.
    Every mode raises ValueError for N <= 0 or NaN.
    """
    if mode not in PULSE_MODES:
        raise ValueError(f"unknown pulse mode {mode!r}; expected one of {PULSE_MODES}")
    if mode == "explicit":
        if vartheta is None:
            raise ValueError("explicit mode requires vartheta")
        return PulseSpec.from_vartheta(vartheta, n_mean)

    if mode == "quarter-pi" or not math.isclose(base, QUARTER_PI, abs_tol=1e-12):
        return PulseSpec.from_vartheta(base, n_mean)

    check_photon_number(n_mean)
    if mode not in FIRST_ORDER:
        nearer_excited = start_angle is not None and math.sin(start_angle) ** 2 > 0.5
        mode += "-plus" if nearer_excited else "-minus"
    return PulseSpec.from_vartheta(QUARTER_PI - FIRST_ORDER[mode] / n_mean, n_mean)


def error_rate_exact(control: ControlSpec, field: FieldState, pulse: PulseSpec) -> float:
    """Exact error P of one control against ``field``: error_report of one fresh pulse."""
    return error_report((control,), build_kraus(field, pulse))[0]


def asymptotic_p(vartheta: float, n_mean: float, sign: int) -> float:
    """First-order 1/N error of a half rotation at half pulse area vartheta:

    (1 - sin 2t)/2 + (1/16N) {(1 + 4t^2) sin 2t - 2t cos 2t +- 4t (1 - cos 2t)}.

    ``sign`` +1 starts from the excited pole, -1 from the ground pole.
    Raises ValueError if N <= 0 or the 1/N term is not a finite float.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    check_photon_number(n_mean)
    s2, c2 = math.sin(2 * vartheta), math.cos(2 * vartheta)
    bracket = ((1 + 4 * vartheta * vartheta) * s2 - 2 * vartheta * c2
               + sign * 4 * vartheta * (1 - c2))
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
    Raises ValueError if N <= 0 or the result is not a finite float.
    """
    check_photon_number(n_mean)
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
    columns = [[kraus.coupling(bloch_rotation(c.target_angle)[:, 0],
                               bloch_rotation(c.theta0)[:, 1])] for c in controls]
    return tuple(min(float(gram[0, 0].real), 1.0) for gram in kraus.grams(columns))
