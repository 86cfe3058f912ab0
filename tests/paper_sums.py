"""The paper's closed-form sums, kept as an independent reference.

Each function evaluates one of the paper's single sums over the Poisson
weights |C_n|^2 directly, sharing no arithmetic with the library's Kraus
rows.  ``P+- = 1/2 - sum ...`` cancels catastrophically at large N (about
4e-6 absolute at N = 1e8 for ``p_minus``), so the tests use them only
where that loss is far below their tolerances.
"""

import math

import numpy as np

from jcpulse import ControlSpec, FieldState, PulseSpec, error_rate_exact


def _require_coherent(field: FieldState, what: str) -> None:
    if not field.is_coherent:
        raise ValueError(f"{what} is defined for coherent fields")


def p_plus(field: FieldState, pulse: PulseSpec) -> float:
    """Half-rotation error from the excited pole, as a single sum:

    P+ = 1/2 - sum_n |C_n|^2 sqrt(n/N) sin(k sqrt(n)) cos(k sqrt(n+1)).
    """
    _require_coherent(field, "p_plus")
    kappa = pulse.kappa
    n_mean = field.mean_photon_number
    n = field.photon_numbers().astype(float)
    p = field.probabilities()
    terms = p * np.sqrt(n / n_mean) * np.sin(kappa * np.sqrt(n)) * np.cos(kappa * np.sqrt(n + 1.0))
    return 0.5 - float(terms.sum())


def p_minus(field: FieldState, pulse: PulseSpec) -> float:
    """Half-rotation error from the ground pole, as a single sum:

    P- = 1/2 - sum_{n>=1} |C_n|^2 sqrt(n/N) sin(k sqrt(n)) cos(k sqrt(n-1)).
    """
    _require_coherent(field, "p_minus")
    kappa = pulse.kappa
    n_mean = field.mean_photon_number
    n = field.photon_numbers().astype(float)
    p = field.probabilities()
    keep = n >= 1.0
    n, p = n[keep], p[keep]
    terms = p * np.sqrt(n / n_mean) * np.sin(kappa * np.sqrt(n)) * np.cos(kappa * np.sqrt(n - 1.0))
    return 0.5 - float(terms.sum())


def diagonal_deviation(field: FieldState, pulse: PulseSpec, sign: int) -> float:
    """Population bias after a half rotation from a pole:

    Delta(+-) = | (1/2) sum_n |C_n|^2 cos(2 k sqrt(n + (1 +- 1)/2)) |.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _require_coherent(field, "diagonal_deviation")
    kappa = pulse.kappa
    shift = 1.0 if sign == 1 else 0.0
    n = field.photon_numbers().astype(float)
    p = field.probabilities()
    return abs(0.5 * float(np.dot(p, np.cos(2.0 * kappa * np.sqrt(n + shift)))))


def pi_pulse_error(theta0: float, field: FieldState, pulse: PulseSpec) -> float:
    """Full-flip error rate (theta = pi/2) via the specialized sums.

    Closed forms exist for theta0 in {0, pi/4, pi/2, 3pi/4}; any other
    start falls back to the generic channel path.  3pi/4 is evaluated as
    -pi/4, which prepares the same density matrix.
    """
    _require_coherent(field, "pi_pulse_error")
    kappa = pulse.kappa
    n_mean = field.mean_photon_number
    n = field.photon_numbers().astype(float)
    p = field.probabilities()
    root = np.sqrt(n)
    root_up = np.sqrt(n + 1.0)

    def close(a, b):
        return math.isclose(a, b, abs_tol=1e-12)

    if close(theta0, 0.0):
        return float(np.dot(p, np.cos(kappa * root) ** 2))
    if close(theta0, math.pi / 2):
        return float(np.dot(p, np.cos(kappa * root_up) ** 2))
    if close(theta0, math.pi / 4) or close(theta0, 3 * math.pi / 4):
        branch = -1.0 if close(theta0, math.pi / 4) else 1.0
        even = (np.cos(kappa * root_up) * np.cos(kappa * root)
                - np.sqrt(n / (1.0 + n)) * np.sin(kappa * root_up) * np.sin(kappa * root))
        lag = np.zeros_like(n)
        inner = n >= 1.0
        lag[inner] = (np.sqrt(n[inner] / n_mean) * np.sin(kappa * root[inner])
                      * (np.cos(kappa * root_up[inner])
                         - np.cos(kappa * np.sqrt(n[inner] - 1.0))))
        return 0.5 + 0.5 * float(np.dot(p, even + branch * lag))
    return error_rate_exact(ControlSpec(theta0, math.pi / 2), field, pulse)
