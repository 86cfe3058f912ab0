"""Pure single-mode field states in a truncated photon-number basis.

Coherent states carry Poisson number statistics |C_n|^2 = e^-N N^n / n!
with amplitude phases arg(C_n) = n*phi.  Magnitudes are computed and kept
in log space, so large mean photon numbers produce finite amplitudes: one
log-gamma anchors the window's low edge and every later level adds the
log of the term ratio |C_n|^2 / |C_{n-1}|^2 = N/n.  The retained window
around N is grown in units of sqrt(N) until the discarded Poisson tail
mass drops below ``tail_tol``.

Number states |m> bypass the truncation logic entirely: their window is
the single occupied level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Default bound on the Poisson probability mass discarded by truncation.
DEFAULT_TAIL_TOL = 1e-12

# Window half-width in units of sqrt(N): starting guess and growth factor.
_INITIAL_HALF_WIDTH = 8.0
_WIDTH_GROWTH = 1.6

#: Widest number window make_coherent allocates: 2**24 levels hold the
#: default window N +- 8 sqrt(N) up to N ~ 1e12.
MAX_LEVELS = 2 ** 24


def check_photon_number(n_mean: float) -> None:
    """Raise ValueError unless N > 0 (so also for NaN), before any 1/N is taken."""
    if not n_mean > 0:
        raise ValueError(f"mean photon number N must be positive, got {n_mean!r}")


@dataclass(frozen=True)
class FieldState:
    """Amplitudes C_n of a pure field state on a contiguous number window.

    Only the log-magnitudes log|C_n| are stored.  The phases arg C_n =
    n*coherent_phase mod 2 pi are built by the JSON dump alone; every
    evaluation factors them out (see jc_channel.KrausSet).  Every C_n
    outside [n_offset, n_max] is zero.  Instances are immutable and safe
    to share between threads.
    """

    n_offset: int
    log_magnitude: np.ndarray
    mean_photon_number: float
    coherent_phase: float
    tail_mass: float
    kind: str  # "coherent" or "number"

    def __post_init__(self):
        values = self.log_magnitude  # kept if a read-only float array; else a frozen copy
        if not (isinstance(values, np.ndarray) and values.dtype == float) or values.flags.writeable:
            values = np.array(values, dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, "log_magnitude", values)

    @property
    def size(self) -> int:
        return self.log_magnitude.shape[0]

    @property
    def n_max(self) -> int:
        return self.n_offset + self.size - 1

    @property
    def is_coherent(self) -> bool:
        return self.kind == "coherent"

    def photon_numbers(self) -> np.ndarray:
        """Photon numbers n covered by the stored window."""
        return np.arange(self.n_offset, self.n_offset + self.size)

    def probabilities(self) -> np.ndarray:
        """Occupation probabilities |C_n|^2 over the stored window."""
        return np.exp(2.0 * self.log_magnitude)

    def to_json_dict(self) -> dict:
        """Serializable form used by the ``kraus-dump`` CLI diagnostic; ``phase``
        lists arg C_n = n*coherent_phase mod 2 pi over the stored window."""
        return {
            "n_offset": int(self.n_offset),
            "magnitudes-log": self.log_magnitude.tolist(),
            "phase": np.mod(self.photon_numbers() * self.coherent_phase, TWO_PI).tolist(),
            "N": float(self.mean_photon_number),
            "tail_mass": float(self.tail_mass),
        }


def _poisson_log_pmf(n: np.ndarray, n_mean: float) -> np.ndarray:
    """log(e^-N N^n / n!) on the contiguous window n[0], n[0]+1, ... from
    one ``lgamma`` at n[0] and the term ratios N/n."""
    head = n[0] * math.log(n_mean) - n_mean - math.lgamma(n[0] + 1.0)
    return head + np.concatenate(([0.0], np.cumsum(np.log(n_mean / n[1:]))))


def _tail_bounds(lo: int, hi: int, n_mean: float,
                 log_pmf: np.ndarray) -> tuple[float, float]:
    """Geometric upper bounds on the Poisson mass below lo and above hi.

    The term ratios pmf(n+1)/pmf(n) = N/(n+1) fall below one past the
    mode, so each discarded side is dominated by a geometric series
    anchored at the window edge.  Unlike 1 - sum(pmf), these bounds stay
    meaningful when the retained mass rounds to one.
    """
    lower = 0.0
    if lo > 0:
        ratio = lo / n_mean
        lower = math.exp(log_pmf[0]) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    ratio = n_mean / (hi + 1.0)
    upper = math.exp(log_pmf[-1]) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return lower, upper


def _n_max_cap(n_mean: float) -> int:
    """Hard cap on a coherent window's top level: N + 50 sqrt(N) + 100."""
    return int(n_mean + 50.0 * math.sqrt(n_mean) + 100.0)


def coherent_window(n_mean: float, width: float = _INITIAL_HALF_WIDTH) -> tuple[int, int]:
    """Number window [lo, hi] of half-width ``width`` sqrt(N) around N.

    The window is clipped to [0, N + 50 sqrt(N) + 100].  At the default
    ``width`` it is the smallest window make_coherent can return for N,
    so a caller can reject an oversized N before building anything; the
    helper itself allocates nothing.  Raises ValueError if the window
    holds more than MAX_LEVELS levels.
    """
    root_n = math.sqrt(n_mean)
    lo = max(0, math.floor(n_mean - width * root_n))
    hi = min(_n_max_cap(n_mean), math.ceil(n_mean + width * root_n))
    if hi - lo + 1 > MAX_LEVELS:
        raise ValueError(
            f"N={n_mean} needs a window of {hi - lo + 1} levels, "
            f"above the cap MAX_LEVELS={MAX_LEVELS}")
    return lo, hi


def make_coherent(n_mean: float, phase: float = math.pi / 2,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> FieldState:
    """Build a coherent state with mean photon number ``n_mean``.

    The number window is grown symmetrically around N in steps of sqrt(N)
    until the (bounded) discarded tail mass is at most ``tail_tol``,
    subject to the hard cap n_max <= N + 50*sqrt(N) + 100.  The retained
    magnitudes are renormalized by a single scalar so that
    sum |C_n|^2 = 1 - tail_mass holds exactly; this removes the constant
    offset that rounding of the log-gamma edge anchor, of order
    eps * N log N, leaves in every log-magnitude.

    Raises ValueError for a non-positive or non-finite ``n_mean``, a
    non-finite ``phase``, a ``tail_tol`` outside (0, 1), a tail tolerance
    unattainable within the cap, or a window wider than MAX_LEVELS.
    """
    if not 0 < n_mean < math.inf:
        raise ValueError(
            f"mean photon number must be positive and finite, got {n_mean}")
    if not math.isfinite(phase):
        raise ValueError(f"coherent phase must be finite, got {phase}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")

    cap = _n_max_cap(n_mean)
    width = _INITIAL_HALF_WIDTH
    while True:
        lo, hi = coherent_window(n_mean, width)
        ns = np.arange(lo, hi + 1, dtype=float)
        log_pmf = _poisson_log_pmf(ns, n_mean)
        tail_lo, tail_hi = _tail_bounds(lo, hi, n_mean, log_pmf)
        tail = tail_lo + tail_hi
        if tail <= tail_tol:
            break
        if (lo == 0 or tail_lo <= tail_tol / 2) and hi >= cap:
            raise ValueError(
                f"tail_tol={tail_tol} unattainable within n_max cap {cap} "
                f"(residual tail bound {tail:.3e})")
        width *= _WIDTH_GROWTH

    retained = float(np.exp(log_pmf).sum())
    shift = 0.5 * (math.log1p(-tail) - math.log(retained))
    log_magnitude = 0.5 * log_pmf + shift
    log_magnitude.flags.writeable = False  # FieldState keeps it without a copy

    return FieldState(
        n_offset=int(lo),
        log_magnitude=log_magnitude,
        mean_photon_number=float(n_mean),
        coherent_phase=float(phase) % TWO_PI,
        tail_mass=tail,
        kind="coherent",
    )


def make_number_state(m: int) -> FieldState:
    """Build the number state |m>: C_n = delta_{n,m}, zero tail mass."""
    if m < 0 or int(m) != m:
        raise ValueError(f"photon number must be a non-negative integer, got {m}")
    m = int(m)
    log_magnitude = np.zeros(1)
    log_magnitude.flags.writeable = False
    return FieldState(
        n_offset=m,
        log_magnitude=log_magnitude,
        mean_photon_number=float(m),
        coherent_phase=0.0,
        tail_mass=0.0,
        kind="number",
    )


def central_moments_direct(field: FieldState, k_max: int) -> np.ndarray:
    """Moments mu_k = sum_n |C_n|^2 ((n-N)/N)^k over the retained window, k = 0..k_max.

    Raises ValueError if some mu_k is not a finite float (at tiny N).
    """
    if k_max < 0:
        raise ValueError(f"moment order must be non-negative, got {k_max}")
    if not field.is_coherent:
        raise ValueError("direct central moments are defined for coherent states")
    n_mean = field.mean_photon_number
    values = np.empty(k_max + 1)
    # At tiny N the powers of (n-N)/N overflow; _finite_moments reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = (field.photon_numbers() - n_mean) / n_mean
        p = field.probabilities()
        xk = np.ones_like(x)
        for k in range(k_max + 1):
            values[k] = float(np.dot(p, xk))
            xk = xk * x
    return _finite_moments(values, n_mean)


def central_moments_recursive(n_mean: float, k_max: int) -> np.ndarray:
    """Moments mu_k from the exact recursion in powers of 1/N.

    Seeds mu_0 = 1, mu_1 = 0; for k >= 2,
    mu_k = sum_{i=1}^{k-1} C(k-1, i) * mu_{k-1-i} / N^i.

    Each mu_k is a polynomial in 1/N with non-negative integer coefficients,
    mu_k = sum_j a_{k,j} / N^(k-j), where a_{k,j} counts the partitions of k
    items into j blocks with no singleton (mu_4 = 3/N^2 + 1/N^3,
    mu_5 = 10/N^3 + 1/N^4, mu_6 = 15/N^3 + 25/N^4 + 1/N^5).  Hence, for
    N >= 1 and k >= 2,

        mu_k <= D_k / N^ceil(k/2),   D_k = sum_j a_{k,j} = 1, 1, 4, 11, 41
                                     for k = 2..6,

    with equality at N = 1, so N * mu_k -> 0 for k >= 3.  The plain bound
    mu_k <= 1/N does not hold on the same domain: it fails at N = 1
    (mu_4 = 4) and holds for all k <= 6 only from N ~ 5 on (N >= 4.53, set
    by mu_6).

    Raises ValueError if some mu_k is not a finite float (at tiny N).
    """
    if k_max < 0:
        raise ValueError(f"moment order must be non-negative, got {k_max}")
    check_photon_number(n_mean)
    mu = [1.0, 0.0]
    for k in range(2, k_max + 1):
        try:
            mu.append(math.fsum(
                math.comb(k - 1, i) * mu[k - 1 - i] / n_mean ** i
                for i in range(1, k)))
        except ArithmeticError:  # N^i underflows to zero at tiny N
            mu.append(math.inf)
    return _finite_moments(np.array(mu[:k_max + 1]), n_mean)


def _finite_moments(values: np.ndarray, n_mean: float) -> np.ndarray:
    """Return ``values`` read-only; raise ValueError naming N and k if some mu_k is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"central moment mu_{bad[0]} is not a finite float "
                         f"at N={n_mean!r}")
    values.flags.writeable = False
    return values
