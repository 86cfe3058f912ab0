"""Pure single-mode field states: coherent states and number states.

Coherent states carry Poisson number statistics |C_n|^2 = e^-N N^n / n!
with amplitude phases arg(C_n) = n*phi.  ``make_coherent`` returns a
``CoherentField``, which holds only N, phi and ``tail_tol``; the truncated
number window (a ``FieldState``) is built the first time something reads
it.  Its magnitudes are computed and kept in log space, so large mean
photon numbers produce finite amplitudes: one log-gamma anchors the
window's low edge and every later level adds the log of the term ratio
|C_n|^2 / |C_{n-1}|^2 = N/n.  The retained window around N is grown in
units of sqrt(N) until the discarded Poisson tail mass drops below
``tail_tol``.

From N = QUAD_MIN_N on, a coherent field also carries a Gauss-Hermite rule
in n (``CoherentField.quadrature``): NODES nodes x_j = N + sqrt(N) z_j and
weights W_j with sum_n |C_n|^2 g(n) = sum_j W_j g(x_j) for every g that
is smooth on the scale sqrt(N).  The summand |C_x|^2 g(x) is then smooth
too, so by Poisson summation the sum over the integers equals the
integral over x up to terms of order e^{-2 pi^2 N}, and the integral is a
Gauss rule for the normal density in z.  The rule truncates nothing, so
``tail_tol`` does not enter it.

Number states |m> bypass the truncation logic entirely: their window is
the single occupied level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

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

#: Smallest mean photon number whose coherent field carries the Gauss-Hermite
#: rule.  Below about N = 60 some of the NODES nodes fall at x < 0.
QUAD_MIN_N = 1e3

#: Nodes of the Gauss-Hermite rule: it integrates polynomials in z of degree
#: up to 2 NODES - 1 exactly against the normal density.
NODES = 24

#: Coefficients B_2i / (2i (2i - 1)) of the Stirling series
#: lgamma(x + 1) = (x + 1/2) log x - x + log(2 pi) / 2 + sum_i B_2i / (2i (2i - 1) x^(2i - 1)).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


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
    to share between threads.  An explicit window is summed level by
    level, so it carries no quadrature rule.
    """

    quadrature = None

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


@functools.cache
def hermite_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_j and weights w_j (summing to one) of the NODES-point Gauss rule
    for the standard normal density, built once per process.

    The nodes are the eigenvalues of the Jacobi matrix of the probabilists'
    Hermite polynomials He_k (Golub-Welsch).  As in numpy's ``hermegauss``,
    one Newton step on He_m refines them, the weights are 1 / He_{m-1}(z_j)^2
    up to a common factor, and both are made symmetric about zero.  He_k is
    evaluated by the three-term recurrence normalized by sqrt(k!).
    """
    k = np.sqrt(np.arange(1.0, NODES))
    z = np.linalg.eigvalsh(np.diag(k, 1) + np.diag(k, -1))

    def normed_he(order):  # (He_{order-1}, He_order) / sqrt(k!) at z
        below, here = np.zeros_like(z), np.ones_like(z)
        for j in range(1, order + 1):
            below, here = here, (z * here - math.sqrt(j - 1) * below) / math.sqrt(j)
        return below, here

    below, here = normed_he(NODES)
    z = z - here / (math.sqrt(NODES) * below)
    below, _ = normed_he(NODES)
    w = 1.0 / (below / np.abs(below).max()) ** 2
    w = (w + w[::-1]) / 2
    w /= w.sum()
    z = (z - z[::-1]) / 2
    z.flags.writeable = w.flags.writeable = False
    return z, w


@dataclass(frozen=True)
class CoherentField:
    """The coherent state of mean photon number N and phase phi (in [0, 2 pi)).

    It holds no array of O(sqrt(N)).  ``window``, the number window truncated
    at ``tail_tol`` as a FieldState, is built on first read; so are the
    window's attributes read through it (``n_offset``, ``log_magnitude``,
    ``tail_mass``, ``size``, ``n_max``, ``photon_numbers``,
    ``probabilities`` and ``to_json_dict``).  From N = QUAD_MIN_N on,
    ``quadrature`` holds the Gauss-Hermite rule in n, which reads neither.
    Immutable and safe to share between threads.
    """

    mean_photon_number: float
    coherent_phase: float
    tail_tol: float

    kind = "coherent"
    is_coherent = True

    @cached_property
    def window(self) -> FieldState:
        """The window [lo, hi] around N, grown symmetrically in steps of sqrt(N)
        until the (bounded) discarded tail mass is at most ``tail_tol``,
        subject to the hard cap n_max <= N + 50*sqrt(N) + 100.  The retained
        magnitudes are renormalized by a single scalar so that
        sum |C_n|^2 = 1 - tail_mass holds exactly; this removes the constant
        offset that rounding of the log-gamma edge anchor, of order
        eps * N log N, leaves in every log-magnitude.

        Raises ValueError for a tail tolerance unattainable within the cap
        or a window grown wider than MAX_LEVELS.
        """
        n_mean, tail_tol = self.mean_photon_number, self.tail_tol
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
            mean_photon_number=n_mean,
            coherent_phase=self.coherent_phase,
            tail_mass=tail,
            kind="coherent",
        )

    n_offset = property(lambda self: self.window.n_offset)
    log_magnitude = property(lambda self: self.window.log_magnitude)
    tail_mass = property(lambda self: self.window.tail_mass)
    size = property(lambda self: self.window.size)
    n_max = property(lambda self: self.window.n_max)
    photon_numbers = property(lambda self: self.window.photon_numbers)
    probabilities = property(lambda self: self.window.probabilities)
    to_json_dict = property(lambda self: self.window.to_json_dict)

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(z_j, W_j), or None below QUAD_MIN_N: the Gauss-Hermite rule in n,
        sum_n |C_n|^2 g(n) = sum_j W_j g(N + sqrt(N) z_j).

        With x = N + sqrt(N) z and u = z / sqrt(N), the rule's weight is
        W_j = w_j sqrt(N) p(x_j) e^{z_j^2 / 2} for the Poisson density
        p(x) = e^-N N^x / Gamma(x + 1) and the weights w_j of
        ``hermite_nodes``.  By Stirling's series,

            sqrt(N) p(x) e^{z^2/2} = e^{-s - S(x)} / sqrt(1 + u),

        where S is the series remainder of lgamma(x + 1) (five terms; x is
        above 700 here) and s = N h(u) - z^2/2 with
        h(u) = (1 + u) log(1 + u) - u.  Both are summed term by term, never
        as differences of their O(x log x) or O(z^2) parts:
        s = N sum_{k>=3} (-u)^k / (k (k - 1)), up to terms below 1e-18.
        """
        n_mean = self.mean_photon_number
        if n_mean < QUAD_MIN_N:
            return None
        z, w = hermite_nodes()
        root_n = math.sqrt(n_mean)
        u = z / root_n
        terms = math.ceil(math.log(1e-18 / n_mean) / math.log(float(np.abs(u).max())))
        k = np.arange(3.0, max(terms, 3) + 1.0)
        s = n_mean * ((-u[:, None]) ** k / (k * (k - 1.0))).sum(axis=1)
        inverse = 1.0 / (n_mean + root_n * z)
        series = 0.0
        for coefficient in reversed(_STIRLING):
            series = series * inverse ** 2 + coefficient
        weights = w * np.exp(-s - series * inverse) / np.sqrt(1.0 + u)
        weights.flags.writeable = False
        return z, weights


def make_coherent(n_mean: float, phase: float = math.pi / 2,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> CoherentField:
    """The coherent state with mean photon number ``n_mean``; builds no window.

    Raises ValueError for a non-positive or non-finite ``n_mean``, a
    non-finite ``phase``, a ``tail_tol`` outside (0, 1), or an N whose
    smallest window, N +- 8 sqrt(N), is wider than MAX_LEVELS
    (``coherent_window``).  Growing the window to ``tail_tol`` happens, and
    can raise, only when the window is read (``CoherentField.window``).
    """
    if not 0 < n_mean < math.inf:
        raise ValueError(
            f"mean photon number must be positive and finite, got {n_mean}")
    if not math.isfinite(phase):
        raise ValueError(f"coherent phase must be finite, got {phase}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    coherent_window(n_mean)
    return CoherentField(mean_photon_number=float(n_mean),
                         coherent_phase=float(phase) % TWO_PI, tail_tol=float(tail_tol))


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


def central_moments_direct(field: FieldState | CoherentField, k_max: int) -> np.ndarray:
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
