"""References for the Jaynes-Cummings gate, sharing no arithmetic with jcpulse.

Dense reference (small N).

The interaction H = a (x) sigma+ + a^dag (x) sigma- acts on Fock levels
0 .. L-1 (x) the qubit in the (excited, ground) order, and the gate is
U = expm(-i kappa H), a dense matrix from scipy.  The field starts in
sum_n C_n |n>, with C_n = sqrt(pmf(n)) e^{i n phi} from scipy.stats for a
coherent state, and is traced out after U acts.  The Kraus operators are
then the blocks A_n[i, k] = <n, i| U |field, k>, so a slip in sign, basis
order or -i convention that the library's closed form and its test copies
share shows up here.

Large-N references (mpmath at DIGITS digits).  The field's amplitudes are
factored out of the closed-form Kraus rows:
R_n = |C_n| Rt(n) with

    Rt(x) = [[ cos(k sqrt(x+1)),              sqrt(N/(x+1)) sin(k sqrt(x+1)) ],
             [ -sqrt(x/N) sin(k sqrt(x)),     cos(k sqrt(x)) ]],

a form the dense reference confirms at small N.  Each reference returns the
4x4 Gram G[2a + k][2b + l] = sum p(x) Rt(x)[a, k] Rt(x)[b, l] of the Poisson
density p(x) = e^-N N^x / Gamma(x + 1), from which every weight and
channel below follows.  ``level_gram`` sums the integer levels
N +- 12 sqrt(N); ``hermite_gram`` is a Gauss-Hermite rule in
x = N + sqrt(N) z with its own nodes, Newton-refined at DIGITS digits.  At
DIGITS digits no difference of O(1) terms loses what a 1e-13 gate needs, so
both evaluate Rt and p(x) directly.  Nothing from jcpulse is imported.
"""

import functools
import math

import mpmath
import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import expm
from scipy.stats import poisson

DIGITS = 50


def levels(n_mean: float) -> int:
    """Fock levels kept for mean photon number N: N + 14 sqrt(N) + 30."""
    return int(n_mean + 14.0 * math.sqrt(n_mean) + 30.0)


@functools.cache
def propagator(size: int, kappa: float) -> np.ndarray:
    """U = expm(-i kappa H) on ``size`` Fock levels (x) the qubit; index 2n + i."""
    lower = np.diag(np.sqrt(np.arange(1.0, size)), 1)  # a
    raise_qubit = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma+ = |excited><ground|
    hamiltonian = np.kron(lower, raise_qubit) + np.kron(lower.T, raise_qubit.T)
    return expm(-1j * kappa * hamiltonian)


def coherent_amplitudes(n_mean: float, phase: float, size: int) -> np.ndarray:
    n = np.arange(size)
    return np.sqrt(poisson.pmf(n, n_mean)) * np.exp(1j * n * phase)


def number_amplitudes(m: int, size: int) -> np.ndarray:
    amplitudes = np.zeros(size, dtype=complex)
    amplitudes[m] = 1.0
    return amplitudes


def kraus_operators(amplitudes: np.ndarray, kappa: float) -> np.ndarray:
    """A[n, i, k] = <n, i| U (field (x) |k>), shape (size, 2, 2)."""
    size = len(amplitudes)
    starts = np.stack([np.kron(amplitudes, qubit) for qubit in np.eye(2)], axis=1)
    return (propagator(size, kappa) @ starts).reshape(size, 2, 2)


def channel(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The qubit after the gate with the field traced out: sum_n A_n rho A_n^dag."""
    return np.einsum("nik,kl,njl->ij", ops, rho, ops.conj())


def completeness_residual(ops: np.ndarray) -> float:
    """max |sum_n A_n^dag A_n - I|."""
    return float(np.max(np.abs(np.einsum("nki,nkj->ij", ops.conj(), ops) - np.eye(2))))


def pure(angle: float) -> np.ndarray:
    """|v><v| for v = R(angle)|0> = (sin, cos)."""
    v = np.array([math.sin(angle), math.cos(angle)])
    return np.outer(v, v).astype(complex)


def population(rho: np.ndarray, angle: float) -> float:
    """<v|rho|v> for v = R(angle)|0>; at angle = target + pi/2 it is the error."""
    v = np.array([math.sin(angle), math.cos(angle)])
    return float((v @ rho @ v).real)


def _scaled_rows(root_x, root_up, n_mean, kappa):
    """The entries (Rt00, Rt01, Rt10, Rt11) at x from sqrt(x) and sqrt(x + 1)."""
    cos_up, sin_up = mpmath.cos_sin(kappa * root_up)
    cos_x, sin_x = mpmath.cos_sin(kappa * root_x)
    root_n = mpmath.sqrt(n_mean)
    return (cos_up, root_n / root_up * sin_up, -root_x / root_n * sin_x, cos_x)


def _gram(points):
    """sum of w r r^T over the (w, r) in ``points``, as a 4x4 list of lists."""
    gram = [[mpmath.mpf(0)] * 4 for _ in range(4)]
    for w, r in points:
        for i in range(4):
            wr = w * r[i]
            for j in range(i, 4):
                gram[i][j] += wr * r[j]
    for i in range(4):
        for j in range(i):
            gram[i][j] = gram[j][i]
    return gram


@functools.cache
def level_gram(n_mean: float, kappa: float) -> list:
    """The Gram over the integer levels n in N +- 12 sqrt(N), each p(n) from
    ``mpmath.loggamma``; the discarded mass is below 1e-30."""
    with mpmath.workdps(DIGITS):
        big_n, k = mpmath.mpf(n_mean), mpmath.mpf(kappa)
        log_n = mpmath.log(big_n)
        lo = max(0, math.floor(n_mean - 12.0 * math.sqrt(n_mean)))
        hi = math.ceil(n_mean + 12.0 * math.sqrt(n_mean))
        roots = [mpmath.sqrt(n) for n in range(lo, hi + 2)]
        return _gram((mpmath.exp(n * log_n - big_n - mpmath.loggamma(n + 1)),
                      _scaled_rows(roots[n - lo], roots[n - lo + 1], big_n, k))
                     for n in range(lo, hi + 1))


@functools.cache
def hermite_rule(nodes: int) -> tuple[tuple, tuple]:
    """Nodes z_j and weights w_j of the Gauss rule for the weight e^{-z^2/2}:
    numpy's nodes refined by Newton's method on He_m (three-term recurrence)
    at DIGITS + 10 digits, and w_j = m! sqrt(2 pi) / (m He_{m-1}(z_j))^2."""
    def he(z):  # He_{m-1}(z), He_m(z)
        below, here = mpmath.mpf(0), mpmath.mpf(1)
        for j in range(1, nodes + 1):
            below, here = here, z * here - (j - 1) * below
        return below, here

    with mpmath.workdps(DIGITS + 10):
        zs, ws = [], []
        for guess in hermegauss(nodes)[0]:
            z = mpmath.mpf(guess)
            for _ in range(50):
                below, here = he(z)
                step = here / (nodes * below)
                z -= step
                if abs(step) < mpmath.mpf(10) ** -(DIGITS + 5):
                    break
            zs.append(z)
            ws.append(mpmath.factorial(nodes) * mpmath.sqrt(2 * mpmath.pi)
                      / (nodes * he(z)[0]) ** 2)
        return tuple(zs), tuple(ws)


@functools.cache
def hermite_gram(n_mean: float, kappa: float, nodes: int = 32) -> list:
    """The Gram by a ``nodes``-point Gauss-Hermite rule in x = N + sqrt(N) z:
    weights w_j e^{z_j^2/2} sqrt(N) p(x_j), p(x) from ``mpmath.loggamma``."""
    zs, ws = hermite_rule(nodes)
    with mpmath.workdps(DIGITS):
        big_n, k = mpmath.mpf(n_mean), mpmath.mpf(kappa)
        root_n, log_n = mpmath.sqrt(big_n), mpmath.log(big_n)
        points = []
        for z, w in zip(zs, ws):
            x = big_n + root_n * z
            p = mpmath.exp(x * log_n - big_n - mpmath.loggamma(x + 1))
            points.append((w * mpmath.exp(z * z / 2) * root_n * p,
                           _scaled_rows(mpmath.sqrt(x), mpmath.sqrt(x + 1), big_n, k)))
        return _gram(points)


def mp_pure(angle: float) -> list:
    """R(angle)|0> = (sin, cos) at DIGITS digits, from the double ``angle``."""
    with mpmath.workdps(DIGITS):
        return [mpmath.sin(angle), mpmath.cos(angle)]


def mp_perp(angle: float) -> list:
    """R(angle)|1> = (cos, -sin): the state orthogonal to R(angle)|0>."""
    with mpmath.workdps(DIGITS):
        return [mpmath.cos(angle), -mpmath.sin(angle)]


def mp_weight(gram: list, w: list, v: list):
    """sum_x p(x) (w^T Rt(x) v)^2, for real w and v."""
    c = [w[a] * v[k] for a in range(2) for k in range(2)]
    with mpmath.workdps(DIGITS):
        return mpmath.fsum(c[i] * gram[i][j] * c[j] for i in range(4) for j in range(4))


def mp_channel(gram: list, rho) -> list:
    """sum_x p(x) Rt(x) rho Rt(x)^T for a field of phase pi/2 (whose M_n are
    i^n times the real R_n); ``rho`` is any 2x2 array, complex entries allowed."""
    with mpmath.workdps(DIGITS):
        return [[mpmath.fsum(gram[2 * a + k][2 * b + l] * mpmath.mpmathify(rho[k][l])
                             for k in range(2) for l in range(2))
                 for b in range(2)] for a in range(2)]


def mp_pure_state(angle: float) -> list:
    """|v><v| for v = R(angle)|0>."""
    v = mp_pure(angle)
    with mpmath.workdps(DIGITS):
        return [[v[i] * v[j] for j in range(2)] for i in range(2)]


def mp_population(rho: list, w: list):
    """<w|rho|w> for real w."""
    with mpmath.workdps(DIGITS):
        return mpmath.fsum(w[i] * rho[i][j] * w[j] for i in range(2) for j in range(2))
