"""Dense reference for the Jaynes-Cummings gate, sharing no arithmetic with jcpulse.

The interaction H = a (x) sigma+ + a^dag (x) sigma- acts on Fock levels
0 .. L-1 (x) the qubit in the (excited, ground) order, and the gate is
U = expm(-i kappa H), a dense matrix from scipy.  The field starts in
sum_n C_n |n>, with C_n = sqrt(pmf(n)) e^{i n phi} from scipy.stats for a
coherent state, and is traced out after U acts.  The Kraus operators are
then the blocks A_n[i, k] = <n, i| U |field, k>, so a slip in sign, basis
order or -i convention that the library's closed form and its test copies
share shows up here.  Nothing from jcpulse is imported.
"""

import functools
import math

import numpy as np
from scipy.linalg import expm
from scipy.stats import poisson


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
