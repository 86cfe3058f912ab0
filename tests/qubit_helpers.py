"""Test-only constructors and checks for qubit states and Kraus sets."""

import math

import numpy as np

from jcpulse import FieldState, KrausSet, QubitState
from jcpulse.jc_channel import CHUNK_LEVELS, _real_rows


def maximally_mixed() -> QubitState:
    return QubitState(rho=0.5 * np.eye(2, dtype=complex))


def validate(state: QubitState, atol: float = 1e-12) -> None:
    """Raise ValueError unless Hermitian, unit-trace and PSD within atol."""
    rho = state.rho
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol:
        raise ValueError(f"density matrix not Hermitian within {atol}: {herm:.3e}")
    tr = abs(rho.trace() - 1.0)
    if tr > atol:
        raise ValueError(f"density matrix trace deviates by {tr:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -atol:
        raise ValueError(f"density matrix not PSD: min eigenvalue {eigs.min():.3e}")


def amplitude(field: FieldState, n):
    """C_n = exp(log|C_n| + i (n phi mod 2 pi)) for an int n (a complex) or an
    array of n; zero outside the field window."""
    n = np.asarray(n)
    inside = (n >= field.n_offset) & (n <= field.n_max)
    log_mag = np.where(inside, field.log_magnitude[np.clip(n - field.n_offset, 0, field.size - 1)],
                       -np.inf)
    amp = np.exp(log_mag + 1j * np.mod(n * field.coherent_phase, 2.0 * math.pi))
    return amp if amp.ndim else complex(amp)


def complex_operators(kraus: KrausSet) -> np.ndarray:
    """The complex M_n of shape (K, 2, 2) over the whole index, each entry built
    from the complex amplitudes by the pattern in the jc_channel docstring: an
    independent reference for the library's phase-free rows."""
    n = np.arange(kraus.n_start, kraus.n_start + len(kraus))
    angle_up, angle = kraus.pulse.kappa * np.sqrt(n + 1.0), kraus.pulse.kappa * np.sqrt(n)
    here = amplitude(kraus.field, n)
    ops = np.empty((len(n), 2, 2), dtype=complex)
    ops[:, 0, 0] = here * np.cos(angle_up)
    ops[:, 0, 1] = -1j * amplitude(kraus.field, n + 1) * np.sin(angle_up)
    ops[:, 1, 0] = -1j * amplitude(kraus.field, n - 1) * np.sin(angle)
    ops[:, 1, 1] = here * np.cos(angle)
    return ops


def dumped_operators(kraus: KrausSet) -> np.ndarray:
    """The M_n of ``kraus.to_json_rows()`` as a complex array of shape (K, 2, 2)."""
    entries = np.array([row["M"] for row in kraus.to_json_rows()]).reshape(-1, 2, 2, 2)
    return entries[..., 0] + 1j * entries[..., 1]


def operator(kraus: KrausSet, n: int) -> np.ndarray:
    """M_n as ``kraus.to_json_rows()`` writes it; zero matrix outside the built index range."""
    if n < kraus.n_start or n >= kraus.n_start + len(kraus):
        return np.zeros((2, 2), dtype=complex)
    return dumped_operators(kraus)[n - kraus.n_start]


def whole_rows(kraus: KrausSet) -> np.ndarray:
    """The phase-free rows R_n of the whole index, shape (2, 2, K), in one piece."""
    work = np.empty(7 * len(kraus) + 4)
    return _real_rows(kraus.field, kraus.pulse.kappa, kraus.n_start, len(kraus), work)


def sum_of_squares(amp: np.ndarray) -> float:
    """sum_n |amp_n|^2: one pairwise np.sum per CHUNK_LEVELS-long piece of
    each real part, the pieces combined by ``math.fsum``."""
    sums = []
    for part in ((amp.real, amp.imag) if np.iscomplexobj(amp) else (amp,)):
        for first in range(0, len(part), CHUNK_LEVELS):
            piece = part[first:first + CHUNK_LEVELS]
            sums.append((piece * piece).sum())
    return math.fsum(sums)


def whole_window_reports(controls, kraus: KrausSet) -> tuple[float, ...]:
    """error_report from rows stored whole: each error's column is one einsum
    over the whole index and its squares are summed by ``sum_of_squares``."""
    rows = whole_rows(kraus)

    def weight(w, v):
        c = kraus.coupling(w, v)
        amp = np.einsum("ijn,ij->n", rows, c.real)
        if c.imag.any():
            amp = amp + 1j * np.einsum("ijn,ij->n", rows, c.imag)
        return sum_of_squares(amp)

    # R(target)|1> = (cos, -sin) and R(theta0)|0> = (sin, cos), written out.
    return tuple(min(weight((math.cos(control.target_angle), -math.sin(control.target_angle)),
                            (math.sin(control.theta0), math.cos(control.theta0))), 1.0)
                 for control in controls)


def phase_free_operators(kraus: KrausSet) -> np.ndarray:
    """D R_n D^dag = e^{-i n phi} M_n, shape (K, 2, 2), from the rows.

    The dropped phase cancels in every M_n rho M_n^dag.  ``complex_operators``
    carries it rounded: n*phi mod 2 pi loses about eps*n*phi, which moves a
    sandwich summed over N ~ 1e4 levels by up to about 1.6e-15.
    """
    d = kraus.frame()
    return d[:, None] * whole_rows(kraus).transpose(2, 0, 1) * d.conj()


def fsum_sandwich(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_n M_n rho M_n^dag, each entry's real and imaginary parts one
    math.fsum over n, so that only the per-level products round."""
    ops = phase_free_operators(kraus)
    terms = ops @ rho @ ops.conj().transpose(0, 2, 1)
    return np.array([[complex(math.fsum(terms[:, i, j].real), math.fsum(terms[:, i, j].imag))
                      for j in range(2)] for i in range(2)])


def fsum_gram(amps: np.ndarray) -> np.ndarray:
    """G[i, j] = sum_n amps[n, i] conj(amps[n, j]), each part one math.fsum over n."""
    terms = amps[:, :, None] * amps[:, None, :].conj()
    return np.array([[complex(math.fsum(terms[:, i, j].real), math.fsum(terms[:, i, j].imag))
                      for j in range(2)] for i in range(2)])
