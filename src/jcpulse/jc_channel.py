"""Photon-number-resolved Kraus map of the resonant Jaynes-Cummings gate.

The basis ordering is fixed throughout the package: the excited state is
the FIRST basis vector, |1> = (1, 0)^T and |0> = (0, 1)^T.  All matrix
literals follow this ordering; reordering it silently is the most likely
way to corrupt the channel, so every operator is written against the
explicit entry pattern

    M_n = [[ C_n cos(k sqrt(n+1)),  -i C_{n+1} sin(k sqrt(n+1)) ],
           [ -i C_{n-1} sin(k sqrt(n)),  C_n cos(k sqrt(n)) ]]

with C_{-1} = 0 and amplitudes outside the field window treated as zero.
The Kraus index runs one step past the field window on both sides, which
keeps trace preservation exact for number states and charges only the
Poisson tail to the completeness residual for coherent states.

With C_n = |C_n| e^{i n phi} (phi = 0 for number states) every operator
factors as M_n = e^{i n phi} D R_n D^dag with a real R_n (see KrausSet),
built as four contiguous columns over n from one cos and one sin pass over
k sqrt(m).  Every error is a weight sum_n |w^T M_n v|^2, projected term by
term as a sum of squares, so an O(1/N) error is never the difference of
O(1) sums.  The squares are summed in pieces of CHUNK_LEVELS levels and the
pieces' sums combined by ``math.fsum``.

A pulse used once (``stream_weights``) walks the levels in those same
pieces and keeps only one piece's rows at a time, so its memory beyond the
field is O(CHUNK_LEVELS).  A pulse used many times is stored as a KrausSet;
its weights sum the same pieces and agree with the streamed ones bit for
bit.  The channel goes through the real 4x4 transfer matrix
sum_n R_n (x) R_n, contracted over n once per Kraus set.  The complex M_n
are built on demand, for the dump and the completeness check only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock_field import DEFAULT_TAIL_TOL, FieldState, make_coherent

#: Levels per piece of a streamed evaluation and of every sum of squares.
CHUNK_LEVELS = 2 ** 14


@dataclass(frozen=True)
class QubitState:
    """2x2 density matrix in the (excited, ground) basis."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex))
        if self.rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {self.rho.shape}")
        self.rho.flags.writeable = False

    @classmethod
    def pure(cls, theta0: float) -> "QubitState":
        """Pure state R(theta0)|0> = (sin theta0, cos theta0)^T."""
        v = np.array([math.sin(theta0), math.cos(theta0)], dtype=complex)
        return cls(rho=np.outer(v, v.conj()))

    @classmethod
    def ground(cls) -> "QubitState":
        return cls.pure(0.0)

    @classmethod
    def excited(cls) -> "QubitState":
        return cls.pure(math.pi / 2)


@dataclass(frozen=True)
class PulseSpec:
    """One pulse, resolved against a mean photon number N.

    ``kappa`` is the dimensionless coupling-time product; ``vartheta`` is
    the half pulse area kappa*sqrt(N) (N = m for the number state |m>).
    """

    kappa: float
    vartheta: float

    @classmethod
    def from_kappa(cls, kappa: float, n_mean: float) -> "PulseSpec":
        return cls(kappa=float(kappa), vartheta=kappa * math.sqrt(n_mean))

    @classmethod
    def from_vartheta(cls, vartheta: float, n_mean: float) -> "PulseSpec":
        if n_mean <= 0:
            raise ValueError("deriving kappa from vartheta needs a positive mean photon number")
        return cls(kappa=float(vartheta) / math.sqrt(n_mean), vartheta=float(vartheta))

    def kappa_for(self, field: FieldState) -> float:
        """``kappa`` whatever the field; perfbench's tracer reads the pulse through it."""
        return self.kappa


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators M_n of one pulse in their phase-free form.

    For coherent phase phi, M_n = e^{i n phi} D R_n D^dag exactly, with
    D = diag(e^{i(phi - pi/2)}, 1) and the real matrix

        R_n = [[ |C_n| cos(k sqrt(n+1)),     |C_{n+1}| sin(k sqrt(n+1)) ],
               [ -|C_{n-1}| sin(k sqrt(n)),  |C_n| cos(k sqrt(n)) ]].

    ``rows[i, j]`` is the contiguous column of entries R_n[i, j] over
    n = n_start, n_start + 1, ... (shape (2, 2, K)).  ``transfer``, the
    channel's real 4x4 Liouville form, and ``operators``, the complex M_n
    of shape (K, 2, 2), are built on first access.  Immutable after
    construction; safe to share across threads.
    """

    rows: np.ndarray  # shape (2, 2, K), real, C-contiguous
    n_start: int
    field: FieldState
    pulse: PulseSpec

    def __post_init__(self):
        object.__setattr__(self, "rows", np.ascontiguousarray(self.rows, dtype=float))
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return self.rows.shape[2]

    def indices(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_start + len(self))

    def frame(self) -> np.ndarray:
        """Diagonal of D = diag(e^{i(phi - pi/2)}, 1)."""
        return _frame(self.field)

    def amplitudes(self, w, v) -> np.ndarray:
        """Phase-free amplitudes e^{-i n phi} w^T M_n v = sum_ij R_n[i, j] c_ij over n."""
        return _contract(self.rows, _coupling(self.field, w, v))

    def weight(self, w, v) -> float:
        """sum_n |w^T M_n v|^2: the phase e^{i n phi} drops out."""
        return sum_of_squares(self.amplitudes(w, v))

    @cached_property
    def transfer(self) -> np.ndarray:
        """Transfer matrix S[i, j, k, l] = sum_n R_n[i, k] R_n[j, l], shape (2, 2, 2, 2).

        S is the real 4x4 Liouville form of X -> sum_n R_n X R_n^T:
        (sum_n R_n X R_n^T)[i, j] = sum_kl S[i, j, k, l] X[k, l].  It is the
        Gram matrix of the four entry columns, reordered; each of its ten
        distinct entries is one product column summed pairwise, without
        BLAS (see ``amplitudes``); a running sum (einsum) loses about six
        times more.
        """
        columns = self.rows.reshape(4, -1)
        gram = np.empty((4, 4))
        for p in range(4):
            gram[p, p:] = (columns[p] * columns[p:]).sum(axis=1)
            gram[p:, p] = gram[p, p:]
        transfer = np.ascontiguousarray(gram.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3))
        transfer.flags.writeable = False
        return transfer

    @cached_property
    def operators(self) -> np.ndarray:
        """The complex M_n of shape (K, 2, 2), from the stored amplitudes C_n."""
        coeffs = _neighbourhood(self.field.amplitudes(), self.field.n_offset, self.n_start,
                                len(self), 0.0)
        ops = _entries(coeffs, self.n_start, len(self), self.pulse.kappa, -1j, -1j)
        ops = np.ascontiguousarray(ops.transpose(2, 0, 1))
        ops.flags.writeable = False
        return ops

    def completeness_residual(self) -> float:
        """Max-entry norm of sum_n M_n^dag M_n - I."""
        gram = np.einsum("nji,njk->ik", self.operators.conj(), self.operators)
        return float(np.max(np.abs(gram - np.eye(2))))

    def to_json_rows(self) -> list[dict]:
        return [{"n": int(n), "M": [[float(z.real), float(z.imag)] for z in op.ravel()]}
                for n, op in zip(self.indices(), self.operators)]


def _frame(field: FieldState) -> np.ndarray:
    """Diagonal of D = diag(e^{i(phi - pi/2)}, 1) for the field's coherent phase phi."""
    return np.array([cmath.exp(1j * (field.coherent_phase - math.pi / 2)), 1.0])


def _coupling(field: FieldState, w, v) -> np.ndarray:
    """c = (D w)(D^dag v)^T, which weighs R_n into e^{-i n phi} w^T M_n v."""
    d = _frame(field)
    return np.outer(d * np.asarray(w), d.conj() * np.asarray(v))


def _contract(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_ij rows[i, j] c_ij over the last axis of ``rows``.

    An all-zero part of c (Im c at phi = pi/2, where D = I) is skipped, so
    the amplitudes of real w and v are then real.  einsum keeps the O(K)
    products out of BLAS, whose threads would wake for them and stall the
    small products that follow.
    """
    amp = np.einsum("ijn,ij->n", rows, c.real)
    if c.imag.any():
        amp = amp + 1j * np.einsum("ijn,ij->n", rows, c.imag)
    return amp


def _square_sums(amp: np.ndarray):
    """The pairwise sum of squares of each CHUNK_LEVELS-long piece of each real
    part of ``amp``: ``ndarray.sum`` adds exactly as np.sum does, without its
    few microseconds of dispatch per call."""
    for part in ((amp.real, amp.imag) if np.iscomplexobj(amp) else (amp,)):
        for first in range(0, len(part), CHUNK_LEVELS):
            piece = part[first:first + CHUNK_LEVELS]
            yield (piece * piece).sum()


def sum_of_squares(amp: np.ndarray) -> float:
    """sum_n |amp_n|^2: one pairwise np.sum per CHUNK_LEVELS-long piece of
    each real part, the pieces combined by ``math.fsum``.

    Up to CHUNK_LEVELS entries this is np.sum of the squares; beyond, the
    pieces are the ones ``stream_weights`` sums, so a stored and a streamed
    weight agree bit for bit.
    """
    return math.fsum(_square_sums(amp))


def _neighbourhood(values: np.ndarray, lo: int, start: int, count: int, fill) -> np.ndarray:
    """c_{start-1} .. c_{start+count} (count + 2 entries), where ``values[i]``
    is c_{lo + i} and every other c_n is ``fill``."""
    out = np.full(count + 2, fill, dtype=values.dtype)
    first = start - 1 - lo  # position of c_{start-1} in ``values``
    a, b = max(first, 0), min(first + count + 2, len(values))
    out[a - first:b - first] = values[a:b]
    return out


def _entries(coeffs: np.ndarray, start: int, count: int, kappa: float,
             up_factor, down_factor) -> np.ndarray:
    """Entry columns E[i, j] (shape (2, 2, count)) of

        [[c_n cos(k sqrt(n+1)),  up_factor c_{n+1} sin(k sqrt(n+1))],
         [down_factor c_{n-1} sin(k sqrt(n)),  c_n cos(k sqrt(n))]]

    for n = start .. start + count - 1, where ``coeffs`` holds
    c_{start-1} .. c_{start+count} (see ``_neighbourhood``).  cos and sin
    are taken once of k sqrt(m), m = start .. start + count; the n+1
    entries read that result shifted by one.
    """
    angle = kappa * np.sqrt(np.arange(start, start + count + 1, dtype=float))
    cos, sin = np.cos(angle), np.sin(angle)
    here = coeffs[1:count + 1]
    entries = np.empty((2, 2, count), dtype=np.result_type(coeffs, up_factor))
    np.multiply(here, cos[1:], out=entries[0, 0])
    np.multiply(up_factor * coeffs[2:], sin[1:], out=entries[0, 1])
    np.multiply(down_factor * coeffs[:count], sin[:-1], out=entries[1, 0])
    np.multiply(here, cos[:-1], out=entries[1, 1])
    return entries


def _kraus_span(field: FieldState, kappa: float) -> tuple[int, int]:
    """First index and count of the Kraus operators of one pulse against ``field``.

    The index range is [max(0, window_lo - 1), window_hi + 1]: the two
    extra operators carry the couplings C_{lo} and C_{hi} into the levels
    just outside the window and are exactly what trace preservation needs
    for number states.  Raises ValueError if the largest trig argument,
    kappa sqrt(n_max + 2), is not a finite float.
    """
    if not math.isfinite(kappa * math.sqrt(field.n_max + 2)):
        raise ValueError(f"kappa*sqrt(n) must be finite up to n={field.n_max + 2}, "
                         f"got kappa={kappa}")
    start = max(0, field.n_offset - 1)
    return start, field.n_max + 2 - start


def _real_rows(field: FieldState, kappa: float, start: int, count: int) -> np.ndarray:
    """Phase-free rows R_n (shape (2, 2, count)) for n = start .. start + count - 1,
    from the exp of just their own log-magnitudes."""
    coeffs = np.exp(_neighbourhood(field.log_magnitude, field.n_offset, start, count, -np.inf))
    return _entries(coeffs, start, count, kappa, 1.0, -1.0)


def build_kraus(field: FieldState, pulse: PulseSpec) -> KrausSet:
    """Populate the phase-free Kraus rows R_n of one pulse against ``field``.

    See ``_kraus_span`` for the index range and the ValueError it raises.
    """
    start, count = _kraus_span(field, pulse.kappa)
    rows = _real_rows(field, pulse.kappa, start, count)
    return KrausSet(rows=rows, n_start=int(start), field=field, pulse=pulse)


def stream_weights(field: FieldState, pulse: PulseSpec, pairs) -> list[float]:
    """The weights sum_n |w^T M_n v|^2 of each (w, v) in ``pairs``, without storing the rows.

    The levels are walked in pieces of CHUNK_LEVELS from the first Kraus
    index; each piece builds its rows, contracts them for every pair and
    keeps one partial sum per pair and real part.  The pieces are the
    ones ``sum_of_squares`` cuts a stored amplitude column into, so each
    weight equals ``build_kraus(field, pulse).weight(w, v)`` bit for bit.
    That needs the pieces to start at multiples of CHUNK_LEVELS: einsum
    rounds an entry differently in its vector body and in its scalar tail,
    and a multiple of 2**14 keeps every entry in the same lane position as
    in the stored column.
    """
    start, count = _kraus_span(field, pulse.kappa)
    couplings = [_coupling(field, w, v) for w, v in pairs]
    partials = [[] for _ in couplings]
    for first in range(start, start + count, CHUNK_LEVELS):
        rows = _real_rows(field, pulse.kappa, first, min(CHUNK_LEVELS, start + count - first))
        for c, sums in zip(couplings, partials):
            sums.extend(_square_sums(_contract(rows, c)))
        del rows  # so that the next piece is built without this one alive
    return [math.fsum(sums) for sums in partials]


def apply_channel(rho: QubitState, kraus: KrausSet) -> QubitState:
    """CPTP map rho -> sum_n M_n rho M_n^dag = D (sum_n R_n (D^dag rho D) R_n^T) D^dag.

    The photon-index sum is contracted once into ``kraus.transfer``, so a
    call is O(1) after the first; repeated calls are bitwise identical.
    """
    d = kraus.frame()
    inner = d.conj()[:, None] * rho.rho * d
    out = np.einsum("ijkl,kl->ij", kraus.transfer, inner)
    return QubitState(rho=d[:, None] * out * d.conj())


def bloch_rotation(vartheta: float) -> np.ndarray:
    """Classical Bloch rotation R = [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    return np.array([[c, s], [-s, c]])


def classical_limit_distance(rho0: QubitState, n_mean: float, vartheta: float,
                             tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Max-entry distance between the exact channel and the Bloch rotation.

    The channel uses a coherent field with phase pi/2 (the choice that
    makes the infinite-N limit a plain rotation rather than a conjugated
    one).  Scales as 1/N for fixed vartheta.
    """
    if n_mean < 1:
        raise ValueError(f"mean photon number must be >= 1, got {n_mean}")
    field = make_coherent(n_mean, phase=math.pi / 2, tail_tol=tail_tol)
    pulse = PulseSpec.from_vartheta(vartheta, n_mean)
    evolved = apply_channel(rho0, build_kraus(field, pulse))
    rot = bloch_rotation(vartheta)
    target = rot @ rho0.rho @ rot.T
    return float(np.max(np.abs(evolved.rho - target)))
