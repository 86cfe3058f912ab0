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
k sqrt(m).

There is one evaluation path, ``KrausSet.grams``.  It walks the Kraus index
in pieces of CHUNK_LEVELS levels, keeps one piece's rows at a time (so its
memory beyond the field is O(CHUNK_LEVELS)), and reduces each group of
amplitude columns w^T M_n v to their Gram matrix sum_n a_i conj(a_j).  An
error is a diagonal entry, the weight sum_n |w^T M_n v|^2, projected term by
term as a sum of squares, so an O(1/N) error is never the difference of
O(1) sums: each piece's sum is pairwise and the pieces' sums are combined by
``math.fsum``.  Every state update is one ``frame_step`` through such a Gram;
the channel's, like the completeness residual, reads ``KrausSet.unit_gram``,
that of the four entries of R_n.  No complex M_n is built: the ``kraus-dump``
rows multiply each entry of R_n by the phase of its own coefficient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock_field import DEFAULT_TAIL_TOL, TWO_PI, FieldState, check_photon_number, make_coherent

#: Levels per piece of the Kraus index walked by ``KrausSet.grams``.
CHUNK_LEVELS = 2 ** 14


@dataclass(frozen=True)
class QubitState:
    """2x2 density matrix in the (excited, ground) basis; holds a read-only copy."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.array(self.rho, dtype=complex))
        if self.rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {self.rho.shape}")
        self.rho.flags.writeable = False

    @classmethod
    def pure(cls, theta0: float) -> "QubitState":
        """Pure state R(theta0)|0> = (sin theta0, cos theta0)^T."""
        v = bloch_rotation(theta0)[:, 1]
        return cls(rho=np.outer(v, v))

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
        check_photon_number(n_mean)
        return cls(kappa=float(vartheta) / math.sqrt(n_mean), vartheta=float(vartheta))

    def kappa_for(self, field: FieldState) -> float:
        """``kappa`` whatever the field; perfbench's tracer reads the pulse through it."""
        return self.kappa


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators M_n of one pulse against ``field``, n = n_start .. n_start + count - 1.

    For coherent phase phi, M_n = e^{i n phi} D R_n D^dag exactly, with
    D = diag(e^{i(phi - pi/2)}, 1) and the real matrix

        R_n = [[ |C_n| cos(k sqrt(n+1)),     |C_{n+1}| sin(k sqrt(n+1)) ],
               [ -|C_{n-1}| sin(k sqrt(n)),  |C_n| cos(k sqrt(n)) ]].

    The set stores no R_n: ``grams`` builds them piece by piece each time it
    walks the index.  ``unit_gram``, the Gram of the four entries of R_n
    that the channel steps with, is built on first access.  No complex M_n
    is built; ``to_json_rows`` writes their entries from the R_n.  Immutable
    after construction; safe to share across threads.
    """

    field: FieldState
    pulse: PulseSpec
    n_start: int
    count: int

    def __len__(self) -> int:
        return self.count

    def frame(self) -> np.ndarray:
        """Diagonal of D = diag(e^{i(phi - pi/2)}, 1) for the field's coherent phase phi."""
        return np.array([cmath.exp(1j * (self.field.coherent_phase - math.pi / 2)), 1.0])

    def coupling(self, w, v) -> np.ndarray:
        """c = (D w)(D^dag v)^T, whose column sum_ij R_n[i, j] c_ij is e^{-i n phi} w^T M_n v."""
        d = self.frame()
        return (d * w)[:, None] * (d.conj() * v)

    def grams(self, groups) -> list[np.ndarray]:
        """The Hermitian Gram G[i, j] = sum_n a_i(n) conj(a_j(n)) of each group's columns.

        A group is a sequence of 2x2 couplings c_i, and a_i(n) = sum_jk
        R_n[j, k] c_i[j, k]; with c_i = ``coupling(w, v)``, |a_i(n)|^2 =
        |w^T M_n v|^2.  The index is walked in pieces of CHUNK_LEVELS levels
        from n_start; each piece builds its rows once and then, one group at
        a time, that group's columns (by einsum, which keeps the O(K)
        products out of BLAS, whose threads would wake for them).  Each
        product of two columns' real or imaginary parts is summed pairwise
        within a piece and the pieces' sums are combined by ``math.fsum``, so
        an O(1/N) entry is never the difference of O(1) sums.  A group of
        real couplings has real columns and a real Gram.

        The pieces start at multiples of CHUNK_LEVELS from n_start, so every
        column equals, float for float, one einsum over the whole index:
        einsum rounds an entry differently in its vector body and in its
        scalar tail, and such pieces keep every level in one lane position.
        """
        # Each group's size m and real couplings: those of its columns' real
        # parts x_0 and, where any coupling is complex, of their imaginary parts x_1.
        parts = []
        for group in groups:
            c = np.asarray(group, dtype=complex).reshape(-1, 2, 2)
            parts.append((len(c), np.concatenate((c.real, c.imag)) if c.imag.any() else c.real))
        end = self.n_start + self.count
        firsts = range(self.n_start, end, CHUNK_LEVELS)
        # sums[g][k, a, b]: piece k's sum of column a times column b (a <= b) of group g.
        sums = [np.zeros((len(firsts), len(couplings), len(couplings))) for _, couplings in parts]
        # One buffer serves every piece: its rows, then the scratch of their build
        # or one group's columns and a product.  A pass thus allocates nothing of
        # O(CHUNK_LEVELS) per piece, and its working set, one block, does not
        # depend on the allocator's history (glibc trims a heap whose free top
        # exceeds twice the largest block it has freed).
        width = max((len(couplings) for _, couplings in parts), default=0)
        length = min(CHUNK_LEVELS, self.count)
        work = np.empty(4 * length + max(3 * length + 4, (width + 1) * length))
        for k, first in enumerate(firsts):
            count = min(CHUNK_LEVELS, end - first)
            rows = _real_rows(self.field, self.pulse.kappa, first, count, work)
            for (_, couplings), acc in zip(parts, sums):
                _add_piece_sums(rows, couplings, acc[k], work[4 * count:])
        out = []
        for (m, couplings), acc in zip(parts, sums):
            gram = np.empty((m, m), dtype=float if len(couplings) == m else complex)
            for i in range(m):
                for j in range(i, m):
                    if len(couplings) == m:
                        value = math.fsum(acc[:, i, j])
                    else:  # (x_0 + i x_1)_i (x_0 - i x_1)_j, x_1 in the columns from m on
                        value = complex(math.fsum([*acc[:, i, j], *acc[:, m + i, m + j]]),
                                        math.fsum([*acc[:, j, m + i], *(-acc[:, i, m + j])]))
                    gram[i, j], gram[j, i] = value, value.conjugate()
            out.append(gram)
        return out

    @cached_property
    def unit_gram(self) -> np.ndarray:
        """h[2k + a, 2l + b] = sum_n R_n[a, k] R_n[b, l], the real 4x4 Gram of the
        unit couplings, in the order ``frame_step`` reads: the channel's step in
        the frame D, sum_n R_n X R_n^T = frame_step(X, h)."""
        gram, = self.grams([np.eye(4).reshape(4, 2, 2).transpose(0, 2, 1)])  # e_a e_k^T
        gram.flags.writeable = False
        return gram

    def completeness_residual(self) -> float:
        """Max-entry norm of sum_n M_n^dag M_n - I.

        sum_n M_n^dag M_n = D (sum_n R_n^T R_n) D^dag, and D is a diagonal
        unitary, so the norm is that of sum_n R_n^T R_n - I, whose [k, l]
        entry is sum_a h[2k + a, 2l + a] of ``unit_gram``.
        """
        h = self.unit_gram
        return float(np.max(np.abs(h[0::2, 0::2] + h[1::2, 1::2] - np.eye(2))))

    def to_json_rows(self) -> list[dict]:
        """One row {"n": n, "M": [[re, im] of M00, M01, M10, M11]} per level of the index.

        Each entry of R_n is multiplied by the phase of its own coefficient:
        e^{i n phi} on M00 and M11, -i e^{i(n+1) phi} on M01 and
        +i e^{i(n-1) phi} on M10 (R_n[1, 0] carries the minus sign), each
        angle m*phi reduced mod 2 pi.
        """
        rows = _real_rows(self.field, self.pulse.kappa, self.n_start, self.count,
                          np.empty(7 * self.count + 4))
        n = np.arange(self.n_start, self.n_start + self.count)

        def phase(m):
            return np.exp(1j * np.mod(m * self.field.coherent_phase, TWO_PI))

        here = phase(n)
        # Adding 0.0 turns the signed zeros of the products into +0.0.
        entries = np.stack((rows[0, 0] * here, rows[0, 1] * (-1j * phase(n + 1)),
                            rows[1, 0] * (1j * phase(n - 1)), rows[1, 1] * here), axis=1) + 0.0
        return [{"n": m, "M": op} for m, op in
                zip(n.tolist(), entries.view(float).reshape(self.count, 4, 2).tolist())]


def _add_piece_sums(rows: np.ndarray, couplings: np.ndarray, acc: np.ndarray,
                    work: np.ndarray) -> None:
    """Write one piece's sums of the products of real columns a and b (a <= b),
    those of ``couplings``, into ``acc[a, b]``.  The columns and each product
    are written into ``work``; each product is summed pairwise."""
    count = rows.shape[-1]
    cols = work[:len(couplings) * count].reshape(len(couplings), count)
    product = work[cols.size:cols.size + count]
    for col, c in zip(cols, couplings):
        np.einsum("ijn,ij->n", rows, c, out=col)
    for a in range(len(cols)):
        for b in range(a, len(cols)):
            acc[a, b] = np.multiply(cols[a], cols[b], out=product).sum()


def _real_rows(field: FieldState, kappa: float, start: int, count: int,
               work: np.ndarray) -> np.ndarray:
    """Phase-free rows R_n (shape (2, 2, count)) for n = start .. start + count - 1,
    from the exp of just their own log-magnitudes.

    ``work`` is a flat buffer of at least 7 count + 4 floats: the rows are its
    first 4 count, and the build's magnitudes |C_{start-1}| .. |C_{start+count}|
    and trig use the rest, which is free again once the rows are returned.
    cos and sin are taken once of k sqrt(m), m = start .. start + count; the
    n+1 entries read that result shifted by one.
    """
    rows = work[:4 * count].reshape(2, 2, count)
    mags = work[4 * count:5 * count + 2]
    cos, sin = work[5 * count + 2:7 * count + 4].reshape(2, count + 1)
    mags.fill(-np.inf)  # log|C_n| = -inf outside the field window
    first = start - 1 - field.n_offset  # position of C_{start-1} in field.log_magnitude
    a, b = max(first, 0), min(first + count + 2, field.size)
    mags[a - first:b - first] = field.log_magnitude[a:b]
    np.exp(mags, out=mags)
    np.sqrt(np.arange(start, start + count + 1, dtype=float), out=sin)
    np.multiply(sin, kappa, out=sin)  # the angle k sqrt(m)
    np.cos(sin, out=cos)
    np.sin(sin, out=sin)
    here = mags[1:count + 1]
    np.multiply(here, cos[1:], out=rows[0, 0])
    np.multiply(mags[2:], sin[1:], out=rows[0, 1])
    np.multiply(mags[:count], sin[:-1], out=rows[1, 0])
    np.negative(rows[1, 0], out=rows[1, 0])
    np.multiply(here, cos[:-1], out=rows[1, 1])
    return rows


def build_kraus(field: FieldState, pulse: PulseSpec) -> KrausSet:
    """The Kraus set of one pulse against ``field``; it stores no rows (see KrausSet).

    The index range is [max(0, window_lo - 1), window_hi + 1]: the two
    extra operators carry the couplings C_{lo} and C_{hi} into the levels
    just outside the window and are exactly what trace preservation needs
    for number states.  Raises ValueError if the largest trig argument,
    kappa sqrt(n_max + 2), is not a finite float.
    """
    if not math.isfinite(pulse.kappa * math.sqrt(field.n_max + 2)):
        raise ValueError(f"kappa*sqrt(n) must be finite up to n={field.n_max + 2}, "
                         f"got kappa={pulse.kappa}")
    start = max(0, field.n_offset - 1)
    return KrausSet(field=field, pulse=pulse, n_start=start, count=field.n_max + 2 - start)


def frame_step(sigma: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """sum_kl sigma[k, l] H[(a, k), (b, l)] for each (a, b), H in gram[2k + a, 2l + b]: for
    the Gram H of the columns b_a^T M_n u_k, a state in the frame (u_k) after the channel,
    in the frame (b_a).  Each real and imaginary part is one math.fsum of its products."""
    m = len(sigma)
    terms = (sigma[:, None, :, None] * gram.reshape(m, 2, m, 2)).transpose(1, 3, 0, 2)
    parts = zip(terms.real.reshape(4, -1).tolist(), terms.imag.reshape(4, -1).tolist())
    return np.array([complex(math.fsum(re), math.fsum(im)) for re, im in parts]).reshape(2, 2)


def apply_channel(rho: QubitState, kraus: KrausSet) -> QubitState:
    """CPTP map rho -> sum_n M_n rho M_n^dag = D (sum_n R_n (D^dag rho D) R_n^T) D^dag.

    The inner map is one ``frame_step`` with ``kraus.unit_gram``, summed over n
    once, so a call is O(1) after the first; repeated calls are bitwise identical.
    """
    d = kraus.frame()
    inner = d.conj()[:, None] * rho.rho * d
    return QubitState(rho=d[:, None] * frame_step(inner, kraus.unit_gram) * d.conj())


def bloch_rotation(vartheta: float) -> np.ndarray:
    """Classical Bloch rotation R = [[cos, sin], [-sin, cos]] in the (excited, ground) basis.

    |1> is the first basis vector, so the columns are R|1> and R|0>.
    """
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
