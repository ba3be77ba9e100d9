"""Exact dense linear algebra over prime fields F_p and the rationals."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import numpy as np

from amalgext.spans import Span, lanes


class CompositionNonzero(ValueError):
    """delta_j o delta_{j-1} != 0 in a complex whose consecutive maps must compose to zero."""

    def __init__(self, j: int):
        super().__init__(f"delta_{j} o delta_{j - 1} != 0")
        self.degree = j


# Fixed Miller-Rabin witnesses: the first twelve primes decide primality
# exactly for every n below 3.3e24, far beyond any characteristic Field accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest p with (p - 1)^2 < 2^63: a product of two reduced entries fits in int64.
MAX_CHARACTERISTIC = isqrt(2**63 - 1) + 1


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed bases 2..37 (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """F_p for prime p, or Q when the characteristic is 0.

    Matrices are plain numpy arrays: int64 with entries canonically in
    [0, p) for prime characteristic, object arrays of Fraction for Q.
    Every operation is exact and equality is structural; there are no
    tolerances anywhere.  A prime is accepted only while (p - 1)^2 fits in
    int64, so elementwise products are exact; matmul switches to Python
    integers when a dot product of its length could overflow.

    Over F_2, add and sub are xor on the canonical {0, 1} entries.  At every
    p with an exact lane layout (see `spans.lanes`: one-bit xor lanes at 2, byte
    or 16-bit lanes with Barrett reduction at 3, 5, 7, 11, 13 and 19) rref is
    a fresh PackedSpan over the rows.  Every other prime, and Q, takes the
    dense elimination.  The reduced row echelon form of a row space is
    unique, so both paths return the same bytes.
    """

    def __init__(self, characteristic: int):
        if characteristic != 0 and not is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
        if characteristic > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {characteristic} is too large for exact int64 "
                             f"arithmetic (at most {MAX_CHARACTERISTIC})")
        self.p = int(characteristic)
        # longest contraction whose int64 dot products cannot overflow
        self._exact_len = (2**63 - 1) // (self.p - 1) ** 2 if self.p else np.inf
        self._lanes = lanes(self.p)  # None where rref eliminates densely

    def __repr__(self):
        return "Field(Q)" if self.p == 0 else f"Field(F_{self.p})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    # -- construction -----------------------------------------------------

    def array(self, data) -> np.ndarray:
        if self.p:
            return np.asarray(data, dtype=np.int64) % self.p
        a = np.asarray(data, dtype=object)
        flat = [Fraction(x) for x in a.reshape(-1)]
        out = np.empty(a.shape, dtype=object)
        out.reshape(-1)[:] = flat
        return out

    def zeros(self, *shape) -> np.ndarray:
        if self.p:
            return np.zeros(shape, dtype=np.int64)
        out = np.empty(shape, dtype=object)
        out.reshape(-1)[:] = [Fraction(0)] * out.size
        return out

    def eye(self, n) -> np.ndarray:
        m = self.zeros(n, n)
        m.reshape(-1)[:: n + 1] = self.one  # the diagonal of a fresh array, as a view
        return m

    @property
    def one(self):
        return np.int64(1) if self.p else Fraction(1)

    # -- arithmetic --------------------------------------------------------

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.p else a

    def matmul(self, a, b) -> np.ndarray:
        if a.shape[-1] > self._exact_len:
            exact = a.astype(object) @ np.asarray(b).astype(object)
            return np.asarray(exact % self.p).astype(np.int64)
        return self.reduce(a @ b)

    def add(self, a, b) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        return self.reduce(a + b)

    def sub(self, a, b) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        return self.reduce(a - b)

    def neg(self, a) -> np.ndarray:
        return self.reduce(-a)

    def scale(self, c, a) -> np.ndarray:
        return self.reduce(c * a)

    def inv_scalar(self, x):
        if self.p:
            return np.int64(pow(int(x), -1, self.p))
        return Fraction(1) / x

    # -- elimination ---------------------------------------------------

    def rref(self, a) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the (strictly increasing) pivot columns.

        The form of a row space is unique, so a packed Span over the rows and
        the dense elimination return the same array and pivots.
        """
        r = self.array(a)  # a fresh array, updated in place
        if not self._lanes:
            return self._rref_dense(r)
        span = Span(self, r.shape[1], r)
        r[: len(span)] = span.basis
        r[len(span) :] = 0
        return r, span.pivots

    def _rref_dense(self, r: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """rref of a fresh canonical array, pivot by pivot, in place.

        Pivot choice is deterministic: first nonzero entry scanning
        top-to-bottom within each column, columns left-to-right.  Each step
        touches only the rows with a nonzero entry in the pivot column, and
        only the columns from the pivot onward (the ones left of it are
        already zero in the pivot row).
        """
        m, n = r.shape
        p = self.p
        pivots: list[int] = []
        row = 0
        col = 0
        while row < m and col < n:
            hits = r[:, col].nonzero()[0]
            k = hits.searchsorted(row)
            if k == hits.size:
                # no pivot here: jump to the next column with a nonzero below `row`
                live = r[row:, col + 1 :].any(axis=0).nonzero()[0]
                if not live.size:
                    break
                col += 1 + int(live[0])
                continue
            piv = hits[k]
            if piv != row:
                r[[row, piv]] = r[[piv, row]]
            # the pivot row is not updated; after a swap, row piv holds a zero here
            hits = hits[hits != piv]
            head = r[row, col]
            if head != 1:
                r[row, col:] = self.reduce(r[row, col:] * self.inv_scalar(head))
            if hits.size:
                # |entries| < p and (p - 1)^2 < 2^63, so the update is exact in int64
                upd = r[hits, col:] - r[hits, col, None] * r[row, col:]
                r[hits, col:] = upd % p if p else upd
            pivots.append(col)
            row += 1
            col += 1
        return r, pivots

    def rank(self, a) -> int:
        a = np.asarray(a)
        if a.size == 0:
            return 0
        return len(Span(self, a.shape[1], self.array(a)))

    def kernel_basis(self, a) -> list[np.ndarray]:
        """Basis of {x : a @ x = 0}, one vector per free column, deterministic."""
        return list(self.kernel_matrix(a).T.copy())

    def kernel_matrix(self, a) -> np.ndarray:
        """The kernel basis as columns: solve's kernel, with no right-hand side."""
        return self.solve(a, self.zeros(np.shape(a)[0], 0))[1]

    def solve(self, a, b):
        """The general solution of a @ x = b, read off one rref of [a | b]: (x, kernel).

        b is a vector or a block of right-hand sides.  x is the first
        back-substitution solution, with the shape of b, or None when some
        column of b lies outside the column span of a.  kernel is ker a as
        columns, free column c pinned to one and the other free columns to
        zero, whether or not b is consistent: the a-block of rref([a | b]) is
        rref(a).
        """
        n = np.shape(a)[1]
        block = np.ndim(b) == 2
        b = b if block else np.reshape(b, (-1, 1))
        r, pivots = self.rref(np.concatenate([a, b], axis=1) if np.shape(b)[1] else a)
        k = bisect_left(pivots, n)  # the pivots of a
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        kernel = self.zeros(n, len(free))
        kernel[free, np.arange(len(free))] = self.one
        kernel[pivots[:k]] = self.neg(r[:k, free])
        if k < len(pivots):
            return None, kernel
        x = self.zeros(n, r.shape[1] - n)
        x[pivots, :] = r[:k, n:]
        return (x if block else x[:, 0]), kernel

    def in_column_span(self, a, v) -> bool:
        """Nothing in the package or its tests calls it; bench/tracing.py wraps it by name."""
        return self.solve(a, v)[0] is not None

    def columns_contained(self, a, b) -> bool:
        """True iff every column of b lies in the column span of a."""
        return self.solve(a, b)[0] is not None


def array_key(a: np.ndarray) -> tuple:
    """A key equal for two arrays exactly when shape, dtype and entries are: the
    bytes, or over Q the entries (an object array's bytes are pointers)."""
    return a.shape, a.dtype.str, tuple(a.flat) if a.dtype == object else a.tobytes()


class CochainComplex:
    """C^0 -> C^1 -> ... with deltas[j]: C^j -> C^{j+1}, cohomology read at degrees 0..len-1.

    Each distinct map is eliminated once, by the rref of [delta_j^T | I].  The
    rows with a pivot in the left block are the rref of delta_j^T, the
    coboundary span of degree j+1; the right blocks of the other rows are the
    cocycles[j] columns.  A map equal to an earlier one shares its span and
    cocycles, which is exact because callers only read them (reduce against a
    span, multiply by cocycles).  Every consecutive pair is checked to compose
    to zero, once per distinct pair of maps.
    """

    def __init__(self, field: Field, deltas):
        self.field = field
        keys = [array_key(d) for d in deltas]
        composed = set()  # (key of delta_{j-1}, key of delta_j) pairs checked
        for j in range(1, len(deltas)):
            if (keys[j - 1], keys[j]) not in composed:
                if np.any(field.matmul(deltas[j], deltas[j - 1]) != 0):
                    raise CompositionNonzero(j)
                composed.add((keys[j - 1], keys[j]))
        self.cocycles = []
        self._coboundaries = [Span(field, deltas[0].shape[1])] if deltas else []
        seen = {}  # array_key of a map -> (its coboundary span, its cocycles)
        for d, key in zip(deltas, keys):
            if key not in seen:
                tgt, src = d.shape
                r, pivots = field.rref(np.concatenate([d.T, field.eye(src)], axis=1))
                rank = sum(c < tgt for c in pivots)
                span = Span(field, tgt)
                span.extend(r[:rank, :tgt], pivots[:rank])
                seen[key] = span, r[rank:, tgt:].T.copy()
            span, cocycles = seen[key]
            self._coboundaries.append(span)
            self.cocycles.append(cocycles)
        self.dims = [z.shape[1] - len(b) for z, b in zip(self.cocycles, self._coboundaries)]

    def coboundaries(self, j: int) -> Span:
        """The span of delta_{j-1}'s columns inside C^j (empty at degree 0)."""
        return self._coboundaries[j]


def subquotient_dim(field: Field, boundary_in, boundary_out) -> int:
    """dim ker(boundary_out) - rank(boundary_in) for a two-step complex.

    boundary_in maps into the middle space, boundary_out maps out of it;
    their composite must vanish.
    """
    return CochainComplex(field, [field.array(boundary_in), field.array(boundary_out)]).dims[1]
