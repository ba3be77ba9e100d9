"""Exact dense linear algebra over prime fields F_p and the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np


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

    Over F_2, add and sub are xor on the canonical {0, 1} entries.  rref
    eliminates rows packed into Python integers at every p with an exact
    lane layout (see `_lanes`): one-bit xor lanes at 2, and byte or 16-bit
    lanes with Barrett reduction at 3, 5, 7, 11, 13 and 19.  Every other
    prime, and Q, takes the dense elimination.  The reduced row echelon form
    of a row space is unique, so both paths return the same bytes.
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
        self._lanes = _lanes(self.p)  # None where rref eliminates densely

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
        for i in range(n):
            m[i, i] = self.one
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

        The form of a row space is unique, so the packed path and the dense
        elimination return the same array and pivots.
        """
        r = self.array(a)  # a fresh array: the dense path updates it in place
        if self._lanes:
            return _rref_packed(r, self.p, self._lanes)
        return self._rref_dense(r)

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
        return len(self.rref(a)[1])

    def kernel_basis(self, a) -> list[np.ndarray]:
        """Basis of {x : a @ x = 0}, one vector per free column, deterministic."""
        return list(self.kernel_matrix(a).T.copy())

    def kernel_matrix(self, a) -> np.ndarray:
        """The kernel basis as columns: free column c pinned to one, the others to zero."""
        r, pivots = self.rref(a)
        pivot_set = set(pivots)
        free = [c for c in range(r.shape[1]) if c not in pivot_set]
        out = self.zeros(r.shape[1], len(free))
        out[free, np.arange(len(free))] = self.one
        out[pivots] = self.neg(r[: len(pivots), free])
        return out

    def solve(self, a, b):
        """First RREF back-substitution solution of a @ x = b, or None."""
        x = self.solve_many(a, np.reshape(b, (-1, 1)))
        return None if x is None else x[:, 0]

    def solve_many(self, a, b):
        """The column-by-column solve(a, b[:, c]) from one rref of [a | b], or None.

        None means some column of b lies outside the column span of a.
        """
        n = np.shape(a)[1]
        if np.shape(b)[1] == 0:
            return self.zeros(n, 0)
        r, pivots = self.rref(np.concatenate([a, b], axis=1))
        if pivots and pivots[-1] >= n:
            return None
        x = self.zeros(n, r.shape[1] - n)
        x[pivots, :] = r[: len(pivots), n:]
        return x

    def in_column_span(self, a, v) -> bool:
        return self.solve(a, v) is not None

    def columns_contained(self, a, b) -> bool:
        """True iff every column of b lies in the column span of a."""
        return self.solve_many(a, b) is not None

    def random_matrix(self, rng, m, n) -> np.ndarray:
        if self.p:
            return np.asarray(rng.integers(0, self.p, size=(m, n)), dtype=np.int64)
        return self.array(rng.integers(-5, 6, size=(m, n)))

    def random_invertible(self, rng, n) -> np.ndarray:
        while True:
            m = self.random_matrix(rng, n, n)
            if self.rank(m) == n:
                return m


def _lanes(p: int) -> tuple[int, int, int] | None:
    """The layout (bits, shift, mult) of the packed elimination over F_p, or None.

    A row is one Python integer of `bits`-bit lanes.  At 2 a lane is one bit
    and rows are added by xor.  At odd p it is the first 1- or 2-byte lane
    where x // p == (x * mult) >> shift for every lane value x <= p(p - 1),
    with x * mult < 2^bits so that no lane spills into the next.  None when no
    such lane is exact, and for Q.
    """
    if p == 2:
        return 1, 0, 0
    if p < 2:
        return None
    top = p * (p - 1)  # the largest lane value a row update leaves: (p - 1) + (p - 1)^2
    for bits in (8, 16):
        for shift in range(bits - 1, 0, -1):
            mult = -(-(1 << shift) // p)  # ceil(2^shift / p)
            if top * mult < 1 << bits and all((x * mult) >> shift == x // p
                                              for x in range(top + 1)):
                return bits, shift, mult
    return None


def _rref_packed(r: np.ndarray, p: int, lanes: tuple[int, int, int]
                 ) -> tuple[np.ndarray, list[int]]:
    """rref over F_p of a canonical array, on rows packed into Python integers.

    Column c of a row is lane width - 1 - c of its integer, so the leading
    lane is the top one.  Over F_2 a lane is a bit (`np.packbits`, padded to
    whole bytes); at odd p it is a big-endian byte or 16-bit word.
    """
    m, n = r.shape
    if not (m and n):
        return r, []
    bits = lanes[0]
    if p == 2:
        packed = np.packbits(r.astype(np.uint8), axis=1)
    else:
        packed = r.astype(f">u{bits // 8}")
    stride = packed.shape[1] * packed.itemsize  # bytes per row
    width = 8 * stride // bits  # lanes per row
    data = packed.tobytes()
    rows = [int.from_bytes(data[i : i + stride], "big") for i in range(0, m * stride, stride)]
    basis, tops = _eliminate_xor(rows) if p == 2 else _eliminate_lanes(rows, p, lanes, width)
    tops.reverse()  # pivot columns left to right
    echelon = np.frombuffer(b"".join(basis[t].to_bytes(stride, "big") for t in tops),
                            dtype=packed.dtype).reshape(len(tops), packed.shape[1])
    out = np.zeros((m, n), dtype=np.int64)
    out[: len(tops)] = np.unpackbits(echelon, axis=1, count=n) if p == 2 else echelon
    return out, [width - 1 - t for t in tops]


def _eliminate_xor(rows: list[int]) -> tuple[dict[int, int], list[int]]:
    """The reduced echelon basis of packed F_2 rows, keyed by leading bit, and
    its keys in increasing order.

    Each row is xored with the basis row of its leading bit until it is zero
    or leads a new bit; then each pivot bit is cleared from the rows above it.
    """
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            w = basis.get(top)
            if w is None:
                basis[top] = v
                break
            v ^= w
    tops = sorted(basis)  # pivot columns right to left
    below = 0  # the pivot bits of the rows already reduced
    for t in tops:
        # a reduced row holds no pivot bit but its own, so xoring it clears just that one
        v = hits = basis[t]
        hits &= below
        while hits:
            top = hits.bit_length() - 1
            v ^= basis[top]
            hits ^= 1 << top
        basis[t] = v
        below |= 1 << t
    return basis, tops


def _eliminate_lanes(rows: list[int], p: int, lanes: tuple[int, int, int],
                     width: int) -> tuple[dict[int, int], list[int]]:
    """`_eliminate_xor` at odd p, on lanes: v - c * w is computed as
    v + (p - c) * w, whose lanes stay at most p(p - 1), followed by one
    lane-wise Barrett reduction, and a new basis row is scaled to lead with 1.

    The rows enter in increasing order, so by leading column, rightmost
    first: a sparse input then builds no long reduction chains (the 727 x 728
    F_3 matrix of `mv-check` on S4 *_{S3} S4 at radius 5 takes 1 234 row
    updates in place of 59 772).  Over F_2, where an update is one xor,
    sorting cost more than it saved on the dense inputs of `ext`.
    """
    bits, shift, mult = lanes
    # the quotient bits of each lane of (x * mult) >> shift
    quot = int.from_bytes(((1 << bits - shift) - 1).to_bytes(bits // 8, "big") * width, "big")
    basis: dict[int, int] = {}
    for v in sorted(rows):
        while v:
            top = (v.bit_length() - 1) // bits
            c = v >> bits * top
            w = basis.get(top)
            if w is None:
                if c != 1:
                    x = v * pow(c, -1, p)
                    v = x - p * ((x * mult >> shift) & quot)
                basis[top] = v
                break
            x = v + (p - c) * w
            v = x - p * ((x * mult >> shift) & quot)
    lane = (1 << bits) - 1
    tops = sorted(basis)
    below = 0  # the pivot lanes of the rows already reduced
    for t in tops:
        v = hits = basis[t]
        hits &= below
        while hits:
            top = (hits.bit_length() - 1) // bits
            c = hits >> bits * top
            hits ^= c << bits * top
            x = v + (p - c) * basis[top]
            v = x - p * ((x * mult >> shift) & quot)
        basis[t] = v
        below |= lane << bits * t
    return basis, tops


class Span:
    """A row span kept as a fully reduced echelon basis.

    The rows of `basis` carry the identity in the `pivots` columns, so
    reduce(rows) = rows - rows[:, pivots] @ basis vanishes exactly on the rows
    that lie in the span.
    """

    def __init__(self, field: Field, width: int, rows=None):
        self.field = field
        self.basis = field.zeros(0, width)
        self.pivots: list[int] = []
        if rows is not None:
            self.add(rows)

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, rows) -> np.ndarray:
        if not self.pivots:
            return rows
        f = self.field
        return f.sub(rows, f.matmul(rows[:, self.pivots], self.basis))

    def add(self, rows):
        """Reduce the rows, echelonize them, and append the result."""
        new, new_pivots = self.field.rref(self.reduce(rows))
        self.extend(new[: len(new_pivots)], new_pivots)

    def extend(self, echelon, pivots: list[int]):
        """Append rows already reduced against the span and in rref with these pivots.

        Their pivot columns are cleared from the old basis rows; nothing is
        reduced or eliminated again.
        """
        f = self.field
        if self.pivots:
            self.basis = f.sub(self.basis, f.matmul(self.basis[:, pivots], echelon))
        self.basis = np.concatenate([self.basis, echelon])
        self.pivots += pivots


class CochainComplex:
    """C^0 -> C^1 -> ... with deltas[j]: C^j -> C^{j+1}, cohomology read at degrees 0..len-1.

    Each map is eliminated once, by the rref of [delta_j^T | I].  The rows with
    a pivot in the left block are the rref of delta_j^T, the coboundary span of
    degree j+1; the right blocks of the other rows are the cocycles[j] columns.
    """

    def __init__(self, field: Field, deltas):
        self.field = field
        self.deltas = deltas
        for j in range(1, len(deltas)):
            if np.any(field.matmul(deltas[j], deltas[j - 1]) != 0):
                raise CompositionNonzero(j)
        self.cocycles = []
        self._coboundaries = [Span(field, deltas[0].shape[1])] if deltas else []
        for d in deltas:
            tgt, src = d.shape
            r, pivots = field.rref(np.concatenate([d.T, field.eye(src)], axis=1))
            rank = sum(c < tgt for c in pivots)
            span = Span(field, tgt)
            span.extend(r[:rank, :tgt], pivots[:rank])
            self._coboundaries.append(span)
            self.cocycles.append(r[rank:, tgt:].T.copy())
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
