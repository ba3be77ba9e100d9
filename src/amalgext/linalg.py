"""Exact dense linear algebra over prime fields F_p and the rationals."""

from __future__ import annotations

import functools
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

    Over F_2, add and sub are xor on the canonical {0, 1} entries.  At every
    p with an exact lane layout (see `_lanes`: one-bit xor lanes at 2, byte
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
        """The kernel basis as columns: free column c pinned to one, the others to zero."""
        r, pivots = self.rref(a)
        pivot_set = set(pivots)
        free = [c for c in range(r.shape[1]) if c not in pivot_set]
        out = self.zeros(r.shape[1], len(free))
        out[free, np.arange(len(free))] = self.one
        out[pivots] = self.neg(r[: len(pivots), free])
        return out

    def solve(self, a, b):
        """First RREF back-substitution solution of a @ x = b, or None.

        b is a vector or a block of right-hand sides, all solved from one rref
        of [a | b]; x has the shape of b.  None means some column of b lies
        outside the column span of a.
        """
        n = np.shape(a)[1]
        block = np.ndim(b) == 2
        if block and not np.shape(b)[1]:
            return self.zeros(n, 0)
        r, pivots = self.rref(np.concatenate([a, b if block else np.reshape(b, (-1, 1))], axis=1))
        if pivots and pivots[-1] >= n:
            return None
        x = self.zeros(n, r.shape[1] - n)
        x[pivots, :] = r[: len(pivots), n:]
        return x if block else x[:, 0]

    def in_column_span(self, a, v) -> bool:
        return self.solve(a, v) is not None

    def columns_contained(self, a, b) -> bool:
        """True iff every column of b lies in the column span of a."""
        return self.solve(a, b) is not None


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


class Span:
    """A row span kept as a fully reduced echelon basis.

    The rows of `basis` carry the identity in the `pivots` columns, so
    reduce(rows) = rows - rows[:, pivots] @ basis vanishes exactly on the rows
    that lie in the span.  This dense form is the reference; at every prime
    with a packed layout (`Field._lanes`) Span(...) makes a PackedSpan, whose
    pivots, basis and reductions are the same.
    """

    def __new__(cls, field: Field, width: int, rows=None):
        if cls is Span and field._lanes:
            cls = PackedSpan
        return super().__new__(cls)

    def __init__(self, field: Field, width: int, rows=None):
        self.field = field
        self.width = width
        self._basis = field.zeros(0, width)
        self.pivots: list[int] = []
        if rows is not None:
            self.add(rows)

    def __len__(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> np.ndarray:
        """The reduced echelon rows, row i with its one in column pivots[i]."""
        return self._basis

    def copy(self) -> "Span":
        """An equal span that grows independently of this one (no array is written in place)."""
        out = object.__new__(type(self))
        out.__dict__ = {k: v.copy() if isinstance(v, (list, dict)) else v
                        for k, v in vars(self).items()}
        return out

    def reduce(self, rows) -> np.ndarray:
        if not self.pivots:
            return rows
        f = self.field
        return f.sub(rows, f.matmul(rows[:, self.pivots], self.basis))

    def add(self, rows) -> list[int]:
        """Reduce the rows, echelonize them, append the result; the new pivots, ascending."""
        new, new_pivots = self.field.rref(self.reduce(rows))
        self.extend(new[: len(new_pivots)], new_pivots)
        return new_pivots

    def extend(self, echelon, pivots: list[int]):
        """Append rows already reduced against the span and in rref with these pivots.

        Their pivot columns are cleared from the old basis rows; nothing is
        reduced or eliminated again.
        """
        f = self.field
        if self.pivots:
            self._basis = f.sub(self._basis, f.matmul(self._basis[:, pivots], echelon))
        self._basis = np.concatenate([self._basis, echelon])
        self.pivots += pivots

    def pack(self, rows):
        """The rows in the span's own form, for rows that contains or independent test often."""
        return rows

    def contains(self, row) -> bool:
        """Whether one row of pack(...) lies in the span."""
        return not self.reduce(row[None]).any()

    def independent(self, rows) -> list[int]:
        """The indices of the rows of pack(...), in order, that lie outside the
        span of this span and the rows before them: the pivots of
        rref(reduce(rows).T)."""
        return self.field.rref(self.reduce(rows).T)[1]


class PackedSpan(Span):
    """A Span whose rows are Python integers, column c in lane `_top` - c.

    Over F_2 a lane is a bit (`np.packbits`, padded to whole bytes) and rows
    are added by xor.  At odd p it is a big-endian byte or 16-bit word, and
    v - c * w is computed as v + (p - c) * w, whose lanes stay at most
    p(p - 1), followed by one lane-wise Barrett reduction (see `_lanes`).
    `_rows` holds one row per pivot, by leading lane, reduced against the rows
    before it; clearing the pivot lanes (`_mask`) top down gives every
    reduction, and `basis` back-substitutes and unpacks only when read.
    Rows must be canonical (entries in [0, p)), as every Field operation leaves them.
    """

    def __init__(self, field: Field, width: int, rows=None):
        self._dtype, self._stride, self._top, self._quot = _layout(field._lanes, width)
        self._rows, self._mask = {}, 0  # pivot rows by leading lane, and their lanes
        super().__init__(field, width, rows)

    @property
    def basis(self) -> np.ndarray:
        if len(self._basis) < len(self.pivots):  # rows were added since the last read
            rows, below, bits = self._rows, 0, self.field._lanes[0]
            for t in sorted(rows):  # rightmost pivot first: rows below it are reduced
                if rows[t] & below:
                    rows[t] = self._sweep([rows[t]], mask=below)[0]
                below |= (1 << bits) - 1 << bits * t
            self._basis = self._unpack([rows[self._top - c] for c in self.pivots])
        return self._basis

    def reduce(self, rows) -> np.ndarray:
        return self._unpack(self._sweep(self.pack(rows))) if self.pivots else rows

    def add(self, rows) -> list[int]:
        """Over F_2 the rows enter in order.  At odd p they enter in increasing
        order, by leading column rightmost first, so that sparse inputs build no
        long reduction chains (the 727 x 728 F_3 matrix of `mv-check` on
        S4 *_{S3} S4 at radius 5 takes 1 234 row updates in place of 59 772)."""
        rows = self.pack(rows) if self.field.p == 2 else sorted(self.pack(rows))
        kept = self._sweep(rows, keep=True)
        new = sorted([self._top - (v.bit_length() - 1) // self.field._lanes[0] for v in kept if v])
        self.pivots += new
        return new

    def extend(self, echelon, pivots: list[int]):
        bits = self.field._lanes[0]
        for c, v in zip(pivots, self.pack(echelon)):
            self._rows[self._top - c] = v
            self._mask |= (1 << bits) - 1 << bits * (self._top - c)
        self.pivots += pivots

    def pack(self, rows) -> list[int]:
        rows = np.asarray(rows)
        if self.field.p == 2:
            rows = np.packbits(rows.astype(np.uint8), axis=1)
        data, s = rows.astype(self._dtype, copy=False).tobytes(), self._stride
        return [int.from_bytes(data[i : i + s], "big") for i in range(0, len(data), s)] if s \
            else [0] * len(rows)

    def _unpack(self, rows: list[int]) -> np.ndarray:
        s = self._stride
        data = np.frombuffer(b"".join([v.to_bytes(s, "big") for v in rows]), dtype=self._dtype)
        data = data.reshape(len(rows), s // self._dtype.itemsize)
        if self.field.p == 2:
            return np.unpackbits(data, axis=1, count=self.width).astype(np.int64)
        return data.astype(np.int64)

    def contains(self, row: int) -> bool:
        return not self._sweep([row])[0]

    def independent(self, rows: list[int]) -> list[int]:
        return [i for i, v in enumerate(self.copy()._sweep(rows, keep=True)) if v]

    def _sweep(self, rows: list[int], keep: bool = False, mask: int | None = None) -> list[int]:
        """Each row less the multiples of span rows that clear its lanes in mask
        (all pivot lanes by default), top down.  With keep, each row left nonzero
        then joins `_rows`, scaled to lead with 1; the caller records its pivot."""
        p, (bits, shift, mult), quot = self.field.p, self.field._lanes, self._quot
        span, out = self._rows, []
        mask = self._mask if mask is None else mask
        for v in rows:
            hits = v & mask
            if p == 2:
                while hits:
                    v ^= span[hits.bit_length() - 1]
                    hits = v & mask
            while hits:  # at odd p; the top lane of hits is v's
                top = (hits.bit_length() - 1) // bits
                x = v + (p - (hits >> bits * top)) * span[top]
                v = x - p * ((x * mult >> shift) & quot)
                hits = v & mask
            if keep and v:
                top = (v.bit_length() - 1) // bits
                if v >> bits * top != 1:
                    x = v * pow(v >> bits * top, -1, p)
                    v = x - p * ((x * mult >> shift) & quot)
                span[top] = v
                mask |= (1 << bits) - 1 << bits * top
            out.append(v)
        if keep:
            self._mask = mask
        return out


@functools.cache
def _layout(lanes: tuple[int, int, int], width: int) -> tuple[np.dtype, int, int, int]:
    """(dtype, bytes per row, lane of column 0, odd-p quotient mask of `_sweep`) at this width."""
    bits, shift, _ = lanes
    stride = -(-width // 8) if bits == 1 else width * bits // 8
    quot = ((1 << bits - shift) - 1).to_bytes(bits // 8, "big") if bits > 1 else b""
    return (np.dtype(np.uint8 if bits == 1 else f">u{bits // 8}"), stride,
            8 * stride // bits - 1, int.from_bytes(quot * width, "big"))


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
    to zero.
    """

    def __init__(self, field: Field, deltas):
        self.field = field
        for j in range(1, len(deltas)):
            if np.any(field.matmul(deltas[j], deltas[j - 1]) != 0):
                raise CompositionNonzero(j)
        self.cocycles = []
        self._coboundaries = [Span(field, deltas[0].shape[1])] if deltas else []
        seen = {}  # array_key of a map -> (its coboundary span, its cocycles)
        for d in deltas:
            key = array_key(d)
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
