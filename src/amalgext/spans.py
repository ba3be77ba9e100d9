"""Row spans over F_p: the dense reference form, and the packed form at the
primes with an exact lane layout.

A Span keeps a fully reduced echelon basis of the rows added to it.  At
2, 3, 5, 7, 11, 13 and 19 (see `lanes`) Span(...) makes a PackedSpan, whose
rows are Python integers of fixed-width lanes, so that a row update is one
integer operation.  `Field.rref` at those primes is a fresh PackedSpan.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from amalgext.linalg import Field


@functools.cache  # a search over every lane value: each Field(p) would repeat it
def lanes(p: int) -> tuple[int, int, int] | None:
    """The layout (bits, shift, mult) of the packed elimination over F_p, or None.

    A row is one Python integer of `bits`-bit lanes.  At 2 a lane is one bit
    and rows are added by xor.  At odd p it is the first 1- or 2-byte lane
    where x // p == (x * mult) >> shift for every lane value x <= p(p - 1),
    with x * mult < 2^bits so that no lane spills into the next.  None when no
    such lane is exact.
    """
    if p == 2:
        return 1, 0, 0
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
    p(p - 1), followed by one lane-wise Barrett reduction (see `lanes`).
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
