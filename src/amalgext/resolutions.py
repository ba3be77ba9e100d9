"""Free resolutions over finite group algebras and Ext of finite groups.

Free modules of rank r are row vectors over the group algebra; a map between
free modules is right multiplication by a matrix of algebra elements, so
composition reads left to right and the expansion to scalar matrices is a
ring homomorphism (rows act on the right).  The scalar coordinates of rank r
are indexed by (component, group element), flattened as i*|H| + g.
"""

from __future__ import annotations

import numpy as np

from amalgext.groups import FiniteGroup
from amalgext.linalg import Field, subquotient_dim
from amalgext.reps import KModule


class LiftFailed(RuntimeError):
    pass


def alg_mul(group: FiniteGroup, field: Field, a: dict, b: dict) -> dict:
    out: dict[int, object] = {}
    for g, ca in a.items():
        for h, cb in b.items():
            k = group.mul(g, h)
            # reduce every product: a sum of two unreduced ones can overflow int64
            out[k] = out.get(k, 0) + field.reduce(ca * cb)
    return {g: c for g, c in ((g, field.reduce(np.int64(c) if field.p else c))
                              for g, c in out.items()) if c != 0}


def alg_add(field: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in ((g, field.reduce(np.int64(c) if field.p else c))
                              for g, c in out.items()) if c != 0}


def alg_neg(field: Field, a: dict) -> dict:
    return {g: field.reduce(-c) for g, c in a.items()}


class AlgebraMatrix:
    """A rows x cols matrix of group algebra elements (maps of free modules).

    entry (i, j) is a finite map {element index -> scalar}.  As a map it
    sends the i-th basis row to the i-th row of the matrix.
    """

    def __init__(self, group: FiniteGroup, field: Field, rows: int, cols: int, entries=None):
        self.group = group
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [[{} for _ in range(cols)] for _ in range(rows)]
        self.entries = entries
        self._operator = None

    def entry(self, i: int, j: int) -> dict:
        return self.entries[i][j]

    def mul(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if self.cols != other.rows or self.group is not other.group:
            raise ValueError("algebra matrix shapes do not compose")
        out = AlgebraMatrix(self.group, self.field, self.rows, other.cols)
        for i in range(self.rows):
            for l in range(other.cols):
                acc: dict = {}
                for j in range(self.cols):
                    acc = alg_add(self.field, acc,
                                  alg_mul(self.group, self.field,
                                          self.entries[i][j], other.entries[j][l]))
                out.entries[i][l] = acc
        return out

    def neg(self) -> "AlgebraMatrix":
        out = AlgebraMatrix(self.group, self.field, self.rows, self.cols)
        out.entries = [[alg_neg(self.field, e) for e in row] for row in self.entries]
        return out

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def map_entries(self, elem_map, target_group: FiniteGroup) -> "AlgebraMatrix":
        """Push every algebra element along a group map (induction of free modules)."""
        out = AlgebraMatrix(target_group, self.field, self.rows, self.cols)
        out.entries = [[{elem_map(g): c for g, c in e.items()} for e in row]
                       for row in self.entries]
        return out

    def to_k_matrix(self) -> np.ndarray:
        """Row-convention expansion: coords(x * D) = coords(x) @ to_k_matrix(D).

        This expansion is multiplicative: to_k(A.mul(B)) = to_k(A) @ to_k(B).
        """
        n = self.group.order
        out = self.field.zeros(self.rows * n, self.cols * n)
        table = self.group.table
        rng = np.arange(n)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                # x * h runs over a permutation of the group, so no two terms collide
                for h, c in entry.items():
                    out[i * n + rng, j * n + table[:, h]] = c
        return out

    def operator(self) -> np.ndarray:
        """Column-convention operator: op @ coords(x) = coords(x * D)."""
        if self._operator is None:
            self._operator = self.to_k_matrix().T
        return self._operator

    @classmethod
    def from_rows(cls, group, field, rows_of_dicts, cols):
        out = cls(group, field, len(rows_of_dicts), cols)
        out.entries = [list(r) for r in rows_of_dicts]
        return out


def rho(module: KModule, a: dict) -> np.ndarray:
    """The action of an algebra element on a module, as a scalar matrix."""
    f = module.field
    out = f.zeros(module.dim, module.dim)
    for g, c in a.items():
        out = f.add(out, f.scale(c, module.mats[g]))
    return out


def _flat_to_alg_row(group: FiniteGroup, vec: np.ndarray, rank: int) -> list[dict]:
    n = group.order
    row = []
    for i in range(rank):
        comp = {g: vec[i * n + g] for g in range(n) if vec[i * n + g] != 0}
        row.append(comp)
    return row


class FreeResolution:
    """An augmented free resolution of a module over a finite group algebra.

    ranks[j] is the rank of the j-th free module; diffs[j] (j >= 1) is the
    algebra matrix of the j-th differential F_j -> F_{j-1}.  F_0 covers the
    module by sending the i-th basis row to the i-th module basis vector.
    Resolutions are not required to be minimal.
    """

    def __init__(self, module: KModule):
        self.module = module
        self.group = module.group
        self.field = module.field
        self.ranks = [module.dim]
        self.diffs: list[AlgebraMatrix | None] = [None]
        self._aug_operator = None
        self._ops: dict[int, np.ndarray] = {}

    def aug_operator(self) -> np.ndarray:
        if self._aug_operator is None:
            f, g = self.field, self.group
            d, r0, n = self.module.dim, self.ranks[0], self.group.order
            out = f.zeros(d, r0 * n)
            basis = f.eye(d)
            for i in range(r0):
                for x in range(n):
                    out[:, i * n + x] = f.matmul(self.module.mats[x], basis[:, i])
            self._aug_operator = out
        return self._aug_operator

    def diff_operator(self, j: int) -> np.ndarray:
        if j not in self._ops:
            self._ops[j] = self.diffs[j].operator()
        return self._ops[j]

    def length(self) -> int:
        return len(self.ranks) - 1

    def extend(self, n: int):
        while self.length() < n:
            self._extend_once()

    def _extend_once(self):
        f = self.field
        n = self.group.order
        j = self.length()
        prev_rank = self.ranks[j]
        if prev_rank == 0:
            self.ranks.append(0)
            self.diffs.append(AlgebraMatrix(self.group, f, 0, 0))
            return
        op = self.aug_operator() if j == 0 else self.diff_operator(j)
        kernel = f.kernel_basis(op)
        gens = self._module_generators(kernel, prev_rank)
        rank = len(gens)
        rows = [_flat_to_alg_row(self.group, v, prev_rank) for v in gens]
        self.ranks.append(rank)
        self.diffs.append(AlgebraMatrix.from_rows(self.group, f, rows, prev_rank))

    def _module_generators(self, kernel_vectors, rank: int) -> list[np.ndarray]:
        """Greedy algebra generators of a group-stable scalar subspace.

        Each kernel vector that is not yet in the span of the translates of
        the generators so far becomes a generator, until the span is full.
        The span is kept as a fully reduced echelon basis: rows `basis` with
        the identity in the pivot columns `pivots`, so a vector v lies in the
        span iff v - v[pivots] @ basis vanishes.
        """
        f = self.field
        n = self.group.order
        # translate by h moves coordinate (i, g) to (i, h g): row h of `gather`
        # lists, for each target coordinate, the element it is read from
        gather = self.group.table[self.group.inverse_table]
        target = len(kernel_vectors)
        basis = f.zeros(0, rank * n)
        pivots: list[int] = []
        gens = []
        for v in kernel_vectors:
            if pivots and not np.any(f.sub(v, f.matmul(v[pivots], basis))):
                continue
            gens.append(v)
            # all |G| translates of v at once, reduced against the span, then
            # echelonized; the new pivot columns are then cleared from `basis`
            block = v.reshape(rank, n)[:, gather].transpose(1, 0, 2).reshape(n, rank * n)
            if pivots:
                block = f.sub(block, f.matmul(block[:, pivots], basis))
            new, new_pivots = f.rref(block)
            new = new[: len(new_pivots)]
            if pivots:
                basis = f.sub(basis, f.matmul(basis[:, new_pivots], new))
            basis = np.concatenate([basis, new])
            pivots += new_pivots
            if len(pivots) == target:
                break
        return gens

    def verify(self, n: int) -> bool:
        """d compose d = 0 and exactness of the augmented complex up to stage n."""
        self.extend(n)
        f = self.field
        for j in range(1, n + 1):
            if j >= 2 and not self.diffs[j].mul(self.diffs[j - 1]).is_zero():
                raise AssertionError(f"d_{j} o d_{j-1} != 0")
            prev_op = self.aug_operator() if j == 1 else self.diff_operator(j - 1)
            ker_dim = prev_op.shape[1] - f.rank(prev_op)
            if self.ranks[j] == 0:
                if ker_dim != 0:
                    raise AssertionError(f"stage {j} stops although the kernel is nonzero")
                continue
            if f.rank(self.diff_operator(j)) != ker_dim:
                raise AssertionError(f"image at stage {j} does not fill the kernel")
        aug = self.aug_operator()
        if f.rank(aug) != self.module.dim:
            raise AssertionError("augmentation is not surjective")
        if self.ranks[1] and np.any(f.matmul(aug, self.diff_operator(1)) != 0):
            raise AssertionError("augmentation does not kill the first differential")
        return True


def free_resolution(module: KModule, n: int) -> FreeResolution:
    res = FreeResolution(module)
    res.extend(n)
    return res


def coefficient_delta(diff: AlgebraMatrix, w: KModule) -> np.ndarray:
    """The map on free-module Hom spaces W^(r_{j-1}) -> W^(r_j) induced by a differential."""
    f = w.field
    dw = w.dim
    out = f.zeros(diff.rows * dw, diff.cols * dw)
    for i in range(diff.rows):
        for l in range(diff.cols):
            if diff.entries[i][l]:
                out[i * dw : (i + 1) * dw, l * dw : (l + 1) * dw] = rho(w, diff.entries[i][l])
    return out


class ExtData:
    """Ext dimensions of one module pair plus the cocycle/coboundary data."""

    def __init__(self, dims, deltas, cocycles, boundaries, resolution):
        self.dims = dims
        self.deltas = deltas
        self.cocycles = cocycles
        self.boundaries = boundaries
        self.resolution = resolution


def ext_finite(v: KModule, w: KModule, n: int, resolution: FreeResolution | None = None) -> ExtData:
    """Ext^j(v, w) for 0 <= j <= n over the group algebra of v's group."""
    if v.group is not w.group:
        raise ValueError("Ext needs two modules over one group")
    f = v.field
    res = resolution if resolution is not None else free_resolution(v, n + 1)
    res.extend(n + 1)
    dw = w.dim
    deltas = [coefficient_delta(res.diffs[j], w) for j in range(1, n + 2)]
    dims = []
    cocycles = []
    boundaries = []
    for j in range(n + 1):
        delta_out = deltas[j]
        delta_in = deltas[j - 1] if j >= 1 else f.zeros(res.ranks[0] * dw, 0)
        dims.append(subquotient_dim(f, delta_in, delta_out))
        cocycles.append(f.kernel_matrix(delta_out))
        boundaries.append(delta_in)
    return ExtData(dims, deltas, cocycles, boundaries, res)
