"""Free resolutions over finite group algebras and Ext of finite groups.

Free modules of rank r are row vectors over the group algebra; a map between
free modules is right multiplication by a matrix of algebra elements, so
composition reads left to right and the expansion to scalar matrices is a
ring homomorphism (rows act on the right).  The scalar coordinates of rank r
are indexed by (component, group element), flattened as i*|H| + g.

An AlgebraMatrix stores its entries as one dense coefficient array of shape
(rows, cols, |H|): coeffs[i, j, g] is the coefficient of g in entry (i, j),
so coeffs[i].reshape(-1) is the image of basis row i in these coordinates.
Its scalar expansion gathers coeffs[i, j, x^-1 y] into row i*|H| + x and
column j*|H| + y.
"""

from __future__ import annotations

import numpy as np

from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.linalg import CochainComplex, Field, Span
from amalgext.reps import KModule


class LiftFailed(RuntimeError):
    pass


class AlgebraMatrix:
    """A rows x cols matrix of group algebra elements (a map of free modules).

    As a map it sends the i-th basis row to the i-th row of the matrix,
    whose coordinates are coeffs[i].reshape(-1) (layout in the module docstring).
    """

    def __init__(self, group: FiniteGroup, field: Field, coeffs: np.ndarray):
        self.group = group
        self.field = field
        self.coeffs = coeffs
        self.rows, self.cols = coeffs.shape[:2]
        self._operator = None

    def mul(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if self.cols != other.rows or self.group is not other.group:
            raise ValueError("algebra matrix shapes do not compose")
        n = self.group.order
        prod = self.field.matmul(self.coeffs.reshape(self.rows, self.cols * n), other.to_k_matrix())
        return AlgebraMatrix(self.group, self.field, prod.reshape(self.rows, other.cols, n))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def map_entries(self, emb: SubgroupEmbedding) -> "AlgebraMatrix":
        """Push every algebra element along a subgroup embedding (induction of free modules)."""
        out = self.field.zeros(self.rows, self.cols, emb.target.order)
        out[:, :, emb.mapping] = self.coeffs
        return AlgebraMatrix(emb.target, self.field, out)

    def to_k_matrix(self) -> np.ndarray:
        """Row-convention expansion: coords(x * D) = coords(x) @ to_k_matrix(D).

        Entry ((i, x), (j, y)) is the coefficient of x^-1 y in entry (i, j).
        This expansion is multiplicative: to_k(A.mul(B)) = to_k(A) @ to_k(B).
        """
        n = self.group.order
        blocks = self.coeffs[:, :, self.group.quotient_table]
        return blocks.transpose(0, 2, 1, 3).reshape(self.rows * n, self.cols * n)

    def operator(self) -> np.ndarray:
        """Column-convention operator: op @ coords(x) = coords(x * D)."""
        if self._operator is None:
            self._operator = self.to_k_matrix().T
        return self._operator


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

    def aug_operator(self) -> np.ndarray:
        if self._aug_operator is None:
            # column i*n + x is x acting on basis vector i
            d, n = self.module.dim, self.group.order
            self._aug_operator = np.stack(self.module.mats).transpose(1, 2, 0).reshape(d, d * n)
        return self._aug_operator

    def diff_operator(self, j: int) -> np.ndarray:
        return self.diffs[j].operator()

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
            self.diffs.append(AlgebraMatrix(self.group, f, f.zeros(0, 0, n)))
            return
        op = self.aug_operator() if j == 0 else self.diff_operator(j)
        kernel = f.kernel_basis(op)
        gens = self._module_generators(kernel, prev_rank)
        self.ranks.append(len(gens))
        coeffs = f.array(gens).reshape(len(gens), prev_rank, n)
        self.diffs.append(AlgebraMatrix(self.group, f, coeffs))

    def _module_generators(self, kernel_vectors, rank: int) -> list[np.ndarray]:
        """Greedy algebra generators of a group-stable scalar subspace.

        Each kernel vector that is not yet in the span of the translates of
        the generators so far becomes a generator, until the span is full.
        The span of the translates is kept as one echelon `Span`.
        """
        n = self.group.order
        # translate by h moves coordinate (i, g) to (i, h g): row h of `gather`
        # lists, for each target coordinate, the element it is read from
        gather = self.group.quotient_table
        target = len(kernel_vectors)
        span = Span(self.field, rank * n)
        gens = []
        for v in kernel_vectors:
            if not span.reduce(v[None]).any():
                continue
            gens.append(v)
            # all |G| translates of v at once
            span.add(v.reshape(rank, n)[:, gather].transpose(1, 0, 2).reshape(n, rank * n))
            if len(span) == target:
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
    dw, n = w.dim, diff.group.order
    # block (i, l) is the action sum_g coeffs[i, l, g] w(g), all blocks in one product
    blocks = w.field.matmul(diff.coeffs.reshape(-1, n), np.stack(w.mats).reshape(n, dw * dw))
    blocks = blocks.reshape(diff.rows, diff.cols, dw, dw)
    return blocks.transpose(0, 2, 1, 3).reshape(diff.rows * dw, diff.cols * dw)


def ext_finite(v: KModule, w: KModule, n: int,
               resolution: FreeResolution | None = None) -> CochainComplex:
    """The coefficient cochain complex Hom(F_j, w); its dims are Ext^j(v, w), 0 <= j <= n."""
    if v.group is not w.group:
        raise ValueError("Ext needs two modules over one group")
    res = resolution if resolution is not None else free_resolution(v, n + 1)
    res.extend(n + 1)
    return CochainComplex(v.field, [coefficient_delta(res.diffs[j], w) for j in range(1, n + 2)])
