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

import random

import numpy as np

from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.linalg import CochainComplex, CompositionNonzero, Field, array_key
from amalgext.reps import KModule
from amalgext.spans import Span


# Random kernel combinations tried per generator, from a generator seeded with
# a constant so that every resolution and report is the same on every run.  A
# trial's score reduces one translate row per coset of O_p(G) against the span,
# so the trials of one generator score at most SAMPLE_ROWS rows: 8
# trials up to 8 cosets, 2 on S4 at F3 (24 cosets), where 8 made `ext` and
# `les` up to twice as slow as the greedy first-fit rule at low degree.  At this
# seed no factor module of the bundled fixtures or the bench instances at F2 or
# F3 gets a larger rank sum through degree 7 than with the greedy rule, and at
# seeds 0-29 none does; the D8 permutation module of the tests at F3 does at
# one of those seeds.  Fewer trials lose to the greedy rule more often (at 6
# per generator, three times over the same seeds and modules), and so does a
# stop after three trials that do no better than the best so far (15 times).
SAMPLE_TRIALS = 8
SAMPLE_ROWS = 64
SAMPLE_SEED = 2026

# The random() values of random.Random(SAMPLE_SEED), a prefix of its stream
# that grows on demand.  Each _module_generators call reads it from the start.
_samples = np.empty(0)


def _sample_coefficients(start: int, k: int, p: int) -> np.ndarray:
    """Values start..start + k - 1 of the sample stream as coefficients in [0, p):
    floor(x * p), which is what random.Random(SAMPLE_SEED).choices(range(p), k=k)
    draws when start values were drawn before."""
    global _samples
    samples = _samples  # another thread may replace _samples, even by a shorter prefix
    if len(samples) < start + k:
        rng = random.Random(SAMPLE_SEED)  # not continued: two calls growing it at once agree
        _samples = samples = np.array([rng.random()
                                       for _ in range(max(start + k, 2 * len(samples), 1024))])
    return (samples[start:start + k] * p).astype(np.int64)  # x * p >= 0, so this is the floor


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

    def mul(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if self.cols != other.rows or self.group is not other.group:
            raise ValueError("algebra matrix shapes do not compose")
        n = self.group.order
        prod = self.field.matmul(self.coeffs.reshape(self.rows, self.cols * n), other.to_k_matrix())
        return AlgebraMatrix(self.group, self.field, prod.reshape(self.rows, other.cols, n))

    def map_entries(self, emb: SubgroupEmbedding) -> "AlgebraMatrix":
        """Push every algebra element along a group homomorphism (induction of free
        modules along an embedding, inflated along a map of quotients): the
        coefficients of the elements the map sends to one element are summed,
        which for an embedding moves each to its image."""
        out = self.field.zeros(self.rows, self.cols, emb.target.order)
        np.add.at(out, (..., emb.mapping), self.coeffs)
        return AlgebraMatrix(emb.target, self.field, self.field.reduce(out))

    def to_k_matrix(self) -> np.ndarray:
        """Row-convention expansion: coords(x * D) = coords(x) @ to_k_matrix(D).

        Entry ((i, x), (j, y)) is the coefficient of x^-1 y in entry (i, j).
        This expansion is multiplicative: to_k(A.mul(B)) = to_k(A) @ to_k(B).
        """
        n = self.group.order
        blocks = self.coeffs[:, :, self.group.quotient_table]
        return blocks.transpose(0, 2, 1, 3).reshape(self.rows * n, self.cols * n)


class FreeResolution:
    """An augmented free resolution of a module over a finite group algebra.

    ranks[j] is the rank of the j-th free module; diffs[j] (j >= 1) is the
    algebra matrix of the j-th differential F_j -> F_{j-1}.  F_0 covers the
    module by the augmentation d_0, which sends the i-th basis row to the
    i-th module basis vector.

    Every later stage covers the kernel M of the one before with few
    generators, chosen modulo I_O M for O = O_p(G), the largest normal
    p-subgroup: I_O kG is a nilpotent ideal, so I_O M lies in J(kG) M and, by
    Nakayama's lemma, vectors generate M once they do so modulo I_O M.  Each
    generator is the best of a few candidates, some of them random kernel
    combinations from a generator seeded with a constant, so every run gives
    the same result.  For a p-group, O = G and no candidate is ever compared:
    the generators lift a basis of M / J M, so from degree 2 on the ranks are
    dim Ext^j(V, k).

    d_{j+1} is a function of ker d_j (the generator is seeded on every call),
    so once d_j equals an earlier d_i, as under periodic cohomology, d_{j+1} is
    the object d_{i+1}, with no elimination; and once ker d_j equals an
    earlier ker d_i (the augmentation's, say), d_{j+1} is the object d_{i+1},
    with no generator selection.  Periodic cohomology thus shares from the
    first repeat of M on, not one period later.  Sharing is exact: nothing
    writes into an AlgebraMatrix's coeffs once it is built.

    ker d_j is eliminated once.  A chain lift into this resolution solves
    against d_j, and the kernel its solve returns is handed over by
    take_kernel(j); the read of d_{j+1} or kernel_cover(j) that follows uses
    it and drops it.  Only a degree no lift eliminated is eliminated here.
    """

    def __init__(self, module: KModule):
        self.module = module
        self.group = module.group
        self.field = module.field
        self.ranks = [module.dim]
        self.diffs: list[AlgebraMatrix | None] = [None]
        # column i*n + x of d_0 is x acting on basis vector i
        d, n = module.dim, self.group.order
        self._augmentation = module.mats.transpose(1, 2, 0).reshape(d, d * n)
        core = self.group.p_core(self.field.p)
        # generators of O first, then the ones that complete them to G
        gens = self.group.generating_set(core + [x for x in range(self.group.order) if x not in core])
        self._core_gens = [g for g in gens if g in core]
        self._outer_gens = [g for g in gens if g not in core]
        # one element of each coset of O; O fixes M modulo I_O M
        self._coset_reps = sorted({min(int(self.group.table[h, o]) for o in core)
                                   for h in range(self.group.order)})
        self._trials = min(SAMPLE_TRIALS, SAMPLE_ROWS // len(self._coset_reps))
        self._next: dict[tuple, AlgebraMatrix] = {}  # array_key of d_j -> d_{j+1}, j >= 1
        self._scaled: dict[tuple, AlgebraMatrix] = {}  # (array_key of d_j, unit) -> unit * d_j
        self._kernels: dict[tuple, list[AlgebraMatrix]] = {}  # shape of ker d_j -> d_{j+1}s
        self._handed: dict[int, np.ndarray] = {}  # j -> ker d_j as rows, until d_{j+1} is read

    def diff_operator(self, j: int) -> np.ndarray:
        """The column-convention operator of d_j: F_j -> F_{j-1}, d_0 the augmentation:
        op @ coords(x) = coords(x * d_j).  Gathered from the coefficients on each
        read and not kept, so a resolution holds only its coefficient arrays."""
        return self.diffs[j].to_k_matrix().T if j else self._augmentation

    def length(self) -> int:
        return len(self.ranks) - 1

    def extend(self, n: int):
        while self.length() < n:
            d = self._successor(self.length(), select=True)
            self.ranks.append(d.rows)
            self.diffs.append(d)

    def kernel_cover(self, n: int) -> AlgebraMatrix:
        """A free module onto ker d_n, extending nothing: d_{n+1} if this resolution or
        its memos hold it, else the k-basis of ker d_n as rows.  A map on F_n kills its
        image exactly when it kills im d_{n+1}: Hom of it has the cocycles of d_{n+1}'s."""
        return self.diffs[n + 1] if self.length() > n else self._successor(n, select=False)

    def rescale(self, j: int, unit):
        """Replace d_j by unit * d_j, which has d_j's kernel and image: the resolution
        stays one, and d_{j+1} follows from it as from d_j.  Each (d_j, unit) is
        scaled once, so a period up to a unit repeats the scaled object itself."""
        key = array_key(self.diffs[j].coeffs)
        if (key, unit) not in self._scaled:
            coeffs = self.field.scale(unit, self.diffs[j].coeffs)
            self._scaled[key, unit] = AlgebraMatrix(self.group, self.field, coeffs)
        self.diffs[j] = self._scaled[key, unit]
        if key in self._next:
            self._next[array_key(self.diffs[j].coeffs)] = self._next[key]

    def take_kernel(self, j: int, kernel: np.ndarray):
        """Keep ker d_j, in kernel_matrix's column form, for the next read of d_{j+1}
        or kernel_cover(j), if this resolution stands at degree j."""
        if self.length() == j:
            self._handed[j] = kernel.T

    def _successor(self, j: int, select: bool) -> AlgebraMatrix:
        """d_{j+1} from the memos, else generators of ker d_j (select) or its k-basis, which
        is no differential and no memo keeps.  ker d_j is the handed one, else eliminated
        here.  It is ker d_i if it has its shape and holds the rows of d_{i+1}, which span
        ker d_i; kernel_matrix then gives equal arrays."""
        f = self.field
        kernel = self._handed.pop(j, None)
        key = array_key(self.diffs[j].coeffs) if j else None
        if key in self._next:
            return self._next[key]
        if kernel is None:
            kernel = f.kernel_matrix(self.diff_operator(j)).T if self.ranks[j] else f.zeros(0, 0)
        known = self._kernels.setdefault(kernel.shape, [])  # empty at j = 0, the first read
        d = next((c for c in known if not c.mul(self.diffs[j]).coeffs.any()), None)
        if d is None:
            rows = self._module_generators(kernel, self.ranks[j]) if select and len(kernel) else kernel
            d = AlgebraMatrix(self.group, f, rows.reshape(len(rows), self.ranks[j], self.group.order))
            if not select:
                return d
            known.append(d)
        if j:
            self._next[key] = d
        return d

    def _module_generators(self, kernel: np.ndarray, rank: int) -> np.ndarray:
        """Algebra generators, as rows, of the group-stable span M of the kernel rows.

        The span starts as I_O M, spanned by (h - 1) m for generators h of O
        and kernel rows m, and grows by the translates of each generator.  A
        generator is the best of the first kernel row outside the span and a
        few random kernel combinations (see SAMPLE_ROWS), compared first by
        whether they add to I_G M + the generators so far (M / I_G M is the
        trivial part of the head: one generator per dimension), then by the
        rank their translates by coset representatives of O add to the span.

        That rank is at most the number of cosets and at most the rank still
        missing less the trivial head dimensions left for later generators.
        Once this bound is 1, every later generator adds one dimension, and
        the rest are the kernel rows independent modulo the span.  For a
        p-group there is one coset from the start: the generators lift a basis
        of M / J M, exact Nakayama.  Otherwise the trials stop once the best
        reaches the bound or the rank the generator before added (a guess: M
        modulo the span only shrinks, and so does its largest cyclic
        submodule, but the generator before need not have been the largest).
        """
        f = self.field
        q = self.group.quotient_table
        blocks = kernel.reshape(len(kernel), rank, self.group.order)

        def moved(gens) -> np.ndarray:
            """The rows (h - 1) m for the given h and every kernel row m."""
            return np.concatenate([kernel[:0]] + [f.sub(blocks[:, :, q[h]].reshape(kernel.shape), kernel)
                                                  for h in gens])

        span = Span(f, kernel.shape[1], moved(self._core_gens))  # I_O M
        # I_G M (I_O M and the moves by the other generators) and the generators
        # so far: a vector adds to the trivial head exactly when it lies outside
        trivial = span.copy()
        trivial.add(moved(self._outer_gens))
        rows = span.pack(kernel)
        target = len(kernel)
        drawn = 0  # sample values read by the trials so far
        gens = []
        cap = len(self._coset_reps)
        first = 0  # the kernel rows before `first` lie in the span
        while len(span) < target:
            missing = target - len(trivial)
            bound = min(len(self._coset_reps), target - len(span) - max(missing - 1, 0))
            if bound == 1:
                gens.extend(kernel[first + i] for i in span.independent(rows[first:]))
                break
            ideal = (missing > 0, min(cap, bound))
            while span.contains(rows[first]):
                first += 1
            best = self._score(span, trivial, missing, kernel[first], rank)
            for _ in range(self._trials):
                if best[0] >= ideal:
                    break
                coeffs = _sample_coefficients(drawn, target, f.p)[None]
                drawn += target
                trial = self._score(span, trivial, missing, f.matmul(coeffs, kernel)[0], rank)
                if trial[0] > best[0]:
                    best = trial
            (adds_head, cap), vector, span = best
            gens.append(vector)
            if adds_head:
                trivial.add(vector[None])
        return np.array(gens) if gens else kernel[:0]

    def _score(self, span: Span, trivial: Span, missing: int, vector: np.ndarray, rank: int):
        """((adds to the trivial head, rank added), vector, a copy of the span
        grown by the vector's translates)."""
        n = self.group.order
        # translate by h moves coordinate (i, g) to (i, h g); row h of the
        # quotient table lists, for each target coordinate, where it is read from
        reps = self.group.quotient_table[self._coset_reps]
        translates = vector.reshape(rank, n)[:, reps].transpose(1, 0, 2).reshape(len(reps), rank * n)
        grown = span.copy()
        adds_head = missing > 0 and not trivial.contains(trivial.pack(vector[None])[0])
        return (adds_head, len(grown.add(translates))), vector, grown

    def verify(self, n: int) -> bool:
        """d compose d = 0 and exactness of F_n -> ... -> F_0 -> M -> 0, read off the
        cochain complex [d_n, ..., d_1, d_0, 0], whose degree n + 1 - j is F_{j-1} (M at
        j = 0) and whose cohomology must vanish in every degree but 0."""
        self.extend(n)
        maps = [self.diff_operator(j) for j in range(n, -1, -1)]
        maps.append(self.field.zeros(0, self.module.dim))
        try:
            dims = CochainComplex(self.field, maps).dims
        except CompositionNonzero as exc:
            j = n + 1 - exc.degree  # the composite d_{j-1} o d_j, d_0 being the augmentation
            if j == 1:
                raise AssertionError("augmentation does not kill the first differential") from None
            raise AssertionError(f"d_{j} o d_{j-1} != 0") from None
        for j in range(n + 1):
            if dims[n + 1 - j]:
                raise AssertionError(f"image of d_{j} does not fill the kernel at F_{j-1}" if j
                                     else "augmentation is not surjective")
        return True


def free_resolution(module: KModule, n: int) -> FreeResolution:
    res = FreeResolution(module)
    res.extend(n)
    return res


def coefficient_delta(diff: AlgebraMatrix, w: KModule) -> np.ndarray:
    """The map on free-module Hom spaces W^(r_{j-1}) -> W^(r_j) induced by a differential."""
    dw, n = w.dim, diff.group.order
    # block (i, l) is the action sum_g coeffs[i, l, g] w(g), all blocks in one product
    blocks = w.field.matmul(diff.coeffs.reshape(-1, n), w.mats.reshape(n, dw * dw))
    blocks = blocks.reshape(diff.rows, diff.cols, dw, dw)
    return blocks.transpose(0, 2, 1, 3).reshape(diff.rows * dw, diff.cols * dw)


def ext_finite(v: KModule, w: KModule, n: int,
               resolution: FreeResolution | None = None) -> CochainComplex:
    """The coefficient cochain complex Hom(F_j, w), 0 <= j <= n, closed at the top
    by Hom of the resolution's kernel_cover(n); its dims are Ext^j(v, w)."""
    if v.group is not w.group:
        raise ValueError("Ext needs two modules over one group")
    res = resolution or FreeResolution(v)
    res.extend(n)
    maps = res.diffs[1 : n + 1] + [res.kernel_cover(n)]
    return CochainComplex(v.field, [coefficient_delta(m, w) for m in maps])
