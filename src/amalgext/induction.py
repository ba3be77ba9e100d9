"""Representations of the amalgam and finitely supported induced elements.

A representation of G is stored as one space with compatible actions of the
two factors (they must agree on the shared subgroup); the normal form of a
group element then acts letter by letter.  Induced elements are functions
f : G -> V with f(hg) = h f(g), kept as finite maps from canonical right
coset representatives to values.
"""

from __future__ import annotations

import numpy as np

from amalgext.amalgam import AmalgamDatum, EdgeTree, GWord, TAG_I, TAG_K1, TAG_K2
from amalgext.groups import GroupMismatch
from amalgext.linalg import Field
from amalgext.reps import KModule, module_from_generators, restrict_module, trivial_module
from amalgext.spans import Span


class DimensionMismatch(ValueError):
    pass


class ZeroVector(ValueError):
    pass


class TagMismatch(ValueError):
    pass


class GRep:
    """A G-representation as a glued pair of factor actions on one space.

    The two actions must agree on the shared subgroup I; module(TAG_I) is
    module1 restricted to I, built once.
    """

    def __init__(self, datum: AmalgamDatum, module1: KModule, module2: KModule):
        if module1.group is not datum.K1 or module2.group is not datum.K2:
            raise GroupMismatch("factor modules must live over K1 and K2")
        if module1.field != module2.field or module1.dim != module2.dim:
            raise DimensionMismatch("the two actions must share one space")
        module_i = restrict_module(datum.emb1, module1)
        bad = np.nonzero(np.any(module_i.mats != module2.mats[datum.emb2.mapping], axis=(1, 2)))[0]
        if len(bad):
            raise ValueError("factor actions disagree on the shared element "
                             f"{datum.I.label(bad[0])}")
        self.datum = datum
        self.field = module1.field
        self.dim = module1.dim
        self.module1 = module1
        self.module2 = module2
        self._modules = {TAG_K1: module1, TAG_K2: module2, TAG_I: module_i}

    def module(self, tag: str) -> KModule:
        if tag not in self._modules:
            raise TagMismatch(f"unknown tag {tag!r}")
        return self._modules[tag]

    def act_factor(self, side: int, k: int) -> np.ndarray:
        return (self.module1 if side == 1 else self.module2).mats[k]


def trivial_grep(datum: AmalgamDatum, field: Field, dim: int = 1) -> GRep:
    return GRep(datum, trivial_module(datum.K1, field, dim), trivial_module(datum.K2, field, dim))


def grep_from_generators(datum: AmalgamDatum, field: Field,
                         gens1: dict[int, np.ndarray], gens2: dict[int, np.ndarray]) -> GRep:
    m1 = module_from_generators(datum.K1, field, gens1)
    m2 = module_from_generators(datum.K2, field, gens2)
    return GRep(datum, m1, m2)


def g_act(v: GRep, g: GWord, x: np.ndarray) -> np.ndarray:
    """g acting on x, a vector or a dim x m block: the tail first, then the letters."""
    if v.datum is not g.datum:
        raise GroupMismatch("word and representation live over different amalgams")
    f = v.field
    x = f.array(x)
    if x.shape[0] != v.dim:
        raise DimensionMismatch(f"value length {x.shape[0]} != representation dimension {v.dim}")
    x = f.matmul(v.module(TAG_I).mats[g.tail], x)
    for side, t in reversed(g.letters):
        x = f.matmul(v.act_factor(side, t), x)
    return x


class IndElement:
    """A finitely supported element of ind(V) from a subgroup named by tag.

    support maps canonical coset representative words to the value of the
    function there; values at other points of a coset follow from the
    equivariance rule f(hg) = h f(g).  Zero values are never stored.  A value
    may also be a dim x m block: column c of every block together make one
    element, so each map below computes m elements at once.
    """

    __slots__ = ("tag", "grep", "support")

    def __init__(self, tag: str, grep: GRep, support: dict[GWord, np.ndarray]):
        self.tag = tag
        self.grep = grep
        self.support = {}
        for w, vec in support.items():
            vec = grep.field.array(vec)
            if np.any(vec != 0):
                self.support[w] = vec

    def sorted_items(self):
        return sorted(self.support.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other):
        if not (isinstance(other, IndElement) and self.tag == other.tag
                and self.grep is other.grep):
            return NotImplemented
        if set(self.support) != set(other.support):
            return False
        return all(np.array_equal(self.support[w], other.support[w]) for w in self.support)

    def __add__(self, other):
        if self.tag != other.tag or self.grep is not other.grep:
            raise TagMismatch("can only add induced elements of one kind")
        f = self.grep.field
        out = dict(self.support)
        for w, vec in other.support.items():
            out[w] = f.add(out[w], vec) if w in out else vec
        return IndElement(self.tag, self.grep, out)

    def scale(self, c):
        f = self.grep.field
        return IndElement(self.tag, self.grep,
                          {w: f.scale(c, vec) for w, vec in self.support.items()})

    def __repr__(self):
        items = ", ".join(f"{w!r}: {vec.tolist()}" for w, vec in self.sorted_items())
        return f"Ind[{self.tag}]{{{items}}}"


def _collect(tag: str, grep: GRep, points) -> IndElement:
    """The element with value vec at each point g of points, summed coset by coset.

    Each value is stored at the canonical representative k*g as k acting on
    vec, per the equivariance rule.
    """
    d = grep.datum
    fld = grep.field
    out: dict[GWord, np.ndarray] = {}
    for g, vec in points:
        rep, k = d.canon_with_witness(tag, g)
        moved = fld.matmul(grep.module(tag).mats[k], vec)
        out[rep.word] = fld.add(out[rep.word], moved) if rep.word in out else moved
    return IndElement(tag, grep, out)


def chi(tag: str, grep: GRep, g: GWord, vec) -> IndElement:
    """The element supported on one coset, with value vec at the point g."""
    vec = grep.field.array(vec)
    if not np.any(vec != 0):
        raise ZeroVector("chi needs a nonzero value")
    return _collect(tag, grep, [(g, vec)])


def iota(tag: str, grep: GRep, vec) -> IndElement:
    """The unit V -> ind(V): vec becomes g*vec on the base coset, zero elsewhere."""
    return chi(tag, grep, grep.datum.identity_word, vec)


def pi(f: IndElement) -> np.ndarray:
    """The counit ind(V) -> V: the sum of rep^-1 * value over the support.

    Block values sum to a block; the zero element gives the zero vector.
    """
    grep = f.grep
    fld = grep.field
    inverse = grep.datum.inverse
    out = None
    for w, val in f.support.items():
        moved = g_act(grep, inverse(w), val)
        out = moved if out is None else fld.add(out, moved)
    return fld.zeros(grep.dim) if out is None else out


def g_translate(f: IndElement, g: GWord) -> IndElement:
    """Right translation action on induced elements: (g f)(x) = f(x g)."""
    d = f.grep.datum
    ginv = d.inverse(g)
    return _collect(f.tag, f.grep, ((d.multiply(w, ginv), vec) for w, vec in f.support.items()))


def evaluate(f: IndElement, g: GWord) -> np.ndarray:
    """The value f(g); the stored canonical value transported back by equivariance."""
    d = f.grep.datum
    fld = f.grep.field
    rep, k = d.canon_with_witness(f.tag, g)
    if rep.word not in f.support:
        return fld.zeros(f.grep.dim)
    module = f.grep.module(f.tag)
    return fld.matmul(module.mats[module.group.inv(k)], f.support[rep.word])


def gamma(side: int, f: IndElement) -> IndElement:
    """Edge-to-vertex comparison map: ind from I to ind from the side factor.

    On a one-coset element it transports the value to the containing factor
    coset; overlapping images accumulate.
    """
    if f.tag != TAG_I:
        raise TagMismatch("gamma consumes elements induced from the shared subgroup")
    return _collect(TAG_K1 if side == 1 else TAG_K2, f.grep, f.support.items())


def gamma_sum_formula(side: int, f: IndElement) -> IndElement:
    """gamma computed by its defining coset sum, as an independent cross-check.

    The value at g is the sum over right cosets I\\K_side of h^-1 f(h g).
    """
    if f.tag != TAG_I:
        raise TagMismatch("gamma consumes elements induced from the shared subgroup")
    tag = TAG_K1 if side == 1 else TAG_K2
    grep = f.grep
    d = grep.datum
    fld = grep.field
    K = d.K1 if side == 1 else d.K2
    hs = d.right_transversal_of_I(side)
    out: dict[GWord, np.ndarray] = {}
    targets = {d.canon(tag, w).word for w in f.support}
    for u in targets:
        total = fld.zeros(grep.dim)
        for h in hs:
            h_word = d.word_from_factor(tag, h)
            val = evaluate(f, d.multiply(h_word, u))
            total = fld.add(total, fld.matmul(grep.act_factor(side, K.inv(h)), val))
        if np.any(total != 0):
            out[u] = total
    return IndElement(tag, grep, out)


def tensor_identity(f: IndElement, grep: GRep, vec) -> IndElement:
    """Turn a scalar-valued element times a vector into a vector-valued one.

    Sends f (x) v to the function g -> f(g) * (g v).  The inverse recovers
    the scalar components coset by coset.
    """
    if f.grep.dim != 1:
        raise TagMismatch("tensor identity consumes scalar-valued elements")
    if f.grep.datum is not grep.datum:
        raise GroupMismatch("mismatched amalgams")
    fld = grep.field
    vec = fld.array(vec)
    out: dict[GWord, np.ndarray] = {}
    for w, c in f.support.items():
        val = fld.scale(c[0], g_act(grep, w, vec))
        if np.any(val != 0):
            out[w] = val
    return IndElement(f.tag, grep, out)


def tensor_identity_inverse(f: IndElement, scalar_grep: GRep) -> list[tuple[IndElement, np.ndarray]]:
    """Decompose a vector-valued element as a sum of scalar elements times vectors."""
    if scalar_grep.dim != 1:
        raise TagMismatch("target of the inverse must be scalar-valued")
    d = f.grep.datum
    fld = f.grep.field
    out = []
    for w, vec in f.sorted_items():
        ch = IndElement(f.tag, scalar_grep, {w: fld.array([1])})
        out.append((ch, g_act(f.grep, d.inverse(w), vec)))
    return out


class MVCheckReport:
    def __init__(self, radius, dim, edge_cosets, gamma_rank, injective, middle_exact, surjective):
        self.radius = radius
        self.dim = dim
        self.edge_cosets = edge_cosets
        self.gamma_rank = gamma_rank
        self.injective = injective
        self.middle_exact = middle_exact
        self.surjective = surjective

    def __repr__(self):
        return (f"MVCheckReport(r={self.radius}, injective={self.injective}, "
                f"middle_exact={self.middle_exact}, surjective={self.surjective})")


def mv_truncated_check(v: GRep, r: int) -> MVCheckReport:
    """Ball-truncated verification of the short exact sequence

        0 -> ind_I(V) -> ind_K1(V) (+) ind_K2(V) -> V -> 0

    with first map (gamma_1, -gamma_2) and second map pi_1 + pi_2, as
    mv_matrices assembles them.  Injectivity is full column rank on the edge
    r-ball; middle exactness checks kernel elements supported in the vertex
    (r-1)-balls against the image of the edge r-ball; surjectivity uses the
    section given by iota.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    fld = v.field
    eye = fld.eye(v.dim)
    gamma_matrix, pi_sum, rows = mv_matrices(v, r)
    # deepest edges first: the columns are a tree's incidence, so leaves first
    # leaves no long reduction chains (at F2 the rows enter in this order)
    gamma_span = Span(fld, gamma_matrix.shape[0], gamma_matrix.T[::-1])
    gamma_rank = len(gamma_span)
    injective = gamma_rank == gamma_matrix.shape[1]

    kernel = fld.kernel_matrix(pi_sum)
    embedded_kernel = fld.zeros(gamma_matrix.shape[0], kernel.shape[1])
    embedded_kernel[rows] = kernel
    middle_exact = not gamma_span.reduce(embedded_kernel.T).any()

    surjective = np.array_equal(pi(iota(TAG_K1, v, eye)), eye)

    edges = gamma_matrix.shape[1] // v.dim
    return MVCheckReport(r, v.dim, edges, gamma_rank, injective, middle_exact, surjective)


def mv_matrices(v: GRep, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mv_truncated_check's matrices: (gamma_1, -gamma_2) on the edge r-ball,
    pi_1 + pi_2 on the vertex (r-1)-balls, and the rows of the vertex r-balls
    that pi's columns stand for.

    Coordinates run coset by coset in ball order, the K1 ball's then the K2
    ball's, dim per coset.  Each block of columns is the map applied to the
    element whose value on one coset is the identity block, and both maps are
    read off the edge ball's EdgeTree, with no word per coset:

    - gamma_s of the edge coset I*w is the single block module_s(k), negated
      for s = 2, at the row of w's K_s end, where EdgeTree.ends gives that
      end's index among the vertex cosets and k: the value moved to the vertex
      representative, as gamma does.  One fancy-index assignment per side
      places all of them.
    - pi of the vertex coset K_s*w is rho(w^-1), which pi_blocks makes length
      by length.  The small K_s cosets are the edges of length < r that do not
      lead on side s, each its own K_s end, so EdgeTree.ends gives their rows.
    """
    dim = v.dim
    fld = v.field
    d = v.datum
    tree = d.ball(TAG_I, r).tree
    edges = len(tree.reps)
    ends, ks = tree.ends((d.K1.identity, d.K2.identity))
    blocks = fld.zeros(edges + 1, dim, edges, dim)
    columns = np.arange(edges)
    blocks[ends[0], :, columns, :] = v.module1.mats[ks[0]]
    blocks[ends[1], :, columns, :] = fld.neg(v.module2.mats[ks[1]])
    inner = pi_blocks(v, tree, r)
    small = [tree.lead[: len(inner)] != side for side in (1, 2)]
    pi_sum = np.concatenate([inner[m] for m in small]).transpose(1, 0, 2).reshape(dim, -1)
    first = np.concatenate([ends[s, : len(inner)][m] for s, m in enumerate(small)])
    rows = (first[:, None] * dim + np.arange(dim)).ravel()
    return blocks.reshape((edges + 1) * dim, edges * dim), pi_sum, rows


def pi_blocks(v: GRep, tree: EdgeTree, r: int) -> np.ndarray:
    """rho(w^-1) for each representative w of tree of word length < r: pi of the
    identity block on the coset K_s*w, for either factor whose ball holds w.

    Where w leads on side s, witness * w = parent, so rho(w^-1) =
    rho(parent^-1) rho_s(witness).  In sort order the representatives of one
    length and leading side are contiguous, side 1 first, and their parents
    are shorter: the blocks are made one such run at a time, one batched
    product per length and side.  The root ((), 0) takes rho_I(0^-1).  The
    walk is a loop, so depth is not bounded by the recursion limit.
    """
    runs = [3 * length + side for length in range(1, r) for side in (1, 2)]
    bounds = np.searchsorted(3 * tree.depth + tree.lead, runs + [3 * r]).tolist()
    root = v.module(TAG_I).mats[v.datum.I.inv(tree.reps[0][1])]
    out = np.empty((bounds[-1], v.dim, v.dim), dtype=root.dtype)
    out[0] = root
    mats = {1: v.module1.mats, 2: v.module2.mats}
    for run, lo, hi in zip(runs, bounds, bounds[1:]):
        out[lo:hi] = v.field.matmul(out[tree.parent[lo:hi]], mats[run % 3][tree.witness[lo:hi]])
    return out
