"""Representations of the amalgam and finitely supported induced elements.

A representation of G is stored as one space with compatible actions of the
two factors (they must agree on the shared subgroup); the normal form of a
group element then acts letter by letter.  Induced elements are functions
f : G -> V with f(hg) = h f(g), kept as finite maps from canonical right
coset representatives to values.
"""

from __future__ import annotations

import numpy as np

from amalgext.amalgam import AmalgamDatum, GWord, TAG_I, TAG_K1, TAG_K2
from amalgext.groups import GroupMismatch
from amalgext.linalg import Field, Span
from amalgext.reps import (KModule, _matrix_inverse, conjugate_module, direct_sum_module,
                           module_from_generators, restrict_module, trivial_module)


class DimensionMismatch(ValueError):
    pass


class ZeroVector(ValueError):
    pass


class TagMismatch(ValueError):
    pass


class GRep:
    """A G-representation as a glued pair of factor actions on one space."""

    def __init__(self, datum: AmalgamDatum, module1: KModule, module2: KModule,
                 validate: bool = True):
        if module1.group is not datum.K1 or module2.group is not datum.K2:
            raise GroupMismatch("factor modules must live over K1 and K2")
        if module1.field != module2.field or module1.dim != module2.dim:
            raise DimensionMismatch("the two actions must share one space")
        self.datum = datum
        self.field = module1.field
        self.dim = module1.dim
        self.module1 = module1
        self.module2 = module2
        if validate:
            self.validate_gluing()

    def validate_gluing(self) -> bool:
        d = self.datum
        for i in range(d.I.order):
            if np.any(self.module1.mats[d.emb1(i)] != self.module2.mats[d.emb2(i)]):
                raise ValueError(f"factor actions disagree on the shared element {d.I.label(i)}")
        return True

    def module(self, tag: str) -> KModule:
        if tag == TAG_K1:
            return self.module1
        if tag == TAG_K2:
            return self.module2
        if tag == TAG_I:
            return restrict_module(self.datum.emb1, self.module1)
        raise TagMismatch(f"unknown tag {tag!r}")

    def act_factor(self, side: int, k: int) -> np.ndarray:
        return (self.module1 if side == 1 else self.module2).mats[k]

    def act_subgroup(self, tag: str, k: int) -> np.ndarray:
        """Action matrix of a subgroup element named by tag and index."""
        if tag == TAG_K1:
            return self.module1.mats[k]
        if tag == TAG_K2:
            return self.module2.mats[k]
        if tag == TAG_I:
            return self.module1.mats[self.datum.emb1(k)]
        raise TagMismatch(f"unknown tag {tag!r}")


def trivial_grep(datum: AmalgamDatum, field: Field, dim: int = 1) -> GRep:
    return GRep(datum, trivial_module(datum.K1, field, dim),
                trivial_module(datum.K2, field, dim), validate=False)


def grep_from_generators(datum: AmalgamDatum, field: Field,
                         gens1: dict[int, np.ndarray], gens2: dict[int, np.ndarray]) -> GRep:
    m1 = module_from_generators(datum.K1, field, gens1)
    m2 = module_from_generators(datum.K2, field, gens2)
    return GRep(datum, m1, m2)


def conjugate_grep(v: GRep, p: np.ndarray) -> GRep:
    return GRep(v.datum, conjugate_module(v.module1, p), conjugate_module(v.module2, p),
                validate=False)


def direct_sum_grep(a: GRep, b: GRep) -> GRep:
    if a.datum is not b.datum:
        raise GroupMismatch("summands live over different amalgams")
    return GRep(a.datum, direct_sum_module(a.module1, b.module1),
                direct_sum_module(a.module2, b.module2), validate=False)


def g_act(v: GRep, g: GWord, x: np.ndarray) -> np.ndarray:
    """g acting on x, a vector or a dim x m block: the tail first, then the letters."""
    if v.datum is not g.datum:
        raise GroupMismatch("word and representation live over different amalgams")
    f = v.field
    x = f.array(x)
    if x.shape[0] != v.dim:
        raise DimensionMismatch(f"value length {x.shape[0]} != representation dimension {v.dim}")
    x = f.matmul(v.act_subgroup(TAG_I, g.tail), x)
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
        moved = fld.matmul(grep.act_subgroup(tag, k), vec)
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
    act = f.grep.act_subgroup(f.tag, k)
    return fld.matmul(_matrix_inverse(fld, act), f.support[rep.word])


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

    with first map (gamma_1, -gamma_2) and second map pi_1 + pi_2.
    Injectivity is full column rank on the edge r-ball; middle exactness
    checks kernel elements supported in the vertex (r-1)-balls against the
    image of the edge r-ball; surjectivity uses the section given by iota.

    Coordinates run coset by coset in ball order, dim per coset.  Each map
    is applied once per coset, to the element whose value there is the
    identity block; its image is the block of columns of that coset.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    d = v.datum
    fld = v.field
    dim = v.dim
    eye = fld.eye(dim)
    edge = d.ball(TAG_I, r)
    # first row of each vertex coset: the K1 ball, then the K2 ball
    first_row = {}
    for tag in (TAG_K1, TAG_K2):
        for w in d.ball(tag, r):
            first_row[tag, w] = len(first_row) * dim

    gamma_matrix = fld.zeros(len(first_row) * dim, len(edge) * dim)
    for c, w in enumerate(edge):
        e = IndElement(TAG_I, v, {w: eye})
        for side, tag in ((1, TAG_K1), (2, TAG_K2)):
            for u, block in gamma(side, e).support.items():
                row = first_row[tag, u]
                gamma_matrix[row : row + dim, c * dim : (c + 1) * dim] = (
                    block if side == 1 else fld.neg(block))
    gamma_span = Span(fld, gamma_matrix.shape[0], gamma_matrix.T)
    gamma_rank = len(gamma_span)
    injective = gamma_rank == gamma_matrix.shape[1]

    # pi_1 + pi_2 on pairs supported in the vertex (r-1)-balls; each small
    # coordinate lands on the row of the same coset and component
    small = [(tag, w) for tag in (TAG_K1, TAG_K2) for w in d.ball(tag, r - 1)]
    pi_matrix = fld.zeros(dim, len(small) * dim)
    for c, (tag, w) in enumerate(small):
        pi_matrix[:, c * dim : (c + 1) * dim] = pi(IndElement(tag, v, {w: eye}))
    kernel = fld.kernel_matrix(pi_matrix)
    rows = [first_row[key] + t for key in small for t in range(dim)]
    embedded_kernel = fld.zeros(gamma_matrix.shape[0], kernel.shape[1])
    embedded_kernel[rows] = kernel
    middle_exact = not gamma_span.reduce(embedded_kernel.T).any()

    surjective = np.array_equal(pi(iota(TAG_K1, v, eye)), eye)

    return MVCheckReport(r, dim, len(edge), gamma_rank, injective, middle_exact, surjective)
