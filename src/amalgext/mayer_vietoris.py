"""Ext over the amalgam via a mapping cone of finite-level resolutions.

No module over the group algebra of G is ever materialized.  The short exact
sequence 0 -> ind_I(V1) -> ind_K1(V1) (+) ind_K2(V1) -> V1 -> 0 is resolved
by the cone of a chain map lifting the two counit maps, and Hom_G out of
induced free modules collapses by Frobenius reciprocity to plain coefficient
spaces over the finite groups.  The long exact sequence relating Ext over G,
K1, K2 and I is then verified degree by degree with exact rank arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

from amalgext.amalgam import AmalgamDatum, TAG_I, TAG_K1, TAG_K2
from amalgext.groups import GroupMismatch
from amalgext.induction import GRep
from amalgext.linalg import CochainComplex, Field, array_key
from amalgext.reps import intertwiner_constraints
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    LiftFailed,
    coefficient_delta,
    free_resolution,
)


def chain_lift_pi(datum: AmalgamDatum, side: int | tuple[int, int], q: FreeResolution,
                  p: FreeResolution, length: int):
    """Chain map from the induced resolution ind(Q) to P lifting the counit, with P
    resolved in the same loop.

    F_0 of Q and of P is free on the module basis, d_0 sending basis row i to
    v_i, and the counit sends ind(d_0 of Q)(row i) to v_i: phi_0 is the
    identity.  Higher degrees solve phi_j d_P = d_indQ phi_{j-1}, all rows of
    one degree from a single elimination of d_P,j, taking the first
    back-substitution solution each time; the same elimination gives ker d_P,j,
    which P takes for d_P,j+1 or, at the top, for kernel_cover(length).
    Exactness of P guarantees a solution; failure signals a broken resolution.
    side is 1 or 2, or (1, 2) when both counits lift into this one P: then both
    right-hand sides share the elimination, and one list of lifts per side is
    returned.
    phi_j depends only on d_P,j, d_Q,j and phi_{j-1}, so a degree where that
    triple repeats (periodic resolutions share their differential objects)
    reuses the earlier lift, read-only like the differentials, and P
    eliminates d_P,j itself if it still needs its kernel.
    """
    sides = (side,) if isinstance(side, int) else side
    embs = [datum.emb1 if s == 1 else datum.emb2 for s in sides]
    f = q.field
    n = embs[0].target.order
    q.extend(length)

    lifts = []
    for emb in embs:
        identity = f.zeros(q.ranks[0], p.ranks[0], n)
        identity[:, :, emb.target.identity] = f.eye(q.ranks[0])
        lifts.append([AlgebraMatrix(emb.target, f, identity)])
    # per side: (d_P,j, d_Q,j, array_key of phi_{j-1}) -> phi_j, for lifts that succeeded
    seen = [{} for _ in sides]
    for j in range(1, length + 1):
        p.extend(j)
        keys = [(p.diffs[j], q.diffs[j], array_key(x[j - 1].coeffs)) for x in lifts]
        todo = [i for i, key in enumerate(keys) if key not in seen[i]]
        if todo:
            rows = q.ranks[j]
            # column r of a side's block is the image of basis row r under d_indQ phi_{j-1}
            images = [q.diffs[j].map_entries(embs[i]).mul(lifts[i][j - 1]).coeffs for i in todo]
            rhs = np.concatenate([m.reshape(rows, p.ranks[j - 1] * n) for m in images]).T
            sols, kernel = f.solve(p.diff_operator(j), rhs)
            if sols is None:
                raise LiftFailed(f"degree-{j} lift has no solution")
            p.take_kernel(j, kernel)
            del kernel  # P holds it only until it reads d_P,j+1
            for k, i in enumerate(todo):
                block = sols[:, k * rows : (k + 1) * rows].T.reshape(rows, p.ranks[j], n)
                seen[i][keys[i]] = AlgebraMatrix(embs[i].target, f, block)
        for i, x in enumerate(lifts):
            x.append(seen[i][keys[i]])
    return lifts[0] if isinstance(side, int) else lifts


class MVComplex:
    """The Hom-applied mapping-cone cochain complex computing Ext over G.

    Degree j is  Hom_I(Q_{j-1}, V2) (+) Hom_K1(P1_j, V2) (+) Hom_K2(P2_j, V2),
    realized as plain coefficient spaces by the free-module adjunction.  The
    differential combines the coefficient complexes of Q, P1, P2 with the
    pullbacks along the lifted chain maps, with cone signs
    d(a, b) = (-d a, phi(a) + d b) and phi = (phi_1, -phi_2).  Out of the top degree
    P maps by kernel_cover(degree), which has the cocycles d_{degree+1} has.

    Q is resolved first.  Each P is resolved in the one loop over degrees that
    lifts into it (chain_lift_pi): degree j eliminates d_P,j once, for phi_j and
    for ker d_P,j, from which P selects d_P,j+1 or, at the top degree, its
    kernel cover.  With two lifts into one P, both share that elimination.

    A resolution is a function of the table and the action, and a lift also of
    the embedding: when K2's table and V1's K2 action equal K1's, p2 is p1, and
    x2 is x1 if the embeddings of I also agree, so the AlgebraMatrix.group of
    a shared object is K1's group, whose table is K2's.  delta_p2 is delta_p1
    when V2's K2 action also equals its K1 action.
    """

    def __init__(self, v1: GRep, v2: GRep, degree: int):
        if v1.datum is not v2.datum:
            raise ValueError("module pair must live over one amalgam")
        self.datum = v1.datum
        self.v1 = v1
        self.v2 = v2
        self.degree = degree
        self.field = v1.field
        if self.field != v2.field:
            raise ValueError("module pair must share the coefficient field")
        f = self.field

        # Q, P1, P2 and the lifts are read through degree; contents compare by array_key.
        # Each lift resolves its P as it goes, and leaves P the kernel that closes the top.
        d, key = self.datum, array_key
        m1, m2 = v1.module(TAG_K1), v1.module(TAG_K2)
        same_p = key(d.K1.table) == key(d.K2.table) and key(m1.mats) == key(m2.mats)
        self.q = free_resolution(v1.module(TAG_I), degree)
        self.p1 = free_resolution(m1, 0)
        self.p2 = self.p1 if same_p else free_resolution(m2, 0)
        if not same_p:
            self.x1 = chain_lift_pi(d, 1, self.q, self.p1, degree)
            self.x2 = chain_lift_pi(d, 2, self.q, self.p2, degree)
        elif key(d.emb1.mapping) == key(d.emb2.mapping):
            self.x1 = self.x2 = chain_lift_pi(d, 1, self.q, self.p1, degree)
        else:
            self.x1, self.x2 = chain_lift_pi(d, (1, 2), self.q, self.p1, degree)

        w_i = v2.module(TAG_I)
        w_1, w_2 = v2.module(TAG_K1), v2.module(TAG_K2)
        w_2 = w_1 if same_p and key(w_1.mats) == key(w_2.mats) else w_2
        self.d2 = v2.dim
        # coefficient complexes: delta_q[j] maps degree j to j+1 (index from 0);
        # each distinct (differential, module) pair of objects is expanded once
        delta = functools.cache(coefficient_delta)
        self.delta_q = [delta(self.q.diffs[j + 1], w_i) for j in range(degree)]
        top1 = self.p1.kernel_cover(degree)
        top2 = top1 if self.p2 is self.p1 else self.p2.kernel_cover(degree)
        self.delta_p1 = [delta(m, w_1) for m in self.p1.diffs[1:] + [top1]]
        self.delta_p2 = (self.delta_p1 if w_2 is w_1  # then p2 is p1 too
                         else [delta(m, w_2) for m in self.p2.diffs[1:] + [top2]])
        # precomposition with the lifts: V2^(rank P_j) -> V2^(rank Q_j)
        self.deltas = [self._delta(j, delta(self.x1[j], w_1), delta(self.x2[j], w_2))
                       for j in range(degree + 1)]
        self.cone = CochainComplex(f, self.deltas)

    def _sizes(self, j: int) -> tuple[int, int, int]:
        a = self.q.ranks[j - 1] * self.d2 if j >= 1 else 0
        return (a, self.p1.ranks[j] * self.d2, self.p2.ranks[j] * self.d2)

    def _delta(self, j: int, fmap1: np.ndarray, fmap2: np.ndarray) -> np.ndarray:
        """The cone differential out of degree j; its top right block is
        phi = (fmap1, -fmap2), the lifts precomposed."""
        f = self.field
        a_j, b1_j, b2_j = self._sizes(j)
        a_n, b1_n, b2_n = len(fmap1), len(self.delta_p1[j]), len(self.delta_p2[j])
        out = f.zeros(a_n + b1_n + b2_n, a_j + b1_j + b2_j)
        if a_j and a_n:
            out[:a_n, :a_j] = f.neg(self.delta_q[j - 1])
        out[:a_n, a_j : a_j + b1_j] = fmap1
        out[:a_n, a_j + b1_j :] = f.neg(fmap2)
        out[a_n : a_n + b1_n, a_j : a_j + b1_j] = self.delta_p1[j]
        out[a_n + b1_n :, a_j + b1_j :] = self.delta_p2[j]
        return out

    def cohomology_dim(self, j: int) -> int:
        return self.cone.dims[j]

    def dims(self) -> list[int]:
        return [self.cohomology_dim(j) for j in range(self.degree + 1)]


def ext_G(v1: GRep, v2: GRep, n: int) -> list[int]:
    """Ext^j over the amalgam for 0 <= j <= n, via the mapping cone."""
    return MVComplex(v1, v2, n).dims()


def hom_G_direct(v1: GRep, v2: GRep) -> list[np.ndarray]:
    """Basis of maps intertwining both factor actions simultaneously."""
    stacked = np.concatenate([intertwiner_constraints(v1.module1, v2.module1),
                              intertwiner_constraints(v1.module2, v2.module2)])
    return [vec.reshape(v2.dim, v1.dim) for vec in v1.field.kernel_basis(stacked)]


def hom_sequence_check(v1: GRep, v2: GRep) -> dict:
    """Exactness of 0 -> Hom_G -> Hom_K1 x Hom_K2 -> Hom_I on a concrete pair.

    The middle map is the difference of restrictions; its kernel must match
    the simultaneous intertwiner space exactly.
    """
    if v1.datum is not v2.datum or v1.field != v2.field:
        raise GroupMismatch("intertwiners need modules over one amalgam and one field")
    f = v1.field
    # each factor's constraints are built once; the kernels are the three
    # intertwiner bases (hom_space and hom_G_direct), as columns
    c1 = intertwiner_constraints(v1.module(TAG_K1), v2.module(TAG_K1))
    c2 = intertwiner_constraints(v1.module(TAG_K2), v2.module(TAG_K2))
    h1, h2 = f.kernel_matrix(c1), f.kernel_matrix(c2)
    hg = f.kernel_matrix(np.concatenate([c1, c2]))
    difference = np.concatenate([h1, f.neg(h2)], axis=1)
    kernel = f.kernel_matrix(difference)
    # kernel members are coefficient pairs with equal matrices on both sides;
    # the matched matrices must span exactly the simultaneous intertwiners.
    # h1 and h2 are bases, so the independent kernel columns give independent
    # matched columns: a span of as many dimensions as hg's that contains hg's
    # is hg's.
    matched = f.matmul(h1, kernel[: h1.shape[1], :]) if kernel.shape[1] else f.zeros(v1.dim * v2.dim, 0)
    image_in_kernel = f.columns_contained(matched, hg)
    exact_middle = kernel.shape[1] == hg.shape[1] and image_in_kernel
    return {
        "dim_G": hg.shape[1],
        "dim_K1": h1.shape[1],
        "dim_K2": h2.shape[1],
        "exact_at_middle": bool(exact_middle),
        "image_in_kernel": bool(image_in_kernel),
    }


def abelianized_hom_dim(datum: AmalgamDatum, characteristic: int) -> int:
    """dim Hom(G, k) for trivial coefficients, by pure abelian linear algebra.

    Additive characters of the pushout are pairs of factor characters that
    agree on the shared subgroup; this never touches any resolution and
    serves as the independent anchor for Ext^1 with trivial coefficients.
    A factor's characters are cut out by c(sy) = c(s) + c(y) for s in a
    generating set and every y: that gives c(e) = 0 (the trivial group's
    one relation is c(ee) = c(e) + c(e)), and c(xy) = c(x) + c(y) for all
    pairs by induction on the length of x as a word in the generators.
    """
    f = Field(characteristic)
    n1, n2 = datum.K1.order, datum.K2.order
    blocks = []
    for group, offset in ((datum.K1, 0), (datum.K2, n1)):
        # row i*n + y is the relation c(s_i y) - c(s_i) - c(y) = 0
        n = group.order
        gens = group.generators
        pairs = np.arange(len(gens) * n)
        rows = np.zeros((len(pairs), n1 + n2), dtype=np.int64)
        rows[pairs, offset + group.table[gens].reshape(-1)] += 1
        rows[pairs, offset + gens[pairs // n]] -= 1
        rows[pairs, offset + pairs % n] -= 1
        blocks.append(rows)
    # row i is the gluing relation c1(emb1(i)) - c2(emb2(i)) = 0
    rows = np.zeros((datum.I.order, n1 + n2), dtype=np.int64)
    rows[np.arange(datum.I.order), datum.emb1.mapping] = 1
    rows[np.arange(datum.I.order), n1 + datum.emb2.mapping] = -1
    blocks.append(rows)
    return n1 + n2 - f.rank(np.concatenate(blocks))  # the nullity


class LESReport:
    """Verified long-exact-sequence table for one module pair."""

    def __init__(self, datum, degree, dims_g, dims_k1, dims_k2, dims_i, nodes):
        self.datum = datum
        self.degree = degree
        self.dims_g = dims_g
        self.dims_k1 = dims_k1
        self.dims_k2 = dims_k2
        self.dims_i = dims_i
        self.nodes = nodes  # list of (degree, node, dim, rank_in, rank_out, im_in_ker, exact)

    @property
    def exact(self) -> bool:
        return all(n[5] and n[6] for n in self.nodes)

    def render(self) -> str:
        lines = []
        lines.append(f"degrees 0..{self.degree}")
        lines.append("ext_G:  " + " ".join(str(d) for d in self.dims_g))
        lines.append("ext_K1: " + " ".join(str(d) for d in self.dims_k1))
        lines.append("ext_K2: " + " ".join(str(d) for d in self.dims_k2))
        lines.append("ext_I:  " + " ".join(str(d) for d in self.dims_i))
        for deg, node, dim, rin, rout, imker, exact in self.nodes:
            verdict = "PASS" if (imker and exact) else "FAIL"
            lines.append(
                f"node {node} deg {deg}: dim {dim} rank_in {rin} rank_out {rout} "
                f"im_in_ker {'yes' if imker else 'NO'} {verdict}"
            )
        lines.append(f"RESULT: {'PASS' if self.exact else 'FAIL'}")
        return "\n".join(lines)


def verify_les(v1: GRep, v2: GRep, n: int) -> LESReport:
    """Exactness of the Mayer-Vietoris sequence through degree n.

    At every node the composite of consecutive maps must land in
    coboundaries, and the ranks of the incoming and outgoing maps on
    cohomology must add up to the cohomology dimension.  A map's rank on
    cohomology is the rank of its image of cocycles modulo the target's
    coboundaries.

    A degree's ranks and membership tests are a function of what it reads
    (see _les_degree).  From the first repeated differential on, a degree of
    periodic resolutions reads the coboundary spans and arrays an earlier
    degree read, so it takes that degree's results: spans are keyed by
    identity (equal maps share one span), arrays by array_key.
    """
    if n < 1:
        raise ValueError("degree bound must be at least 1")
    f = v1.field
    # one degree of headroom: exactness at degree n looks into degree n+1
    mv = MVComplex(v1, v2, n + 1)
    cone = mv.cone
    k1 = CochainComplex(f, mv.delta_p1[: n + 1])
    k2 = k1 if mv.delta_p2 is mv.delta_p1 else CochainComplex(f, mv.delta_p2[: n + 1])
    edge = CochainComplex(f, mv.delta_q)

    # Each map leaves one node and enters the next, so its rank on cohomology
    # is computed once and read twice.
    nodes = []
    conn_rank = 0
    seen = {}  # the key of what a degree reads -> its _les_degree results
    for j in range(n + 1):
        # the comparison map is the cone's phi block (layout in MVComplex._sizes)
        phi = mv.deltas[j][: mv._sizes(j + 1)[0], mv._sizes(j)[0] :]
        spans = k1.coboundaries(j), k2.coboundaries(j), edge.coboundaries(j), cone.coboundaries(j + 1)
        # no cocycle of I precedes degree 0, so the connecting map into it is zero
        before = edge.cocycles[j - 1] if j else f.zeros(0, 0)
        arrays = cone.cocycles[j], k1.cocycles[j], k2.cocycles[j], phi, before, edge.cocycles[j]
        key = spans + tuple(map(array_key, arrays))
        if key not in seen:
            seen[key] = _les_degree(f, spans, *arrays)
        proj_rank, comp_rank, conn_rank_out, in_g, in_prod, in_i = seen[key]
        nodes.append((j, "G", cone.dims[j], conn_rank, proj_rank, in_g,
                      conn_rank + proj_rank == cone.dims[j]))
        prod_dim = k1.dims[j] + k2.dims[j]
        nodes.append((j, "K1xK2", prod_dim, proj_rank, comp_rank, in_prod,
                      proj_rank + comp_rank == prod_dim))
        nodes.append((j, "I", edge.dims[j], comp_rank, conn_rank_out, in_i,
                      comp_rank + conn_rank_out == edge.dims[j]))
        conn_rank = conn_rank_out

    return LESReport(v1.datum, n, cone.dims[: n + 1], k1.dims, k2.dims, edge.dims, nodes)


def _les_degree(f: Field, spans, cone_z, z1, z2, phi, edge_before, edge_z):
    """(projection rank, comparison rank, connecting rank, im_in_ker at G, at
    K1 x K2 and at I) of one LES degree j, from what it reads and nothing else.

    spans are the coboundaries of K1 and K2 at j, of I at j and of the cone at
    j + 1; cone_z, z1, z2 and edge_z are the cocycles of the cone, K1, K2 and
    I at j, and edge_before I's at j - 1 (0 x 0 at j = 0).  The cone's rows are
    laid out as in MVComplex._sizes: I's block of height len(edge_before),
    then K1's of height len(z1), then K2's.  Projection keeps the (P1, P2)
    rows, comparison is phi, and connecting fills the top rows.

    So the G node's im_in_ker holds by the layout: the connecting map out of
    j - 1 fills only the I rows, which the projection drops, and in_g tests
    zero rows.  Only the node's rank identity can fail there.
    """
    k1_b, k2_b, edge_b, cone_b = spans
    a, b1 = len(edge_before), len(z1)

    def connect(x, height):
        out = f.zeros(height, x.shape[1])
        out[: len(x)] = x
        return out

    def inside(span, rows) -> bool:
        return all(map(span.contains, span.pack(rows)))

    def inside_prod(rows) -> bool:
        """Whether rows of K1 x K2 are coboundaries, each factor's block by its own."""
        return inside(k1_b, rows[:, :b1]) and inside(k2_b, rows[:, b1:])

    proj_image = cone_z[a:]
    proj_rank = f.rank(np.concatenate([k1_b.reduce(proj_image[:b1].T),
                                       k2_b.reduce(proj_image[b1:].T)], axis=1))
    comp_image = np.concatenate([f.matmul(phi[:, :b1], z1), f.matmul(phi[:, b1:], z2)], axis=1)
    comp_rank = len(edge_b.copy().add(comp_image.T))
    conn_rank = len(cone_b.copy().add(connect(edge_z, cone_b.width).T))
    # the connecting map out of degree j - 1, then the projection
    in_g = inside_prod(connect(edge_before, len(cone_z))[a:].T)
    in_prod = inside(edge_b, f.matmul(phi, proj_image).T)
    in_i = inside(cone_b, connect(comp_image, cone_b.width).T)
    return proj_rank, comp_rank, conn_rank, in_g, in_prod, in_i
