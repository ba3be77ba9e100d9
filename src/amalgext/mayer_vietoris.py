"""Ext over the amalgam via a mapping cone of finite-level resolutions.

No module over the group algebra of G is ever materialized.  The short exact
sequence 0 -> ind_I(V1) -> ind_K1(V1) (+) ind_K2(V1) -> V1 -> 0 is resolved
by the cone of a chain map lifting the two counit maps, and Hom_G out of
induced free modules collapses by Frobenius reciprocity to plain coefficient
spaces over the finite groups.  The long exact sequence relating Ext over G,
K1, K2 and I is then verified degree by degree with exact rank arithmetic.
"""

from __future__ import annotations

import numpy as np

from amalgext.amalgam import AmalgamDatum, TAG_I, TAG_K1, TAG_K2
from amalgext.induction import GRep
from amalgext.linalg import CochainComplex, Field, array_key
from amalgext.reps import hom_space, intertwiner_constraints
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    LiftFailed,
    coefficient_delta,
    free_resolution,
)


def chain_lift_pi(datum: AmalgamDatum, side: int, q: FreeResolution, p: FreeResolution,
                  length: int) -> list[AlgebraMatrix]:
    """Chain map from the induced resolution ind(Q) to P lifting the counit.

    F_0 of Q and of P is free on the module basis, d_0 sending basis row i to
    v_i, and the counit sends ind(d_0 of Q)(row i) to v_i: phi_0 is the
    identity.  Higher degrees solve phi_j d_P = d_indQ phi_{j-1}, all rows of
    one degree from a single elimination, taking the first back-substitution
    solution each time.
    Exactness of P guarantees a solution; failure signals a broken resolution.
    phi_j depends only on d_P,j, d_Q,j and phi_{j-1}, so a degree where that
    triple repeats (periodic resolutions share their differential objects)
    reuses the earlier lift, read-only like the differentials.
    """
    emb = datum.emb1 if side == 1 else datum.emb2
    K = emb.target
    f = q.field
    n = K.order
    q.extend(length)
    p.extend(length)

    identity = f.zeros(q.ranks[0], p.ranks[0], n)
    identity[:, :, K.identity] = f.eye(q.ranks[0])
    lifts = [AlgebraMatrix(K, f, identity)]
    seen = {}  # (d_P,j, d_Q,j, array_key of phi_{j-1}) -> phi_j, for lifts that succeeded
    for j in range(1, length + 1):
        key = p.diffs[j], q.diffs[j], array_key(lifts[j - 1].coeffs)
        if key not in seen:
            # column i is the image of basis row i under d_indQ phi_{j-1}
            image = q.diffs[j].map_entries(emb).mul(lifts[j - 1])
            sols = f.solve(p.diff_operator(j), image.coeffs.reshape(image.rows, image.cols * n).T)
            if sols is None:
                raise LiftFailed(f"degree-{j} lift has no solution")
            seen[key] = AlgebraMatrix(K, f, sols.T.reshape(image.rows, p.ranks[j], n))
        lifts.append(seen[key])
    return lifts


class MVComplex:
    """The Hom-applied mapping-cone cochain complex computing Ext over G.

    Degree j is  Hom_I(Q_{j-1}, V2) (+) Hom_K1(P1_j, V2) (+) Hom_K2(P2_j, V2),
    realized as plain coefficient spaces by the free-module adjunction.  The
    differential combines the coefficient complexes of Q, P1, P2 with the
    pullbacks along the lifted chain maps, with cone signs
    d(a, b) = (-d a, phi(a) + d b) and phi = (phi_1, -phi_2).
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

        # cone degrees 0..degree read Q through degree, P1 and P2 through
        # degree + 1, and the lifts through degree
        self.q = free_resolution(v1.module(TAG_I), degree)
        self.p1 = free_resolution(v1.module(TAG_K1), degree + 1)
        self.p2 = free_resolution(v1.module(TAG_K2), degree + 1)
        self.x1 = chain_lift_pi(self.datum, 1, self.q, self.p1, degree)
        self.x2 = chain_lift_pi(self.datum, 2, self.q, self.p2, degree)

        w_i = v2.module(TAG_I)
        w_1 = v2.module(TAG_K1)
        w_2 = v2.module(TAG_K2)
        d2 = v2.dim
        self.d2 = d2
        # coefficient complexes: delta_q[j] maps degree j to j+1 (index from 0)
        self.delta_q = [coefficient_delta(self.q.diffs[j + 1], w_i) for j in range(degree)]
        self.delta_p1 = [coefficient_delta(self.p1.diffs[j + 1], w_1) for j in range(degree + 1)]
        self.delta_p2 = [coefficient_delta(self.p2.diffs[j + 1], w_2) for j in range(degree + 1)]
        # precomposition with the lifts: V2^(rank P_j) -> V2^(rank Q_j)
        self.deltas = [self._delta(j, coefficient_delta(self.x1[j], w_1),
                                   coefficient_delta(self.x2[j], w_2))
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
        a_n, b1_n, b2_n = self._sizes(j + 1)
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
    f = v1.field
    basis_g = hom_G_direct(v1, v2)
    basis_1 = hom_space(v1.module(TAG_K1), v2.module(TAG_K1))
    basis_2 = hom_space(v1.module(TAG_K2), v2.module(TAG_K2))

    def vecs(basis):
        if not basis:
            return f.zeros(v1.dim * v2.dim, 0)
        return np.column_stack([b.reshape(-1) for b in basis])

    h1, h2, hg = vecs(basis_1), vecs(basis_2), vecs(basis_g)
    difference = np.concatenate([h1, f.neg(h2)], axis=1)
    kernel = f.kernel_matrix(difference)
    # kernel members are coefficient pairs with equal matrices on both sides;
    # the matched matrices must span exactly the simultaneous intertwiners.
    # h1 and h2 are bases, so the independent kernel columns give independent
    # matched columns: a span of as many dimensions as hg's that contains hg's
    # is hg's.
    matched = f.matmul(h1, kernel[: h1.shape[1], :]) if kernel.shape[1] else f.zeros(v1.dim * v2.dim, 0)
    image_in_kernel = f.columns_contained(matched, hg)
    exact_middle = kernel.shape[1] == len(basis_g) and image_in_kernel
    return {
        "dim_G": len(basis_g),
        "dim_K1": len(basis_1),
        "dim_K2": len(basis_2),
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
    return len(f.kernel_basis(f.array(np.concatenate(blocks))))


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
    """
    if n < 1:
        raise ValueError("degree bound must be at least 1")
    f = v1.field
    # one degree of headroom: exactness at degree n looks into degree n+1
    mv = MVComplex(v1, v2, n + 1)
    cone = mv.cone
    k1 = CochainComplex(f, mv.delta_p1[: n + 1])
    k2 = CochainComplex(f, mv.delta_p2[: n + 1])
    edge = CochainComplex(f, mv.delta_q)

    # The maps are read off the cone layout (MVComplex._sizes): projection keeps the
    # (P1, P2) rows, comparison is the cone's phi block, connecting fills the top rows.
    # Each map leaves one node and enters the next, so its image of cocycles
    # and its rank on cohomology are computed once and read twice.
    # The connecting map into degree 0 is zero.
    nodes = []
    conn_image, conn_rank = None, 0
    for j in range(n + 1):
        a, b1, _ = mv._sizes(j)
        phi = mv.deltas[j][: mv._sizes(j + 1)[0], a:]

        def connect(x):
            out = f.zeros(sum(mv._sizes(j + 1)), x.shape[1])
            out[: x.shape[0]] = x
            return out

        def reduce_prod(rows):
            """Rows of K1 x K2 modulo its coboundaries, each factor's block by its own."""
            return np.concatenate([k1.coboundaries(j).reduce(rows[:, :b1]),
                                   k2.coboundaries(j).reduce(rows[:, b1:])], axis=1)

        edge_b = edge.coboundaries(j)
        cone_b = cone.coboundaries(j + 1)
        proj_image = cone.cocycles[j][a:]
        proj_rank = f.rank(reduce_prod(proj_image.T))
        comp_image = np.concatenate([f.matmul(phi[:, :b1], k1.cocycles[j]),
                                     f.matmul(phi[:, b1:], k2.cocycles[j])], axis=1)
        comp_rank = len(edge_b.copy().add(comp_image.T))

        # node G at degree j
        im_in_ker = j == 0 or not reduce_prod(conn_image[a:].T).any()
        nodes.append((j, "G", cone.dims[j], conn_rank, proj_rank, im_in_ker,
                      conn_rank + proj_rank == cone.dims[j]))

        # node K1 x K2 at degree j
        prod_dim = k1.dims[j] + k2.dims[j]
        im_in_ker = not edge_b.reduce(f.matmul(phi, proj_image).T).any()
        nodes.append((j, "K1xK2", prod_dim, proj_rank, comp_rank, im_in_ker,
                      proj_rank + comp_rank == prod_dim))

        # node I at degree j
        conn_image = connect(edge.cocycles[j])
        conn_rank_out = len(cone_b.copy().add(conn_image.T))
        im_in_ker = not cone_b.reduce(connect(comp_image).T).any()
        nodes.append((j, "I", edge.dims[j], comp_rank, conn_rank_out, im_in_ker,
                      comp_rank + conn_rank_out == edge.dims[j]))
        conn_rank = conn_rank_out

    return LESReport(v1.datum, n, cone.dims[: n + 1], k1.dims, k2.dims, edge.dims, nodes)
