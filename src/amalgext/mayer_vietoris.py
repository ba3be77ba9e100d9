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
from amalgext.linalg import Field, subquotient_dim
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

    Degree 0 satisfies aug_P o phi_0 = (counit o ind(aug_Q)); higher degrees
    solve phi_j d_P = d_indQ phi_{j-1}, all rows of one degree from a single
    elimination, taking the first back-substitution solution each time.
    Exactness of P guarantees a solution; failure signals a broken resolution.
    """
    emb = datum.emb1 if side == 1 else datum.emb2
    K = emb.target
    f = q.field
    n = K.order
    q.extend(length)
    p.extend(length)

    lifts: list[AlgebraMatrix] = []
    # aug_Q sends basis row i to module basis vector i
    targets = f.eye(q.module.dim)[:, : q.ranks[0]]
    lifts.append(_lift_degree(f, K, p.aug_operator(), targets, p.ranks[0],
                              "degree-0 lift has no solution; augmentation not surjective"))
    for j in range(1, length + 1):
        if not q.ranks[j]:  # Q has stopped, so the lift starts from the zero module
            lifts.append(AlgebraMatrix(K, f, f.zeros(0, p.ranks[j], n)))
            continue
        # row i of d_indQ is the image of basis row i
        rows = q.diffs[j].map_entries(emb).coeffs.reshape(q.ranks[j], -1)
        targets = f.matmul(lifts[j - 1].operator(), rows.T)
        lifts.append(_lift_degree(f, K, p.diff_operator(j), targets, p.ranks[j],
                                  f"degree-{j} lift has no solution"))
    return lifts


def _lift_degree(f, group, op, targets, rank, failure) -> AlgebraMatrix:
    """The lift whose i-th row solves op @ x = targets[:, i], all from one elimination."""
    sols = f.solve_many(op, targets)
    if sols is None:
        raise LiftFailed(failure)
    return AlgebraMatrix(group, f, sols.T.reshape(sols.shape[1], rank, group.order))


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
        length = degree + 2

        self.q = free_resolution(v1.module(TAG_I), length)
        self.p1 = free_resolution(v1.module(TAG_K1), length)
        self.p2 = free_resolution(v1.module(TAG_K2), length)
        self.x1 = chain_lift_pi(self.datum, 1, self.q, self.p1, length)
        self.x2 = chain_lift_pi(self.datum, 2, self.q, self.p2, length)

        w_i = v2.module(TAG_I)
        w_1 = v2.module(TAG_K1)
        w_2 = v2.module(TAG_K2)
        d2 = v2.dim
        self.d2 = d2
        # coefficient complexes: delta_q[j] maps degree j to j+1 (index from 0)
        self.delta_q = [coefficient_delta(self.q.diffs[j + 1], w_i) for j in range(length)]
        self.delta_p1 = [coefficient_delta(self.p1.diffs[j + 1], w_1) for j in range(length)]
        self.delta_p2 = [coefficient_delta(self.p2.diffs[j + 1], w_2) for j in range(length)]
        # precomposition with the lifts: V2^(rank P_j) -> V2^(rank Q_j)
        self.fmap1 = [coefficient_delta(self.x1[j], w_1) for j in range(length + 1)]
        self.fmap2 = [coefficient_delta(self.x2[j], w_2) for j in range(length + 1)]

        self.deltas = [self._delta(j) for j in range(length - 1)]

    def _sizes(self, j: int) -> tuple[int, int, int]:
        a = self.q.ranks[j - 1] * self.d2 if j >= 1 else 0
        return (a, self.p1.ranks[j] * self.d2, self.p2.ranks[j] * self.d2)

    def _delta(self, j: int) -> np.ndarray:
        f = self.field
        a_j, b1_j, b2_j = self._sizes(j)
        a_n, b1_n, b2_n = self._sizes(j + 1)
        out = f.zeros(a_n + b1_n + b2_n, a_j + b1_j + b2_j)
        if a_j and a_n:
            out[:a_n, :a_j] = f.neg(self.delta_q[j - 1])
        out[:a_n, a_j : a_j + b1_j] = self.fmap1[j]
        out[:a_n, a_j + b1_j :] = f.neg(self.fmap2[j])
        out[a_n : a_n + b1_n, a_j : a_j + b1_j] = self.delta_p1[j]
        out[a_n + b1_n :, a_j + b1_j :] = self.delta_p2[j]
        return out

    def cohomology_dim(self, j: int) -> int:
        f = self.field
        delta_in = self.deltas[j - 1] if j >= 1 else f.zeros(self.deltas[j].shape[1], 0)
        return subquotient_dim(f, delta_in, self.deltas[j])

    def dims(self) -> list[int]:
        return [self.cohomology_dim(j) for j in range(self.degree + 1)]

    # block maps used by the long-exact-sequence verifier

    def projection(self, j: int) -> np.ndarray:
        """Cone degree j onto the product coefficient complex of P1 and P2."""
        f = self.field
        a, b1, b2 = self._sizes(j)
        out = f.zeros(b1 + b2, a + b1 + b2)
        out[: b1 + b2, a:] = f.eye(b1 + b2)
        return out

    def comparison(self, j: int) -> np.ndarray:
        """Product complex to the Q coefficient complex: (psi1, psi2) -> phi1*psi1 - phi2*psi2."""
        f = self.field
        _, b1, b2 = self._sizes(j)
        rows = self.q.ranks[j] * self.d2
        out = f.zeros(rows, b1 + b2)
        out[:, :b1] = self.fmap1[j]
        out[:, b1:] = f.neg(self.fmap2[j])
        return out

    def connecting(self, j: int) -> np.ndarray:
        """Q coefficient degree j into cone degree j+1 (the shift inclusion)."""
        f = self.field
        a_n, b1_n, b2_n = self._sizes(j + 1)
        rows = a_n + b1_n + b2_n
        cols = self.q.ranks[j] * self.d2
        out = f.zeros(rows, cols)
        out[:a_n, :] = f.eye(cols)
        return out


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
    basis_i = hom_space(v1.module(TAG_I), v2.module(TAG_I))

    def vecs(basis):
        if not basis:
            return f.zeros(v1.dim * v2.dim, 0)
        return np.column_stack([b.reshape(-1) for b in basis])

    h1, h2, hg = vecs(basis_1), vecs(basis_2), vecs(basis_g)
    difference = np.concatenate([h1, f.neg(h2)], axis=1)
    kernel = f.kernel_matrix(difference)
    # kernel members are coefficient pairs with equal matrices on both sides;
    # the matched matrices must span exactly the simultaneous intertwiners
    matched = f.matmul(h1, kernel[: h1.shape[1], :]) if kernel.shape[1] else f.zeros(v1.dim * v2.dim, 0)
    exact_middle = (
        kernel.shape[1] == len(basis_g)
        and f.columns_contained(hg, matched)
        and f.columns_contained(matched, hg)
    )
    image_in_kernel = f.columns_contained(matched, hg)
    return {
        "dim_G": len(basis_g),
        "dim_K1": len(basis_1),
        "dim_K2": len(basis_2),
        "dim_I": len(basis_i),
        "exact_at_middle": bool(exact_middle),
        "image_in_kernel": bool(image_in_kernel),
    }


def abelianized_hom_dim(datum: AmalgamDatum, characteristic: int) -> int:
    """dim Hom(G, k) for trivial coefficients, by pure abelian linear algebra.

    Additive characters of the pushout are pairs of factor characters that
    agree on the shared subgroup; this never touches any resolution and
    serves as the independent anchor for Ext^1 with trivial coefficients.
    """
    f = Field(characteristic)
    n1, n2 = datum.K1.order, datum.K2.order
    blocks = []
    for group, offset in ((datum.K1, 0), (datum.K2, n1)):
        # row x*n + y is the relation c(xy) - c(x) - c(y) = 0
        n = group.order
        pairs = np.arange(n * n)
        rows = np.zeros((n * n, n1 + n2), dtype=np.int64)
        rows[pairs, offset + group.table.reshape(-1)] += 1
        rows[pairs, offset + pairs // n] -= 1
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


def _rank_on_cohomology(f: Field, image: np.ndarray, b_tgt: np.ndarray) -> int:
    """Rank on cohomology of a map, given its image of the source cocycles."""
    if b_tgt.shape[1] == 0:
        return f.rank(image)
    return f.rank(np.concatenate([image, b_tgt], axis=1)) - f.rank(b_tgt)


def verify_les(v1: GRep, v2: GRep, n: int) -> LESReport:
    """Exactness of the Mayer-Vietoris sequence through degree n.

    At every node the composite of consecutive maps must land in
    coboundaries, and the ranks of the incoming and outgoing maps on
    cohomology must add up to the cohomology dimension.
    """
    if n < 1:
        raise ValueError("degree bound must be at least 1")
    f = v1.field
    # one degree of headroom: exactness at degree n looks into degree n+1
    mv = MVComplex(v1, v2, n + 1)

    def coboundaries(deltas, top):
        return [deltas[j - 1] if j >= 1 else f.zeros(deltas[0].shape[1], 0)
                for j in range(top + 1)]

    def complex_data(deltas, top):
        z = [f.kernel_matrix(deltas[j]) for j in range(top + 1)]
        return z, coboundaries(deltas, top)

    def cohomology_dims(deltas, top):
        return [subquotient_dim(f, b, d) for b, d in zip(coboundaries(deltas, top), deltas)]

    # cone complex through degree n+1, the factor complexes through n
    cone_z, cone_b = complex_data(mv.deltas, n + 1)
    cone_dims = cohomology_dims(mv.deltas, n + 1)
    prod_deltas = []
    for j in range(n + 1):
        b1 = mv.delta_p1[j]
        b2 = mv.delta_p2[j]
        big = f.zeros(b1.shape[0] + b2.shape[0], b1.shape[1] + b2.shape[1])
        big[: b1.shape[0], : b1.shape[1]] = b1
        big[b1.shape[0] :, b1.shape[1] :] = b2
        prod_deltas.append(big)
    prod_z, prod_b = complex_data(prod_deltas, n)
    edge_z, edge_b = complex_data(mv.delta_q, n)
    edge_dims = cohomology_dims(mv.delta_q, n)
    dims_k1 = cohomology_dims(mv.delta_p1, n)
    dims_k2 = cohomology_dims(mv.delta_p2, n)
    # the product complex is block diagonal, so its cohomology is the direct sum
    prod_dims = [d1 + d2 for d1, d2 in zip(dims_k1, dims_k2)]

    # Each map of the sequence leaves one node and enters the next, so its image
    # of cocycles and its rank on cohomology are computed once and read twice.
    # The connecting map into degree 0 is zero.
    nodes = []
    conn_image, conn_rank = None, 0
    for j in range(n + 1):
        proj = mv.projection(j)
        comp = mv.comparison(j)
        conn = mv.connecting(j)
        proj_image = f.matmul(proj, cone_z[j])
        proj_rank = _rank_on_cohomology(f, proj_image, prod_b[j])
        comp_image = f.matmul(comp, prod_z[j])
        comp_rank = _rank_on_cohomology(f, comp_image, edge_b[j])

        # node G at degree j
        im_in_ker = j == 0 or f.columns_contained(prod_b[j], f.matmul(proj, conn_image))
        nodes.append((j, "G", cone_dims[j], conn_rank, proj_rank, im_in_ker,
                      conn_rank + proj_rank == cone_dims[j]))

        # node K1 x K2 at degree j
        im_in_ker = f.columns_contained(edge_b[j], f.matmul(comp, proj_image))
        nodes.append((j, "K1xK2", prod_dims[j], proj_rank, comp_rank, im_in_ker,
                      proj_rank + comp_rank == prod_dims[j]))

        # node I at degree j
        conn_image = f.matmul(conn, edge_z[j])
        conn_rank_out = _rank_on_cohomology(f, conn_image, cone_b[j + 1])
        im_in_ker = f.columns_contained(cone_b[j + 1], f.matmul(conn, comp_image))
        nodes.append((j, "I", edge_dims[j], comp_rank, conn_rank_out, im_in_ker,
                      comp_rank + conn_rank_out == edge_dims[j]))
        conn_rank = conn_rank_out

    return LESReport(v1.datum, n, cone_dims[: n + 1], dims_k1, dims_k2, edge_dims, nodes)
