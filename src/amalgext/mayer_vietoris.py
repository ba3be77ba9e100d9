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
import itertools

import numpy as np

from amalgext.amalgam import AmalgamDatum, TAG_I
from amalgext.groups import GroupMismatch, SubgroupEmbedding
from amalgext.induction import GRep
from amalgext.linalg import CochainComplex, Field, array_key
from amalgext.reps import Quotient, intertwiner_constraints
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    LiftFailed,
    coefficient_delta,
    free_resolution,
)


def chain_lift_pi(embs: list[SubgroupEmbedding], q: FreeResolution, p: FreeResolution,
                  length: int) -> list[list[AlgebraMatrix]]:
    """Chain maps from the induced resolution ind(Q) to P lifting the counit, one
    per map of Q's group into P's, with P resolved in the same loop.  A map is
    an embedding of I into a vertex group, or the map I/N_I -> K/N_K it induces
    when Q and P resolve over quotients (see MVComplex); map_entries sums
    along it.

    F_0 of Q and of P is free on the module basis, d_0 sending basis row i to
    v_i, and the counit sends ind(d_0 of Q)(row i) to v_i: phi_0 is the
    identity.  Higher degrees solve phi_j d_P = d_indQ phi_{j-1}, the rows of
    every map in one degree from a single elimination of d_P,j, taking the
    first back-substitution solution each time; the same elimination gives
    ker d_P,j, which P takes for d_P,j+1 or, at the top, for kernel_cover(length).
    Exactness of P guarantees a solution; failure signals a broken resolution.
    phi_j depends only on d_P,j, d_Q,j and phi_{j-1}, and linearly on phi_{j-1},
    as the first back-substitution solution is linear in the right-hand side.
    So a degree whose differentials repeat an earlier degree's (periodic
    resolutions share their differential objects) and whose phi_{j-1} is c
    times that degree's takes c times its lift, with no solve: the earlier lift
    itself, read-only like the differentials, when c = 1.  When no map solves
    at degree j, P takes c_0 d_P,j in place of d_P,j, c_0 the first map's c
    (FreeResolution.rescale: the same kernel and image, so still a
    resolution), against which that map's lift is the earlier lift itself.  A
    period up to a unit, as where an odd p restarts a periodic resolution with
    a sign, thus becomes a period of the lifts and of the cone, which
    verify_les ranks once.  Where P_j = 0 (P over the trivial group, say),
    phi_j is the empty map, one object per shape, with no solve.  P eliminates
    d_P,j itself if it still needs its kernel.
    """
    f = q.field
    n = embs[0].target.order
    q.extend(length)

    lifts = []
    for emb in embs:
        identity = f.zeros(q.ranks[0], p.ranks[0], n)
        identity[:, :, emb.target.identity] = f.eye(q.ranks[0])
        lifts.append([AlgebraMatrix(emb.target, f, identity)])
    # per embedding: (d_P,j, d_Q,j, array_key of phi_{j-1} / c) -> (c, phi_j), for lifts
    # that succeeded, c the first nonzero coefficient of phi_{j-1} (1 if there is none)
    seen = [{} for _ in embs]
    empty = {}  # rows -> the empty map from ind(Q_j) of that rank, one object per shape
    for j in range(1, length + 1):
        p.extend(j)
        if not p.ranks[j]:  # P_j = 0: phi_j is the empty map, and P finds its zero kernel itself
            rows = q.ranks[j]
            if rows not in empty:
                empty[rows] = AlgebraMatrix(embs[0].target, f, f.zeros(rows, 0, n))
            for x in lifts:
                x.append(empty[rows])
            continue
        leads = [_lead(f, x[j - 1].coeffs) for x in lifts]
        keys = [(p.diffs[j], q.diffs[j], array_key(_over(f, x[j - 1].coeffs, c)))
                for c, x in zip(leads, lifts)]
        todo = [i for i, key in enumerate(keys) if key not in seen[i]]
        if todo:
            rows = q.ranks[j]
            # column r of an embedding's block is the image of basis row r under d_indQ phi_{j-1}
            images = [q.diffs[j].map_entries(embs[i]).mul(lifts[i][j - 1]).coeffs for i in todo]
            rhs = np.concatenate([m.reshape(rows, p.ranks[j - 1] * n) for m in images]).T
            sols, kernel = f.solve(p.diff_operator(j), rhs)
            if sols is None:
                raise LiftFailed(f"degree-{j} lift has no solution")
            p.take_kernel(j, kernel)
            del kernel  # P holds it only until it reads d_P,j+1
            for k, i in enumerate(todo):
                block = sols[:, k * rows : (k + 1) * rows].T.reshape(rows, p.ranks[j], n)
                seen[i][keys[i]] = leads[i], AlgebraMatrix(embs[i].target, f, block)
        # phi_{j-1} is ratios[i] times the earlier one, and so is the solution against d_P,j
        ratios = [f.reduce(lead * f.inv_scalar(seen[i][key][0]))
                  for i, (lead, key) in enumerate(zip(leads, keys))]
        unit = f.one if todo else ratios[0]
        if unit != 1:
            p.rescale(j, unit)
        for i, x in enumerate(lifts):
            phi, ratio = seen[i][keys[i]][1], f.reduce(ratios[i] * f.inv_scalar(unit))
            x.append(phi if ratio == 1 else AlgebraMatrix(phi.group, f, f.scale(ratio, phi.coeffs)))
    return lifts


def _lead(f: Field, coeffs: np.ndarray):
    """The first nonzero entry of an array, or 1 if it is zero."""
    nonzero = np.flatnonzero(coeffs)
    return coeffs.flat[nonzero[0]] if len(nonzero) else f.one


def _over(f: Field, coeffs: np.ndarray, c) -> np.ndarray:
    """coeffs / c, the array itself when c is 1."""
    return coeffs if c == 1 else f.scale(f.inv_scalar(c), coeffs)


def _check_pair(v1: GRep, v2: GRep) -> None:
    if v1.datum is not v2.datum or v1.field != v2.field:
        raise GroupMismatch("the module pair must live over one amalgam and one field")


def vertex_quotients(v1: GRep) -> tuple[Quotient, list[Quotient]]:
    """The quotients the cone resolves over: I/N_I, then K/N_K for each end.

    N_K = O_p'(K) ∩ ker(V1 on K) is normal, of order prime to p and acts
    trivially on V1, so kK e_N = k[K/N] is projective and a resolution of V1
    over K/N, inflated to K, resolves V1 over K (Brown, Cohomology of Groups,
    Ch. VII).  N_I is the elements of I that every embedding sends into its
    N_K: normal, of order prime to p, inside ker(V1 on I), and each embedding
    induces a homomorphism I/N_I -> K/N_K.
    """
    f, datum = v1.field, v1.datum
    normals, cores = [], {}  # cores: K's table -> O_p'(K), so equal tables share it
    for tag, emb in datum.ends:
        m = v1.module(tag)
        table = array_key(emb.target.table)
        if table not in cores:
            cores[table] = emb.target.p_prime_core(f.p)
        core = cores[table]
        if len(core) > 1:
            acts = np.any(m.mats[core] != f.eye(m.dim), axis=(1, 2))
            core = [x for x, moves in zip(core, acts.tolist()) if not moves]
        normals.append(core)
    inside = np.ones(datum.I.order, dtype=bool)
    for (_, emb), normal in zip(datum.ends, normals):
        mask = np.zeros(emb.target.order, dtype=bool)
        mask[normal] = True
        inside &= mask[emb.mapping]
    edge = np.flatnonzero(inside).tolist()
    return (Quotient(datum.I, edge),
            [Quotient(emb.target, normal) for (_, emb), normal in zip(datum.ends, normals)])


class MVComplex:
    """The Hom-applied mapping-cone cochain complex computing Ext over G.

    Each group resolves over its quotient by N (see vertex_quotients): Q is a
    resolution of V1 over I/N_I and each P one over K/N_K, K = emb.target for
    an end (tag, emb) of datum.ends, and Hom out of an inflated free module
    k[K/N]^r is (W^N)^r.  Degree j is Hom_I(Q_{j-1}, W^{N_I}) (+)
    Hom_K(P_j, W^{N_K}) for each end, realized as plain coefficient spaces by
    the free-module adjunction, W = V2.  The differential combines the
    coefficient complexes of Q and of each P with the pullbacks along the
    chain maps lifted along I/N_I -> K/N_K, each followed by the inclusion
    W^{N_K} ⊆ W^{N_I}, with cone signs d(a, b) = (-d a, phi(a) + d b) and
    phi = (phi_1, -phi_2): + on the first end, - on the second.  Out of the
    top degree P maps by kernel_cover(degree), which has the cocycles
    d_{degree+1} has.  Where N is trivial the quotient is the group and W^N is
    W, the same objects, so nothing is added.

    One rule shares work between the ends, by content (array_key): a
    resolution is a function of the table of K/N and V1's action on it, a lift
    also of the map I/N_I -> K/N_K, and a coefficient complex of the
    resolution and the action on W^N.  So Q is resolved first, then there is
    one P per distinct (table, V1 action), resolved in the one chain_lift_pi
    call that lifts every distinct map into it (degree j eliminates d_P,j
    once, for each phi_j and for ker d_P,j, from which P selects d_P,j+1 or,
    at the top degree, its kernel cover), and one coefficient complex per
    (P, W^N action).  Ends that share content share the object (p[1] is p[0],
    and likewise x and delta_p), whose AlgebraMatrix.group is the first such
    end's quotient.
    """

    def __init__(self, v1: GRep, v2: GRep, degree: int):
        _check_pair(v1, v2)
        self.degree = degree
        self.field = f = v1.field
        key = array_key

        # Q, each P and the lifts are read through degree.  Each P is resolved by
        # the lifts into it, and leaves the kernel that closes the top.
        edge, cuts = vertex_quotients(v1)
        self.q = free_resolution(edge.inflated(v1.module(TAG_I)), degree)
        w_i, _, free_i = edge.fixed(v2.module(TAG_I))
        ends = []  # (I/N_I -> K/N_K, V1 over K/N_K, W^N_K, its inclusion into W^N_I or None)
        for (tag, emb), cut in zip(v1.datum.ends, cuts):
            bar = SubgroupEmbedding(edge.group, cut.group, cut.projection[emb.mapping[edge.reps]])
            w, basis, _ = cut.fixed(v2.module(tag))
            inclusion = basis if basis is None or free_i is None else basis[free_i]
            ends.append((bar, cut.inflated(v1.module(tag)), w, inclusion))
        into = {}  # (table, V1 action) -> (V1's module, {map's array: map})
        for emb, m, _, _ in ends:
            _, embs = into.setdefault((key(emb.target.table), key(m.mats)), (m, {}))
            embs.setdefault(key(emb.mapping), emb)
        lifted = {}  # (P's key, map's array) -> (P, its top cover, the lift)
        for p_key, (m, embs) in into.items():
            p = free_resolution(m, 0)
            lifts = chain_lift_pi(list(embs.values()), self.q, p, degree)
            top = p.kernel_cover(degree)
            lifted.update({(p_key, e_key): (p, top, x) for e_key, x in zip(embs, lifts)})

        # coefficient complexes: delta_q[j] maps degree j to j+1 (index from 0);
        # each distinct (differential, module) pair of objects is expanded once
        delta = functools.cache(coefficient_delta)
        self.delta_q = [delta(self.q.diffs[j + 1], w_i) for j in range(degree)]
        blocks, complexes = [], {}  # complexes: (P's key, W^N action) -> (W^N, its complex)
        for emb, m, w, inclusion in ends:
            p_key = key(emb.target.table), key(m.mats)
            p, top, x = lifted[p_key, key(emb.mapping)]
            c_key = p_key, key(w.mats)
            if c_key not in complexes:
                complexes[c_key] = w, [delta(d, w) for d in p.diffs[1:] + [top]]
            blocks.append((p, x, *complexes[c_key], inclusion))
        self.p, self.x, ws, self.delta_p, inclusions = map(list, zip(*blocks))
        self._widths = w_i.dim, [w.dim for w in ws]

        @functools.cache
        def pulled(x: AlgebraMatrix, end: int) -> np.ndarray:
            """Precomposition with a lift, (W^N_K)^(rank P_j) -> (W^N_I)^(rank Q_j)."""
            fmap, inclusion = delta(x, ws[end]), inclusions[end]
            if inclusion is None:
                return fmap
            blocks = fmap.reshape(x.rows, inclusion.shape[1], fmap.shape[1])
            return f.matmul(inclusion, blocks).reshape(x.rows * len(inclusion), fmap.shape[1])

        self.deltas = [self._delta(j, [pulled(x[j], end) for end, x in enumerate(self.x)])
                       for j in range(degree + 1)]
        self.cone = CochainComplex(f, self.deltas)

    def _sizes(self, j: int) -> tuple[int, ...]:
        """(a, *b): the widths of I's block and of each end's block in degree j."""
        d_i, d_k = self._widths
        a = self.q.ranks[j - 1] * d_i if j >= 1 else 0
        return (a, *(p.ranks[j] * d for p, d in zip(self.p, d_k)))

    def _delta(self, j: int, fmaps: list[np.ndarray]) -> np.ndarray:
        """The cone differential out of degree j; its top right block is
        phi = (fmaps[0], -fmaps[1]), the lifts precomposed."""
        f = self.field
        a_j, *b_j = self._sizes(j)
        a_n = len(fmaps[0])
        rows = list(itertools.accumulate([a_n] + [len(dp[j]) for dp in self.delta_p]))
        cols = list(itertools.accumulate([a_j] + b_j))
        out = f.zeros(rows[-1], cols[-1])
        if a_j and a_n:
            out[:a_n, :a_j] = f.neg(self.delta_q[j - 1])
        for i, (fmap, dp) in enumerate(zip(fmaps, self.delta_p)):
            out[:a_n, cols[i] : cols[i + 1]] = f.neg(fmap) if i else fmap
            out[rows[i] : rows[i + 1], cols[i] : cols[i + 1]] = dp[j]
        return out

    def cohomology_dim(self, j: int) -> int:
        return self.cone.dims[j]

    def dims(self) -> list[int]:
        return [self.cohomology_dim(j) for j in range(self.degree + 1)]


def ext_G(v1: GRep, v2: GRep, n: int) -> list[int]:
    """Ext^j over the amalgam for 0 <= j <= n, via the mapping cone."""
    return MVComplex(v1, v2, n).dims()


def _constraints(v1: GRep, v2: GRep) -> list[np.ndarray]:
    """The intertwiner constraints of each end's pair of vertex actions."""
    _check_pair(v1, v2)
    return [intertwiner_constraints(v1.module(tag), v2.module(tag)) for tag, _ in v1.datum.ends]


def hom_G_direct(v1: GRep, v2: GRep) -> list[np.ndarray]:
    """Basis of maps intertwining every vertex action simultaneously."""
    stacked = np.concatenate(_constraints(v1, v2))
    return [vec.reshape(v2.dim, v1.dim) for vec in v1.field.kernel_basis(stacked)]


def hom_sequence_check(v1: GRep, v2: GRep) -> dict:
    """Exactness of 0 -> Hom_G -> Hom_K1 x Hom_K2 -> Hom_I on a concrete pair.

    The middle map is the difference of restrictions; its kernel must match
    the simultaneous intertwiner space exactly.
    """
    f = v1.field
    # each end's constraints are built once; the kernels are the intertwiner
    # bases of each end and of all at once (hom_space and hom_G_direct), as columns
    constraints = _constraints(v1, v2)
    h = [f.kernel_matrix(c) for c in constraints]
    hg = f.kernel_matrix(np.concatenate(constraints))
    difference = np.concatenate([h[0], f.neg(h[1])], axis=1)
    kernel = f.kernel_matrix(difference)
    # kernel members are coefficient pairs with equal matrices on both sides;
    # the matched matrices must span exactly the simultaneous intertwiners.
    # both h are bases, so the independent kernel columns give independent
    # matched columns: a span of as many dimensions as hg's that contains hg's
    # is hg's.
    matched = f.matmul(h[0], kernel[: h[0].shape[1], :]) if kernel.shape[1] else f.zeros(v1.dim * v2.dim, 0)
    image_in_kernel = f.columns_contained(matched, hg)
    exact_middle = kernel.shape[1] == hg.shape[1] and image_in_kernel
    return {
        "dim_G": hg.shape[1],
        **{f"dim_{tag}": hk.shape[1] for (tag, _), hk in zip(v1.datum.ends, h)},
        "exact_at_middle": bool(exact_middle),
        "image_in_kernel": bool(image_in_kernel),
    }


def abelianized_hom_dim(datum: AmalgamDatum, characteristic: int) -> int:
    """dim Hom(G, k) for trivial coefficients, by pure abelian linear algebra.

    Additive characters of the pushout are tuples of vertex characters that
    agree on the shared subgroup; this never touches any resolution and
    serves as the independent anchor for Ext^1 with trivial coefficients.
    A vertex group's characters are cut out by c(sy) = c(s) + c(y) for s in a
    generating set and every y: that gives c(e) = 0 (the trivial group's
    one relation is c(ee) = c(e) + c(e)), and c(xy) = c(x) + c(y) for all
    pairs by induction on the length of x as a word in the generators.
    """
    f = Field(characteristic)
    offsets = list(itertools.accumulate([0] + [emb.target.order for _, emb in datum.ends]))
    width = offsets[-1]  # one unknown per element of each vertex group
    blocks = []
    for (_, emb), offset in zip(datum.ends, offsets):
        # row i*n + y is the relation c(s_i y) - c(s_i) - c(y) = 0
        group = emb.target
        n = group.order
        gens = group.generators
        pairs = np.arange(len(gens) * n)
        rows = np.zeros((len(pairs), width), dtype=np.int64)
        rows[pairs, offset + group.table[gens].reshape(-1)] += 1
        rows[pairs, offset + gens[pairs // n]] -= 1
        rows[pairs, offset + pairs % n] -= 1
        blocks.append(rows)
    # row i is the gluing relation c_1(emb_1(i)) - c_2(emb_2(i)) = 0, with the cone's signs
    rows = np.zeros((datum.I.order, width), dtype=np.int64)
    for (_, emb), offset, sign in zip(datum.ends, offsets, (1, -1)):
        rows[np.arange(datum.I.order), offset + emb.mapping] = sign
    blocks.append(rows)
    return width - f.rank(np.concatenate(blocks))  # the nullity


class LESReport:
    """Verified long-exact-sequence table for one module pair."""

    def __init__(self, datum, degree, dims_g, dims_k, dims_i, nodes):
        self.datum = datum
        self.degree = degree
        self.dims_g = dims_g
        self.dims_k = dims_k  # one list per end of datum.ends
        self.dims_i = dims_i
        self.nodes = nodes  # list of (degree, node, dim, rank_in, rank_out, im_in_ker, exact)

    @property
    def exact(self) -> bool:
        return all(n[5] and n[6] for n in self.nodes)

    def render(self) -> str:
        lines = [f"degrees 0..{self.degree}"]
        columns = [("G", self.dims_g), *zip((tag for tag, _ in self.datum.ends), self.dims_k),
                   ("I", self.dims_i)]
        lines += [f"{'ext_' + tag + ':':<7} " + " ".join(map(str, dims)) for tag, dims in columns]
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
    coboundaries.  The product node is the product over the ends of
    datum.ends, named by their tags (K1xK2).

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
    # one complex per coefficient complex object, so ends that share one share its ranks
    complexes = {id(dp): dp for dp in mv.delta_p}
    complexes = {i: CochainComplex(f, dp[: n + 1]) for i, dp in complexes.items()}
    per_end = [complexes[id(dp)] for dp in mv.delta_p]
    edge = CochainComplex(f, mv.delta_q)
    product = "x".join(tag for tag, _ in v1.datum.ends)

    # Each map leaves one node and enters the next, so its rank on cohomology
    # is computed once and read twice.
    nodes = []
    conn_rank = 0
    seen = {}  # the key of what a degree reads -> its _les_degree results
    for j in range(n + 1):
        # the comparison map is the cone's phi block (layout in MVComplex._sizes)
        phi = mv.deltas[j][: mv._sizes(j + 1)[0], mv._sizes(j)[0] :]
        spans = *(k.coboundaries(j) for k in per_end), edge.coboundaries(j), cone.coboundaries(j + 1)
        # no cocycle of I precedes degree 0, so the connecting map into it is zero
        before = edge.cocycles[j - 1] if j else f.zeros(0, 0)
        arrays = cone.cocycles[j], *(k.cocycles[j] for k in per_end), phi, before, edge.cocycles[j]
        key = spans + tuple(map(array_key, arrays))
        if key not in seen:
            seen[key] = _les_degree(f, spans, arrays)
        proj_rank, comp_rank, conn_rank_out, in_g, in_prod, in_i = seen[key]
        nodes.append((j, "G", cone.dims[j], conn_rank, proj_rank, in_g,
                      conn_rank + proj_rank == cone.dims[j]))
        prod_dim = sum(k.dims[j] for k in per_end)
        nodes.append((j, product, prod_dim, proj_rank, comp_rank, in_prod,
                      proj_rank + comp_rank == prod_dim))
        nodes.append((j, "I", edge.dims[j], comp_rank, conn_rank_out, in_i,
                      comp_rank + conn_rank_out == edge.dims[j]))
        conn_rank = conn_rank_out

    return LESReport(v1.datum, n, cone.dims[: n + 1], [k.dims for k in per_end], edge.dims, nodes)


def _les_degree(f: Field, spans, arrays):
    """(projection rank, comparison rank, connecting rank, im_in_ker at G, at
    the product and at I) of one LES degree j, from what it reads and nothing else.

    spans are the coboundaries of each end's complex at j, then of I at j and
    of the cone at j + 1; arrays are the cocycles of the cone at j, then of each
    end's complex at j, then phi, then the cocycles of I at j - 1 (0 x 0 at
    j = 0) and at j.  The cone's rows are laid out as in MVComplex._sizes: I's
    block of height len(edge_before), then each end's of the height of its
    cocycles.  Projection keeps the ends' rows, comparison is phi, and
    connecting fills the top rows.

    So the G node's im_in_ker holds by the layout: the connecting map out of
    j - 1 fills only the I rows, which the projection drops, and in_g tests
    zero rows.  Only the node's rank identity can fail there.
    """
    *end_b, edge_b, cone_b = spans
    cone_z, *zs, phi, edge_before, edge_z = arrays
    a = len(edge_before)
    cuts = list(itertools.accumulate([0] + [len(z) for z in zs]))
    blocks = list(zip(end_b, zs, cuts, cuts[1:]))  # (span, cocycles, first row, end row)

    def connect(x, height):
        out = f.zeros(height, x.shape[1])
        out[: len(x)] = x
        return out

    def inside(span, rows) -> bool:
        return all(map(span.contains, span.pack(rows)))

    def inside_prod(rows) -> bool:
        """Whether rows of the product are coboundaries, each end's block by its own."""
        return all(inside(b, rows[:, lo:hi]) for b, _, lo, hi in blocks)

    proj_image = cone_z[a:]
    proj_rank = f.rank(np.concatenate([b.reduce(proj_image[lo:hi].T) for b, _, lo, hi in blocks], axis=1))
    comp_image = np.concatenate([f.matmul(phi[:, lo:hi], z) for _, z, lo, hi in blocks], axis=1)
    comp_rank = len(edge_b.copy().add(comp_image.T))
    conn_rank = len(cone_b.copy().add(connect(edge_z, cone_b.width).T))
    # the connecting map out of degree j - 1, then the projection
    in_g = inside_prod(connect(edge_before, len(cone_z))[a:].T)
    in_prod = inside(edge_b, f.matmul(phi, proj_image).T)
    in_i = inside(cone_b, connect(comp_image, cone_b.width).T)
    return proj_rank, comp_rank, conn_rank, in_g, in_prod, in_i
