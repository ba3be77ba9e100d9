import ast
import itertools
import re
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from amalgext import mayer_vietoris, reps
from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2, AmalgamDatum
from amalgext.cli import run
from amalgext.groups import FiniteGroup, GroupMismatch, SubgroupEmbedding
from amalgext.induction import trivial_grep
from amalgext.instfile import ValidationError, parse
from amalgext.linalg import CochainComplex, Field, array_key
from amalgext.mayer_vietoris import (
    MVComplex,
    abelianized_hom_dim,
    chain_lift_pi,
    ext_G,
    hom_G_direct,
    hom_sequence_check,
    verify_les,
    vertex_quotients,
)
from amalgext.reps import hom_space
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    LiftFailed,
    coefficient_delta,
    ext_finite,
    free_resolution,
)

from conftest import FIXTURES, INSTANCE_FILES, bundled, cyclic, grep2, instance_greps, random_grep


def test_chain_lift_degree_zero_compatibility(sl2z):
    f = Field(2)
    v1 = grep2(sl2z, f)
    for side in (1, 2):
        emb = sl2z.emb1 if side == 1 else sl2z.emb2
        q = free_resolution(v1.module(TAG_I), 3)
        p = free_resolution(v1.module(TAG_K1 if side == 1 else TAG_K2), 3)
        lifts, = chain_lift_pi([emb], q, p, 3)
        # augmentation of P composed with the lift equals the counit composed
        # with the induced augmentation of Q, column by column
        K = emb.target
        n = K.order
        aug_p = p.diff_operator(0)
        x0_op = lifts[0].to_k_matrix().T
        module = v1.module(TAG_K1 if side == 1 else TAG_K2)
        for i in range(q.ranks[0]):
            for g in range(n):
                col = f.zeros(q.ranks[0] * n)
                col[i * n + g] = 1
                lhs = f.matmul(aug_p, f.matmul(x0_op, col))
                # counit of ind(aug_Q): basis (i, g) goes to g . v_i
                rhs = f.matmul(module.mats[g], f.eye(v1.dim)[:, i])
                assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_degree_zero_lift_is_the_identity(path, p):
    """F_0 of Q and of P is free on the module basis, d_0 sending row i to v_i,
    and so does the counit after ind(d_0 of Q): phi_0 is the identity."""
    f = Field(p)
    greps = instance_greps(path, p)
    d = greps[0].datum
    for v in greps:
        q = free_resolution(v.module(TAG_I), 0)
        for emb, K, tag in ((d.emb1, d.K1, TAG_K1), (d.emb2, d.K2, TAG_K2)):
            (phi0,), = chain_lift_pi([emb], q, free_resolution(v.module(tag), 0), 0)
            identity = f.zeros(v.dim, v.dim, K.order)
            identity[np.arange(v.dim), np.arange(v.dim), K.identity] = 1
            assert np.array_equal(phi0.coeffs, identity)


def test_a_lift_without_solution_names_its_degree(sl2z):
    f = Field(2)
    v = grep2(sl2z, f)
    q = free_resolution(v.module(TAG_I), 3)
    p = free_resolution(v.module(TAG_K1), 3)
    d2 = p.diffs[2]
    p.diffs[2] = AlgebraMatrix(d2.group, f, f.zeros(*d2.coeffs.shape))
    with pytest.raises(LiftFailed, match="degree-2 lift has no solution"):
        chain_lift_pi([sl2z.emb1], q, p, 3)


def test_chain_lift_equations_hold(all_datums):
    f = Field(2)
    for d in all_datums:
        v1 = grep2(d, f)
        for side in (1, 2):
            emb = d.emb1 if side == 1 else d.emb2
            tag = TAG_K1 if side == 1 else TAG_K2
            q = free_resolution(v1.module(TAG_I), 4)
            p = free_resolution(v1.module(tag), 4)
            lifts, = chain_lift_pi([emb], q, p, 4)
            for j in range(1, 5):
                ind_d = q.diffs[j].map_entries(emb)
                lhs = ind_d.mul(lifts[j - 1])
                rhs = lifts[j].mul(p.diffs[j])
                assert np.array_equal(lhs.coeffs, rhs.coeffs)


# (file, p) whose factor resolutions repeat while Q keeps a nonzero rank, so
# that chain_lift_pi meets a degree it has lifted before
LIFTS_REPEAT = {("sl2z", 2), ("sl2z", 3), ("sl2z-f5", 2), ("sl2z-f5", 3), ("gl2z", 3),
                ("s4-s3-s4", 3)}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_a_reused_lift_is_the_one_a_fresh_solve_gives(path, p):
    """Each lift through degree 12 has the bytes of the first back-substitution
    solution from the lift before it, and a degree whose differentials and lift
    before repeat an earlier degree's holds that degree's lift object."""
    f = Field(p)
    greps = instance_greps(path, p)
    d = greps[0].datum
    reused = 0
    for v in greps:
        q = free_resolution(v.module(TAG_I), 12)
        for side, emb, tag in ((1, d.emb1, TAG_K1), (2, d.emb2, TAG_K2)):
            res = free_resolution(v.module(tag), 12)
            lifts, = chain_lift_pi([emb], q, res, 12)
            first = {}
            for j in range(1, 13):
                if not q.ranks[j]:
                    continue
                rows = q.diffs[j].map_entries(emb).coeffs.reshape(q.ranks[j], -1)
                targets = f.matmul(lifts[j - 1].to_k_matrix().T, rows.T)
                sols, _ = f.solve(res.diff_operator(j), targets)
                assert lifts[j].coeffs.tobytes() == sols.T.tobytes()
                key = id(res.diffs[j]), id(q.diffs[j]), lifts[j - 1].coeffs.tobytes()
                if first.setdefault(key, j) < j:
                    assert lifts[j] is lifts[first[key]]
                    reused += 1
    assert bool(reused) == ((path.stem, p) in LIFTS_REPEAT)


def _c5_amalgams():
    """F20 *_{Z/5} D10 and Z/5 *_{Z/5} Z/5 over the 5-cycle, at F5; the second
    glues the generator of Z/5 to the cycle and to its square, so two maps
    lift into one P, with units whose ratio is neither 1 nor -1."""
    cycle = [1, 2, 3, 4, 0]
    z5 = FiniteGroup.from_permutations([cycle])
    f20 = FiniteGroup.from_permutations([cycle, [0, 2, 4, 1, 3]])
    d10 = FiniteGroup.from_permutations([cycle, [0, 4, 3, 2, 1]])

    def power(k, step):
        """Z/5 -> k, a^i -> (the cycle, k's element 1)^(step i)."""
        c = k.identity
        for _ in range(step):
            c = k.mul(c, 1)
        return SubgroupEmbedding(z5, k, list(itertools.accumulate(range(4), lambda x, _: k.mul(x, c),
                                                                  initial=k.identity)))

    for k1, k2, step in ((f20, d10, 1), (z5, z5, 2)):
        yield trivial_grep(AmalgamDatum(k1, k2, z5, power(k1, 1), power(k2, step)), Field(5))


def test_a_period_up_to_a_unit_rescales_the_differential():
    """Over the 5-cycle at F5 the lifts repeat up to units other than -1.  Through
    degree 14 each lift is the first back-substitution solution from the lift
    before it against the cone's P; each differential of P is a unit times the
    one free_resolution gives (N = 1 here), some unit c with c^2 != 1, and where
    the unit is not 1 the lift of the first map into P is an earlier one itself
    (a second map into the same P takes its own multiple, which the fresh
    solves check)."""
    units = set()
    for v in _c5_amalgams():
        f = v.field
        mv = MVComplex(v, v, 14)
        firsts = set()
        for (tag, emb), p, lifts in zip(v.datum.ends, mv.p, mv.x):
            first = id(p) not in firsts
            firsts.add(id(p))
            own = free_resolution(v.module(tag), 14)
            for j in range(1, 15):
                rows = mv.q.diffs[j].map_entries(emb).coeffs.reshape(mv.q.ranks[j], -1)
                sols, _ = f.solve(p.diff_operator(j), f.matmul(lifts[j - 1].to_k_matrix().T, rows.T))
                assert lifts[j].coeffs.tobytes() == sols.T.tobytes(), j
                unit, = [c for c in range(1, 5) if np.array_equal(p.diffs[j].coeffs, f.scale(c, own.diffs[j].coeffs))]
                if unit != 1:
                    units.add(unit)
                    assert not first or any(lifts[j] is lifts[i] for i in range(1, j)), j
    assert units - {1, 4}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_frobenius_reciprocity_on_induced_differentials(path, p):
    # Frobenius reciprocity Hom_K(ind Q_j, W) = Hom_I(Q_j, W restricted to I) on
    # coefficients: the cone's Q block is coefficient_delta(D, W_I), while the
    # lifts start from the induced differential D.map_entries(emb).
    greps = instance_greps(path, p)
    d = greps[0].datum
    for v1 in greps:
        q = free_resolution(v1.module(TAG_I), 4)
        for v2 in greps:
            for emb, tag in ((d.emb1, TAG_K1), (d.emb2, TAG_K2)):
                for diff in q.diffs[1:]:
                    assert np.array_equal(coefficient_delta(diff.map_entries(emb), v2.module(tag)),
                                          coefficient_delta(diff, v2.module(TAG_I)))


def test_mv_complex_builds_only_what_the_cone_reads(all_datums):
    """Cone degrees 0..n read Q, P1, P2 and the lifts through n; the top P blocks
    map by a kernel cover, which extends no resolution."""
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for degree in (0, 1, 3, 6):
                mv = MVComplex(grep2(d, f), trivial_grep(d, f), degree)
                assert len(mv.q.ranks) == degree + 1
                assert len(mv.p[0].ranks) == len(mv.p[1].ranks) == degree + 1
                assert len(mv.delta_p[0]) == len(mv.delta_p[1]) == degree + 1
                assert len(mv.x[0]) == len(mv.x[1]) == degree + 1
                assert len(mv.deltas) == degree + 1


def test_cone_differential_squares_to_zero(all_datums):
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            v1 = grep2(d, f)
            v2 = trivial_grep(d, f)
            mv = MVComplex(v1, v2, 3)
            for j in range(len(mv.deltas) - 1):
                assert not np.any(f.matmul(mv.deltas[j + 1], mv.deltas[j]))


def test_ext_g_degree_zero_equals_direct_hom(all_datums):
    rng = np.random.default_rng(40)
    for d in all_datums:
        for p in (2, 3, 5):
            f = Field(p)
            pairs = [(trivial_grep(d, f), trivial_grep(d, f)),
                     (grep2(d, f), trivial_grep(d, f)),
                     (grep2(d, f), grep2(d, f)),
                     (random_grep(d, f, rng), random_grep(d, f, rng))]
            for v1, v2 in pairs:
                assert ext_G(v1, v2, 0)[0] == len(hom_G_direct(v1, v2))


def test_trivial_hom_g_is_one_dimensional(all_datums):
    for d in all_datums:
        for p in (2, 3, 5):
            f = Field(p)
            k = trivial_grep(d, f)
            assert ext_G(k, k, 0)[0] == 1


def test_d_infinity_f2_known_dims(d_inf):
    f = Field(2)
    k = trivial_grep(d_inf, f)
    assert ext_G(k, k, 5) == [1, 2, 2, 2, 2, 2]


def test_psl2z_f5_vanishing(psl2z):
    f = Field(5)
    k = trivial_grep(psl2z, f)
    assert ext_G(k, k, 4) == [1, 0, 0, 0, 0]


def test_ext1_matches_abelianization_oracle(all_datums):
    for d in all_datums:
        for p in (2, 3, 5):
            f = Field(p)
            k = trivial_grep(d, f)
            assert ext_G(k, k, 1)[1] == abelianized_hom_dim(d, p), (d.name, p)


def test_abelianization_oracle_reference_values(d_inf, psl2z, sl2z):
    assert abelianized_hom_dim(d_inf, 2) == 2
    assert abelianized_hom_dim(sl2z, 2) == 1
    assert abelianized_hom_dim(sl2z, 3) == 1
    assert abelianized_hom_dim(psl2z, 2) == 1
    assert abelianized_hom_dim(psl2z, 3) == 1
    assert abelianized_hom_dim(psl2z, 5) == 0


def looped_abelianized_hom_dim(datum, p):
    """The abelianization relations written one row at a time, as the reference."""
    f = Field(p)
    n1, n2 = datum.K1.order, datum.K2.order
    rows = []
    for group, offset in ((datum.K1, 0), (datum.K2, n1)):
        for x in range(group.order):
            for y in range(group.order):
                row = [0] * (n1 + n2)
                row[offset + group.mul(x, y)] += 1
                row[offset + x] -= 1
                row[offset + y] -= 1
                rows.append(row)
    for i in range(datum.I.order):
        row = [0] * (n1 + n2)
        row[datum.emb1(i)] += 1
        row[n1 + datum.emb2(i)] -= 1
        rows.append(row)
    return len(f.kernel_basis(f.array(rows)))


def test_abelianization_oracle_matches_row_by_row_relations(all_datums):
    # S4 *_{S3} S4: the third generator of S4 is the second one of S3, so S3's
    # generators a, b are S4's elements 1 and 3, and its words multiply out in S4
    s4 = FiniteGroup.from_permutations([[1, 0, 2, 3], [1, 2, 3, 0], [1, 2, 0, 3]])
    s3 = FiniteGroup.from_permutations([[1, 0, 2, 3], [1, 2, 0, 3]])
    image = {"a": 1, "b": 3}
    mapping = [s4.identity if word == "e" else reduce(s4.mul, [image[c] for c in word])
               for word in s3.labels]
    emb = SubgroupEmbedding(s3, s4, mapping)
    assert emb.validate()
    # a trivial group has an empty generating set; in 1 *_1 1 only c(ee) = c(e) + c(e) pins c(e)
    one, z4 = cyclic(1), cyclic(4)
    into_one = SubgroupEmbedding(one, one, [0])
    datums = list(all_datums) + [
        AmalgamDatum(s4, s4, s3, emb, emb, name="s4-s3-s4"),
        AmalgamDatum(one, z4, one, into_one, SubgroupEmbedding(one, z4, [0]), name="1 *_1 Z/4"),
        AmalgamDatum(one, one, one, into_one, into_one, name="1 *_1 1"),
    ]
    for d in datums:
        for p in (2, 3, 5):
            assert abelianized_hom_dim(d, p) == looped_abelianized_hom_dim(d, p), (d.name, p)


def test_hom_sequence_exact_seeded_pairs(all_datums, monkeypatch):
    """Exact at the middle, with the dimensions of hom_space and hom_G_direct,
    from one constraint stack per factor."""
    built = []
    constraints = reps.intertwiner_constraints
    for module in (mayer_vietoris, reps):
        monkeypatch.setattr(module, "intertwiner_constraints",
                            lambda v, w: built.append(v.group) or constraints(v, w))
    rng = np.random.default_rng(99)
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for _ in range(10):
                v1 = random_grep(d, f, rng)
                v2 = random_grep(d, f, rng)
                built.clear()
                out = hom_sequence_check(v1, v2)
                assert built == [d.K1, d.K2]
                assert out["exact_at_middle"], (d.name, p)
                assert out["image_in_kernel"]
                assert out["dim_G"] <= min(out["dim_K1"], out["dim_K2"])
                assert out["dim_G"] == len(hom_G_direct(v1, v2))
                assert out["dim_K1"] == len(hom_space(v1.module(TAG_K1), v2.module(TAG_K1)))
                assert out["dim_K2"] == len(hom_space(v1.module(TAG_K2), v2.module(TAG_K2)))


def test_hom_g_direct_refuses_a_pair_over_two_fields_or_two_amalgams():
    """hom_G_direct and hom_sequence_check share one guard: flip2 over F2 against
    flip2 over F3, and modules over two amalgams, are refused, not answered."""
    d_inf = bundled("d-infinity")
    pairs = [(d_inf.build(2).grep("flip2"), d_inf.build(3).grep("flip2")),
             (bundled("sl2z").build(2).grep("triv"), d_inf.build(2).grep("triv"))]
    for v1, v2 in pairs:
        for check in (hom_G_direct, hom_sequence_check):
            with pytest.raises(GroupMismatch, match="one amalgam and one field"):
                check(v1, v2)


def test_verify_les_trivial_pairs_all_instances(all_datums):
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            k = trivial_grep(d, f)
            rep = verify_les(k, k, 5)
            assert rep.exact, (d.name, p)


def test_verify_les_nontrivial_pairs(all_datums):
    for d in all_datums:
        f = Field(2)
        v = grep2(d, f)
        k = trivial_grep(d, f)
        for v1, v2 in ((v, k), (k, v), (v, v)):
            rep = verify_les(v1, v2, 3)
            assert rep.exact, d.name


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_les_factor_columns_equal_finite_ext(path, p):
    """The report's K1, K2 and I columns are Ext over each finite group, as
    ext_finite computes it, and each K1 x K2 node has their sum for dimension."""
    n = 5
    coefficients = instance_greps(path, p)
    triv = coefficients[0]
    for v2 in coefficients:
        rep = verify_les(triv, v2, n)
        for tag, dims in ((TAG_K1, rep.dims_k[0]), (TAG_K2, rep.dims_k[1]), (TAG_I, rep.dims_i)):
            assert dims == ext_finite(triv.module(tag), v2.module(tag), n).dims, (tag, v2.dim)
        products = [(deg, dim) for deg, node, dim, *_ in rep.nodes if node == "K1xK2"]
        assert products == [(j, rep.dims_k[0][j] + rep.dims_k[1][j]) for j in range(n + 1)]


def test_les_node_rank_identity(sl2z):
    f = Field(2)
    k = trivial_grep(sl2z, f)
    rep = verify_les(k, k, 4)
    for deg, node, dim, rin, rout, imker, exact in rep.nodes:
        assert imker and exact
        assert rin + rout == dim


def test_semisimple_collapse_psl2z_f5(psl2z):
    rng = np.random.default_rng(123)
    f = Field(5)
    pairs = [(trivial_grep(psl2z, f), trivial_grep(psl2z, f)),
             (grep2(psl2z, f), trivial_grep(psl2z, f)),
             (trivial_grep(psl2z, f), grep2(psl2z, f)),
             (grep2(psl2z, f), grep2(psl2z, f)),
             (random_grep(psl2z, f, rng), random_grep(psl2z, f, rng))]
    for v1, v2 in pairs:
        dims = ext_G(v1, v2, 5)
        assert all(x == 0 for x in dims[2:])
        # factor and edge Ext vanish in positive degrees (orders are units)
        mv = MVComplex(v1, v2, 3)
        from amalgext.linalg import subquotient_dim
        for deltas in (mv.delta_p[0], mv.delta_p[1], mv.delta_q):
            for j in range(1, 3):
                assert subquotient_dim(f, deltas[j - 1], deltas[j]) == 0
        rep = verify_les(v1, v2, 3)
        assert rep.exact


def test_ext_g_works_over_f7_smoke(psl2z):
    """7 divides neither factor order and Hom(Z/6, F7) = 0: only Ext^0 survives."""
    f = Field(7)
    k = trivial_grep(psl2z, f)
    assert ext_G(k, k, 2) == [1, 0, 0]


# The D12 / F2 signs4 resolution path of GL2(Z), which no benchmark report covers.
GL2Z_F2_SIGNS4_LES = [
    "# amalgext report format 1",
    "instance: gl2z",
    "command: les",
    "characteristic: 2",
    "v1: triv (dim 1), v2: signs4 (dim 4)",
    "degrees 0..6",
    "ext_G:  4 8 12 16 20 24 28",
    "ext_K1: 4 8 12 16 20 24 28",
    "ext_K2: 4 8 12 16 20 24 28",
    "ext_I:  4 8 12 16 20 24 28",
    "node G deg 0: dim 4 rank_in 0 rank_out 4 im_in_ker yes PASS",
    "node K1xK2 deg 0: dim 8 rank_in 4 rank_out 4 im_in_ker yes PASS",
    "node I deg 0: dim 4 rank_in 4 rank_out 0 im_in_ker yes PASS",
    "node G deg 1: dim 8 rank_in 0 rank_out 8 im_in_ker yes PASS",
    "node K1xK2 deg 1: dim 16 rank_in 8 rank_out 8 im_in_ker yes PASS",
    "node I deg 1: dim 8 rank_in 8 rank_out 0 im_in_ker yes PASS",
    "node G deg 2: dim 12 rank_in 0 rank_out 12 im_in_ker yes PASS",
    "node K1xK2 deg 2: dim 24 rank_in 12 rank_out 12 im_in_ker yes PASS",
    "node I deg 2: dim 12 rank_in 12 rank_out 0 im_in_ker yes PASS",
    "node G deg 3: dim 16 rank_in 0 rank_out 16 im_in_ker yes PASS",
    "node K1xK2 deg 3: dim 32 rank_in 16 rank_out 16 im_in_ker yes PASS",
    "node I deg 3: dim 16 rank_in 16 rank_out 0 im_in_ker yes PASS",
    "node G deg 4: dim 20 rank_in 0 rank_out 20 im_in_ker yes PASS",
    "node K1xK2 deg 4: dim 40 rank_in 20 rank_out 20 im_in_ker yes PASS",
    "node I deg 4: dim 20 rank_in 20 rank_out 0 im_in_ker yes PASS",
    "node G deg 5: dim 24 rank_in 0 rank_out 24 im_in_ker yes PASS",
    "node K1xK2 deg 5: dim 48 rank_in 24 rank_out 24 im_in_ker yes PASS",
    "node I deg 5: dim 24 rank_in 24 rank_out 0 im_in_ker yes PASS",
    "node G deg 6: dim 28 rank_in 0 rank_out 28 im_in_ker yes PASS",
    "node K1xK2 deg 6: dim 56 rank_in 28 rank_out 28 im_in_ker yes PASS",
    "node I deg 6: dim 28 rank_in 28 rank_out 0 im_in_ker yes PASS",
    "long exact sequence: PASS",
    "degree-0 sequence exact: PASS",
    "RESULT: PASS",
]


def test_les_gl2z_f2_signs4_report_is_pinned():
    path = Path(__file__).resolve().parents[1] / "bench" / "instances" / "gl2z.amg"
    code, text = run(["les", str(path), "--char", "2", "--degree", "6", "--v1", "triv", "--v2", "signs4"])
    assert code == 0
    assert text.splitlines() == GL2Z_F2_SIGNS4_LES


S4_S3_S4 = Path(__file__).resolve().parents[1] / "bench" / "instances" / "s4-s3-s4.amg"


def test_ext_s4_s3_s4_f3_is_periodic_through_degree_40():
    """At F3, restriction from S4 to S3 is an isomorphism on cohomology (S3 is the
    normalizer of a Sylow 3-subgroup), so Ext over G is H*(S3; F3): 1 at degrees
    0 and 3 mod 4, else 0.  The factor resolutions repeat from low degree on."""
    v = parse(str(S4_S3_S4)).build(3).grep("triv")
    assert ext_G(v, v, 40) == [1 if j % 4 in (0, 3) else 0 for j in range(41)]


def test_ext_s4_s3_s4_f2_matches_the_closed_form_through_degree_24():
    """At F2, restriction H*(S4) -> H*(S3) is onto, so Mayer-Vietoris splits: Ext^j
    over G is 2 h(j) - 1 for j >= 1, with h(j) = dim H^j(S4; F2), whose Poincare
    series is (1 + t^2) / ((1 - t)(1 - t^3)), and dim H^j(S3; F2) = 1."""
    v = parse(str(S4_S3_S4)).build(2).grep("triv")

    def h(j):
        return j // 3 + (j + 1) // 3 + 1

    dims = ext_G(v, v, 24)
    assert dims == [1] + [2 * h(j) - 1 for j in range(1, 25)]
    assert dims == [1, 1, 3, 5, 5, 7, 9, 9, 11, 13, 13, 15, 17, 17, 19, 21, 21,
                    23, 25, 25, 27, 29, 29, 31, 33]


def test_ext_s4_eliminates_each_operator_once(monkeypatch):
    """ext s4-s3-s4.amg --char 2 --degree 3 makes 11 rref calls: Q's kernels of d_0,
    d_1 and d_2, P's of its augmentation, one lift solve for each of d_1, d_2 and d_3
    of P, whose kernels P takes, and the cone's four maps (the abelianization
    oracle ranks a span).  No operator is solved against twice."""
    solved, rrefs = [], []
    solve, rref = Field.solve, Field.rref
    monkeypatch.setattr(Field, "solve", lambda f, a, b: solved.append(array_key(f.array(a))) or solve(f, a, b))
    monkeypatch.setattr(Field, "rref", lambda f, a: rrefs.append(np.shape(a)) or rref(f, a))
    code, _ = run(["ext", str(S4_S3_S4), "--char", "2", "--degree", "3"])
    assert code == 0 and len(rrefs) == 11
    assert len(solved) == len(set(solved)) == 7


def test_a_lift_into_a_zero_module_solves_nothing(monkeypatch):
    """les gl2z.amg --char 3 --degree 8 resolves its D8 end over the trivial group,
    where P_j = 0 from degree 1 on: the lifts there are the empty map, with no solve
    against the empty d_P,j.  The four lift solves left are the S3 end's."""
    solved = []
    solve, lift = Field.solve, mayer_vietoris.chain_lift_pi.__code__

    def counted(f, a, b):
        if sys._getframe(1).f_code is lift:  # a solve chain_lift_pi makes itself
            solved.append(np.shape(a))
        return solve(f, a, b)

    monkeypatch.setattr(Field, "solve", counted)
    path = Path(__file__).resolve().parents[1] / "bench" / "instances" / "gl2z.amg"
    code, _ = run(["les", str(path), "--char", "3", "--degree", "8", "--v1", "triv", "--v2", "signs4"])
    assert code == 0
    assert len(solved) == 4 and all(columns for _rows, columns in solved), solved


def _cover_by_the_next_differential(res, n):
    """kernel_cover as a cone resolved one degree further reads it: d_{n+1}."""
    res.extend(n + 1)
    return res.diffs[n + 1]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_a_kernel_cover_closes_the_cone_as_the_next_differential_does(path, p, monkeypatch):
    """Through degree 6, the cone (ext_G) and ext_finite closed by kernel_cover(n)
    give the dims of the complexes built from free_resolution(m, n + 1), and the
    same top-degree cocycle arrays, byte for byte; no resolution goes past n."""
    coefficients = instance_greps(path, p)
    triv = coefficients[0]
    for v1, v2 in [(triv, v) for v in coefficients] + [(v, triv) for v in coefficients[1:]]:
        for n in range(7):
            mv = MVComplex(v1, v2, n)
            assert {len(mv.p[0].ranks), len(mv.p[1].ranks)} == {n + 1}
            with monkeypatch.context() as m:
                m.setattr(FreeResolution, "kernel_cover", _cover_by_the_next_differential)
                ref = MVComplex(v1, v2, n)
            assert len(ref.p[0].ranks) == n + 2
            assert mv.dims() == ref.dims(), (v1.dim, v2.dim, n)
            assert array_key(mv.cone.cocycles[n]) == array_key(ref.cone.cocycles[n])
            for tag in (TAG_K1, TAG_K2, TAG_I):
                m1, m2 = v1.module(tag), v2.module(tag)
                own = ext_finite(m1, m2, n)
                full = ext_finite(m1, m2, n, resolution=free_resolution(m1, n + 1))
                assert own.dims == full.dims, (tag, n)
                assert array_key(own.cocycles[n]) == array_key(full.cocycles[n])


def _quotient_map(emb, edge, cut):
    """The map I/N_I -> K/N_K that emb induces, as the cone lifts along it."""
    return SubgroupEmbedding(edge.group, cut.group, cut.projection[emb.mapping[edge.reps]])


def _two_pass(v1, v2, n, mv):
    """The cone as resolving first and lifting after builds it, over the same
    quotients: Q and each P from free_resolution of V1 over I/N_I and K/N_K
    (each kernel by its own kernel_matrix), each d_j of P taken times the unit
    that makes it mv's (the cone rescales d_P,j where the lifts repeat up to a
    unit; any other difference fails here), each lift degree by a standalone
    solve along I/N_I -> K/N_K, the top closed by kernel_cover(n) of the
    resolved P, the lift blocks followed by W^N_K in W^N_I as a Kronecker
    product, and the cone's differentials assembled from these blocks.
    Returns (Q, [(P, lifts) per factor], differentials)."""
    d, f = v1.datum, v1.field
    edge, cuts = vertex_quotients(v1)
    q = free_resolution(edge.inflated(v1.module(TAG_I)), n)
    w_i, _, free_i = edge.fixed(v2.module(TAG_I))
    factors, maps = [], []
    for (tag, emb), cut, own in zip(d.ends, cuts, mv.p):
        bar = _quotient_map(emb, edge, cut)
        res, k = free_resolution(cut.inflated(v1.module(tag)), n), cut.group
        for j in range(1, n + 1):
            units = [c for c in range(1, f.p) if np.array_equal(own.diffs[j].coeffs, f.scale(c, res.diffs[j].coeffs))]
            assert units, j  # 1 comes first, and any unit fits a zero d_j
            res.diffs[j] = res.diffs[j] if units[0] == 1 else AlgebraMatrix(k, f, f.scale(units[0], res.diffs[j].coeffs))
        phi = f.zeros(q.ranks[0], res.ranks[0], k.order)
        phi[:, :, k.identity] = f.eye(q.ranks[0])
        lifts = [AlgebraMatrix(k, f, phi)]
        for j in range(1, n + 1):
            image = q.diffs[j].map_entries(bar).mul(lifts[-1])
            rhs = image.coeffs.reshape(q.ranks[j], res.ranks[j - 1] * k.order).T
            sols, _ = f.solve(res.diff_operator(j), rhs)
            lifts.append(AlgebraMatrix(k, f, sols.T.reshape(q.ranks[j], res.ranks[j], k.order)))
        factors.append((res, lifts))
        w, basis, _ = cut.fixed(v2.module(tag))
        inclusion = f.eye(w.dim) if basis is None else basis if free_i is None else basis[free_i]
        maps.append(([f.matmul(np.kron(f.eye(x.rows), inclusion), coefficient_delta(x, w)) for x in lifts],
                      [coefficient_delta(m, w) for m in res.diffs[1:] + [res.kernel_cover(n)]],
                      w.dim))
    (phi1, out1, d1), (phi2, out2, d2) = maps
    deltas = []
    for j in range(n + 1):
        a = q.ranks[j - 1] * w_i.dim if j else 0
        b1, b2 = factors[0][0].ranks[j] * d1, factors[1][0].ranks[j] * d2
        top = q.ranks[j] * w_i.dim
        delta = f.zeros(top + len(out1[j]) + len(out2[j]), a + b1 + b2)
        if j:
            delta[:top, :a] = f.neg(coefficient_delta(q.diffs[j], w_i))
        delta[:top, a : a + b1] = phi1[j]
        delta[:top, a + b1 :] = f.neg(phi2[j])
        delta[top : top + len(out1[j]), a : a + b1] = out1[j]
        delta[top + len(out1[j]) :, a + b1 :] = out2[j]
        deltas.append(delta)
    return q, factors, deltas


def _glued_twice(f):
    """K *_{Z/2} K with Z/2 sent to two different involutions, K = V4 at F2 and S3
    at F3, where N = 1: K2 is K1, so one resolution serves both factors, but the
    two lifts into it differ."""
    z2 = cyclic(2)
    if f.p == 2:
        k = FiniteGroup.from_permutations([[1, 0, 3, 2], [2, 3, 0, 1]])
    else:
        k = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    involutions = [x for x in range(k.order) if x != k.identity and k.mul(x, x) == k.identity]
    d = AmalgamDatum(k, k, z2, SubgroupEmbedding(z2, k, [k.identity, involutions[0]]),
                     SubgroupEmbedding(z2, k, [k.identity, involutions[1]]))
    return trivial_grep(d, f)


def _assert_lockstep_is_two_pass(v1, v2):
    for n in range(7):
        mv = MVComplex(v1, v2, n)
        q, ((p1, x1), (p2, x2)), deltas = _two_pass(v1, v2, n, mv)
        for own, ref in ((mv.q, q), (mv.p[0], p1), (mv.p[1], p2)):
            assert own.ranks == ref.ranks, n
            assert array_key(own.group.table) == array_key(ref.group.table)
            assert [array_key(m.coeffs) for m in own.diffs[1:]] == [array_key(m.coeffs) for m in ref.diffs[1:]]
        for own, ref in ((mv.x[0], x1), (mv.x[1], x2)):
            assert [array_key(x.coeffs) for x in own] == [array_key(x.coeffs) for x in ref], n
        assert [array_key(m) for m in mv.deltas] == [array_key(m) for m in deltas], n


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_the_lockstep_cone_is_the_two_pass_cone(path, p):
    """Through degree 6, MVComplex, which resolves each P in the loop that lifts into
    it and takes each kernel from the lift's elimination, builds the differentials,
    lifts and cone differentials of resolving first and lifting after, byte for byte."""
    coefficients = instance_greps(path, p)
    triv = coefficients[0]
    for v1, v2 in [(triv, v) for v in coefficients] + [(v, triv) for v in coefficients[1:]]:
        _assert_lockstep_is_two_pass(v1, v2)


@pytest.mark.parametrize("p", [2, 3])
def test_two_lifts_into_one_resolution_share_each_elimination(p, monkeypatch):
    """When K2 is K1 but I is glued in twice, both lifts of a degree solve against
    d_P,j in one elimination, and give what two standalone solves give."""
    v = _glued_twice(Field(p))
    _assert_lockstep_is_two_pass(v, v)
    solved = []
    solve = Field.solve
    monkeypatch.setattr(Field, "solve", lambda f, a, b: solved.append(np.shape(b)) or solve(f, a, b))
    mv = MVComplex(v, v, 4)
    assert mv.p[1] is mv.p[0] and mv.x[1] is not mv.x[0]
    assert mv.p[0].group is v.datum.K1  # N = 1: the cone resolves over K itself
    # one lift solve per degree, on the columns of both sides (kernel_matrix solves none)
    assert [shape[1] for shape in solved if shape[1]] == [2 * mv.q.ranks[j] for j in range(1, 5)]


@pytest.mark.parametrize("p", [2, 3])
def test_a_repeated_factor_is_resolved_and_lifted_once(p):
    """On s4-s3-s4 the two factors, their actions and the embeddings of I are
    equal, so K2's resolution, lift and coefficient complexes are K1's objects,
    and these equal, entry for entry, what K2's own resolution over K2/N and lift
    give through degree n; the top coefficient map has the cocycles of K2's own
    d_{n+1}.  At F2, N = 1; at F3, N = V4 and both vertices resolve over S4/V4,
    which is S3 by one table."""
    v = parse(str(S4_S3_S4)).build(p).grep("triv")
    d, n = v.datum, 6
    mv = MVComplex(v, v, n)
    assert mv.p[1] is mv.p[0] and mv.x[1] is mv.x[0] and mv.delta_p[1] is mv.delta_p[0]
    edge, (cut1, cut2) = vertex_quotients(v)
    assert [len(cut.normal) for cut in (edge, cut1, cut2)] == ([1, 1, 1] if p == 2 else [1, 4, 4])
    assert mv.p[0].group.order == (24 if p == 2 else 6)
    assert array_key(cut1.group.table) == array_key(cut2.group.table)
    m2, (w2, _, _) = cut2.inflated(v.module(TAG_K2)), cut2.fixed(v.module(TAG_K2))
    p2 = free_resolution(m2, n)
    q = free_resolution(edge.inflated(v.module(TAG_I)), n)
    x2, = chain_lift_pi([_quotient_map(d.emb2, edge, cut2)], q, p2, n)
    assert mv.p[1].ranks == p2.ranks
    for j in range(1, n + 1):
        assert np.array_equal(mv.p[1].diffs[j].coeffs, p2.diffs[j].coeffs)
        assert np.array_equal(mv.delta_p[1][j - 1], coefficient_delta(p2.diffs[j], w2))
    own_top = coefficient_delta(free_resolution(m2, n + 1).diffs[n + 1], w2)
    assert array_key(CochainComplex(p2.field, [mv.delta_p[1][n]]).cocycles[0]) == \
        array_key(CochainComplex(p2.field, [own_top]).cocycles[0])
    assert len(mv.x[1]) == len(x2)
    for shared, own in zip(mv.x[1], x2):
        assert np.array_equal(shared.coeffs, own.coeffs)


@pytest.mark.parametrize("p", [2, 3])
def test_d_infinity_shares_the_flip2_coefficients_only_over_the_quotient(p):
    """K1 = K2 = Z/2 over the trivial subgroup: triv's resolution and lift serve
    both factors.  flip2 acts by different matrices on the two, so at F2 (N = 1)
    the coefficient complexes differ; at F3, N = Z/2 and each fixed line is the
    trivial module of the trivial group, so they are one complex."""
    built = bundled("d-infinity").build(p)
    mv = MVComplex(built.grep("triv"), built.grep("flip2"), 4)
    assert mv.p[1] is mv.p[0] and mv.x[1] is mv.x[0]
    assert (mv.delta_p[1] is mv.delta_p[0]) == (p == 3)
    assert mv.p[0].group.order == (2 if p == 2 else 1)
    code, text = run(["les", str(FIXTURES / "d-infinity.amg"), "--char", str(p), "--degree", "3",
                      "--v1", "triv", "--v2", "flip2"])
    assert code == 0 and text.splitlines()[-1] == "RESULT: PASS"


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["gl2z", "sl2z"])
def test_distinct_factors_share_nothing(name, p):
    path, = [path for path in INSTANCE_FILES if path.stem == name]
    greps = instance_greps(path, p)
    for v1 in greps:
        for v2 in greps:
            mv = MVComplex(v1, v2, 3)
            assert mv.p[1] is not mv.p[0] and mv.x[1] is not mv.x[0]
            assert mv.delta_p[1] is not mv.delta_p[0]


def s4_report(path, command, p, degree) -> list[str]:
    """The lines of an ext or les report on triv but the instance name."""
    code, out = run([command, str(path), "--char", str(p), "--degree", str(degree)])
    assert code == 0
    return [line for line in out.splitlines() if not line.startswith("instance:")]


def renumbered(old: FiniteGroup, new: FiniteGroup, names) -> np.ndarray:
    """The isomorphism old -> new, as an index map, that sends each named
    generator to the generator of that name."""
    gens = [(old.labels.index(s), new.labels.index(s)) for s in names]
    image = {old.identity: new.identity}
    frontier = [old.identity]
    for x in frontier:  # a queue: it grows as the loop runs
        for g_old, g_new in gens:
            y = int(old.table[x, g_old])
            if y not in image:
                image[y] = int(new.table[image[x], g_new])
                frontier.append(y)
    return np.array([image[x] for x in range(old.order)])


@pytest.mark.parametrize("p", [2, 3])
def test_reordered_s4_s3_s4_reports_what_the_shared_run_reports(p, tmp_path):
    """The oracle without sharing: s4-s3-s4 with K2's generators listed in the other
    order numbers K2 otherwise, so at F2 nothing is shared (at F3 only the
    resolution over S4/V4 is), and every ext and les line but the instance name
    is the shared run's."""
    text = S4_S3_S4.read_text(encoding="utf-8")
    old = parse(str(S4_S3_S4)).datum
    k2 = FiniteGroup.from_permutations([[1, 2, 3, 0], [1, 0, 2, 3]], gen_names=["d", "c"])
    assert not np.array_equal(k2.table, old.K2.table)
    mapping = " ".join(str(x) for x in renumbered(old.K2, k2, "cd")[old.emb2.mapping])
    emb2 = "embed K2 = " + " ".join(str(x) for x in old.emb2.mapping)
    text = text.replace("perm c = 1 0 2 3\nperm d = 1 2 3 0", "perm d = 1 2 3 0\nperm c = 1 0 2 3")
    text = text.replace(emb2, f"embed K2 = {mapping}").replace("name = s4-s3-s4", "name = reordered")
    path = tmp_path / "reordered.amg"
    path.write_text(text, encoding="utf-8")

    v = parse(str(path)).build(p).grep("triv")
    assert np.array_equal(v.datum.K2.table, k2.table)
    mv = MVComplex(v, v, 2)
    # at F2, N = 1 and the tables differ; at F3 both vertices resolve over S4/V4,
    # whose cosets numbered by least element give one table, and only the lifts differ
    assert (mv.p[1] is mv.p[0]) == (p == 3) and mv.x[1] is not mv.x[0]

    for command, degree in (("ext", 12), ("les", 6)):
        assert s4_report(path, command, p, degree) == s4_report(S4_S3_S4, command, p, degree)


@pytest.mark.parametrize("p", [2, 3])
def test_a_conjugated_embedding_shares_the_resolution_but_not_the_lift(p, tmp_path):
    """s4-s3-s4 with I embedded into K2 by a conjugate of K1's embedding: the factor
    tables and actions agree, so P2 is P1, but the lifts of the counit differ.  The
    amalgam is the same group, so every ext and les line but the name is the same."""
    text = S4_S3_S4.read_text(encoding="utf-8")
    old = parse(str(S4_S3_S4)).datum
    k2, g = old.K2, old.K2.labels.index("d")
    conjugate = k2.table[k2.table[g, old.emb2.mapping], k2.inverse_table[g]]
    assert not np.array_equal(conjugate, old.emb2.mapping)
    emb2 = "embed K2 = " + " ".join(str(x) for x in old.emb2.mapping)
    text = text.replace(emb2, "embed K2 = " + " ".join(str(x) for x in conjugate))
    path = tmp_path / "conjugated.amg"
    path.write_text(text.replace("name = s4-s3-s4", "name = conjugated"), encoding="utf-8")

    v = parse(str(path)).build(p).grep("triv")
    mv = MVComplex(v, v, 2)
    assert mv.p[1] is mv.p[0] and mv.delta_p[1] is mv.delta_p[0] and mv.x[1] is not mv.x[0]
    for command, degree in (("ext", 12), ("les", 6)):
        assert s4_report(path, command, p, degree) == s4_report(S4_S3_S4, command, p, degree)


def _les_nodes_from_scratch(v1, v2, n):
    """verify_les's node tuples with every degree ranked anew: each membership is
    a dense reduction, and nothing is carried from one degree to the next but
    the connecting rank and image."""
    f = v1.field
    mv = MVComplex(v1, v2, n + 1)
    cone = mv.cone
    k1 = CochainComplex(f, mv.delta_p[0][: n + 1])
    k2 = CochainComplex(f, mv.delta_p[1][: n + 1])
    edge = CochainComplex(f, mv.delta_q)

    def zero_mod(span, rows):
        return not span.reduce(rows).any()

    nodes, conn_rank, conn_image = [], 0, None
    for j in range(n + 1):
        a, b1, _ = mv._sizes(j)
        height = sum(mv._sizes(j + 1))
        k1_b, k2_b = k1.coboundaries(j), k2.coboundaries(j)
        edge_b, cone_b = edge.coboundaries(j), cone.coboundaries(j + 1)
        phi = mv.deltas[j][: mv._sizes(j + 1)[0], a:]
        proj = cone.cocycles[j][a:].T
        proj_rank = f.rank(np.concatenate([k1_b.reduce(proj[:, :b1]), k2_b.reduce(proj[:, b1:])], axis=1))
        comp = np.concatenate([f.matmul(phi[:, :b1], k1.cocycles[j]),
                               f.matmul(phi[:, b1:], k2.cocycles[j])], axis=1)
        comp_rank = f.rank(np.concatenate([edge_b.basis, comp.T])) - len(edge_b)
        in_g = j == 0 or (zero_mod(k1_b, conn_image[a : a + b1].T) and zero_mod(k2_b, conn_image[a + b1 :].T))
        nodes.append((j, "G", cone.dims[j], conn_rank, proj_rank, in_g, conn_rank + proj_rank == cone.dims[j]))
        prod_dim = k1.dims[j] + k2.dims[j]
        nodes.append((j, "K1xK2", prod_dim, proj_rank, comp_rank, zero_mod(edge_b, f.matmul(phi, proj.T).T),
                      proj_rank + comp_rank == prod_dim))
        conn_image = f.zeros(height, edge.cocycles[j].shape[1])
        conn_image[: len(edge.cocycles[j])] = edge.cocycles[j]
        conn_out = f.rank(np.concatenate([cone_b.basis, conn_image.T])) - len(cone_b)
        comp_up = f.zeros(height, comp.shape[1])
        comp_up[: len(comp)] = comp
        nodes.append((j, "I", edge.dims[j], comp_rank, conn_out, zero_mod(cone_b, comp_up.T),
                      comp_rank + conn_out == edge.dims[j]))
        conn_rank = conn_out
    return nodes


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_les_nodes_equal_a_per_degree_recomputation(path, p):
    """Through degree 8, where periodic inputs repeat whole degrees, every node of
    verify_les is the one its own degree gives when ranked from scratch, for the
    trivial module against each coefficient module of the file (as `les` runs)."""
    coefficients = instance_greps(path, p)
    triv = coefficients[0]
    for v2 in coefficients:
        assert verify_les(triv, v2, 8).nodes == _les_nodes_from_scratch(triv, v2, 8), v2.dim


@pytest.mark.parametrize("p, degree, ext_g", [
    (3, 24, [1, 0, 0, 1] * 6 + [1]),
    (2, 16, [j + 1 for j in range(17)]),
])
def test_deep_les_on_gl2z_is_known(p, degree, ext_g):
    """GL2(Z) = D8 *_{V4} D12 with trivial coefficients: Ext_G is 1 0 0 1 repeated
    over F3, and j + 1 in degree j over F2; the sequence is exact throughout."""
    path = Path(__file__).resolve().parents[1] / "bench" / "instances" / "gl2z.amg"
    code, text = run(["les", str(path), "--char", str(p), "--degree", str(degree)])
    lines = text.splitlines()
    assert code == 0
    assert "ext_G:  " + " ".join(map(str, ext_g)) in lines
    assert lines[-1] == "RESULT: PASS"


def swapped_vertices(text: str) -> str:
    """The .amg text of K2 *_I K1: the two vertex sections, the embed lines, the
    grep matrices and the module groups trade tags."""
    return re.sub(r"^(\[group |embed |mat |group = )K([12])\b",
                  lambda m: f"{m[1]}K{3 - int(m[2])}", text, flags=re.M)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_swapping_the_vertices_swaps_only_their_ext_lines(path, p, tmp_path):
    """K1 *_I K2 and K2 *_I K1 are one group with one edge.  With the vertices
    listed in the other order, ext reports the same Ext over G and les the same
    lines, node for node, but ext_K1 and ext_K2, which trade places; for triv
    against triv and against each grep of the file."""
    swapped = tmp_path / path.name
    swapped.write_text(swapped_vertices(path.read_text(encoding="utf-8")), encoding="utf-8")
    old, new = parse(str(path)).datum, parse(str(swapped)).datum
    assert array_key(new.K1.table) == array_key(old.K2.table)
    assert array_key(new.emb2.mapping) == array_key(old.emb1.mapping)
    try:
        names = ["triv"] + sorted(parse(str(path)).build(p).greps)
    except ValidationError:  # some grep is not a representation in this characteristic
        names = ["triv"]
    for name in names:
        reports = [[run([command, str(amg), "--char", str(p), "--degree", str(degree), "--v2", name])
                    for command, degree in (("ext", 8), ("les", 5))] for amg in (path, swapped)]
        assert all(code == 0 for pair in reports for code, _ in pair)
        (ext, les), (swapped_ext, swapped_les) = [[text.splitlines() for _, text in pair] for pair in reports]
        assert swapped_ext == ext, name
        k1, k2 = (next(i for i, x in enumerate(les) if x.startswith(tag)) for tag in ("ext_K1:", "ext_K2:"))
        les[k1], les[k2] = "ext_K1:" + les[k2][7:], "ext_K2:" + les[k1][7:]
        assert swapped_les == les, name


VERTEX_NAMES = {"K1", "K2", "emb1", "emb2", "module1", "module2", "TAG_K1", "TAG_K2"}


def vertex_names(source: str) -> list[tuple[int, str]]:
    """(line, word) of each VERTEX_NAMES word the code names: an identifier, an
    attribute, an argument, an imported name or a word of a string that is not
    a docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words = re.split(r"[^A-Za-z0-9]+", node.value)
        else:
            words = [getattr(node, name) for name in ("id", "attr", "arg", "name", "asname")
                     if isinstance(getattr(node, name, None), str)]
        found += [(getattr(node, "lineno", 0), w) for w in words if w in VERTEX_NAMES]
    return sorted(found)


def test_vertex_scan_finds_a_named_vertex():
    source = ('"""K1 and K2 in a docstring are prose."""\n'
              'from amalgext.amalgam import TAG_K1\n'
              'def f(d, module2):\n    return d.emb1, "ext_K2", "K1xK2"\n')
    assert vertex_names(source) == [(2, "TAG_K1"), (3, "module2"), (4, "K2"), (4, "emb1")]


def test_the_cone_reads_its_vertices_from_the_ends_list_only():
    """mayer_vietoris.py names no vertex: the cone, the LES and the oracles beside
    them read every vertex from AmalgamDatum.ends."""
    source = Path(mayer_vietoris.__file__).read_text(encoding="utf-8")
    assert vertex_names(source) == []
