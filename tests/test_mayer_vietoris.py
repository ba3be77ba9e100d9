from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2, AmalgamDatum
from amalgext.cli import run
from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.induction import trivial_grep
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.mayer_vietoris import (
    MVComplex,
    abelianized_hom_dim,
    chain_lift_pi,
    ext_G,
    hom_G_direct,
    hom_sequence_check,
    verify_les,
)
from amalgext.resolutions import (
    AlgebraMatrix,
    LiftFailed,
    coefficient_delta,
    ext_finite,
    free_resolution,
)

from conftest import INSTANCE_FILES, cyclic, grep2, instance_greps, random_grep


def test_chain_lift_degree_zero_compatibility(sl2z):
    f = Field(2)
    v1 = grep2(sl2z, f)
    for side in (1, 2):
        emb = sl2z.emb1 if side == 1 else sl2z.emb2
        q = free_resolution(v1.module(TAG_I), 3)
        p = free_resolution(v1.module(TAG_K1 if side == 1 else TAG_K2), 3)
        lifts = chain_lift_pi(sl2z, side, q, p, 3)
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
                col[i * n + g] = f.one
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
        for side, K, tag in ((1, d.K1, TAG_K1), (2, d.K2, TAG_K2)):
            phi0, = chain_lift_pi(d, side, q, free_resolution(v.module(tag), 0), 0)
            identity = f.zeros(v.dim, v.dim, K.order)
            identity[np.arange(v.dim), np.arange(v.dim), K.identity] = f.one
            assert np.array_equal(phi0.coeffs, identity)


def test_a_lift_without_solution_names_its_degree(sl2z):
    f = Field(2)
    v = grep2(sl2z, f)
    q = free_resolution(v.module(TAG_I), 3)
    p = free_resolution(v.module(TAG_K1), 3)
    d2 = p.diffs[2]
    p.diffs[2] = AlgebraMatrix(d2.group, f, f.zeros(*d2.coeffs.shape))
    with pytest.raises(LiftFailed, match="degree-2 lift has no solution"):
        chain_lift_pi(sl2z, 1, q, p, 3)


def test_chain_lift_equations_hold(all_datums):
    f = Field(2)
    for d in all_datums:
        v1 = grep2(d, f)
        for side in (1, 2):
            emb = d.emb1 if side == 1 else d.emb2
            tag = TAG_K1 if side == 1 else TAG_K2
            q = free_resolution(v1.module(TAG_I), 4)
            p = free_resolution(v1.module(tag), 4)
            lifts = chain_lift_pi(d, side, q, p, 4)
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
            lifts = chain_lift_pi(d, side, q, res, 12)
            first = {}
            for j in range(1, 13):
                if not q.ranks[j]:
                    continue
                rows = q.diffs[j].map_entries(emb).coeffs.reshape(q.ranks[j], -1)
                targets = f.matmul(lifts[j - 1].to_k_matrix().T, rows.T)
                sols = f.solve(res.diff_operator(j), targets)
                assert lifts[j].coeffs.tobytes() == sols.T.tobytes()
                key = id(res.diffs[j]), id(q.diffs[j]), lifts[j - 1].coeffs.tobytes()
                if first.setdefault(key, j) < j:
                    assert lifts[j] is lifts[first[key]]
                    reused += 1
    assert bool(reused) == ((path.stem, p) in LIFTS_REPEAT)


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
    """Cone degrees 0..n read Q through n, P1 and P2 through n + 1, the lifts through n."""
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for degree in (0, 1, 3, 6):
                mv = MVComplex(grep2(d, f), trivial_grep(d, f), degree)
                assert len(mv.q.ranks) == degree + 1
                assert len(mv.p1.ranks) == len(mv.p2.ranks) == degree + 2
                assert len(mv.x1) == len(mv.x2) == degree + 1
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


def test_hom_sequence_exact_seeded_pairs(all_datums):
    rng = np.random.default_rng(99)
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for _ in range(10):
                v1 = random_grep(d, f, rng)
                v2 = random_grep(d, f, rng)
                out = hom_sequence_check(v1, v2)
                assert out["exact_at_middle"], (d.name, p)
                assert out["image_in_kernel"]
                assert out["dim_G"] <= min(out["dim_K1"], out["dim_K2"])


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
        for tag, dims in ((TAG_K1, rep.dims_k1), (TAG_K2, rep.dims_k2), (TAG_I, rep.dims_i)):
            assert dims == ext_finite(triv.module(tag), v2.module(tag), n).dims, (tag, v2.dim)
        products = [(deg, dim) for deg, node, dim, *_ in rep.nodes if node == "K1xK2"]
        assert products == [(j, rep.dims_k1[j] + rep.dims_k2[j]) for j in range(n + 1)]


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
        for deltas in (mv.delta_p1, mv.delta_p2, mv.delta_q):
            for j in range(1, 3):
                assert subquotient_dim(f, deltas[j - 1], deltas[j]) == 0
        rep = verify_les(v1, v2, 3)
        assert rep.exact


def test_ext_g_works_over_rationals_smoke(psl2z):
    f = Field(0)
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


def test_ext_s4_s3_s4_f2_matches_the_closed_form_through_degree_16():
    """At F2, restriction H*(S4) -> H*(S3) is onto, so Mayer-Vietoris splits: Ext^j
    over G is 2 h(j) - 1 for j >= 1, with h(j) = dim H^j(S4; F2), whose Poincare
    series is (1 + t^2) / ((1 - t)(1 - t^3)), and dim H^j(S3; F2) = 1."""
    v = parse(str(S4_S3_S4)).build(2).grep("triv")

    def h(j):
        return j // 3 + (j + 1) // 3 + 1

    dims = ext_G(v, v, 16)
    assert dims == [1] + [2 * h(j) - 1 for j in range(1, 17)]
    assert dims == [1, 1, 3, 5, 5, 7, 9, 9, 11, 13, 13, 15, 17, 17, 19, 21, 21]
