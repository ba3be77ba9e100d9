from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.induction import conjugate_grep, grep_from_generators
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.reps import (
    KModule,
    NotIntertwiner,
    conjugate_module,
    frobenius_inverse,
    frobenius_map,
    hom_space,
    induce_module,
    iota_matrix,
    module_from_generators,
    pi_matrix,
    regular_module,
    restrict_module,
    trivial_module,
)


def character(module, x):
    return module.field.reduce(np.trace(module.mats[x]))


def sign_module_z2(field):
    z2 = FiniteGroup.cyclic(2)
    return KModule(z2, field, [field.eye(1), field.array([[-1]])])


def test_module_validation_catches_broken_action():
    z2 = FiniteGroup.cyclic(2)
    f = Field(3)
    with pytest.raises(ValueError):
        KModule(z2, f, [f.eye(2), f.array([[1, 1], [0, 1]])])  # order 3 mod 3, not 2


def test_hom_space_trivial_pair():
    z2 = FiniteGroup.cyclic(2)
    f = Field(3)
    t = trivial_module(z2, f)
    assert len(hom_space(t, t)) == 1


def test_hom_space_trivial_vs_sign_f3():
    f = Field(3)
    t = trivial_module(FiniteGroup.cyclic(2), f)
    s = sign_module_z2(f)
    # different groups objects would be rejected; rebuild over one group
    s2 = KModule(t.group, f, [f.eye(1), f.array([[-1]])])
    assert hom_space(t, s2) == []


def test_hom_space_regular_z3_vs_trivial_f2_brute_force():
    z3 = FiniteGroup.cyclic(3)
    f = Field(2)
    reg = regular_module(z3, f)
    triv = trivial_module(z3, f)
    basis = hom_space(reg, triv)
    # independent oracle: enumerate all 2^3 candidate 1x3 intertwiners
    solutions = []
    for bits in product((0, 1), repeat=3):
        s = f.array([list(bits)])
        if all(np.array_equal(f.matmul(s, reg.mats[g]), f.matmul(triv.mats[g], s)) for g in range(3)):
            solutions.append(bits)
    assert len(basis) == 1
    assert len(solutions) == 2 ** len(basis)


def test_hom_space_dimension_invariant_under_basis_change():
    z4 = FiniteGroup.cyclic(4)
    f = Field(2)
    rng = np.random.default_rng(3)
    v = regular_module(z4, f)
    w = trivial_module(z4, f, 2)
    d0 = len(hom_space(v, w))
    p = f.random_invertible(rng, v.dim)
    q = f.random_invertible(rng, w.dim)
    assert len(hom_space(conjugate_module(v, p), conjugate_module(w, q))) == d0


def test_induce_from_trivial_subgroup_is_regular():
    z2 = FiniteGroup.cyclic(2)
    one = FiniteGroup.cyclic(1)
    f = Field(5)
    emb = SubgroupEmbedding(one, z2, [0])
    ind = induce_module(emb, trivial_module(one, f))
    reg = regular_module(z2, f)
    assert ind.module.dim == 2
    assert all(np.array_equal(ind.module.mats[g], reg.mats[g]) for g in range(2))


def test_induce_index_two_dimension(sl2z):
    f = Field(2)
    ind = induce_module(sl2z.emb1, trivial_module(sl2z.I, f))
    assert ind.module.dim == 2
    ind.module.validate()


def test_induced_character_equals_induced_character_formula_over_q(sl2z):
    # I = Z/2 inside K2 = Z/6, rationals, both the trivial and the sign module
    f = Field(0)
    emb = sl2z.emb2
    K, I = emb.target, emb.source
    for source in (trivial_module(I, f), KModule(I, f, [f.eye(1), f.array([[-1]])])):
        ind = induce_module(emb, source)
        image = set(emb.image())
        for k in range(K.order):
            total = Fraction(0)
            for g in ind.reps:
                conj = K.mul(K.mul(g, k), K.inv(g))
                if conj in image:
                    total += character(source, emb.preimage(conj))
            assert character(ind.module, k) == total


def test_pi_iota_identity_exhaustive_and_seeded(sl2z):
    f = Field(3)
    rng = np.random.default_rng(0)
    for emb in (sl2z.emb1, sl2z.emb2):
        ambient = regular_module(emb.target, f)
        restricted = restrict_module(emb, ambient)
        ind = induce_module(emb, restricted)
        io = iota_matrix(ind)
        proj = pi_matrix(ind, ambient)
        comp = f.matmul(proj, io)
        assert np.array_equal(comp, f.eye(ambient.dim))
        for _ in range(500):
            v = f.random_matrix(rng, ambient.dim, 1)
            assert np.array_equal(f.matmul(comp, v), v)


def test_iota_is_equivariant_for_subgroup_elements(sl2z):
    f = Field(2)
    emb = sl2z.emb1
    ambient = regular_module(emb.target, f)
    m = restrict_module(emb, ambient)
    ind = induce_module(emb, m)
    io = iota_matrix(ind)
    for i in range(emb.source.order):
        lhs = f.matmul(io, m.mats[i])
        rhs = f.matmul(ind.module.mats[emb(i)], io)
        assert np.array_equal(lhs, rhs)


def test_pi_sum_of_translates_scales_by_index():
    # trivial module, I inside K of index n: summing all coset translates of
    # iota(v) and applying pi gives n*v
    z6 = FiniteGroup.cyclic(6)
    z2 = FiniteGroup.cyclic(2)
    f = Field(0)
    emb = SubgroupEmbedding(z2, z6, [0, 3])
    ambient = trivial_module(z6, f)
    ind = induce_module(emb, restrict_module(emb, ambient))
    io = iota_matrix(ind)
    proj = pi_matrix(ind, ambient)
    v = f.array([1])
    total = f.zeros(1)
    for k in ind.reps:
        total = f.add(total, f.matmul(proj, f.matmul(ind.module.mats[k], f.matmul(io, v))))
    assert total[0] == Fraction(len(ind.reps))


def test_frobenius_roundtrip_and_dimension(sl2z):
    f = Field(3)
    rng = np.random.default_rng(9)
    for emb, w in ((sl2z.emb1, regular_module(sl2z.K1, f)),
                   (sl2z.emb2, regular_module(sl2z.K2, f))):
        m = restrict_module(emb, w)
        ind = induce_module(emb, m)
        basis = hom_space(m, restrict_module(emb, w))
        lifted = hom_space(ind.module, w)
        assert len(basis) == len(lifted)
        for s in basis:
            t = frobenius_map(ind, w, s)
            # the image really intertwines the big group action
            for g in range(w.group.order):
                assert np.array_equal(f.matmul(t, ind.module.mats[g]), f.matmul(w.mats[g], t))
            back = frobenius_inverse(ind, w, t)
            assert np.array_equal(back, s)
        # a random non-intertwiner is rejected
        bad = f.random_matrix(rng, w.dim, m.dim)
        if not any(np.array_equal(bad, s) for s in basis):
            try:
                frobenius_map(ind, w, bad)
            except NotIntertwiner:
                pass


def test_frobenius_trivial_case_is_augmentation_functional():
    z2 = FiniteGroup.cyclic(2)
    one = FiniteGroup.cyclic(1)
    f = Field(5)
    emb = SubgroupEmbedding(one, z2, [0])
    w = trivial_module(z2, f)
    ind = induce_module(emb, trivial_module(one, f))
    t = frobenius_map(ind, w, f.eye(1))
    assert np.array_equal(t, f.array([[1, 1]]))
    assert np.array_equal(frobenius_inverse(ind, w, t), f.eye(1))


def test_module_from_generators_detects_relation_violation():
    z3 = FiniteGroup.cyclic(3)
    f = Field(5)
    with pytest.raises(ValueError):
        module_from_generators(z3, f, {1: f.array([[2]])})  # 2^3 = 8 != 1 mod 5
    z4 = FiniteGroup.cyclic(4)
    m = module_from_generators(z4, f, {1: f.array([[2, 0], [0, 3]])})
    m.validate()


REPO = Path(__file__).resolve().parent.parent
INSTANCE_FILES = sorted((REPO / "fixtures").glob("*.amg")) + sorted(
    (REPO / "bench" / "instances").glob("*.amg"))


def _hom_space_all_elements(v, w):
    """The intertwiner conditions stacked over every group element, as a reference."""
    f = v.field
    blocks = [f.sub(np.kron(f.eye(w.dim), v.mats[g].T), np.kron(w.mats[g], f.eye(v.dim)))
              for g in range(v.group.order)]
    return [vec.reshape(w.dim, v.dim) for vec in f.kernel_basis(np.concatenate(blocks))]


def _modules_by_group(path, f):
    """Per group of the file: trivial, regular and conjugated regular modules
    (order <= 8, or <= 4 over Q), the file's modules and the factor pieces of
    its conjugated greps, where they are modules in this characteristic."""
    inst = parse(str(path))
    d = inst.datum
    groups = {TAG_K1: d.K1, TAG_K2: d.K2, TAG_I: d.I}
    rng = np.random.default_rng(f.p)
    out = {tag: [trivial_module(g, f, 2)] for tag, g in groups.items()}
    for tag, g in groups.items():
        if g.order <= (8 if f.p else 4):
            reg = regular_module(g, f)
            out[tag] += [reg, conjugate_module(reg, f.random_invertible(rng, reg.dim))]
    for tag, gens, _ in inst.module_specs.values():
        try:
            out[tag].append(module_from_generators(groups[tag], f, {
                k: f.array(m) for k, m in gens.items()}))
        except ValueError:
            pass
    for gens1, gens2, _ in inst.grep_specs.values():
        try:
            v = grep_from_generators(d, f, {k: f.array(m) for k, m in gens1.items()},
                                     {k: f.array(m) for k, m in gens2.items()})
        except ValueError:
            continue
        v = conjugate_grep(v, f.random_invertible(rng, v.dim))
        for tag in groups:
            out[tag].append(v.module(tag))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 0])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_hom_space_over_generators_is_the_all_elements_basis(path, p):
    f = Field(p)
    for modules in _modules_by_group(path, f).values():
        for v in modules:
            for w in modules:
                got = hom_space(v, w)
                want = _hom_space_all_elements(v, w)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
