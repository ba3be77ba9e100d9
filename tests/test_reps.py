from itertools import product

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.groups import FiniteGroup
from amalgext.induction import grep_from_generators
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.reps import (
    KModule,
    hom_space,
    module_from_generators,
    trivial_module,
)

from conftest import (
    INSTANCE_FILES,
    conjugate_grep,
    conjugate_module,
    cyclic,
    random_invertible,
    regular_module,
)


def sign_module_z2(field):
    z2 = cyclic(2)
    return KModule(z2, field, [field.eye(1), field.array([[-1]])])


def test_module_validation_catches_broken_action():
    z2 = cyclic(2)
    f = Field(3)
    with pytest.raises(ValueError):
        KModule(z2, f, [f.eye(2), f.array([[1, 1], [0, 1]])])  # order 3 mod 3, not 2


def test_hom_space_trivial_pair():
    z2 = cyclic(2)
    f = Field(3)
    t = trivial_module(z2, f)
    assert len(hom_space(t, t)) == 1


def test_hom_space_trivial_vs_sign_f3():
    f = Field(3)
    t = trivial_module(cyclic(2), f)
    s = sign_module_z2(f)
    # different groups objects would be rejected; rebuild over one group
    s2 = KModule(t.group, f, [f.eye(1), f.array([[-1]])])
    assert hom_space(t, s2) == []


def test_hom_space_regular_z3_vs_trivial_f2_brute_force():
    z3 = cyclic(3)
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
    z4 = cyclic(4)
    f = Field(2)
    rng = np.random.default_rng(3)
    v = regular_module(z4, f)
    w = trivial_module(z4, f, 2)
    d0 = len(hom_space(v, w))
    p = random_invertible(f, rng, v.dim)
    q = random_invertible(f, rng, w.dim)
    assert len(hom_space(conjugate_module(v, p), conjugate_module(w, q))) == d0


def test_module_from_generators_detects_relation_violation():
    z3 = cyclic(3)
    f = Field(5)
    with pytest.raises(ValueError):
        module_from_generators(z3, f, {1: f.array([[2]])})  # 2^3 = 8 != 1 mod 5
    z4 = cyclic(4)
    m = module_from_generators(z4, f, {1: f.array([[2, 0], [0, 3]])})
    m.validate()


def _hom_space_all_elements(v, w):
    """The intertwiner conditions stacked over every group element, as a reference."""
    f = v.field
    blocks = [f.sub(np.kron(f.eye(w.dim), v.mats[g].T), np.kron(w.mats[g], f.eye(v.dim)))
              for g in range(v.group.order)]
    return [vec.reshape(w.dim, v.dim) for vec in f.kernel_basis(np.concatenate(blocks))]


def _file_pieces(inst, f):
    """The file's modules as (tag, module) and its greps, where they are
    representations in this characteristic."""
    d = inst.datum
    groups = {TAG_K1: d.K1, TAG_K2: d.K2, TAG_I: d.I}
    modules, greps = [], []
    for tag, gens, _ in inst.module_specs.values():
        try:
            modules.append((tag, module_from_generators(groups[tag], f, {
                k: f.array(m) for k, m in gens.items()})))
        except ValueError:
            pass
    for gens1, gens2, _ in inst.grep_specs.values():
        try:
            greps.append(grep_from_generators(d, f, {k: f.array(m) for k, m in gens1.items()},
                                              {k: f.array(m) for k, m in gens2.items()}))
        except ValueError:
            pass
    return modules, greps


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
            out[tag] += [reg, conjugate_module(reg, random_invertible(f, rng, reg.dim))]
    modules, greps = _file_pieces(inst, f)
    for tag, m in modules:
        out[tag].append(m)
    for v in greps:
        v = conjugate_grep(v, random_invertible(f, rng, v.dim))
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


def _all_pairs_law(group, field, mats) -> bool:
    """The action law by its definition: identity acts as 1 and mats[x] mats[y] =
    mats[xy] for all |G|^2 pairs, one product at a time; KModule's check before it
    was reduced to generators, kept as the reference."""
    if np.any(mats[group.identity] != field.eye(mats[group.identity].shape[0])):
        return False
    for x in range(group.order):
        for y in range(group.order):
            if np.any(field.matmul(mats[x], mats[y]) != mats[group.mul(x, y)]):
                return False
    return True


def _accepted(group, field, mats) -> bool:
    try:
        KModule(group, field, mats)
    except ValueError:
        return False
    return True


def _perturbed(module):
    """module's matrices with entry (0, 0) of its last element's matrix raised by one;
    the last element is the identity only in the trivial group."""
    f = module.field
    mats = module.mats.copy()
    x = module.group.order - 1
    mats[x, 0, 0] = f.reduce(mats[x, 0, 0] + f.one)
    return mats


def _zero_off_subgroup(module):
    """module's matrices, zero outside H = <every generator but the last>.

    The law still holds at each generator of H, so a check that skipped the
    last generator s would pass; it fails at (s^-1, s), as s^-1 is not in H."""
    g = module.group
    inside, frontier = {g.identity}, [g.identity]
    while frontier:
        frontier = [y for y in {g.mul(x, s) for x in frontier for s in g.generators[:-1]}
                    if y not in inside]
        inside.update(frontier)
    mats = module.mats.copy()
    outside = [x for x in range(g.order) if x not in inside]
    mats[outside] = module.field.zeros(module.dim, module.dim)
    return mats


@pytest.mark.parametrize("p", [2, 3, 0])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_generator_check_agrees_with_the_all_pairs_law(path, p):
    # Regular and conjugated regular modules of the trivial group and of every
    # group of the file up to order 24 (8 over Q, where the all-pairs reference
    # on S4's regular module takes half a minute), the file's modules and its
    # greps' factor modules: each is accepted by both checks, and refused by
    # both with one non-identity matrix perturbed, or, past the trivial group,
    # zeroed off the subgroup that all generators but the last generate.
    f = Field(p)
    inst = parse(str(path))
    d = inst.datum
    rng = np.random.default_rng(p)
    modules = []
    for g in (FiniteGroup([[0]]), d.K1, d.K2, d.I):
        if g.order <= (24 if p else 8):
            reg = regular_module(g, f)
            modules += [reg, conjugate_module(reg, random_invertible(f, rng, reg.dim))]
    file_modules, greps = _file_pieces(inst, f)
    modules += [m for _, m in file_modules]
    modules += [v.module(tag) for v in greps for tag in (TAG_K1, TAG_K2, TAG_I)]
    for m in modules:
        assert m.mats.shape == (m.group.order, m.dim, m.dim)
        assert _all_pairs_law(m.group, f, m.mats)
        assert _accepted(m.group, f, m.mats)
        for bad in [_perturbed(m)] + [_zero_off_subgroup(m)] * (m.group.order > 1):
            assert not _all_pairs_law(m.group, f, bad)
            assert not _accepted(m.group, f, bad)


def test_module_from_generators_refuses_a_matrix_for_the_identity():
    z3 = cyclic(3)
    f = Field(5)
    # even the identity matrix: the closure would otherwise never read it
    for given in (f.eye(1), f.array([[2]])):
        with pytest.raises(ValueError, match="a matrix is given for the identity element e"):
            module_from_generators(z3, f, {z3.identity: given, 1: f.eye(1)})
