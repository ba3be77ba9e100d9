import random

import numpy as np
import pytest

from amalgext.groups import FiniteGroup
from amalgext.linalg import Field, subquotient_dim
from amalgext.reps import (
    KModule,
    hom_space,
    module_from_generators,
    regular_module,
    trivial_module,
)
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    alg_mul,
    coefficient_delta,
    ext_finite,
    free_resolution,
    rho,
)


def random_algebra_matrix(group, field, rng, rows, cols):
    m = AlgebraMatrix(group, field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            entry = {}
            for g in range(group.order):
                c = rng.randrange(field.p)
                if c:
                    entry[g] = np.int64(c)
            m.entries[i][j] = entry
    return m


def test_expansion_is_multiplicative():
    rng = random.Random(12)
    for n, p in ((4, 2), (6, 3), (3, 5)):
        group = FiniteGroup.cyclic(n)
        f = Field(p)
        for _ in range(10):
            a = random_algebra_matrix(group, f, rng, 2, 3)
            b = random_algebra_matrix(group, f, rng, 3, 2)
            lhs = a.mul(b).to_k_matrix()
            rhs = f.matmul(a.to_k_matrix(), b.to_k_matrix())
            assert np.array_equal(lhs, rhs)


def test_algebra_multiplication_against_regular_action():
    group = FiniteGroup.cyclic(6)
    f = Field(3)
    rng = random.Random(3)
    reg = regular_module(group, f)
    for _ in range(20):
        a = {g: np.int64(rng.randrange(3)) for g in range(6)}
        b = {g: np.int64(rng.randrange(3)) for g in range(6)}
        prod = alg_mul(group, f, a, b)
        assert np.array_equal(rho(reg, prod), f.matmul(rho(reg, a), rho(reg, b)))


def test_algebra_multiplication_exact_at_the_largest_prime():
    f = Field(3037000493)
    z2 = FiniteGroup.cyclic(2)
    top = np.int64(f.p - 1)
    # (1 + s)(1 + s) with both coefficients -1: each coefficient is 2 (p - 1)^2 = 2 mod p
    assert alg_mul(z2, f, {0: top, 1: top}, {0: top, 1: top}) == {0: 2, 1: 2}


def periodic_resolution_z2(field) -> FreeResolution:
    """The explicit rank-one periodic resolution of k over k[Z/2] in char 2."""
    z2 = FiniteGroup.cyclic(2)
    res = FreeResolution(trivial_module(z2, field))
    step = AlgebraMatrix(z2, field, 1, 1)
    step.entries[0][0] = {0: field.one, 1: field.one}
    for _ in range(6):
        res.ranks.append(1)
        res.diffs.append(step)
    return res


def periodic_resolution_z4(field) -> FreeResolution:
    """Alternating 1+s and 1+s+s^2+s^3 over k[Z/4] in char 2."""
    z4 = FiniteGroup.cyclic(4)
    res = FreeResolution(trivial_module(z4, field))
    one_plus = AlgebraMatrix(z4, field, 1, 1)
    one_plus.entries[0][0] = {0: field.one, 1: field.one}
    norm = AlgebraMatrix(z4, field, 1, 1)
    norm.entries[0][0] = {g: field.one for g in range(4)}
    for j in range(6):
        res.ranks.append(1)
        res.diffs.append(one_plus if j % 2 == 0 else norm)
    return res


def test_explicit_periodic_resolutions_are_exact():
    f = Field(2)
    assert periodic_resolution_z2(f).verify(5)
    assert periodic_resolution_z4(f).verify(5)


def test_computed_resolution_exact_and_matches_periodic_oracle_z2():
    f = Field(2)
    z2 = FiniteGroup.cyclic(2)
    triv = trivial_module(z2, f)
    res = free_resolution(triv, 5)
    assert res.verify(5)
    computed = ext_finite(triv, triv, 4, resolution=res).dims
    oracle = ext_finite(triv, triv, 4, resolution=periodic_resolution_z2(f)).dims
    assert computed == oracle == [1, 1, 1, 1, 1]


def test_computed_resolution_matches_periodic_oracle_z4():
    f = Field(2)
    z4 = FiniteGroup.cyclic(4)
    triv = trivial_module(z4, f)
    computed = ext_finite(triv, triv, 4).dims
    oracle = ext_finite(triv, triv, 4, resolution=periodic_resolution_z4(f)).dims
    assert computed == oracle == [1, 1, 1, 1, 1]


def test_semisimple_case_vanishes():
    f = Field(2)
    z3 = FiniteGroup.cyclic(3)
    triv = trivial_module(z3, f)
    assert ext_finite(triv, triv, 4).dims == [1, 0, 0, 0, 0]
    res = free_resolution(triv, 3)
    assert res.verify(3)


def test_z6_char2_matches_z2_factor_oracle():
    # Z/6 = Z/2 x Z/3 and char-2 cohomology sees only the Z/2 factor
    f = Field(2)
    z6 = FiniteGroup.cyclic(6)
    triv = trivial_module(z6, f)
    res2 = periodic_resolution_z2(f)
    t2 = res2.module
    oracle = ext_finite(t2, t2, 4, resolution=res2).dims
    assert ext_finite(triv, triv, 4).dims == oracle == [1, 1, 1, 1, 1]


def test_z2_char3_trivial_ext():
    f = Field(3)
    z2 = FiniteGroup.cyclic(2)
    triv = trivial_module(z2, f)
    assert ext_finite(triv, triv, 4).dims == [1, 0, 0, 0, 0]


def test_ext_degree_zero_equals_intertwiner_dimension():
    rng = np.random.default_rng(21)
    f2, f3 = Field(2), Field(3)
    from amalgext.reps import conjugate_module, direct_sum_module

    cases = []
    for p, f in ((2, f2), (3, f3)):
        for n in (2, 3, 4, 6):
            group = FiniteGroup.cyclic(n)
            pieces = [trivial_module(group, f), regular_module(group, f)]
            for _ in range(3):
                a = pieces[int(rng.integers(0, 2))]
                b = pieces[int(rng.integers(0, 2))]
                if rng.integers(0, 2):
                    a = conjugate_module(direct_sum_module(a, trivial_module(group, f)),
                                         f.random_invertible(rng, a.dim + 1))
                cases.append((a, b))
    assert len(cases) >= 20
    for v, w in cases:
        assert ext_finite(v, w, 0).dims[0] == len(hom_space(v, w))


def test_resolution_of_higher_dimensional_module():
    f = Field(2)
    z4 = FiniteGroup.cyclic(4)
    reg = regular_module(z4, f)
    res = free_resolution(reg, 3)
    assert res.verify(3)
    # free module: no higher Ext
    assert ext_finite(reg, trivial_module(z4, f), 3, resolution=res).dims == [1, 0, 0, 0]


def test_coefficient_complex_squares_to_zero():
    f = Field(2)
    z6 = FiniteGroup.cyclic(6)
    triv = trivial_module(z6, f)
    res = free_resolution(triv, 5)
    w = regular_module(z6, f)
    deltas = [coefficient_delta(res.diffs[j], w) for j in range(1, 6)]
    for j in range(len(deltas) - 1):
        assert not np.any(f.matmul(deltas[j + 1], deltas[j]))


def naive_generators(group, field, kernel_vectors, rank):
    """Greedy generators by the definition: one full rank test per candidate."""
    n = group.order
    target = len(kernel_vectors)
    span = []
    gens = []
    for v in kernel_vectors:
        if span and field.rank(np.column_stack(span + [v])) == field.rank(np.column_stack(span)):
            continue
        gens.append(v)
        for h in range(n):
            moved = field.zeros(rank * n)
            for i in range(rank):
                for g in range(n):
                    moved[i * n + group.mul(h, g)] = v[i * n + g]
            span.append(moved)
        if field.rank(np.column_stack(span)) == target:
            break
    return gens


def _permutation_matrix(field, perm):
    m = field.zeros(len(perm), len(perm))
    for i, image in enumerate(perm):
        m[image, i] = field.one
    return m


def _generator_cases():
    perms = {
        "Z/4": [[1, 2, 3, 0]],
        "S3": [[1, 0, 2], [1, 2, 0]],
        "D8": [[1, 2, 3, 0], [0, 3, 2, 1]],
    }
    for name, gens in perms.items():
        group = FiniteGroup.from_permutations(gens, name=name)
        for p in (2, 3):
            f = Field(p)
            # generators are elements 1.. in breadth-first order
            perm_module = module_from_generators(
                group, f, {i + 1: _permutation_matrix(f, g) for i, g in enumerate(gens)})
            for module in (trivial_module(group, f), perm_module):
                yield name, p, module


@pytest.mark.parametrize("case", list(_generator_cases()),
                         ids=lambda c: f"{c[0]}-F{c[1]}-dim{c[2].dim}")
def test_module_generators_match_naive_greedy(case):
    name, p, module = case
    f = module.field
    res = FreeResolution(module)
    for j in range(4):
        op = res.aug_operator() if j == 0 else res.diff_operator(j)
        kernel = f.kernel_basis(op)
        fast = res._module_generators(kernel, res.ranks[j])
        slow = naive_generators(module.group, f, kernel, res.ranks[j])
        assert len(fast) == len(slow)
        assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
        res.extend(j + 1)
        assert res.ranks[j + 1] == len(fast)
    assert res.verify(4)
