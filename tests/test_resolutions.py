import random

import numpy as np
import pytest

from amalgext.groups import FiniteGroup
from amalgext.linalg import Field, subquotient_dim
from amalgext.reps import (
    KModule,
    conjugate_module,
    hom_space,
    module_from_generators,
    regular_module,
    trivial_module,
)
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    coefficient_delta,
    ext_finite,
    free_resolution,
)


def random_algebra_matrix(group, field, rng, rows, cols):
    coeffs = [[[rng.randrange(field.p) for _ in range(group.order)] for _ in range(cols)]
              for _ in range(rows)]
    return AlgebraMatrix(group, field, field.array(coeffs))


def convolution(group, field, a, b):
    """The product of two algebra matrices by the definition, in Python integers."""
    out = [[[0] * group.order for _ in range(b.cols)] for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for l in range(b.cols):
                for g in range(group.order):
                    for h in range(group.order):
                        out[i][l][group.mul(g, h)] += int(a.coeffs[i, j, g]) * int(b.coeffs[j, l, h])
    return field.array([[[c % field.p for c in e] for e in row] for row in out])


def test_expansion_is_multiplicative():
    rng = random.Random(12)
    groups = (FiniteGroup.cyclic(4), FiniteGroup.cyclic(6), FiniteGroup.cyclic(3),
              FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]]))
    for group, p in zip(groups, (2, 3, 5, 3)):
        f = Field(p)
        for _ in range(10):
            a = random_algebra_matrix(group, f, rng, 2, 3)
            b = random_algebra_matrix(group, f, rng, 3, 2)
            prod = a.mul(b)
            assert np.array_equal(prod.coeffs, convolution(group, f, a, b))
            lhs = prod.to_k_matrix()
            rhs = f.matmul(a.to_k_matrix(), b.to_k_matrix())
            assert np.array_equal(lhs, rhs)


def test_algebra_multiplication_against_regular_action():
    group = FiniteGroup.cyclic(6)
    f = Field(3)
    rng = random.Random(3)
    reg = regular_module(group, f)
    for _ in range(20):
        a = random_algebra_matrix(group, f, rng, 1, 1)
        b = random_algebra_matrix(group, f, rng, 1, 1)
        prod = coefficient_delta(a.mul(b), reg)
        assert np.array_equal(prod, f.matmul(coefficient_delta(a, reg), coefficient_delta(b, reg)))


def test_algebra_multiplication_exact_at_the_largest_prime():
    f = Field(3037000493)
    z2 = FiniteGroup.cyclic(2)
    top = AlgebraMatrix(z2, f, f.array([[[f.p - 1, f.p - 1]]]))
    # (1 + s)(1 + s) with both coefficients -1: each coefficient is 2 (p - 1)^2 = 2 mod p
    assert top.mul(top).coeffs.tolist() == [[[2, 2]]]


def test_coefficient_delta_exact_at_the_largest_prime():
    f = Field(3037000493)
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    rng = np.random.default_rng(8)
    # a conjugate of the regular module has action entries of full size
    w = conjugate_module(regular_module(s3, f), f.random_invertible(rng, s3.order))
    diff = AlgebraMatrix(s3, f, f.random_matrix(rng, 2, 3 * s3.order).reshape(2, 3, s3.order))
    dw = w.dim
    delta = coefficient_delta(diff, w)
    for i in range(2):
        for l in range(3):
            block = [[sum(int(diff.coeffs[i, l, g]) * int(w.mats[g][a, b]) for g in range(s3.order)) % f.p
                      for b in range(dw)] for a in range(dw)]
            assert delta[i * dw : (i + 1) * dw, l * dw : (l + 1) * dw].tolist() == block


def periodic_resolution_z2(field) -> FreeResolution:
    """The explicit rank-one periodic resolution of k over k[Z/2] in char 2."""
    z2 = FiniteGroup.cyclic(2)
    res = FreeResolution(trivial_module(z2, field))
    step = AlgebraMatrix(z2, field, field.array([[[1, 1]]]))
    for _ in range(6):
        res.ranks.append(1)
        res.diffs.append(step)
    return res


def periodic_resolution_z4(field) -> FreeResolution:
    """Alternating 1+s and 1+s+s^2+s^3 over k[Z/4] in char 2."""
    z4 = FiniteGroup.cyclic(4)
    res = FreeResolution(trivial_module(z4, field))
    one_plus = AlgebraMatrix(z4, field, field.array([[[1, 1, 0, 0]]]))
    norm = AlgebraMatrix(z4, field, field.array([[[1, 1, 1, 1]]]))
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
