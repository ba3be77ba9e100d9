import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.cli import run
from amalgext.groups import FiniteGroup
from amalgext.induction import grep_from_generators, trivial_grep
from amalgext.instfile import parse
from amalgext.linalg import Field, array_key
from amalgext.reps import (
    hom_space,
    module_from_generators,
    trivial_module,
)
from amalgext.resolutions import (
    AlgebraMatrix,
    FreeResolution,
    coefficient_delta,
    ext_finite,
    free_resolution,
)
from amalgext.spans import Span

from conftest import (
    INSTANCE_FILES,
    conjugate_module,
    cyclic,
    direct_sum_module,
    instance_greps,
    random_invertible,
    random_matrix,
    regular_module,
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
    groups = (cyclic(4), cyclic(6), cyclic(3),
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
    group = cyclic(6)
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
    z2 = cyclic(2)
    top = AlgebraMatrix(z2, f, f.array([[[f.p - 1, f.p - 1]]]))
    # (1 + s)(1 + s) with both coefficients -1: each coefficient is 2 (p - 1)^2 = 2 mod p
    assert top.mul(top).coeffs.tolist() == [[[2, 2]]]


def test_coefficient_delta_exact_at_the_largest_prime():
    f = Field(3037000493)
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    rng = np.random.default_rng(8)
    # a conjugate of the regular module has action entries of full size
    w = conjugate_module(regular_module(s3, f), random_invertible(f, rng, s3.order))
    diff = AlgebraMatrix(s3, f, random_matrix(f, rng, 2, 3 * s3.order).reshape(2, 3, s3.order))
    dw = w.dim
    delta = coefficient_delta(diff, w)
    for i in range(2):
        for l in range(3):
            block = [[sum(int(diff.coeffs[i, l, g]) * int(w.mats[g][a, b]) for g in range(s3.order)) % f.p
                      for b in range(dw)] for a in range(dw)]
            assert delta[i * dw : (i + 1) * dw, l * dw : (l + 1) * dw].tolist() == block


def periodic_resolution_z2(field) -> FreeResolution:
    """The explicit rank-one periodic resolution of k over k[Z/2] in char 2."""
    z2 = cyclic(2)
    res = FreeResolution(trivial_module(z2, field))
    step = AlgebraMatrix(z2, field, field.array([[[1, 1]]]))
    for _ in range(6):
        res.ranks.append(1)
        res.diffs.append(step)
    return res


def periodic_resolution_z4(field) -> FreeResolution:
    """Alternating 1+s and 1+s+s^2+s^3 over k[Z/4] in char 2."""
    z4 = cyclic(4)
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


VERIFY_CASES = [(cyclic(4), 2),
                (FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]]), 2),
                (FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]]), 3)]


@pytest.mark.parametrize("group, p", VERIFY_CASES)
def test_verify_names_a_zeroed_differential(group, p):
    f = Field(p)
    for j in range(1, 5):
        res = free_resolution(trivial_module(group, f), 4)
        res.diffs[j] = AlgebraMatrix(group, f, f.zeros(*res.diffs[j].coeffs.shape))
        with pytest.raises(AssertionError, match=rf"image of d_{j} does not fill the kernel at F_{j - 1}"):
            res.verify(4)


@pytest.mark.parametrize("group, p", VERIFY_CASES)
def test_verify_names_a_flipped_coefficient_that_breaks_d_squared(group, p):
    f = Field(p)
    for j in range(1, 5):
        # flipped in the top differential, so only its composite with d_{j-1} breaks
        res = free_resolution(trivial_module(group, f), j)
        coeffs = res.diffs[j].coeffs.copy()
        coeffs[0, 0, 0] = (coeffs[0, 0, 0] + 1) % p
        res.diffs[j] = AlgebraMatrix(group, f, coeffs)
        expected = (f"d_{j} o d_{j - 1} != 0" if j >= 2
                    else "augmentation does not kill the first differential")
        with pytest.raises(AssertionError, match=expected):
            res.verify(j)


@pytest.mark.parametrize("group, p", VERIFY_CASES)
def test_verify_names_a_non_surjective_augmentation(group, p):
    f = Field(p)
    res = free_resolution(trivial_module(group, f), 3)
    aug = res.diff_operator(0).copy()
    aug[0] = 0  # still kills d_1, but misses the first module coordinate
    res._augmentation = aug
    with pytest.raises(AssertionError, match="augmentation is not surjective"):
        res.verify(3)


def test_computed_resolution_exact_and_matches_periodic_oracle_z2():
    f = Field(2)
    z2 = cyclic(2)
    triv = trivial_module(z2, f)
    res = free_resolution(triv, 5)
    assert res.verify(5)
    computed = ext_finite(triv, triv, 4, resolution=res).dims
    oracle = ext_finite(triv, triv, 4, resolution=periodic_resolution_z2(f)).dims
    assert computed == oracle == [1, 1, 1, 1, 1]


def test_computed_resolution_matches_periodic_oracle_z4():
    f = Field(2)
    z4 = cyclic(4)
    triv = trivial_module(z4, f)
    computed = ext_finite(triv, triv, 4).dims
    oracle = ext_finite(triv, triv, 4, resolution=periodic_resolution_z4(f)).dims
    assert computed == oracle == [1, 1, 1, 1, 1]


def test_semisimple_case_vanishes():
    f = Field(2)
    z3 = cyclic(3)
    triv = trivial_module(z3, f)
    assert ext_finite(triv, triv, 4).dims == [1, 0, 0, 0, 0]
    res = free_resolution(triv, 3)
    assert res.verify(3)


def test_z6_char2_matches_z2_factor_oracle():
    # Z/6 = Z/2 x Z/3 and char-2 cohomology sees only the Z/2 factor
    f = Field(2)
    z6 = cyclic(6)
    triv = trivial_module(z6, f)
    res2 = periodic_resolution_z2(f)
    t2 = res2.module
    oracle = ext_finite(t2, t2, 4, resolution=res2).dims
    assert ext_finite(triv, triv, 4).dims == oracle == [1, 1, 1, 1, 1]


def test_z2_char3_trivial_ext():
    f = Field(3)
    z2 = cyclic(2)
    triv = trivial_module(z2, f)
    assert ext_finite(triv, triv, 4).dims == [1, 0, 0, 0, 0]


def test_ext_degree_zero_equals_intertwiner_dimension():
    rng = np.random.default_rng(21)
    f2, f3 = Field(2), Field(3)
    cases = []
    for p, f in ((2, f2), (3, f3)):
        for n in (2, 3, 4, 6):
            group = cyclic(n)
            pieces = [trivial_module(group, f), regular_module(group, f)]
            for _ in range(3):
                a = pieces[int(rng.integers(0, 2))]
                b = pieces[int(rng.integers(0, 2))]
                if rng.integers(0, 2):
                    a = conjugate_module(direct_sum_module(a, trivial_module(group, f)),
                                         random_invertible(f, rng, a.dim + 1))
                cases.append((a, b))
    assert len(cases) >= 20
    for v, w in cases:
        assert ext_finite(v, w, 0).dims[0] == len(hom_space(v, w))


def test_resolution_of_higher_dimensional_module():
    f = Field(2)
    z4 = cyclic(4)
    reg = regular_module(z4, f)
    res = free_resolution(reg, 3)
    assert res.verify(3)
    # free module: no higher Ext
    assert ext_finite(reg, trivial_module(z4, f), 3, resolution=res).dims == [1, 0, 0, 0]


def test_coefficient_complex_squares_to_zero():
    f = Field(2)
    z6 = cyclic(6)
    triv = trivial_module(z6, f)
    res = free_resolution(triv, 5)
    w = regular_module(z6, f)
    deltas = [coefficient_delta(res.diffs[j], w) for j in range(1, 6)]
    for j in range(len(deltas) - 1):
        assert not np.any(f.matmul(deltas[j + 1], deltas[j]))


def naive_generators(group, field, kernel_vectors, rank):
    """Greedy generators by the definition: one full rank test per candidate."""
    target = len(kernel_vectors)
    span = []
    gens = []
    for v in kernel_vectors:
        if span and field.rank(np.column_stack(span + [v])) == field.rank(np.column_stack(span)):
            continue
        gens.append(v)
        span.extend(translates(group, field, v, rank))
        if field.rank(np.column_stack(span)) == target:
            break
    return gens


def translates(group, field, v, rank):
    """The |G| translates h.v, coordinate (i, g) moved to (i, h g), by the definition."""
    n = group.order
    out = []
    for h in range(n):
        moved = field.zeros(rank * n)
        for i in range(rank):
            for g in range(n):
                moved[i * n + group.mul(h, g)] = v[i * n + g]
        out.append(moved)
    return out


def greedy_generators(group, field, kernel_vectors, rank):
    """The greedy first-fit rule with one echelon span: each kernel vector outside
    the span of the translates so far becomes a generator, until the span is full."""
    n = group.order
    span = Span(field, rank * n)
    gens = []
    for v in kernel_vectors:
        if not span.reduce(v[None]).any():
            continue
        gens.append(v)
        span.add(v.reshape(rank, n)[:, group.quotient_table].transpose(1, 0, 2).reshape(n, rank * n))
        if len(span) == len(kernel_vectors):
            break
    return gens


class GreedyResolution(FreeResolution):
    """A resolution built by the greedy first-fit rule: the oracle for rank bounds."""

    def _module_generators(self, kernel, rank):
        gens = greedy_generators(self.group, self.field, kernel, rank)
        return np.array(gens) if gens else kernel[:0]


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
    """The generators' translates span exactly the kernel the naive greedy rule
    spans, and there are no more of them than the greedy rule finds."""
    name, p, module = case
    f = module.field
    group = module.group
    res = FreeResolution(module)
    for j in range(4):
        op = res.diff_operator(j)
        kernel = f.kernel_matrix(op).T
        fast = res._module_generators(kernel, res.ranks[j])
        slow = naive_generators(group, f, list(kernel), res.ranks[j])
        assert all(np.array_equal(a, b)
                   for a, b in zip(greedy_generators(group, f, kernel, res.ranks[j]), slow))
        assert len(fast) <= len(slow)
        spanned = [t for v in fast for t in translates(group, f, v, res.ranks[j])]
        oracle = [t for v in slow for t in translates(group, f, v, res.ranks[j])]
        assert f.rank(f.array(oracle)) == len(kernel)
        assert f.rank(f.array(spanned + oracle)) == f.rank(f.array(spanned)) == len(kernel)
        res.extend(j + 1)
        assert res.ranks[j + 1] == len(fast)
    assert res.verify(4)


ROOT = Path(__file__).resolve().parents[1]
INSTANCES = sorted((ROOT / "fixtures").glob("*.amg")) + sorted((ROOT / "bench" / "instances").glob("*.amg"))
ORACLE_DEGREE = 7


def _over_q(inst):
    """The file's representations over Q, leaving out those that are none there."""
    f = Field(0)
    out = {"triv": trivial_grep(inst.datum, f)}
    for name, (gens1, gens2, _) in inst.grep_specs.items():
        try:
            out[name] = grep_from_generators(inst.datum, f, {g: f.array(m) for g, m in gens1.items()},
                                             {g: f.array(m) for g, m in gens2.items()})
        except ValueError:
            continue
    return out, {}


def _factor_modules():
    """(id, module): each representation of each instance restricted to K1, K2 and I,
    and each module a file declares, over F2 and F3, and over Q for the bundled
    fixtures (over Q the order-12 and order-24 factors of the bench instances
    take minutes in Fraction arithmetic)."""
    for path in INSTANCES:
        inst = parse(str(path))
        for p in (2, 3, 0) if path.parent.name == "fixtures" else (2, 3):
            if p:
                built = inst.build(p)
                greps = {"triv": built.grep("triv"), **built.greps}
                modules = built.modules
            else:
                greps, modules = _over_q(inst)
            field = "Q" if p == 0 else f"F{p}"
            for name, grep in greps.items():
                for tag in (TAG_K1, TAG_K2, TAG_I):
                    yield f"{path.stem}-{field}-{name}-{tag}", grep.module(tag)
            for name, module in modules.items():
                yield f"{path.stem}-{field}-{name}", module


FACTOR_MODULES = dict(_factor_modules())
_GREEDY: dict[str, FreeResolution] = {}


def _greedy(case) -> FreeResolution:
    if case not in _GREEDY:
        _GREEDY[case] = GreedyResolution(FACTOR_MODULES[case])
        _GREEDY[case].extend(ORACLE_DEGREE)
    return _GREEDY[case]


def _is_p_group(order, p):
    while p and order % p == 0:
        order //= p
    return p > 0 and order == 1


@pytest.mark.parametrize("case", sorted(FACTOR_MODULES))
def test_resolution_rank_oracles(case):
    """Exactness at every degree, r_j >= dim Ext^j(V, k), and equality from degree 2
    on (degree 1 when F_0 is a projective cover) for p-groups."""
    module = FACTOR_MODULES[case]
    f = module.field
    res = free_resolution(module, ORACLE_DEGREE)
    assert res.verify(ORACLE_DEGREE)
    triv = trivial_module(module.group, f)
    # Ext from the greedy resolution, so the bound does not rest on the rule under test
    ext = ext_finite(module, triv, ORACLE_DEGREE - 1, resolution=_greedy(case)).dims
    assert ext_finite(module, triv, ORACLE_DEGREE - 1, resolution=res).dims == ext
    assert all(r >= e for r, e in zip(res.ranks, ext))
    if _is_p_group(module.group.order, f.p):
        start = 1 if res.ranks[0] == ext[0] else 2
        assert res.ranks[start:ORACLE_DEGREE] == ext[start:]


@pytest.mark.parametrize("case", sorted(FACTOR_MODULES))
def test_rank_sum_at_most_greedy(case):
    res = free_resolution(FACTOR_MODULES[case], ORACLE_DEGREE)
    assert sum(res.ranks) <= sum(_greedy(case).ranks)


def test_resolution_rank_oracles_cover_the_bench_factors():
    """The oracle cases include every factor of both bench instances at F2 and F3."""
    for stem in ("gl2z", "s4-s3-s4"):
        for field in ("F2", "F3"):
            for tag in (TAG_K1, TAG_K2, TAG_I):
                assert f"{stem}-{field}-triv-{tag}" in FACTOR_MODULES


def test_nakayama_ranks_are_minimal_on_d8_and_z4():
    """Closed forms: dim H^j(D8; F2) = j + 1 and dim H^j(Z/4; F2) = 1."""
    f = Field(2)
    d8 = FiniteGroup.from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
    assert free_resolution(trivial_module(d8, f), 9).ranks == list(range(1, 11))
    assert free_resolution(trivial_module(cyclic(4), f), 9).ranks == [1] * 10


def test_resolution_is_the_same_in_a_fresh_process():
    """The seeded choices do not depend on the process: hash seeds differ, coefficients agree."""
    script = (
        "import sys, numpy as np\n"
        "from amalgext.instfile import parse\n"
        "from amalgext.amalgam import TAG_K1\n"
        "from amalgext.resolutions import free_resolution\n"
        "m = parse(sys.argv[1]).build(2).grep('triv').module(TAG_K1)\n"
        "res = free_resolution(m, 5)\n"
        "np.save(sys.argv[2], np.concatenate([d.coeffs.reshape(-1) for d in res.diffs[1:]]))\n"
        "print(res.ranks)\n"
    )
    path = ROOT / "bench" / "instances" / "s4-s3-s4.amg"
    module = parse(str(path)).build(2).grep("triv").module(TAG_K1)
    here = free_resolution(module, 5)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "coeffs.npy"
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, str(path), str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(here.ranks)
        there = np.load(out)
    assert np.array_equal(there, np.concatenate([d.coeffs.reshape(-1) for d in here.diffs[1:]]))


def test_a_resolution_retains_little_beyond_its_coefficients():
    """A resolution keeps each differential as its coefficient array only: the
    dense operator, |G| times larger, is gathered when read and not kept."""
    path = ROOT / "bench" / "instances" / "s4-s3-s4.amg"
    module = parse(str(path)).build(2).grep("triv").module(TAG_K1)
    tracemalloc.start()
    try:
        res = free_resolution(module, 20)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    coeffs = sum(d.coeffs.nbytes for d in res.diffs[1:])
    # a kept operator is |G| times its coefficients (24 here), so 4 leaves room
    # only for the bookkeeping
    assert retained < 4 * coeffs, (retained, coeffs)


REUSE_DEGREE = 12


def _distinct_factor_modules(path, p):
    """The K1, K2 and I modules of every representation of the file over F_p, each once."""
    modules = {}
    for grep in instance_greps(path, p):
        for tag in (TAG_K1, TAG_K2, TAG_I):
            module = grep.module(tag)
            modules.setdefault((id(module.group), array_key(module.mats)), module)
    return list(modules.values())


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_a_stored_differential_is_the_one_its_predecessor_determines(path, p):
    """d_{j+1} recomputed from d_j alone has the stored bytes at every degree, reused
    or not; the generator choice is a function of the kernel (its random generator
    is seeded on every call); and where d_j repeats an earlier d_i, d_{j+1} is the
    object d_{i+1}."""
    for module in _distinct_factor_modules(path, p):
        f, n = module.field, module.group.order
        res = free_resolution(module, REUSE_DEGREE)
        assert res.verify(REUSE_DEGREE)
        first = {}  # array_key of a differential -> the first degree it appears at
        for j in range(1, REUSE_DEGREE):
            rank, following = res.ranks[j], res.diffs[j + 1]
            if rank:
                kernel = f.kernel_matrix(res.diff_operator(j)).T
                gens = res._module_generators(kernel, rank)
                assert np.array_equal(res._module_generators(kernel, rank), gens)
                assert following.coeffs.shape == (len(gens), rank, n)
                assert following.coeffs.tobytes() == gens.tobytes()
            else:
                assert following.coeffs.shape == (0, 0, n)
            i = first.setdefault(array_key(res.diffs[j].coeffs), j)
            if i < j:
                assert following is res.diffs[i + 1]


def test_periodic_resolutions_reuse_their_differentials():
    """The factors of GL2(Z) at F3 have periodic cohomology; from d_1 on, each of
    their resolutions holds as many differential objects as its period, since
    ker d_period is the augmentation's kernel."""
    built = parse(str(ROOT / "bench" / "instances" / "gl2z.amg")).build(3)
    for tag, period in ((TAG_K1, 2), (TAG_K2, 4), (TAG_I, 2)):
        res = free_resolution(built.grep("triv").module(tag), REUSE_DEGREE)
        assert all(res.diffs[j] is res.diffs[j + period] for j in range(1, REUSE_DEGREE - period + 1))
        assert len({id(d) for d in res.diffs[1:]}) == period


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_d1_follows_exactly_the_kernels_equal_to_the_augmentations(path, p):
    """diffs[j + 1] is the object diffs[1] exactly when ker d_j, computed here from
    d_j, has the bytes of the augmentation's kernel, through degree 8."""
    for module in _distinct_factor_modules(path, p):
        f = module.field
        res = free_resolution(module, 8)
        cover = array_key(f.kernel_matrix(res.diff_operator(0)).T)
        for j in range(1, 8):
            kernel = f.kernel_matrix(res.diff_operator(j)).T if res.ranks[j] else f.zeros(0, 0)
            assert (res.diffs[j + 1] is res.diffs[1]) == (array_key(kernel) == cover), j


def test_resolution_over_q_reuses_by_value():
    """Over Q the entries are Fraction objects, so equal arrays have different bytes;
    the resolution still finds the repeat, keyed by the entries."""
    f = Field(0)
    res = free_resolution(trivial_module(cyclic(3), f), 8)
    assert res.verify(8)
    assert res.diffs[1] is res.diffs[3]
    # ker d_2 equals the augmentation's kernel by entries, not by bytes
    kernels = [f.kernel_matrix(res.diff_operator(j)).T for j in (0, 2)]
    assert kernels[0].tobytes() != kernels[1].tobytes()
    assert array_key(kernels[0]) == array_key(kernels[1])
    assert all(res.diffs[j] is res.diffs[j + 2] for j in range(1, 7))
    a, b = f.array([[1, 2]]) / 3, f.array([[1, 2]]) / 3
    assert a.tobytes() != b.tobytes() and array_key(a) == array_key(b)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_a_repeated_kernel_takes_the_differential_selected_for_it(path, p):
    """Through degree 8, diffs[j + 1] is the object diffs[i + 1] exactly when
    ker d_j, computed here from d_j, has the bytes of ker d_i."""
    for module in _distinct_factor_modules(path, p):
        f = module.field
        res = free_resolution(module, 8)
        keys = [array_key(f.kernel_matrix(res.diff_operator(j)).T if res.ranks[j] else f.zeros(0, 0))
                for j in range(8)]
        for j in range(8):
            for i in range(j):
                assert (res.diffs[j + 1] is res.diffs[i + 1]) == (keys[j] == keys[i]), (i, j)


def test_std2_over_z4_repeats_its_kernel_at_degree_3():
    """std2 of sl2z over Z/4 at F2 (as `ext sl2z.amg --degree 3 --v1 std2 --v2
    std2` resolves it): ker d_3 is ker d_2, so d_4 is the object d_3, and the
    cover that closes degree 3 is that object too, with no selection."""
    module = parse(str(ROOT / "fixtures" / "sl2z.amg")).build(2).grep("std2").module(TAG_K1)
    res = free_resolution(module, 4)
    assert res.diffs[4] is res.diffs[3] and res.diffs[3] is not res.diffs[2]
    short = free_resolution(module, 3)
    assert short.kernel_cover(3) is short.diffs[3] and short.length() == 3


def test_kernel_cover_takes_d_next_then_the_memos_then_the_kernel_basis():
    f = Field(2)
    # a resolution that holds d_{n+1}
    res = free_resolution(trivial_module(cyclic(2), f), 3)
    assert res.kernel_cover(2) is res.diffs[3]
    # d_2 repeats d_1, so the _next memo holds d_3 = d_2
    res = free_resolution(trivial_module(cyclic(2), f), 2)
    assert res.kernel_cover(2) is res.diffs[2] and res.length() == 2
    # no memo: the k-basis of ker d_n, as rows; the resolution is left as it was
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    for module in (trivial_module(s3, f), trivial_module(cyclic(4), f), regular_module(cyclic(4), f)):
        for n in range(4):
            res = free_resolution(module, n)
            ranks, diffs = list(res.ranks), list(res.diffs)
            kernel = f.kernel_matrix(res.diff_operator(n)).T
            cover = res.kernel_cover(n)
            assert res.ranks == ranks and res.diffs == diffs
            if cover not in res.diffs:  # no repeated kernel
                assert cover.rows == len(kernel)
                assert cover.coeffs.reshape(kernel.shape).tobytes() == kernel.tobytes()
                if n:
                    assert not cover.mul(res.diffs[n]).coeffs.any()
            # and no memo took the cover for a differential
            res.extend(n + 1)
            assert array_key(res.diffs[n + 1].coeffs) == \
                array_key(free_resolution(module, n + 1).diffs[n + 1].coeffs)


def _selection_degrees(monkeypatch, argv) -> list[int]:
    """The degree j of every generator selection (for d_{j+1}) the command runs."""
    degrees = []
    select = FreeResolution._module_generators

    def counted(self, kernel, rank):
        degrees.append(self.length())
        return select(self, kernel, rank)

    monkeypatch.setattr(FreeResolution, "_module_generators", counted)
    code, _ = run(argv)
    assert code == 0
    return degrees


def test_ext_selects_no_generators_past_its_degree(monkeypatch):
    """`ext` at degree n selects d_1 .. d_n at most; the kernel cover closes the
    top.  ext s4-s3-s4.amg --char 2 --degree 3 makes 5 selections."""
    s4 = str(ROOT / "bench" / "instances" / "s4-s3-s4.amg")
    assert len(_selection_degrees(monkeypatch, ["ext", s4, "--char", "2", "--degree", "3"])) == 5
    for path in INSTANCE_FILES:
        for p in (2, 3):
            for n in (0, 2, 4):
                argv = ["ext", str(path), "--char", str(p), "--degree", str(n)]
                assert all(j < n for j in _selection_degrees(monkeypatch, argv)), (path.name, p, n)
