"""The cut N = O_p'(K) ∩ ker V1: p'-cores, quotient groups and modules, and
Ext over K read over K/N, against oracles that owe nothing to the cone."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K2
from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.mayer_vietoris import MVComplex, vertex_quotients
from amalgext.resolutions import AlgebraMatrix, ext_finite, free_resolution

from conftest import INSTANCE_FILES, instance_greps
from test_group_tables import MAPS, reference_checks, transformation_monoid

BENCH = Path(__file__).resolve().parents[1] / "bench" / "instances"


def _closed(group, subset) -> bool:
    return all(group.mul(x, y) in subset for x in subset for y in subset)


def _largest_normal_p_prime_subgroup(group, p):
    """O_p' by the definition: every normal subgroup is a union of conjugacy
    classes, so the largest of those unions that is closed under products and
    of order prime to p is it (the product of two such is one too)."""
    classes = {frozenset(group.mul(group.inv(g), group.mul(x, g)) for g in range(group.order))
               for x in range(group.order)}
    others = [c for c in classes if group.identity not in c]
    assert len(others) <= 12  # 2^12 unions at most
    best = {group.identity}
    for r in range(1, len(others) + 1):
        for chosen in itertools.combinations(others, r):
            subset = {group.identity}.union(*chosen)
            if len(subset) % p and _closed(group, subset) and len(subset) > len(best):
                best = subset
    return sorted(best)


def _file_groups():
    for path in INSTANCE_FILES:
        d = parse(str(path)).datum
        for group in (d.K1, d.K2, d.I):
            yield pytest.param(group, id=f"{path.name} {group.name}")


def _seeded_groups():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        maps = [MAPS[i] for i in rng.choice(len(MAPS), size=1 + seed % 2, replace=False)]
        table = transformation_monoid(maps, rng)
        if reference_checks(table)[1] is None:  # every element has an inverse
            yield pytest.param(FiniteGroup(table), id=f"seed {seed}")


@pytest.mark.parametrize("group", list(_file_groups()) + list(_seeded_groups()))
def test_p_prime_core_is_the_largest_normal_p_prime_subgroup(group):
    for p in (2, 3, 5):
        assert group.p_prime_core(p) == _largest_normal_p_prime_subgroup(group, p), p


def test_each_core_is_computed_once_per_group(monkeypatch):
    s4 = FiniteGroup.from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    closures = []
    generated = FiniteGroup._generated
    monkeypatch.setattr(FiniteGroup, "_generated", lambda g, e: closures.append(e) or generated(g, e))
    assert s4.p_core(2) == s4.p_prime_core(3) and len(s4.p_core(2)) == 4
    first = len(closures)
    assert first  # each class of elements of the right order, once
    assert s4.p_core(2) is s4.p_core(2) and s4.p_prime_core(3) is s4.p_prime_core(3)
    assert len(closures) == first


def test_a_p_prime_core_outside_every_centralizer_reads_no_class(monkeypatch):
    """O_p' and O_p commute, so where only O_p's elements centralize O_p (S4 at
    p = 2, C(V4) = V4) O_p' is 1 from p_core's work, which a resolution over S4
    reads anyway: no conjugacy class is read for it."""
    s4 = FiniteGroup.from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert len(s4.p_core(2)) == 4
    monkeypatch.setattr(FiniteGroup, "_class_least", property(lambda g: pytest.fail("a class was read")))
    assert s4.p_prime_core(2) == [s4.identity]


def _quotient_cases():
    for path in INSTANCE_FILES:
        for p in [2, 3, 5] if path.stem.endswith("-f5") else [2, 3]:
            yield pytest.param(path, p, id=f"{path.name}-{p}")


@pytest.mark.parametrize("path, p", list(_quotient_cases()))
def test_ext_over_k_is_ext_over_k_mod_n(path, p):
    """Ext^j_K(V1, W) = Ext^j_{K/N}(V1, W^N) for j <= 6, each side by ext_finite on
    its own free resolution, for every vertex and the edge group of the file and
    every pair of its representations; N is the one the cone takes."""
    greps = instance_greps(path, p)
    d = greps[0].datum
    for v1 in greps:
        edge, cuts = vertex_quotients(v1)
        for (tag, _), cut in [((TAG_I, None), edge)] + list(zip(d.ends, cuts)):
            for v2 in greps:
                over_k = ext_finite(v1.module(tag), v2.module(tag), 6).dims
                w, _, _ = cut.fixed(v2.module(tag))
                assert ext_finite(cut.inflated(v1.module(tag)), w, 6).dims == over_k, (tag, v1.dim, v2.dim)


@pytest.mark.parametrize("path, p", list(_quotient_cases()))
def test_quotient_modules_are_the_actions_on_fixed_points(path, p):
    """K/N is a group (its table passes every check), the projection is a
    homomorphism, N acts trivially on V1, and W^N is exactly the N-fixed vectors,
    on which coset c acts as W(reps[c]) does: W(g) basis = basis W^N(gN)."""
    f = Field(p)
    greps = instance_greps(path, p)
    tags = [TAG_I] + [tag for tag, _ in greps[0].datum.ends]
    for v1 in greps:
        edge, cuts = vertex_quotients(v1)
        for tag, cut in zip(tags, [edge] + cuts):
            k, bar, proj = cut.parent, cut.group, cut.projection
            assert np.array_equal(FiniteGroup(bar.table).table, bar.table)
            assert np.array_equal(proj[k.table], bar.table[np.ix_(proj, proj)])
            assert np.flatnonzero(proj == bar.identity).tolist() == cut.normal
            assert np.array_equal(proj[cut.reps], np.arange(bar.order))
            assert all(np.array_equal(v1.module(tag).mats[x], f.eye(v1.dim)) for x in cut.normal)
            for v2 in greps:
                w = v2.module(tag)
                fixed, basis, _ = cut.fixed(w)
                basis = f.eye(w.dim) if basis is None else basis
                moves = np.concatenate([f.sub(w.mats[x], f.eye(w.dim)) for x in cut.normal])
                assert basis.shape[1] == w.dim - f.rank(moves) == fixed.dim
                assert not np.any(f.matmul(moves, basis))
                for g in range(k.order):
                    assert np.array_equal(f.matmul(w.mats[g], basis),
                                          f.matmul(basis, fixed.mats[proj[g]]))


def test_vertex_groups_with_equal_tables_share_one_p_prime_core():
    """K1 and K2 of s4-s3-s4 are separate objects with equal tables: the
    p'-core is found once, on K1, and serves both ends."""
    for p in (2, 3):
        v = parse(str(BENCH / "s4-s3-s4.amg")).build(p).grep("triv")
        d = v.datum
        assert d.K1 is not d.K2 and np.array_equal(d.K1.table, d.K2.table)
        _, cuts = vertex_quotients(v)
        assert not d.K2._cores
        assert cuts[0].normal == cuts[1].normal == d.K1.p_prime_core(p) == d.K2.p_prime_core(p)


def test_d12_of_gl2z_resolves_over_v4_at_f2():
    """At F2, O_2'(D12) is the rotations of order 3 and D12 / C3 is V4: the module
    of degree j has dimension rank x |K/N| = 4(j + 1), against 12(j + 1) for the
    free resolution over D12."""
    v = parse(str(BENCH / "gl2z.amg")).build(2).grep("triv")
    _, (_, cut) = vertex_quotients(v)
    assert len(cut.normal) == 3 and cut.group.order == 4
    inflated = free_resolution(cut.inflated(v.module(TAG_K2)), 6)
    full = free_resolution(v.module(TAG_K2), 6)
    assert [r * cut.group.order for r in inflated.ranks] == [4 * (j + 1) for j in range(7)]
    assert [r * cut.parent.order for r in full.ranks] == [12 * (j + 1) for j in range(7)]


def _pushed(coeffs, mapping, order, p):
    """map_entries by definition: the coefficient at a target element is the sum
    of the coefficients at the elements mapped to it."""
    out = np.zeros(coeffs.shape[:2] + (order,), dtype=np.int64)
    for i, j, x in itertools.product(*map(range, coeffs.shape)):
        out[i, j, mapping[x]] = (out[i, j, mapping[x]] + coeffs[i, j, x]) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_map_entries_sums_along_a_non_injective_map(p):
    """Along the maps I/N_I -> K/N_K of gl2z (C2 -> 1 at F3) and along a
    projection of S4 onto S3, map_entries is the summed reference."""
    f = Field(p)
    rng = np.random.default_rng(p)
    v = parse(str(BENCH / "gl2z.amg")).build(p).grep("triv")
    edge, cuts = vertex_quotients(v)
    maps = [SubgroupEmbedding(edge.group, cut.group, cut.projection[emb.mapping[edge.reps]])
            for (_, emb), cut in zip(v.datum.ends, cuts)]
    s4 = FiniteGroup.from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    s3, projection, _ = s4.quotient(s4.p_prime_core(3))
    maps.append(SubgroupEmbedding(s4, s3, projection))
    if p == 3:
        assert [m.target.order for m in maps[:2]] == [1, 6] and maps[0].source.order == 2
    for m in maps:
        coeffs = f.array(rng.integers(0, p, (3, 2, m.source.order)))
        pushed = AlgebraMatrix(m.source, f, coeffs).map_entries(m)
        assert pushed.group is m.target
        assert np.array_equal(pushed.coeffs, _pushed(coeffs, m.mapping, m.target.order, p))


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_map_entries_along_an_embedding_moves_each_coefficient(path):
    """Along every embedding of a bundled or bench file, map_entries gives the
    bytes of placing each coefficient at its image and zeros elsewhere."""
    d = parse(str(path)).datum
    f = Field(3)
    rng = np.random.default_rng(0)
    for _, emb in d.ends:
        coeffs = f.array(rng.integers(0, 3, (2, 3, d.I.order)))
        placed = f.zeros(2, 3, emb.target.order)
        placed[:, :, emb.mapping] = coeffs
        pushed = AlgebraMatrix(d.I, f, coeffs).map_entries(emb)
        assert pushed.coeffs.tobytes() == placed.tobytes() and pushed.coeffs.dtype == placed.dtype


def test_lifts_into_s3_repeat_once_d5_is_rescaled(monkeypatch):
    """On gl2z at F3 (triv into signs4), the lift of C2 = V4 / <z> into
    S3 = D12 / Z(D12) at degree 4 is -1 times the one at degree 0, so the cone's P
    takes -d_5 in place of free_resolution's d_5 and the lifts repeat with period
    4: only degrees 1 to 4 solve for unknowns.  The D8 end is resolved over the
    trivial group, with no unknowns past degree 0."""
    b = parse(str(BENCH / "gl2z.amg")).build(3)
    v1, v2 = b.grep("triv"), b.grep("signs4")
    f = v1.field
    solved = []
    solve = Field.solve
    monkeypatch.setattr(Field, "solve",
                        lambda fld, a, rhs: solved.append((np.shape(a)[1], np.shape(rhs)[1])) or solve(fld, a, rhs))
    mv = MVComplex(v1, v2, 9)
    monkeypatch.undo()
    assert [p.group.order for p in mv.p] == [1, 6] and mv.q.group.order == 2
    assert mv.p[0].ranks == [1] + [0] * 9
    x, p = mv.x[1], mv.p[1]
    own = free_resolution(p.module, 9)
    for j in range(1, 10):
        unit = 2 if j in (5, 9) else 1
        assert np.array_equal(p.diffs[j].coeffs, f.scale(unit, own.diffs[j].coeffs)), j
    assert all(x[j + 4] is x[j] for j in range(1, 6))
    assert p.diffs[9] is p.diffs[5]  # the scaled d_5, repeated by the period
    # lift solves have a right-hand side (kernel_matrix solves none)
    assert len([1 for unknowns, columns in solved if unknowns and columns]) == 4
