import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import amalgext.groups as groups
from amalgext.groups import (
    FiniteGroup,
    NotHomomorphism,
    NotInjective,
    SubgroupEmbedding,
)
from amalgext.instfile import ValidationError, parse

from conftest import INSTANCE_FILES, S_MAT, ST_MAT, cyclic


def element_order(group, x):
    n, y = 1, x
    while y != group.identity:
        y = group.mul(y, x)
        n += 1
    return n


def test_cyclic_group_structure():
    z6 = cyclic(6)
    assert z6.identity == 0
    assert z6.mul(4, 5) == 3
    assert z6.inv(1) == 5
    assert element_order(z6, 1) == 6
    assert element_order(z6, 2) == 3


def test_from_permutations_klein_four():
    v4 = FiniteGroup.from_permutations([[1, 0, 3, 2], [2, 3, 0, 1]])
    assert v4.order == 4
    assert all(element_order(v4, x) in (1, 2) for x in range(4))


def test_from_permutations_s3_bfs_order():
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    assert s3.order == 6
    assert s3.identity == 0
    assert s3.labels[0] == "e"


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # idempotent non-identity, no inverse
    # a permuted-identity table is still a group; identity need not sit at 0
    g = FiniteGroup([[1, 0], [0, 1]])
    assert g.identity == 1
    # identity 0 and every other product 1: associative, with 299 generators
    table = np.ones((300, 300), dtype=np.int64)
    table[0] = table[:, 0] = np.arange(300)
    with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
        FiniteGroup(table)


# A loop of order 5: a Latin square with identity 0 in which every element is
# its own inverse.  A group of order 5 has no element of order 2, so this
# table is not associative.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_non_associative_table_is_refused():
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(LOOP5)


def swapped(table, x, y1, y2):
    """The table with the products x y1 and x y2 exchanged."""
    out = np.array(table)
    out[x, [y1, y2]] = out[x, [y2, y1]]
    return out


@pytest.mark.parametrize("gens", [[[1, 0, 2], [1, 2, 0]], [[1, 2, 3, 0], [3, 2, 1, 0]]],
                         ids=["S3", "D8"])
def test_associativity_on_generators_agrees_with_all_triples(gens):
    # the check reads (xy)s = x(ys) for generators s only; every table with two
    # products of one row exchanged (identity row and column kept) that fails
    # (xy)z = x(yz) for some triple is refused for it, and no other is
    table = FiniteGroup.from_permutations(gens).table
    n = len(table)
    refused = 0
    for x in range(1, n):
        for y1 in range(1, n):
            for y2 in range(y1 + 1, n):
                t = swapped(table, x, y1, y2)
                if np.array_equal(t[t, :], t[:, t]):
                    try:
                        FiniteGroup(t)
                    except ValueError as exc:
                        assert "not associative" not in str(exc)
                else:
                    with pytest.raises(ValueError, match="not associative"):
                        FiniteGroup(t)
                    refused += 1
    assert refused


def test_a_table_with_two_products_swapped_is_refused_at_its_section(tmp_path):
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]]).table

    def instance(table):
        rows = " / ".join(" ".join(map(str, row)) for row in table)
        return ("[instance]\nname = swapped\ncharacteristic = 2\n\n"
                f"[group K1]\ntable = {rows}\n\n"
                "[group K2]\nperm b = 1 0\n\n"
                "[subgroup I]\ntable = 0\nembed K1 = 0\nembed K2 = 0\n")

    path = tmp_path / "swapped.amg"
    path.write_text(instance(s3))
    assert parse(str(path)).datum.K1.order == 6
    path.write_text(instance(swapped(s3, 1, 2, 3)))
    with pytest.raises(ValidationError, match="not associative") as err:
        parse(str(path))
    assert err.value.line == 5


def test_group_order_over_the_limit_is_refused():
    n = groups.MAX_ORDER + 1
    with pytest.raises(ValueError, match=f"group order {n} is over the limit of {n - 1}"):
        FiniteGroup(np.zeros((n, n), dtype=np.int64))
    s7 = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    with pytest.raises(ValueError, match=f"order over the limit of {n - 1}"):
        FiniteGroup.from_permutations(s7)


def test_from_permutations_at_the_order_limit():
    n = groups.MAX_ORDER
    idx = np.arange(n)
    # breadth first from one generator, element i is its i-th power
    cycle = FiniteGroup.from_permutations([[(i + 1) % n for i in range(n)]])
    assert np.array_equal(cycle.table, (idx[:, None] + idx) % n)
    assert cycle.labels[1:] == ["a" * i for i in range(1, n)]
    # C10 x C10 x C10 on 30 points: generator k turns the k-th block of ten
    gens = [[(i + (i // 10 == k)) % 10 + i // 10 * 10 for i in range(30)] for k in range(3)]
    c10 = FiniteGroup.from_permutations(gens)
    assert c10.order == n
    # code[i] is the exponent vector that element i's word counts, read in base 10
    code = np.array([[w.count(ch) % 10 for ch in "abc"] for w in c10.labels]) @ [100, 10, 1]
    assert sorted(code) == list(range(n))
    digits = code[:, None] // [100, 10, 1] % 10
    total = sum((d[:, None] + d) % 10 * w for d, w in zip(digits.T, [100, 10, 1]))
    assert np.array_equal(c10.table, np.argsort(code)[total])


def test_from_permutations_of_s5_peaks_small():
    tracemalloc.start()
    try:
        s5 = FiniteGroup.from_permutations([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s5.order == 120
    # two n^3 int64 arrays for the associativity check peaked at 28.8 MiB
    assert peak < 8 * 2**20, peak / 2**20


def test_embedding_z2_in_z4_doubling_ok():
    z2, z4 = cyclic(2), cyclic(4)
    e = SubgroupEmbedding(z2, z4, [0, 2])
    assert e.validate()


def test_embedding_z2_in_z4_inclusion_of_indices_fails():
    z2, z4 = cyclic(2), cyclic(4)
    e = SubgroupEmbedding(z2, z4, [0, 1])
    with pytest.raises(NotHomomorphism):
        e.validate()


def test_embedding_not_injective():
    z2, z4 = cyclic(2), cyclic(4)
    with pytest.raises(NotInjective):
        SubgroupEmbedding(z2, z4, [0, 0]).validate()


def test_sl2z_datum_embeddings_match_integer_matrices(sl2z):
    # the common subgroup is generated by -1 = S^2 = (ST)^3 in the matrix model
    assert np.array_equal(np.linalg.matrix_power(S_MAT, 2), -np.eye(2, dtype=np.int64))
    assert np.array_equal(np.linalg.matrix_power(ST_MAT, 3), -np.eye(2, dtype=np.int64))
    assert sl2z.emb1(1) == 2  # -1 maps to a^2 in Z/4
    assert sl2z.emb2(1) == 3  # -1 maps to b^3 in Z/6
    assert sl2z.emb1.validate() and sl2z.emb2.validate()


def test_right_cosets_partition():
    z6 = cyclic(6)
    cosets = z6.right_cosets([0, 3])
    assert cosets == [[0, 3], [1, 4], [2, 5]]


def _generated(group, gens):
    """The subgroup the elements generate, by multiplying out until nothing is new."""
    out = {group.identity}
    while True:
        more = out | {group.mul(x, g) for x in out for g in gens}
        if more == out:
            return out
        out = more


def _largest_normal_p_subgroup(group, p):
    """O_p by the definition: the intersection of the subgroups of Sylow order
    generated by one or two elements of p-power order (every Sylow p-subgroup
    of the groups below is generated by two elements)."""
    sylow = group.order
    while sylow % p == 0:
        sylow //= p
    sylow = group.order // sylow
    p_elements = [x for x in range(group.order)
                  if element_order(group, x) in {p**i for i in range(8)}]
    core = set(range(group.order))
    for x in p_elements:
        for y in p_elements:
            sub = _generated(group, [x, y])
            if len(sub) == sylow:
                core &= sub
    return sorted(core)


GROUPS_BY_PERMUTATIONS = {
    "S3": [[1, 0, 2], [1, 2, 0]],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "D8": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "D12": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
    "A4": [[1, 2, 0, 3], [0, 2, 3, 1]],
    "Z/6": [[1, 2, 3, 4, 5, 0]],
}


def _looped_closure(gens, gen_names):
    """from_permutations' table and labels with every product composed as a tuple."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    elements, words, queue = [ident], {ident: "e"}, [ident]
    while queue:
        cur = queue.pop(0)
        for g, gname in zip(gens, gen_names):
            prod = tuple(cur[g[i]] for i in range(deg))
            if prod not in words:
                words[prod] = gname if cur == ident else words[cur] + gname
                elements.append(prod)
                queue.append(prod)
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(p[q[k]] for k in range(deg))] for q in elements] for p in elements]
    return table, [words[p] for p in elements]


def _instance_permutation_groups():
    """The perm generators and names of every group section of the bundled instances."""
    root = Path(__file__).resolve().parent.parent
    out = {}
    for path in sorted(root.glob("fixtures/*.amg")) + sorted(root.glob("bench/instances/*.amg")):
        section = None
        for line in path.read_text().splitlines():
            if line.startswith("["):
                section = f"{path.name} {line}"
            elif line.startswith("perm "):
                name, _, value = line[5:].partition("=")
                gens, names = out.setdefault(section, ([], []))
                gens.append([int(x) for x in value.split()])
                names.append(name.strip())
    return out


CLOSURE_CASES = (
    [pytest.param(gens, names, id=section)
     for section, (gens, names) in _instance_permutation_groups().items()]
    + [pytest.param(gens, "ab", id=name) for name, gens in GROUPS_BY_PERMUTATIONS.items()]
    + [pytest.param([[]], "a", id="degree 0")]
)


@pytest.mark.parametrize("gens, names", CLOSURE_CASES)
def test_from_permutations_matches_the_looped_closure(gens, names):
    group = FiniteGroup.from_permutations(gens, gen_names=list(names))
    table, labels = _looped_closure([tuple(g) for g in gens], names)
    assert np.array_equal(group.table, table)
    assert group.labels == labels


@pytest.mark.parametrize("gens, names", CLOSURE_CASES)
def test_from_permutations_builds_a_group_the_full_check_accepts(gens, names):
    """from_permutations checks nothing of its table: FiniteGroup(table), which
    checks everything, accepts it and finds the same identity and inverses."""
    group = FiniteGroup.from_permutations(gens, gen_names=list(names))
    checked = FiniteGroup(group.table, labels=group.labels)
    assert checked.identity == group.identity == 0
    assert np.array_equal(checked.inverse_table, group.inverse_table)
    assert np.array_equal(checked.quotient_table, group.quotient_table)
    assert np.array_equal(checked.generators, group.generators)


@pytest.mark.parametrize("name", sorted(GROUPS_BY_PERMUTATIONS))
def test_p_core_is_the_largest_normal_p_subgroup(name):
    group = FiniteGroup.from_permutations(GROUPS_BY_PERMUTATIONS[name])
    for p in (2, 3, 5):
        assert group.p_core(p) == _largest_normal_p_subgroup(group, p)


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_cores_refuse_a_p_that_is_not_prime(p):
    """1 once looped forever, 0 divided by zero and 4 answered the whole of S3."""
    group = FiniteGroup.from_permutations(GROUPS_BY_PERMUTATIONS["S3"])
    for core in (group.p_core, group.p_prime_core):
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            core(p)


@pytest.mark.parametrize("name", sorted(GROUPS_BY_PERMUTATIONS))
def test_generating_set_generates(name):
    group = FiniteGroup.from_permutations(GROUPS_BY_PERMUTATIONS[name])
    gens = group.generating_set(range(group.order))
    assert _generated(group, gens) == set(range(group.order))
    assert len(gens) <= 2
    for p in (2, 3):
        core = group.p_core(p)
        assert _generated(group, group.generating_set(core)) == set(core)
    assert group.generating_set([group.identity]) == []


def _set_generating_set(group, elements):
    """generating_set's rule on the closure by Python sets."""
    gens, reached = [], {group.identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = _generated(group, gens)
    return gens


def _set_p_core(group, p):
    """p_core's rule on the closure by Python sets: the union of the conjugacy
    classes whose generated subgroup is a p-group."""
    core = set()
    for x in range(group.order):
        cls = {group.mul(group.inv(g), group.mul(x, g)) for g in range(group.order)}
        order = len(_generated(group, cls))
        while order % p == 0:
            order //= p
        if order == 1:
            core |= cls
    return sorted(core)


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_closure_agrees_with_the_set_closure(path):
    """p_core, generating_set and generators of every group of the bundled and
    bench files equal the same rules on a closure by Python sets."""
    d = parse(str(path)).datum
    rng = np.random.default_rng(7)
    for group in (d.K1, d.K2, d.I):
        for p in (2, 3, 5, 7):
            core = group.p_core(p)
            assert core == _set_p_core(group, p)
            order = core + [x for x in range(group.order) if x not in core]
            assert group.generating_set(order) == _set_generating_set(group, order)
        assert list(group.generators) == (_set_generating_set(group, range(group.order))
                                          or [group.identity])
        for _ in range(5):
            elements = [int(x) for x in rng.permutation(group.order)]
            assert group.generating_set(elements) == _set_generating_set(group, elements)
            gens = elements[: int(rng.integers(0, 3))]
            assert set(np.flatnonzero(group._closure(gens)).tolist()) == _generated(group, gens)
