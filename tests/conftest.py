"""Shared builders and independent oracles for the test suite."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.groups import FiniteGroup, GroupMismatch
from amalgext.induction import GRep, grep_from_generators, trivial_grep
from amalgext.instfile import ValidationError, parse
from amalgext.linalg import Field
from amalgext.reps import KModule

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
INSTANCE_FILES = sorted(FIXTURES.glob("*.amg")) + sorted(
    (FIXTURES.parent / "bench" / "instances").glob("*.amg"))

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline, which a loaded host would trip.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@functools.cache
def bundled(name: str):
    """The parsed fixtures/<name>.amg, the one description of that amalgam."""
    return parse(str(FIXTURES / f"{name}.amg"))


@pytest.fixture(scope="session")
def d_inf():
    return bundled("d-infinity").datum


@pytest.fixture(scope="session")
def psl2z():
    return bundled("psl2z").datum


@pytest.fixture(scope="session")
def sl2z():
    return bundled("sl2z").datum


@pytest.fixture(scope="session")
def all_datums(d_inf, psl2z, sl2z):
    return [d_inf, psl2z, sl2z]


def cyclic(n: int) -> FiniteGroup:
    """Z/n by its addition table, element i being a^i."""
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = ["e"] + ["a" if i == 1 else f"a{i}" for i in range(1, n)]
    return FiniteGroup(table, labels=labels, name=f"Z/{n}")


def regular_module(group: FiniteGroup, field: Field) -> KModule:
    """k[group] acting on itself by left multiplication: g sends basis vector h to gh."""
    n = group.order
    mats = field.zeros(n, n, n)
    mats[np.arange(n)[:, None], group.table, np.arange(n)] = field.one
    return KModule(group, field, mats)


def random_matrix(field, rng: np.random.Generator, m, n) -> np.ndarray:
    """Seeded entries, uniform over F_p and in -5..5 over Q."""
    if field.p:
        return np.asarray(rng.integers(0, field.p, size=(m, n)), dtype=np.int64)
    return field.array(rng.integers(-5, 6, size=(m, n)))


def random_invertible(field, rng: np.random.Generator, n) -> np.ndarray:
    while True:
        m = random_matrix(field, rng, n, n)
        if field.rank(m) == n:
            return m


def conjugate_module(module: KModule, p: np.ndarray) -> KModule:
    """The module g -> p module(g) p^-1, isomorphic to module."""
    f = module.field
    p = f.array(p)
    pinv, _ = f.solve(p, f.eye(p.shape[0]))
    if pinv is None:
        raise ValueError("matrix is not invertible")
    return KModule(module.group, f, f.matmul(f.matmul(p, module.mats), pinv))


def direct_sum_module(a: KModule, b: KModule) -> KModule:
    if a.group is not b.group or a.field != b.field:
        raise GroupMismatch("direct sum needs one group and one field")
    mats = a.field.zeros(a.group.order, a.dim + b.dim, a.dim + b.dim)
    mats[:, : a.dim, : a.dim] = a.mats
    mats[:, a.dim :, a.dim :] = b.mats
    return KModule(a.group, a.field, mats)


def conjugate_grep(v: GRep, p: np.ndarray) -> GRep:
    return GRep(v.datum, conjugate_module(v.module1, p), conjugate_module(v.module2, p))


def direct_sum_grep(a: GRep, b: GRep) -> GRep:
    if a.datum is not b.datum:
        raise GroupMismatch("summands live over different amalgams")
    return GRep(a.datum, direct_sum_module(a.module1, b.module1),
                direct_sum_module(a.module2, b.module2))


def instance_greps(path, p):
    """triv and every grep of the file that is a representation over F_p."""
    inst = parse(str(path))
    try:
        built = inst.build(p)
    except ValidationError:  # some grep is not a representation in this characteristic
        return [trivial_grep(inst.datum, Field(p))]
    return [built.grep("triv")] + [built.grep(name) for name in sorted(built.greps)]


def grep2(datum, field):
    """The two-dimensional representation of a bundled datum's fixture (flip2 or std2).

    Built over this datum and field from the file's generator matrices, so
    that it also exists over Field(0), which InstanceFile.build refuses.
    """
    (gens1, gens2, _line), = bundled(datum.name).grep_specs.values()
    return grep_from_generators(datum, field, gens1, gens2)


def random_grep(datum, field, rng: np.random.Generator):
    """Seeded representation: a random conjugate of a sum of one or two pieces, each
    trivial or grep2."""
    pieces = [trivial_grep(datum, field), grep2(datum, field)]
    count = int(rng.integers(1, 3))
    v = pieces[int(rng.integers(0, len(pieces)))]
    for _ in range(count - 1):
        v = direct_sum_grep(v, pieces[int(rng.integers(0, len(pieces)))])
    return conjugate_grep(v, random_invertible(field, rng, v.dim))


def subgroup_words(datum, tag):
    """(k, normal form of k) for every element k of the factor or subgroup named by tag."""
    group = {TAG_K1: datum.K1, TAG_K2: datum.K2, TAG_I: datum.I}[tag]
    return [(k, datum.word_from_factor(tag, k)) for k in range(group.order)]


# -- independent integer matrix model of SL2(Z) -----------------------------

S_MAT = np.array([[0, -1], [1, 0]], dtype=np.int64)
T_MAT = np.array([[1, 1], [0, 1]], dtype=np.int64)
ST_MAT = S_MAT @ T_MAT
NEG_ID = -np.eye(2, dtype=np.int64)


def sl2z_word_to_matrix(w) -> np.ndarray:
    """Evaluate a normal form in the 2x2 integer model (a -> S, b -> ST)."""
    m = np.eye(2, dtype=np.int64)
    for side, t in w.letters:
        base = S_MAT if side == 1 else ST_MAT
        m = m @ np.linalg.matrix_power(base, t)
    return m @ np.linalg.matrix_power(NEG_ID, w.tail)


def brute_force_rank(field, a) -> int:
    """Rank by enumerating square minors; the independent oracle for rref."""
    from itertools import combinations

    a = field.array(a)
    m, n = a.shape
    best = 0
    for k in range(1, min(m, n) + 1):
        found = False
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                if _det(field, a[np.ix_(rows, cols)]) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def _det(field, a):
    from itertools import permutations

    n = a.shape[0]
    total = field.zeros(1)[0]
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one if sign > 0 else field.reduce(-field.one)
        for i in range(n):
            term = field.reduce(term * a[i, perm[i]])
        total = field.reduce(total + term)
    return total
