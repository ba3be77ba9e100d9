"""Shared builders and independent oracles for the test suite."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.induction import conjugate_grep, direct_sum_grep, grep_from_generators, trivial_grep
from amalgext.instfile import ValidationError, parse
from amalgext.linalg import Field

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
    return conjugate_grep(v, field.random_invertible(rng, v.dim))


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
