"""FiniteGroup's identity and inverse checks against one-element-at-a-time loops."""

import itertools

import numpy as np
import pytest

from amalgext.groups import FiniteGroup


def reference_checks(table):
    """The identity (None if there is none) and the first element with no
    two-sided inverse (None if every element has one), found one at a time."""
    n = len(table)
    ar = np.arange(n)
    ident = next((e for e in range(n) if np.array_equal(table[e], ar)
                  and np.array_equal(table[:, e], ar)), None)
    if ident is None:
        return None, None
    for x in range(n):
        hits = np.nonzero(table[x] == ident)[0]
        if len(hits) != 1 or table[hits[0], x] != ident:
            return ident, x
    return ident, None


def transformation_monoid(maps, rng):
    """The monoid of self-maps of {0, 1, 2} the maps and the identity generate,
    as a multiplication table (x y is y after x), its elements in random order."""
    elements = [(0, 1, 2)]
    for x in elements:
        for m in maps:
            y = tuple(m[i] for i in x)
            if y not in elements:
                elements.append(y)
    order = rng.permutation(len(elements))
    elements = [elements[i] for i in order]
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[tuple(y[i] for i in x)] for y in elements] for x in elements])


MAPS = list(itertools.product(range(3), repeat=3))


@pytest.mark.parametrize("seed", range(40))
def test_identity_and_inverse_checks_agree_with_the_loops(seed):
    """Groups pass with the loops' identity and inverses; monoids that are not
    groups are refused naming the loops' first element without an inverse."""
    rng = np.random.default_rng(seed)
    maps = [MAPS[i] for i in rng.choice(len(MAPS), size=1 + seed % 2, replace=False)]
    table = transformation_monoid(maps, rng)
    ident, bad = reference_checks(table)
    assert ident is not None
    if bad is None:
        group = FiniteGroup(table)
        assert group.identity == ident
        assert np.array_equal(table[np.arange(len(table)), group.inverse_table], np.full(len(table), ident))
    else:
        with pytest.raises(ValueError, match=f"^element {bad} has no two-sided inverse$"):
            FiniteGroup(table)


def test_a_table_with_no_two_sided_identity_is_refused():
    # a left identity that is no right identity: x y = y for all x
    table = np.tile(np.arange(4), (4, 1))
    assert reference_checks(table) == (None, None)
    with pytest.raises(ValueError, match="no identity element"):
        FiniteGroup(table)
