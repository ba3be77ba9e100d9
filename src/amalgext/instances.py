"""Bundled amalgam data: the infinite dihedral group, PSL2(Z) and SL2(Z)."""

from __future__ import annotations

import numpy as np

from amalgext.amalgam import AmalgamDatum
from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.induction import (GRep, conjugate_grep, direct_sum_grep, grep_from_generators,
                                trivial_grep)
from amalgext.linalg import Field


def d_infinity_datum() -> AmalgamDatum:
    """Z/2 * Z/2, the infinite dihedral group; its tree is a line."""
    K1 = FiniteGroup.cyclic(2, "s")
    K2 = FiniteGroup.cyclic(2, "t")
    I = FiniteGroup.cyclic(1)
    e1 = SubgroupEmbedding(I, K1, [0])
    e2 = SubgroupEmbedding(I, K2, [0])
    return AmalgamDatum(K1, K2, I, e1, e2, name="d-infinity")


def psl2z_datum() -> AmalgamDatum:
    """Z/2 * Z/3, the modular group PSL2(Z)."""
    K1 = FiniteGroup.cyclic(2, "a")
    K2 = FiniteGroup.cyclic(3, "b")
    I = FiniteGroup.cyclic(1)
    e1 = SubgroupEmbedding(I, K1, [0])
    e2 = SubgroupEmbedding(I, K2, [0])
    return AmalgamDatum(K1, K2, I, e1, e2, name="psl2z")


def sl2z_datum() -> AmalgamDatum:
    """Z/4 amalgamated with Z/6 over the common central Z/2; this is SL2(Z).

    In the 2x2 integer model the Z/4 generator is S = [[0,-1],[1,0]] and the
    Z/6 generator is ST = [[0,-1],[1,1]]; both square resp. cube to -1.
    """
    K1 = FiniteGroup.cyclic(4, "a")
    K2 = FiniteGroup.cyclic(6, "b")
    I = FiniteGroup.cyclic(2, "z")
    e1 = SubgroupEmbedding(I, K1, [0, 2])
    e2 = SubgroupEmbedding(I, K2, [0, 3])
    return AmalgamDatum(K1, K2, I, e1, e2, name="sl2z")


def standard_grep2(datum: AmalgamDatum, field: Field) -> GRep:
    """A two-dimensional representation for each bundled amalgam.

    For sl2z this is the reduction of the integer matrix model; for the free
    products it glues an order-2 and an order-2/3 matrix (no condition on I).
    All generator matrices are written with -1 entries so they are valid in
    every characteristic.
    """
    name = datum.name
    if name.startswith("psl2z"):
        m1 = field.array([[0, 1], [1, 0]])
        m2 = field.array([[0, -1], [1, -1]])
    elif name.startswith("sl2z"):
        m1 = field.array([[0, -1], [1, 0]])
        m2 = field.array([[0, -1], [1, 1]])
    elif name.startswith("d-infinity"):
        m1 = field.array([[0, 1], [1, 0]])
        m2 = field.array([[1, 1], [0, -1]])
    else:
        raise KeyError(f"no bundled two-dimensional representation for {name!r}")
    return grep_from_generators(datum, field, {1: m1}, {1: m2})


def random_grep(datum: AmalgamDatum, field: Field, rng: np.random.Generator,
                max_summands: int = 2) -> GRep:
    """Seeded representation: a random conjugate of a sum of bundled pieces."""
    pieces = [trivial_grep(datum, field), standard_grep2(datum, field)]
    count = int(rng.integers(1, max_summands + 1))
    v = pieces[int(rng.integers(0, len(pieces)))]
    for _ in range(count - 1):
        v = direct_sum_grep(v, pieces[int(rng.integers(0, len(pieces)))])
    return conjugate_grep(v, field.random_invertible(rng, v.dim))
