"""The explicit maps between induced representations, evaluated on examples.

An induced element is a finitely supported function f : G -> V with
f(hg) = h f(g); it is stored by its values at canonical coset
representatives.  The demo walks through the unit iota, the summation
counit pi, the edge-to-vertex comparison maps gamma_1 and gamma_2, and the
truncated verification that

    0 -> ind_I(V) -> ind_K1(V) (+) ind_K2(V) -> V -> 0

is exact on coset balls.
"""

from pathlib import Path

import numpy as np

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.induction import (
    chi,
    g_act,
    g_translate,
    gamma,
    gamma_sum_formula,
    iota,
    mv_truncated_check,
    pi,
    trivial_grep,
)
from amalgext.instfile import parse

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    v = parse(str(FIXTURES / "sl2z.amg")).build(3).grep("std2")
    d, f = v.datum, v.field
    print("representation: the 2-dimensional reduction of the integer model, mod 3\n")

    x = f.array([1, 2])
    unit = iota(TAG_K1, v, x)
    print("iota(x) for x = [1, 2]:", unit)
    print("pi(iota(x)) = x:", np.array_equal(pi(unit), x))

    b = d.word_from_factor(TAG_K2, 1)
    moved = g_translate(unit, b)
    print("\ntranslating by b moves the support coset:", moved)
    print("pi is equivariant:", np.array_equal(pi(moved), g_act(v, b, pi(unit))))

    edge = chi(TAG_I, v, b, f.array([1, 1]))
    print("\nan edge element supported on the coset of b:", edge)
    for side in (1, 2):
        image = gamma(side, edge)
        print(f"gamma_{side} of it:", image)
        print(f"  agrees with the defining coset sum:",
              image == gamma_sum_formula(side, edge))

    print("\ntruncated exactness of the three-term sequence:")
    for rep in (trivial_grep(d, f), v):
        out = mv_truncated_check(rep, 3)
        print(f"  dim {rep.dim}: injective {out.injective}, middle exact "
              f"{out.middle_exact}, surjective {out.surjective} "
              f"(comparison rank {out.gamma_rank})")


if __name__ == "__main__":
    main()
