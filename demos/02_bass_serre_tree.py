"""Balls of the Bass-Serre tree for the three bundled amalgams.

Edges are right cosets of the shared subgroup, vertices right cosets of the
two factors; the edge of g joins the two vertex cosets of g.  The infinite
dihedral tree is a line, the PSL2(Z) tree is the (2,3)-biregular tree, and
SL2(Z) shares that tree shape with doubled stabilizers.
"""

from pathlib import Path

from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.tree import build_ball, chain_complex, to_dot

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def describe(datum, radius):
    ball = build_ball(datum, radius)
    degs = ball.degrees()
    interior = ball.interior_vertices()
    print(f"{datum.name}: radius {radius} ball has {ball.num_vertices} vertices, "
          f"{ball.num_edges} edges")
    print("  vertices = edges + 1:", ball.num_vertices == ball.num_edges + 1,
          " acyclic:", ball.is_forest(), " connected:", ball.is_connected())
    if interior:
        print("  interior degrees:", sorted({degs[i] for i in interior}))
    f = Field(2)
    boundary, aug = chain_complex(ball, f)
    print("  boundary rank:", f.rank(boundary),
          "(H_1 = 0 and H_0 = k, the ball is contractible)")


def main():
    datums = [parse(str(FIXTURES / f"{name}.amg")).datum
              for name in ("d-infinity", "psl2z", "sl2z")]
    for datum in datums:
        describe(datum, 4)
        print()

    print("DOT description of the radius-2 SL2(Z) ball:\n")
    print(to_dot(build_ball(datums[2], 2)))


if __name__ == "__main__":
    main()
