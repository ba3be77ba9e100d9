import random

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2, AmalgamDatum
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.tree import build_ball, chain_complex, to_dot

from conftest import INSTANCE_FILES


def test_radius_zero_is_base_edge(all_datums):
    for d in all_datums:
        ball = build_ball(d, 0)
        assert ball.num_edges == 1
        assert ball.num_vertices == 2
        assert ball.endpoints[0] == (0, 1)
        assert ball.vertices[0].tag == TAG_K1 and ball.vertices[1].tag == TAG_K2


def test_d_infinity_ball_is_a_path(d_inf):
    ball = build_ball(d_inf, 2)
    assert ball.num_edges == 5 and ball.num_vertices == 6
    assert all(deg <= 2 for deg in ball.degrees())
    assert ball.is_connected() and ball.is_forest()


def test_tree_property_all_radii(all_datums):
    for d in all_datums:
        for r in range(0, 7):
            ball = build_ball(d, r)
            assert ball.num_vertices == ball.num_edges + 1
            assert ball.is_forest() and ball.is_connected()


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.name)
def test_build_ball_reads_every_end_without_a_search(monkeypatch, path):
    calls = []
    real = AmalgamDatum.canon_with_witness

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(AmalgamDatum, "canon_with_witness", counted)
    d = parse(str(path)).build().datum  # a fresh datum: no ball is built yet
    for r in (3, 0, 1, 2):
        ball = build_ball(d, r)
        assert ball.num_vertices == ball.num_edges + 1
    # every edge's ends were recorded while its ball was built
    assert calls == []


def test_sl2z_interior_degrees_two_and_three(sl2z):
    ball = build_ball(sl2z, 4)
    degs = ball.degrees()
    for i in ball.interior_vertices():
        expected = 2 if ball.vertices[i].tag == TAG_K1 else 3
        assert degs[i] == expected


def test_incidence_is_equivariant(sl2z):
    # translating an edge coset translates its endpoints the same way
    rng = random.Random(17)
    words = sl2z.reduced_words(2)
    ball = build_ball(sl2z, 5)
    for _ in range(60):
        g = rng.choice(words)
        h = rng.choice(words)
        edge = sl2z.canon(TAG_I, g).word
        moved_edge = sl2z.canon(TAG_I, sl2z.multiply(edge, h)).word
        for tag in (TAG_K1, TAG_K2):
            end = sl2z.canon(tag, edge).word
            moved_end = sl2z.canon(tag, sl2z.multiply(end, h)).word
            assert sl2z.canon(tag, moved_edge).word == moved_end


def test_chain_complex_radius_zero(d_inf):
    f = Field(5)
    boundary, aug = chain_complex(build_ball(d_inf, 0), f)
    assert np.array_equal(boundary, f.array([[1], [-1]]))
    assert np.array_equal(aug, f.array([[1, 1]]))
    assert not np.any(f.matmul(aug, boundary))


def test_chain_complex_exactness_every_radius(all_datums):
    f = Field(2)
    f3 = Field(3)
    for d in all_datums:
        for r in range(0, 6):
            ball = build_ball(d, r)
            for fld in (f, f3):
                boundary, aug = chain_complex(ball, fld)
                assert not np.any(fld.matmul(aug, boundary))
                # connected acyclic graph: H_1 = 0 and H_0 = k
                assert fld.rank(boundary) == ball.num_edges
                assert fld.rank(boundary) == ball.num_vertices - 1


def test_d_infinity_r2_boundary_rank(d_inf):
    f = Field(2)
    ball = build_ball(d_inf, 2)
    boundary, _ = chain_complex(ball, f)
    assert ball.num_edges == 5 and ball.num_vertices == 6
    assert f.rank(boundary) == 5


def test_dot_export_deterministic_and_labelled(sl2z):
    a = to_dot(build_ball(sl2z, 2))
    b = to_dot(build_ball(sl2z, 2))
    assert a == b
    assert a.startswith("graph tree_ball {")
    assert "K1:" in a and "K2:" in a and "I:" in a
