import random
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2, DatumMismatch, GWord, LetterOutOfGroup
from amalgext.instfile import parse

from conftest import sl2z_word_to_matrix, subgroup_words

ROOT = Path(__file__).resolve().parents[1]
AMG_FILES = sorted(ROOT.glob("fixtures/*.amg")) + sorted(ROOT.glob("bench/instances/*.amg"))


def test_reduce_psl2z_a_a_b(psl2z):
    w = psl2z.reduce([(TAG_K1, 1), (TAG_K1, 1), (TAG_K2, 1)])
    assert w.letters == ((2, 1),)
    assert w.tail == 0


def test_reduce_d_infinity_stst_irreducible(d_inf):
    w = d_inf.reduce([(TAG_K1, 1), (TAG_K2, 1), (TAG_K1, 1), (TAG_K2, 1)])
    assert len(w.letters) == 4
    assert w.letters == ((1, 1), (2, 1), (1, 1), (2, 1))


def test_reduce_sl2z_a_squared_is_central_tail(sl2z):
    w = sl2z.reduce([(TAG_K1, 1), (TAG_K1, 1)])
    assert w.letters == ()
    assert w.tail == 1
    # matrix model: S^2 = -Id
    assert np.array_equal(sl2z_word_to_matrix(w), -np.eye(2, dtype=np.int64))


def test_reduce_rejects_bad_letters(sl2z):
    with pytest.raises(LetterOutOfGroup):
        sl2z.reduce([(TAG_K1, 7)])
    with pytest.raises(LetterOutOfGroup):
        sl2z.reduce([("K9", 0)])


def test_group_laws_seeded(all_datums):
    rng = random.Random(2024)
    for d in all_datums:
        words = d.reduced_words(4)
        for _ in range(1000):
            u, v, w = (rng.choice(words) for _ in range(3))
            assert d.multiply(u, d.inverse(u)).is_identity()
            assert d.multiply(d.multiply(u, v), w) == d.multiply(u, d.multiply(v, w))


def test_multiply_matches_integer_matrix_model(sl2z):
    rng = random.Random(7)
    words = sl2z.reduced_words(4)
    for _ in range(1000):
        u, v = rng.choice(words), rng.choice(words)
        lhs = sl2z_word_to_matrix(sl2z.multiply(u, v))
        rhs = sl2z_word_to_matrix(u) @ sl2z_word_to_matrix(v)
        assert np.array_equal(lhs, rhs)


def test_matrix_model_injective_on_balls_up_to_six(sl2z):
    words = sl2z.reduced_words(6)
    images = {tuple(sl2z_word_to_matrix(w).flatten()) for w in words}
    assert len(images) == len(words)


def test_normal_form_retraction(all_datums):
    rng = random.Random(5)
    for d in all_datums:
        words = d.reduced_words(4)
        for w in rng.sample(words, min(30, len(words))):
            letters = [(TAG_K1 if s == 1 else TAG_K2, t) for s, t in w.letters]
            letters.append((TAG_I, w.tail))
            assert d.reduce(letters) == w


def test_canon_invariant_on_coset_exhaustive(sl2z):
    rng = random.Random(11)
    words = sl2z.reduced_words(3)
    for tag in (TAG_K1, TAG_K2, TAG_I):
        for _ in range(20):
            g = rng.choice(words)
            base = sl2z.canon(tag, g)
            for _, kw in subgroup_words(sl2z, tag):
                assert sl2z.canon(tag, sl2z.multiply(kw, g)) == base


def test_canon_d_infinity_s_in_base_coset(d_inf):
    s = d_inf.word_from_factor(TAG_K1, 1)
    assert d_inf.canon(TAG_K1, s) == d_inf.canon(TAG_K1, d_inf.identity_word)


def test_canon_never_longer(all_datums):
    rng = random.Random(3)
    for d in all_datums:
        words = d.reduced_words(4)
        for w in rng.sample(words, min(40, len(words))):
            for tag in (TAG_K1, TAG_K2, TAG_I):
                assert len(d.canon(tag, w).word) <= len(w)


def test_ball_counts_and_monotone(d_inf, psl2z, sl2z):
    assert len(d_inf.ball(TAG_I, 0)) == 1
    assert len(d_inf.ball(TAG_I, 2)) == 5
    assert len(psl2z.ball(TAG_I, 1)) == 4
    for d in (d_inf, psl2z, sl2z):
        sizes = [len(d.ball(TAG_I, r)) for r in range(5)]
        assert sizes == sorted(sizes)


def test_ball_of_psl2z_counts_reduced_words(psl2z):
    # trivial amalgamating subgroup: edge cosets are exactly the reduced words
    for r in range(4):
        assert len(psl2z.ball(TAG_I, r)) == len(psl2z.reduced_words(r))


def test_ball_closed_under_transversal_products(sl2z):
    for tag in (TAG_I, TAG_K1, TAG_K2):
        r = 3
        ball = set(sl2z.ball(tag, r))
        smaller = sl2z.ball(tag, r - 1)
        for w in smaller:
            for side in (1, 2):
                for t in sl2z.nontrivial_transversal[side]:
                    prod = sl2z.multiply(sl2z.word_from_factor(TAG_K1 if side == 1 else TAG_K2, t), w)
                    rep = sl2z.canon(tag, prod).word
                    if len(rep.letters) <= r:
                        assert rep in ball


def test_psl2z_k2_coset_count_matches_tree_enumeration(psl2z):
    # number of distinct K2-cosets among words of length <= 2 equals the
    # breadth-first vertex count on that side of the tree
    words = psl2z.reduced_words(2)
    reps = {psl2z.canon(TAG_K2, w).word for w in words}
    from amalgext.tree import build_ball

    ball = build_ball(psl2z, 2)
    k2_vertices = [v for v in ball.vertices if v.tag == TAG_K2]
    assert len(reps) == len(k2_vertices)


def test_words_of_different_datums_do_not_mix(d_inf, psl2z):
    u = d_inf.identity_word
    v = psl2z.identity_word
    with pytest.raises(DatumMismatch):
        d_inf.multiply(u, v)


def test_word_identity_length_zero_even_with_tail(sl2z):
    w = GWord(sl2z, (), 1)
    assert len(w) == 0
    assert not w.is_identity()


def file_datum(path):
    return parse(str(path)).build().datum


def brute_force_canon(d, tag, g):
    """The definition: the minimum of {k * g : k in the subgroup} by sort_key, with its k."""
    candidates = [(d.multiply(k_word, g), k) for k, k_word in subgroup_words(d, tag)]
    return min(candidates, key=lambda c: c[0].sort_key())


@pytest.mark.parametrize("path", AMG_FILES, ids=lambda p: p.name)
def test_canon_and_balls_match_the_brute_force_definition(path):
    d = file_datum(path)
    words = d.reduced_words(3)
    for tag in (TAG_K1, TAG_K2, TAG_I):
        brute = {}
        for g in words:
            brute[g] = brute_force_canon(d, tag, g)
            rep, k = d.canon_with_witness(tag, g)
            assert (rep.tag, rep.word, k) == (tag, *brute[g]), (tag, g)
            assert d.multiply(d.word_from_factor(tag, k), g) == rep.word
        for r in range(4):
            reps = {brute[w][0] for w in words if len(w) <= r}
            assert d.ball(tag, r) == sorted(reps, key=GWord.sort_key), (tag, r)


@pytest.mark.parametrize("path", AMG_FILES, ids=lambda p: p.name)
def test_edge_coset_count_is_the_edge_ball_size(path):
    d = file_datum(path)
    for r in range(5):
        assert len(d.ball(TAG_I, r)) == d.edge_coset_count(r)
        assert d.edge_coset_count(r, cap=10**9) == d.edge_coset_count(r)


@pytest.mark.parametrize("path", AMG_FILES, ids=lambda p: p.name)
def test_inverse_matches_the_product_of_inverted_letters(path):
    d = file_datum(path)
    for u in d.reduced_words(4):
        # the old construction: one multiply per letter onto a growing word
        w = d.word_from_factor(TAG_I, d.I.inv(u.tail))
        for side, t in reversed(u.letters):
            tag, K = (TAG_K1, d.K1) if side == 1 else (TAG_K2, d.K2)
            w = d.multiply(w, d.word_from_factor(tag, K.inv(t)))
        assert d.inverse(u) == w
