import gc
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from amalgext.amalgam import (
    TAG_I,
    TAG_K1,
    TAG_K2,
    AmalgamDatum,
    DatumMismatch,
    GWord,
    LetterOutOfGroup,
)
from amalgext.cli import run
from amalgext.groups import SubgroupEmbedding
from amalgext.instfile import ValidationError, parse, parse_text
from amalgext.tree import build_ball

from conftest import sl2z_word_to_matrix, subgroup_words

ROOT = Path(__file__).resolve().parents[1]
AMG_FILES = sorted(ROOT.glob("fixtures/*.amg")) + sorted(ROOT.glob("bench/instances/*.amg"))

# Amalgams whose I is a table with its identity off element 0; then the least
# word of length 0 is ((), 0), not the identity word.
SHIFTED_I = {
    "sl2z-identity-of-I-at-1": """
[instance]
name = sl2z-shifted
characteristic = 2

[group K1]
perm a = 1 2 3 0

[group K2]
perm b = 1 2 3 4 5 0

[subgroup I]
table = 1 0 / 0 1
embed K1 = 2 0
embed K2 = 3 0
""",
    "z6-z3-z6-identity-of-I-at-2": """
[instance]
name = z6-z3-z6-shifted
characteristic = 2

[group K1]
perm a = 1 2 3 4 5 0

[group K2]
perm b = 1 2 3 4 5 0

[subgroup I]
table = 1 2 0 / 2 0 1 / 0 1 2
embed K1 = 2 4 0
embed K2 = 2 4 0
""",
}
DATUM_CASES = ([pytest.param(p, id=p.name) for p in AMG_FILES]
               + [pytest.param(text, id=name) for name, text in SHIFTED_I.items()])


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


def case_datum(case):
    """The datum of a DATUM_CASES entry: an instance file, or an instance text."""
    return file_datum(case) if isinstance(case, Path) else parse_text(case).build().datum


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


@pytest.mark.parametrize("case", DATUM_CASES)
def test_canon_from_edge_and_tree_endpoints_match_canon_with_witness(case):
    d = case_datum(case)
    for w in d.ball(TAG_I, 3):
        for tag in (TAG_K1, TAG_K2):
            assert d.canon_from_edge(tag, w) == d.canon_with_witness(tag, w), (tag, w)
    for r in range(4):
        ball = build_ball(d, r)
        assert ball.endpoints == [
            (ball.vertex_index[TAG_K1, d.canon(TAG_K1, e.word).word],
             ball.vertex_index[TAG_K2, d.canon(TAG_K2, e.word).word])
            for e in ball.edges]


def orbit_minima(d, words):
    """The edge ball by its definition: the least j * w over j in I, for each w, in sort order."""
    translates = [j for _, j in subgroup_words(d, TAG_I)]
    return sorted({min((d.multiply(j, w) for j in translates), key=GWord.sort_key)
                   for w in words}, key=GWord.sort_key)


def no_search(*args):
    raise AssertionError("an edge end was searched for, not read")


def assert_edge_balls_and_ends(monkeypatch, d, words, radii):
    """ball(I, r) against the orbit minima of words, requested radius by radius
    in the given order, and both ends of every edge against canon_with_witness,
    read from what building the balls recorded."""
    minima = orbit_minima(d, words)
    ends = {(tag, w): d.canon_with_witness(tag, w) for w in minima for tag in (TAG_K1, TAG_K2)}
    monkeypatch.setattr(d, "canon_with_witness", no_search)
    for r in radii:
        ball = d.ball(TAG_I, r)
        assert ball == [w for w in minima if len(w) <= r], r
        for w in ball:
            for tag in (TAG_K1, TAG_K2):
                assert d.canon_from_edge(tag, w) == ends[tag, w], (r, tag, w)


@pytest.mark.parametrize("radii", [range(5), range(4, -1, -1)], ids=["increasing", "decreasing"])
@pytest.mark.parametrize("case", DATUM_CASES)
def test_edge_balls_are_the_orbit_minima_and_their_ends_are_canon_with_witness(
        monkeypatch, case, radii):
    d = case_datum(case)
    assert_edge_balls_and_ends(monkeypatch, d, d.reduced_words(4), radii)


def test_a_deep_edge_ball_of_d_infinity_is_its_reduced_words(monkeypatch):
    # |I| = 1: every reduced word is its own orbit, and the deepest is 250 letters long
    d = file_datum(ROOT / "fixtures" / "d-infinity.amg")
    words = d.reduced_words(250)
    assert orbit_minima(d, words) == words
    assert_edge_balls_and_ends(monkeypatch, d, words, [250, 3, 200])


@pytest.mark.parametrize("case", DATUM_CASES)
def test_the_edge_tree_records_each_edges_depth_side_parent_and_witness(case):
    d = case_datum(case)
    ball = d.ball(TAG_I, 3)
    tree = ball.tree
    assert [len(w) for w in ball] == tree.depth.tolist()
    for i, w in enumerate(ball):
        side = w.letters[0][0] if w.letters else 0
        assert tree.lead[i] == side, w
        if side:
            tag = (TAG_K1, TAG_K2)[side - 1]
            rep, k = d.canon_with_witness(tag, w)
            assert (rep.word, k) == (ball[tree.parent[i]], tree.witness[i]), w


def test_canon_from_edge_reads_only_balls_already_built():
    d = file_datum(ROOT / "fixtures" / "sl2z.amg")
    w = d.reduce([(TAG_K1, 1), (TAG_K2, 1), (TAG_K1, 1)])
    with pytest.raises(KeyError):
        d.canon_from_edge(TAG_K1, w)
    d.ball(TAG_I, 2)
    with pytest.raises(KeyError):
        d.canon_from_edge(TAG_K1, w)
    d.ball(TAG_I, 3)
    assert d.canon_from_edge(TAG_K1, w) == d.canon_with_witness(TAG_K1, w)


@pytest.mark.parametrize("argv", [
    ["mv-check", "bench/instances/s4-s3-s4.amg", "--radius", "3"],
    ["mv-check", "fixtures/sl2z.amg", "--radius", "3", "--grep", "std2"],
    ["tree", "fixtures/psl2z.amg", "--radius", "3"],
], ids=lambda argv: f"{argv[0]}-{Path(argv[1]).stem}")
def test_a_datum_is_freed_by_reference_counting(monkeypatch, argv):
    """The datum keeps no GWord or CosetRep, so no reference cycle runs through it:
    with the cyclic collector off, the datum of one command is gone when it returns."""
    refs = []
    init = AmalgamDatum.__init__
    monkeypatch.setattr(AmalgamDatum, "__init__",
                        lambda self, *args, **kw: refs.append(weakref.ref(self)) or init(self, *args, **kw))
    argv = [argv[0], str(ROOT / argv[1]), *argv[2:]]
    gc.collect()
    gc.disable()
    try:
        code, _text = run(argv)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert code == 0 and alive == [False]


def test_parsing_validates_each_embedding_once_at_its_own_line(monkeypatch):
    """parse_text leaves the embedding checks to AmalgamDatum, one each, and a
    failure names the line of the embedding that fails, K2's here."""
    calls = []
    validate = SubgroupEmbedding.validate
    monkeypatch.setattr(SubgroupEmbedding, "validate", lambda emb: calls.append(emb) or validate(emb))
    parse(str(ROOT / "bench" / "instances" / "s4-s3-s4.amg"))
    assert len(calls) == 2 and calls[0] is not calls[1]
    text = ("[instance]\nname = broken\ncharacteristic = 2\n[group K1]\nperm a = 1 2 3 0\n"
            "[group K2]\nperm b = 1 2 3 4 5 0\n[subgroup I]\nperm z = 1 0\n"
            "embed K1 = 0 2\nembed K2 = 0 1\n")
    with pytest.raises(ValidationError, match="line 11"):
        parse_text(text)
