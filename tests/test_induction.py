import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import amalgext.induction as induction
from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2, AmalgamDatum, GWord
from amalgext.cli import MAX_BALL_CELLS
from amalgext.induction import (
    IndElement,
    ZeroVector,
    chi,
    evaluate,
    g_act,
    g_translate,
    gamma,
    gamma_sum_formula,
    iota,
    mv_matrices,
    mv_truncated_check,
    pi,
    pi_blocks,
    tensor_identity,
    tensor_identity_inverse,
    trivial_grep,
)
from amalgext.instfile import parse
from amalgext.linalg import Field
from amalgext.spans import Span

from conftest import (
    FIXTURES,
    INSTANCE_FILES,
    bundled,
    grep2,
    instance_greps,
    random_grep,
    random_matrix,
    sl2z_word_to_matrix,
    subgroup_words,
)


def random_vec(rng, field, dim, nonzero=False):
    v = field.array([rng.randrange(max(field.p, 2)) for _ in range(dim)])
    if nonzero and not np.any(v != 0):
        v[rng.randrange(dim)] = 1
    return v


def all_pass(report):
    return report.injective and report.middle_exact and report.surjective


def test_g_act_identity_and_homomorphism(sl2z):
    f = Field(3)
    v = grep2(sl2z, f)
    rng = random.Random(0)
    words = sl2z.reduced_words(3)
    x = f.array([1, 2])
    assert np.array_equal(g_act(v, sl2z.identity_word, x), x)
    for _ in range(1000):
        u, w = rng.choice(words), rng.choice(words)
        lhs = g_act(v, sl2z.multiply(u, w), x)
        rhs = g_act(v, u, g_act(v, w, x))
        assert np.array_equal(lhs, rhs)


def test_g_act_matches_integer_model_mod_2(sl2z):
    f = Field(2)
    v = grep2(sl2z, f)
    rng = random.Random(1)
    words = sl2z.reduced_words(4)
    for _ in range(1000):
        w = rng.choice(words)
        assert np.array_equal(g_act(v, w, f.eye(2)), f.array(sl2z_word_to_matrix(w)))


def test_chi_rejects_zero_vector(sl2z):
    f = Field(2)
    v = trivial_grep(sl2z, f)
    with pytest.raises(ZeroVector):
        chi(TAG_I, v, sl2z.identity_word, f.zeros(1))


def test_translation_is_an_action(all_datums):
    # outer translate by u after inner translate by w equals translate by u*w
    rng = random.Random(9)
    f = Field(3)
    for d in all_datums:
        v = grep2(d, f)
        words = d.reduced_words(2)
        for _ in range(170):
            g0 = rng.choice(words)
            val = random_vec(rng, f, v.dim, nonzero=True)
            felem = chi(TAG_I, v, g0, val)
            u, w = rng.choice(words), rng.choice(words)
            assert g_translate(g_translate(felem, w), u) == g_translate(felem, d.multiply(u, w))


def test_translation_preserves_support_size(sl2z):
    rng = random.Random(23)
    f = Field(5)
    v = grep2(sl2z, f)
    words = sl2z.reduced_words(2)
    for _ in range(500):
        parts = {}
        for w in rng.sample(words, 3):
            rep = sl2z.canon(TAG_I, w).word
            parts[rep] = random_vec(rng, f, 2, nonzero=True)
        felem = IndElement(TAG_I, v, parts)
        g = rng.choice(words)
        assert len(g_translate(felem, g).support) == len(felem.support)


def test_evaluate_respects_equivariance(sl2z):
    f = Field(3)
    v = grep2(sl2z, f)
    rng = random.Random(4)
    words = sl2z.reduced_words(2)
    for _ in range(100):
        g0 = rng.choice(words)
        val = random_vec(rng, f, 2, nonzero=True)
        felem = chi(TAG_I, v, g0, val)
        assert np.array_equal(evaluate(felem, g0), val)
        for i, iw in subgroup_words(sl2z, TAG_I):
            shifted = sl2z.multiply(iw, g0)
            assert np.array_equal(evaluate(felem, shifted),
                                  f.matmul(v.module(TAG_I).mats[i], val))


def test_pi_iota_identity_on_all_bases(all_datums):
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for v in (trivial_grep(d, f), grep2(d, f)):
                for tag in (TAG_K1, TAG_K2, TAG_I):
                    for j in range(v.dim):
                        e = f.zeros(v.dim)
                        e[j] = 1
                        assert np.array_equal(pi(iota(tag, v, e)), e)


def test_pi_iota_identity_seeded(sl2z):
    rng = random.Random(31)
    f = Field(3)
    v = grep2(sl2z, f)
    for _ in range(1000):
        x = random_vec(rng, f, 2, nonzero=True)
        assert np.array_equal(pi(iota(TAG_I, v, x)), x)


def test_pi_is_equivariant(sl2z):
    rng = random.Random(6)
    f = Field(2)
    v = grep2(sl2z, f)
    words = sl2z.reduced_words(2)
    for _ in range(500):
        g0, g = rng.choice(words), rng.choice(words)
        felem = chi(TAG_K1, v, g0, random_vec(rng, f, 2, nonzero=True))
        assert np.array_equal(pi(g_translate(felem, g)), g_act(v, g, pi(felem)))


def test_pi_of_chi_single_term(sl2z):
    rng = random.Random(8)
    f = Field(5)
    v = grep2(sl2z, f)
    words = sl2z.reduced_words(2)
    for _ in range(100):
        g0 = rng.choice(words)
        val = random_vec(rng, f, 2, nonzero=True)
        felem = chi(TAG_K1, v, g0, val)
        assert np.array_equal(pi(felem), g_act(v, sl2z.inverse(g0), val))


def test_gamma_sends_edge_characteristic_to_vertex_characteristic(all_datums):
    f = Field(2)
    for d in all_datums:
        v = trivial_grep(d, f)
        one = f.array([1])
        for g0 in d.ball(TAG_I, 3):
            for side, tag in ((1, TAG_K1), (2, TAG_K2)):
                img = gamma(side, chi(TAG_I, v, g0, one))
                assert img == chi(tag, v, g0, one)


def test_gamma_two_routes_agree(all_datums):
    rng = random.Random(14)
    for d in all_datums:
        f = Field(3)
        v = grep2(d, f)
        words = d.reduced_words(2)
        for _ in range(200):
            parts = {}
            for w in rng.sample(words, min(3, len(words))):
                parts[d.canon(TAG_I, w).word] = random_vec(rng, f, 2, nonzero=True)
            felem = IndElement(TAG_I, v, parts)
            for side in (1, 2):
                assert gamma(side, felem) == gamma_sum_formula(side, felem)


def test_gamma_of_iota_is_iota(all_datums):
    f = Field(3)
    for d in all_datums:
        v = grep2(d, f)
        for j in range(v.dim):
            e = f.zeros(v.dim)
            e[j] = 1
            for side, tag in ((1, TAG_K1), (2, TAG_K2)):
                assert gamma(side, iota(TAG_I, v, e)) == iota(tag, v, e)


def test_gamma_is_equivariant(sl2z):
    rng = random.Random(19)
    f = Field(2)
    v = grep2(sl2z, f)
    words = sl2z.reduced_words(2)
    for _ in range(500):
        g0, g = rng.choice(words), rng.choice(words)
        felem = chi(TAG_I, v, g0, random_vec(rng, f, 2, nonzero=True))
        for side in (1, 2):
            assert gamma(side, g_translate(felem, g)) == g_translate(gamma(side, felem), g)


def test_tensor_identity_zero_vector_gives_zero(sl2z):
    f = Field(3)
    scal = trivial_grep(sl2z, f)
    v = grep2(sl2z, f)
    felem = chi(TAG_K1, scal, sl2z.identity_word, f.array([1]))
    assert not tensor_identity(felem, v, f.zeros(2)).support


def test_tensor_identity_roundtrip(all_datums):
    rng = random.Random(44)
    for d in all_datums:
        f = Field(3)
        scal = trivial_grep(d, f)
        v = grep2(d, f)
        words = d.reduced_words(2)
        for _ in range(170):
            parts = {}
            for w in rng.sample(words, min(2, len(words))):
                parts[d.canon(TAG_K1, w).word] = f.array([rng.randrange(1, 3)])
            felem = IndElement(TAG_K1, scal, parts)
            vec = random_vec(rng, f, 2, nonzero=True)
            big = tensor_identity(felem, v, vec)
            back = tensor_identity_inverse(big, scal)
            total = None
            for piece, w in back:
                summand = tensor_identity(piece, v, w)
                total = summand if total is None else total + summand
            assert total == big


def test_tensor_identity_commutes_with_gamma(all_datums):
    rng = random.Random(45)
    for d in all_datums:
        f = Field(2)
        scal = trivial_grep(d, f)
        v = grep2(d, f)
        words = d.reduced_words(2)
        for _ in range(200):
            parts = {}
            for w in rng.sample(words, min(2, len(words))):
                parts[d.canon(TAG_I, w).word] = f.array([1])
            felem = IndElement(TAG_I, scal, parts)
            vec = random_vec(rng, f, 2, nonzero=True)
            for side in (1, 2):
                lhs = gamma(side, tensor_identity(felem, v, vec))
                rhs = tensor_identity(gamma(side, felem), v, vec)
                assert lhs == rhs


def test_mv_check_d_infinity_trivial_rank(d_inf):
    f = Field(2)
    rep = mv_truncated_check(trivial_grep(d_inf, f), 2)
    assert rep.edge_cosets == 5
    assert rep.gamma_rank == 5
    assert all_pass(rep)


def test_mv_check_all_instances_all_radii(all_datums):
    for d in all_datums:
        for p in (2, 3):
            f = Field(p)
            for v in (trivial_grep(d, f), grep2(d, f)):
                for r in range(1, 5):
                    rep = mv_truncated_check(v, r)
                    assert rep.injective, (d.name, p, r)
                    assert rep.middle_exact, (d.name, p, r)
                    assert rep.surjective, (d.name, p, r)


def test_kernel_certificates_cohere(sl2z):
    # for trivial coefficients the comparison map has full column rank on any
    # ball: no nonzero kernel element
    f = Field(2)
    v = trivial_grep(sl2z, f)
    rep = mv_truncated_check(v, 3)
    assert rep.injective


# -- the block path against the column-by-column construction ---------------

def mv_check_by_columns(v, r):
    """mv_truncated_check's report built one basis vector at a time, as a reference."""
    d, fld, dim = v.datum, v.field, v.dim
    basis = list(fld.eye(dim).T)

    def coordinates(tag, radius):
        return {w: i for i, w in enumerate(d.ball(tag, radius))}

    edge = coordinates(TAG_I, r)
    vert = {tag: coordinates(tag, r) for tag in (TAG_K1, TAG_K2)}
    offset = {TAG_K1: 0, TAG_K2: len(vert[TAG_K1]) * dim}
    height = (len(vert[TAG_K1]) + len(vert[TAG_K2])) * dim

    def column(elements):
        out = fld.zeros(height)
        for sign, elem in elements:
            for w, vec in elem.support.items():
                start = offset[elem.tag] + vert[elem.tag][w] * dim
                out[start : start + dim] = vec if sign > 0 else fld.neg(vec)
        return out

    cols = [column([(1, gamma(1, e)), (-1, gamma(2, e))])
            for w in edge for e in (IndElement(TAG_I, v, {w: b}) for b in basis)]
    gamma_matrix = np.column_stack(cols)
    span = Span(fld, height, gamma_matrix.T)
    small = [(tag, w) for tag in (TAG_K1, TAG_K2) for w in d.ball(tag, r - 1)]
    pi_sum = np.column_stack([pi(IndElement(tag, v, {w: b})) for tag, w in small
                              for b in basis])
    kernel = fld.kernel_matrix(pi_sum)
    rows = [offset[tag] + vert[tag][w] * dim + t for tag, w in small for t in range(dim)]
    embedded = fld.zeros(height, kernel.shape[1])
    embedded[rows] = kernel
    return {
        "radius": r, "dim": dim, "edge_cosets": len(edge), "gamma_rank": len(span),
        "injective": len(span) == len(cols),
        "middle_exact": not span.reduce(embedded.T).any(),
        "surjective": all(np.array_equal(pi(iota(TAG_K1, v, b)), b) for b in basis),
    }


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
def test_mv_check_equals_the_column_by_column_reference(path, p):
    checked = 0
    for v in instance_greps(path, p):
        for r in (1, 2, 3):
            if v.datum.edge_coset_count(r) * v.dim > MAX_BALL_CELLS:
                continue
            assert vars(mv_truncated_check(v, r)) == mv_check_by_columns(v, r), (v.dim, r)
            checked += 1
    assert checked


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name, r", [("d-infinity.amg", 50), ("s4-s3-s4.amg", 5)])
def test_deep_mv_check_equals_the_column_by_column_reference(name, r, p):
    """gamma's span is built deepest edges first; on deep balls the reports are
    the reference's, whose span takes the edges in ball order."""
    path = next(path for path in INSTANCE_FILES if path.name == name)
    for v in instance_greps(path, p):
        report = vars(mv_truncated_check(v, r))
        assert report == mv_check_by_columns(v, r), v.dim
        assert report["gamma_rank"] == report["edge_cosets"] * v.dim


def column_of(elem, c):
    """The element made of column c of every block value."""
    return IndElement(elem.tag, elem.grep, {w: val[:, c] for w, val in elem.support.items()})


def test_maps_on_blocks_are_their_column_by_column_results(all_datums):
    rng = random.Random(52)
    nprng = np.random.default_rng(52)
    for d in all_datums:
        for p in (2, 3, 17):
            f = Field(p)
            v = random_grep(d, f, nprng)
            words = d.reduced_words(2)
            for _ in range(20):
                m = rng.randrange(1, 4)
                w = rng.choice(words)
                block = random_matrix(f, nprng, v.dim, m)
                assert np.array_equal(g_act(v, w, block), np.column_stack(
                    [g_act(v, w, block[:, c]) for c in range(m)]))
                support = {d.canon(TAG_I, u).word: random_matrix(f, nprng, v.dim, m)
                           for u in rng.sample(words, 3)}
                elem = IndElement(TAG_I, v, support)
                for c in range(m):
                    for side in (1, 2):
                        assert column_of(gamma(side, elem), c) == gamma(side, column_of(elem, c))
                    assert column_of(g_translate(elem, w), c) == g_translate(column_of(elem, c), w)
                    for x in (elem, gamma(1, elem), gamma(2, elem)):
                        if not x.support:  # pi gives the zero vector, of no width
                            continue
                        assert np.array_equal(pi(x)[:, c], pi(column_of(x, c)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mv_check_canonicalizes_each_edge_once_and_calls_neither_gamma_nor_pi(
        monkeypatch, all_datums, dim):
    calls = {"gamma": 0, "pi": 0, "canon": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(induction, "gamma", counted("gamma", induction.gamma))
    monkeypatch.setattr(induction, "pi", counted("pi", induction.pi))
    monkeypatch.setattr(AmalgamDatum, "canon_with_witness",
                        counted("canon", AmalgamDatum.canon_with_witness))
    f = Field(3)
    for d in all_datums:
        v = trivial_grep(d, f, dim)
        for r in (1, 2, 3):
            calls.update(gamma=0, pi=0, canon=0)
            assert all_pass(mv_truncated_check(v, r))
            # each edge coset's ends were found while its ball was built, so
            # the one search left is iota's, in the surjectivity check
            assert calls["canon"] == 1
            assert calls["gamma"] == 0
            assert calls["pi"] == 1  # the surjectivity check


def assert_pi_blocks_are_pi(v, radius):
    """pi_blocks over the edge tree, on each coset of the vertex balls as mv-check
    takes them, against pi coset by coset."""
    d, eye = v.datum, v.field.eye(v.dim)
    blocks = pi_blocks(v, d.ball(TAG_I, radius + 1).tree, radius + 1)
    index = {w: i for i, w in enumerate(d.ball(TAG_I, radius))}
    assert len(blocks) == len(index)
    for tag in (TAG_K1, TAG_K2):
        for w in d.ball(tag, radius):
            assert np.array_equal(blocks[index[w]], pi(IndElement(tag, v, {w: eye}))), (tag, w)


@pytest.mark.parametrize("p", [2, 3])
def test_pi_blocks_are_pi_of_the_identity_block_on_each_small_coset(all_datums, p):
    for d in all_datums:
        for v in (trivial_grep(d, Field(p)), grep2(d, Field(p))):
            assert_pi_blocks_are_pi(v, 3)  # the small cosets of every radius up to 4


def test_pi_blocks_walk_deep_words_without_recursion(d_inf):
    v = grep2(d_inf, Field(3))
    assert_pi_blocks_are_pi(v, 200)
    # a word longer than the recursion limit is reached length by length
    d = parse(str(FIXTURES / "d-infinity.amg")).datum  # a datum of its own for the deep ball
    v = grep2(d, Field(3))
    w = d.reduce([(TAG_K1, 1), (TAG_K2, 1)] * 750)
    assert len(w) == 1500
    ball = d.ball(TAG_I, 1501)
    blocks = pi_blocks(v, ball.tree, 1501)
    assert np.array_equal(blocks[list(ball).index(w)], pi(IndElement(TAG_K2, v, {w: v.field.eye(2)})))


# -- the tree assembly against the word-by-word one ---------------------------

def suffix_products(v, words):
    """rho(w^-1) for each w of words, suffix by suffix: with w = t_1 ... t_n * i,
    rho(w^-1) = rho(i^-1) rho(t_n^-1) ... rho(t_1^-1), each suffix built from
    the next with one product and kept for the rest of the call."""
    fld, d = v.field, v.datum
    factors = {1: v.module1, 2: v.module2}
    memo, out = {}, []
    for w in words:
        letters, tail = w.letters, w.tail
        k = 0
        while k < len(letters) and (letters[k:], tail) not in memo:
            k += 1
        block = memo.get((letters[k:], tail))
        if block is None:
            block = memo[(), tail] = v.module(TAG_I).mats[d.I.inv(tail)]
        for j in range(k - 1, -1, -1):
            side, t = letters[j]
            module = factors[side]
            block = memo[letters[j:], tail] = fld.matmul(block, module.mats[module.group.inv(t)])
        out.append(block)
    return out


def mv_matrices_by_words(v, r):
    """mv_matrices assembled word by word, as a reference: the vertex rows keyed by
    (tag, word), each edge's ends read by canon_from_edge, pi by suffix products."""
    d, fld, dim = v.datum, v.field, v.dim
    edge = d.ball(TAG_I, r)
    first_row = {}
    for tag in (TAG_K1, TAG_K2):
        for w in d.ball(tag, r):
            first_row[tag, w] = len(first_row) * dim
    gamma_matrix = fld.zeros(len(first_row) * dim, len(edge) * dim)
    signed_actions = ((TAG_K1, v.module1.mats), (TAG_K2, fld.neg(v.module2.mats)))
    for c, w in enumerate(edge):
        for tag, mats in signed_actions:
            rep, k = d.canon_from_edge(tag, w)
            row = first_row[tag, rep.word]
            gamma_matrix[row : row + dim, c * dim : (c + 1) * dim] = mats[k]
    small = [(tag, w) for tag in (TAG_K1, TAG_K2) for w in d.ball(tag, r) if len(w) < r]
    pi_sum = fld.zeros(dim, len(small) * dim)
    for c, block in enumerate(suffix_products(v, [w for _tag, w in small])):
        pi_sum[:, c * dim : (c + 1) * dim] = block
    rows = [first_row[key] + t for key in small for t in range(dim)]
    return gamma_matrix, pi_sum, rows


def assert_tree_assembly_is_the_word_assembly(v, r):
    gamma_matrix, pi_sum, rows = mv_matrices(v, r)
    ref_gamma, ref_pi, ref_rows = mv_matrices_by_words(v, r)
    for got, ref in ((gamma_matrix, ref_gamma), (pi_sum, ref_pi)):
        assert (got.shape, got.dtype, got.tobytes()) == (ref.shape, ref.dtype, ref.tobytes()), r
    assert rows.tolist() == ref_rows, r


@pytest.mark.parametrize("path, p", [
    (path, p) for path in INSTANCE_FILES for p in (2, 3, 5)[: 3 if path.stem.endswith("-f5") else 2]
], ids=lambda x: getattr(x, "name", x))
def test_mv_matrices_equal_the_word_by_word_assembly(path, p):
    for v in instance_greps(path, p):
        for r in (1, 2, 3, 4):
            assert_tree_assembly_is_the_word_assembly(v, r)


def test_deep_mv_matrices_equal_the_word_by_word_assembly(d_inf):
    for v in (trivial_grep(d_inf, Field(3)), grep2(d_inf, Field(3))):
        assert_tree_assembly_is_the_word_assembly(v, 200)


def test_mv_check_makes_no_word_per_coset(monkeypatch):
    """The GWords mv_truncated_check makes, on a fresh datum, do not grow with the radius."""
    made = []
    init = GWord.__init__
    monkeypatch.setattr(GWord, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    counts = []
    for r in (1, 4):
        path = next(path for path in INSTANCE_FILES if path.name == "s4-s3-s4.amg")
        v = trivial_grep(parse(str(path)).datum, Field(2))  # a fresh datum: no ball built yet
        made.clear()
        assert all_pass(mv_truncated_check(v, r))
        counts.append(len(made))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("r", [1, 2, 3])
def test_mv_check_over_f17_equals_the_column_by_column_reference(all_datums, r):
    for d in all_datums:
        v = grep2(d, Field(17))
        assert vars(mv_truncated_check(v, r)) == mv_check_by_columns(v, r), d.name


BUNDLED_DATUMS = [bundled(name).datum for name in ("d-infinity", "psl2z", "sl2z")]


@settings(max_examples=100)
@given(datum=st.sampled_from(BUNDLED_DATUMS), p=st.sampled_from([2, 3, 5]),
       r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_mv_check_passes_on_random_representations(datum, p, r, seed):
    v = random_grep(datum, Field(p), np.random.default_rng(seed))
    report = mv_truncated_check(v, r)
    assert all_pass(report)
    assert vars(report) == mv_check_by_columns(v, r)
