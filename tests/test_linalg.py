import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amalgext.linalg import (
    MAX_CHARACTERISTIC,
    CochainComplex,
    CompositionNonzero,
    Field,
    array_key,
    is_prime,
    subquotient_dim,
)
from amalgext.spans import PackedSpan, Span

from conftest import brute_force_rank, random_invertible, random_matrix


def test_rref_identity_f3():
    f = Field(3)
    r, pivots = f.rref(f.eye(2))
    assert np.array_equal(r, f.eye(2))
    assert pivots == [0, 1]


def test_rref_rank_one_f2():
    f = Field(2)
    r, pivots = f.rref([[1, 1], [1, 1]])
    assert np.array_equal(r, f.array([[1, 1], [0, 0]]))
    assert pivots == [0]


def test_rref_idempotent_and_rank_nullity():
    rng = np.random.default_rng(7)
    for p in (2, 3, 7):
        f = Field(p)
        for _ in range(20):
            a = random_matrix(f, rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            r, pivots = f.rref(a)
            r2, pivots2 = f.rref(r)
            assert np.array_equal(r, r2) and pivots == pivots2
            assert len(pivots) + len(f.kernel_basis(a)) == a.shape[1]


def test_rref_rank_seeded_6x4_f7_vs_minor_oracle():
    f = Field(7)
    rng = np.random.default_rng(42)
    a = random_matrix(f, rng, 6, 4)
    assert f.rank(a) == brute_force_rank(f, a)


def test_rank_matches_minor_oracle_more_fields():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        f = Field(p)
        for _ in range(5):
            a = random_matrix(f, rng, 4, 5)
            assert f.rank(a) == brute_force_rank(f, a)


def test_kernel_identity_f5_empty():
    f = Field(5)
    assert f.kernel_basis(f.eye(3)) == []


def test_kernel_of_sum_row_f2():
    f = Field(2)
    basis = f.kernel_basis([[1, 1]])
    assert len(basis) == 1
    assert np.array_equal(basis[0], f.array([1, 1]))


def test_kernel_seeded_5x7_f3():
    f = Field(3)
    rng = np.random.default_rng(11)
    a = random_matrix(f, rng, 5, 7)
    basis = f.kernel_basis(a)
    assert len(basis) == 7 - brute_force_rank(f, a)
    for v in basis:
        assert not np.any(f.matmul(a, v))


def test_rationals_exact():
    f = Field(0)
    a = f.array([[1, 2], [3, 4]])
    r, pivots = f.rref(a)
    assert pivots == [0, 1]
    assert np.array_equal(r, f.eye(2))
    x, _ = f.solve(a, f.array([1, 1]))
    assert np.array_equal(f.matmul(a, x), f.array([1, 1]))


def test_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Field(6)


def test_solve_returns_first_back_substitution_solution():
    f = Field(5)
    a = f.array([[1, 2, 0], [0, 0, 1]])
    x, _ = f.solve(a, f.array([3, 4]))
    # free column 1 pinned to zero
    assert np.array_equal(x, f.array([3, 0, 4]))
    assert f.solve(f.array([[1], [1]]), f.array([1, 2]))[0] is None


def test_subquotient_zero_maps():
    f = Field(2)
    b_in = f.zeros(3, 0)
    b_out = f.zeros(0, 3)
    assert subquotient_dim(f, b_in, b_out) == 3


def test_subquotient_surjective_onto_kernel():
    f = Field(3)
    b_out = f.array([[1, 0, 0]])      # kernel is coords 1,2
    b_in = f.array([[0, 0], [1, 0], [0, 1]])
    assert subquotient_dim(f, b_in, b_out) == 0


def test_subquotient_z2_periodic_two_step():
    # middle homology of k[Z/2] --(1+s)--> k[Z/2] --(1+s)--> k[Z/2] over F_2;
    # the regular matrix of 1+s is [[1,1],[1,1]], kernel dim 1 = image dim,
    # so the subquotient vanishes (the periodic complex is exact)
    f = Field(2)
    step = f.array([[1, 1], [1, 1]])
    assert not np.any(f.matmul(step, step))
    assert subquotient_dim(f, step, step) == 0


def test_subquotient_raises_when_composite_nonzero():
    f = Field(2)
    with pytest.raises(CompositionNonzero):
        subquotient_dim(f, f.eye(2), f.eye(2))


def test_columns_contained_and_span():
    f = Field(5)
    a = f.array([[1, 0], [0, 1], [0, 0]])
    assert f.solve(a, f.array([2, 3, 0]))[0] is not None
    assert f.solve(a, f.array([0, 0, 1]))[0] is None
    assert f.columns_contained(a, f.array([[1, 2], [4, 0], [0, 0]]))


def _random_low_rank(f, rng, m, n, k):
    """An m x n matrix of rank at most k (a product through dimension k)."""
    if k == 0 or m == 0 or n == 0:
        return f.zeros(m, n)
    return f.matmul(random_matrix(f, rng, m, k), random_matrix(f, rng, k, n))


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_rref_rank_matches_minor_oracle_over_shapes(p):
    f = Field(p)
    rng = np.random.default_rng(100 + p)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 5), (2, 6), (5, 2), (6, 3), (4, 4), (3, 4)]
    for m, n in shapes:
        for k in range(min(m, n) + 1):
            a = _random_low_rank(f, rng, m, n, k)
            if m >= 2:
                a[rng.integers(0, m)] = f.zeros(n)  # a zero row
            if n >= 2:
                a[:, rng.integers(0, n)] = f.zeros(m)  # a zero column
            r, pivots = f.rref(a)
            assert r.shape == (m, n)
            assert len(pivots) == f.rank(a) == brute_force_rank(f, a)
            assert not np.any(r[len(pivots):] != 0)
            if pivots:
                assert np.array_equal(r[: len(pivots)][:, pivots], f.eye(len(pivots)))


F2_SHAPES = [(0, 5), (5, 0), (0, 0), (9, 1), (9, 7), (9, 8), (9, 9), (70, 63), (70, 64),
             (70, 65), (40, 200), (1200, 48)]
# every prime with a packed layout; the others, and Q, eliminate densely
PACKED_PRIMES = [2, 3, 5, 7, 11, 13, 19]


def _check_packed_against_dense(p, shape):
    """The packed rref against the dense loop, on raw integer inputs:
    negative entries and entries >= p must reduce as Field.array does."""
    f = Field(p)
    m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    k = min(m, n)
    # T lower unitriangular, so T @ U has the rank of the unit upper trapezoid U
    lower = np.tril(rng.integers(0, 2, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(rng.integers(0, 2, size=(m, n)), 1) + np.eye(m, n, dtype=np.int64)
    full = lower @ upper - p * rng.integers(-1, 2, size=(m, n))
    low = rng.integers(-1, 3, size=(m, k // 4)) @ rng.integers(-2, 3, size=(k // 4, n))
    noisy = rng.integers(-p - 1, 2 * p + 1, size=(m, n))
    zero = np.zeros((m, n), dtype=np.int64)
    for a, least, most in ((full, k, k), (low, 0, k // 4), (noisy, 0, k), (zero, 0, 0)):
        r, pivots = f.rref(a)
        dense, dense_pivots = f._rref_dense(f.array(a))
        assert pivots == dense_pivots
        assert r.dtype == dense.dtype and r.shape == dense.shape == (m, n)
        assert np.array_equal(r, dense)
        assert least <= len(pivots) <= most


@pytest.mark.parametrize("shape", F2_SHAPES)
def test_packed_f2_rref_is_the_dense_elimination(shape):
    _check_packed_against_dense(2, shape)


@pytest.mark.parametrize("p", PACKED_PRIMES[1:])
@pytest.mark.parametrize("shape", F2_SHAPES)
def test_packed_odd_rref_is_the_dense_elimination(p, shape):
    _check_packed_against_dense(p, shape)


DIFFERENCE_SHAPES = [(1, 2), (5, 5), (30, 31), (60, 31), (120, 121), (300, 301)]


def _difference_rows(p, m, n):
    """Rows e_i - e_j, the boundary rows of a graph on n vertices, in shuffled
    order: the sparse inputs of mv-check and chain.  The first n - 1 rows are
    a path through the vertices in random order, so the rank is
    min(m, n - 1) at every p."""
    rng = np.random.default_rng(m * 1000 + n + p)
    walk = rng.permutation(n)
    edges = [(walk[k], walk[k + 1]) for k in range(min(m, n - 1))]
    edges += [tuple(rng.choice(n, size=2, replace=False)) for _ in range(m - len(edges))]
    a = np.zeros((m, n), dtype=np.int64)
    for row, (i, j) in enumerate(edges):
        a[row, i], a[row, j] = 1, -1
    return a[rng.permutation(m)]


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("m, n", DIFFERENCE_SHAPES)
def test_packed_rref_of_shuffled_difference_rows(p, m, n):
    f = Field(p)
    a = _difference_rows(p, m, n)
    r, pivots = f.rref(a)
    dense, dense_pivots = f._rref_dense(f.array(a))
    assert pivots == dense_pivots and len(pivots) == min(m, n - 1)
    assert np.array_equal(r, dense)


def test_packed_layouts_are_exact_for_every_lane_value():
    """For every lane value x <= p(p - 1) a row update can leave, Barrett gives
    x // p, x * mult does not spill out of its lane and the quotient fits under
    the lane's quotient mask; and the primes with a layout are exactly these."""
    primes = [q for q in range(2, 400) if is_prime(q)]
    assert [q for q in primes if Field(q)._lanes] == PACKED_PRIMES
    for q in (0, 65521, 3037000493):
        assert Field(q)._lanes is None
    rng = np.random.default_rng(5)
    for p in PACKED_PRIMES[1:]:
        bits, shift, mult = Field(p)._lanes
        assert bits in (8, 16)
        qmask = (1 << bits - shift) - 1
        for x in range(p * (p - 1) + 1):
            assert (x * mult) >> shift == x // p
            assert x * mult < 1 << bits
            assert x // p <= qmask
        # the same reduction on a packed row of 40 lanes, none borrowing from its neighbour
        lanes = rng.integers(0, p * (p - 1) + 1, size=40)
        dtype = f">u{bits // 8}"
        x = int.from_bytes(lanes.astype(dtype).tobytes(), "big")
        quot = int.from_bytes(qmask.to_bytes(bits // 8, "big") * 40, "big")
        reduced = x - p * ((x * mult >> shift) & quot)
        back = np.frombuffer(reduced.to_bytes(40 * bits // 8, "big"), dtype=dtype)
        assert np.array_equal(back, lanes % p)


@given(p=st.sampled_from(PACKED_PRIMES), m=st.integers(0, 12), n=st.integers(0, 12),
       data=st.data())
def test_packed_rref_equals_dense_on_random_inputs(p, m, n, data):
    entries = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    a = np.array(data.draw(st.lists(entries, min_size=m * n, max_size=m * n)),
                 dtype=np.int64).reshape(m, n)
    f = Field(p)
    r, pivots = f.rref(a)
    dense, dense_pivots = f._rref_dense(f.array(a))
    assert pivots == dense_pivots
    assert r.dtype == dense.dtype and np.array_equal(r, dense)


def test_f2_add_sub_neg_are_the_mod_2_forms():
    f = Field(2)
    rng = np.random.default_rng(2)
    a, b = random_matrix(f, rng, 9, 65), random_matrix(f, rng, 9, 65)
    for got, want in ((f.add(a, b), (a + b) % 2), (f.sub(a, b), (a - b) % 2), (f.neg(a), -a % 2)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert f.add(f.one, f.one) == 0 and f.sub(f.zeros(1)[0], f.one) == 1


def test_solve_block_matches_columnwise_solve():
    rng = np.random.default_rng(8)
    for p in (2, 3, 7, 0):
        f = Field(p)
        for m, n, k in ((5, 7, 3), (7, 4, 4), (6, 6, 2), (4, 9, 4)):
            a = _random_low_rank(f, rng, m, n, k)
            b = f.matmul(a, random_matrix(f, rng, n, 5))  # every column is consistent
            x, _ = f.solve(a, b)
            assert x.shape == (n, 5)
            for c in range(5):
                assert np.array_equal(x[:, c], f.solve(a, b[:, c])[0])
            assert np.array_equal(f.matmul(a, x), b)
            assert f.solve(a, f.zeros(m, 0))[0].shape == (n, 0)


def test_solve_block_is_none_when_one_column_is_inconsistent():
    rng = np.random.default_rng(9)
    for p in (2, 5, 0):
        f = Field(p)
        a = _random_low_rank(f, rng, 6, 5, 2)
        b = f.matmul(a, random_matrix(f, rng, 5, 4))
        outside = next(v for v in f.eye(6) if f.solve(a, v)[0] is None)
        b[:, 2] = outside
        assert f.solve(a, b)[0] is None
        assert f.solve(a, b[:, 2])[0] is None
        assert not f.columns_contained(a, b)


def test_solve_returns_the_shape_of_b():
    """A vector gives a vector, a one-column block a one-column block, the same entries."""
    rng = np.random.default_rng(10)
    for p in (2, 3, 0):
        f = Field(p)
        a = _random_low_rank(f, rng, 5, 6, 3)
        v = f.matmul(a, random_matrix(f, rng, 6, 1))[:, 0]
        x, block = f.solve(a, v)[0], f.solve(a, v[:, None])[0]
        assert x.shape == (6,) and block.shape == (6, 1)
        assert np.array_equal(block[:, 0], x) and np.array_equal(f.matmul(a, x), v)


def _kernel_of_the_rref(f, a):
    """ker a read off rref(a) alone: free column c pinned to one, the others to zero."""
    r, pivots = f.rref(a)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    out = f.zeros(r.shape[1], len(free))
    out[free, np.arange(len(free))] = f.one
    out[pivots] = f.neg(r[: len(pivots), free])
    return out


@given(p=st.sampled_from([2, 3, 5, 17, 0]), m=st.integers(0, 9), n=st.integers(0, 9),
       k=st.integers(0, 3), data=st.data())
def test_solve_returns_the_kernel_of_a_alone(p, m, n, k, data):
    """The kernel half of solve(a, b) is the kernel of rref(a) alone, byte for byte,
    whether b lies in the column span of a or not; kernel_matrix is that half."""
    f = Field(p)
    entries = st.integers(-2 * (p or 3), 2 * (p or 3))

    def draw(rows, cols):
        flat = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return f.array(np.array(flat, dtype=np.int64).reshape(rows, cols))

    a = draw(m, n)
    want = array_key(_kernel_of_the_rref(f, a))
    assert array_key(f.kernel_matrix(a)) == want
    inside = f.matmul(a, draw(n, k))
    for b in (inside, draw(m, k), f.zeros(m, 0)) + tuple(inside.T) + tuple(draw(m, 1).T):
        x, kernel = f.solve(a, b)
        assert array_key(kernel) == want
        consistent = f.rank(a) == f.rank(np.concatenate([a, b if b.ndim == 2 else b[:, None]], axis=1))
        assert (x is not None) == consistent
        if x is not None:
            assert x.shape == (n,) + b.shape[1:] and array_key(f.matmul(a, x)) == array_key(b)


def test_matmul_exact_at_large_primes():
    # 3 * (p - 1)^2 overflows int64 for p = 2^31 - 1; the true product is 3 mod p
    f = Field(2147483647)
    a = f.array([[f.p - 1] * 3])
    assert f.matmul(a, a.T)[0, 0] == 3
    g = Field(3037000493)  # the largest prime with (p - 1)^2 < 2^63
    a = g.array([[g.p - 1] * 40])
    assert g.matmul(a, a.T)[0, 0] == 40
    rng = np.random.default_rng(4)
    a = np.asarray(rng.integers(0, g.p, size=(4, 6)), dtype=np.int64)
    b = np.asarray(rng.integers(0, g.p, size=(6, 3)), dtype=np.int64)
    exact = (a.astype(object) @ b.astype(object)) % g.p
    assert np.array_equal(g.matmul(a, b), exact.astype(np.int64))
    assert g.matmul(a, b).dtype == np.int64


def test_elimination_exact_at_the_largest_prime():
    f = Field(3037000493)
    rng = np.random.default_rng(6)
    a = _random_low_rank(f, rng, 6, 7, 4)
    basis = f.kernel_matrix(a)
    assert basis.shape[1] == 7 - f.rank(a)
    assert not np.any(f.matmul(a, basis))
    b = f.matmul(a, random_matrix(f, rng, 7, 2))
    assert np.array_equal(f.matmul(a, f.solve(a, b)[0]), b)


def test_field_refuses_primes_beyond_int64_products():
    assert (MAX_CHARACTERISTIC - 1) ** 2 < 2**63 <= MAX_CHARACTERISTIC**2
    Field(3037000493)
    with pytest.raises(ValueError, match="too large"):
        Field(3037000507)  # the smallest prime past the bound
    with pytest.raises(ValueError, match="too large"):
        Field(1000000000000000003)


def test_is_prime_agrees_with_a_sieve():
    limit = 20000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    assert [n for n in range(-3, limit) if is_prime(n)] == list(np.flatnonzero(sieve))


def test_is_prime_large_inputs_fast():
    start = time.perf_counter()
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime(2**61 + 1)
    # Carmichael numbers and strong pseudoprimes to many of the smaller bases
    for n in (561, 1105, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    assert time.perf_counter() - start < 1.0


SPAN_SHAPES = [(0, 4), (3, 0), (0, 0), (1, 5), (4, 4), (5, 3), (2, 5)]


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_span_dimension_matches_minor_oracle(p):
    f = Field(p)
    rng = np.random.default_rng(200 + p)
    assert len(Span(f, 4)) == 0
    for m, n in SPAN_SHAPES:
        for k in range(min(m, n) + 1):
            rows = _random_low_rank(f, rng, m, n, k)
            span = Span(f, n, rows)
            assert len(span) == brute_force_rank(f, rows)
            assert span.basis.shape == (len(span), n)
            if span.pivots:
                assert np.array_equal(span.basis[:, span.pivots], f.eye(len(span)))


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_span_reduce_vanishes_exactly_on_members(p):
    f = Field(p)
    rng = np.random.default_rng(300 + p)
    for m, n in SPAN_SHAPES:
        if n == 0:
            continue
        for k in range(min(m, n) + 1):
            rows = _random_low_rank(f, rng, m, n, k)
            span = Span(f, n, rows)
            inside = f.matmul(random_matrix(f, rng, 3, m), rows) if m else f.zeros(3, n)
            candidates = np.concatenate([inside, random_matrix(f, rng, 3, n), f.eye(n)])
            reduced = span.reduce(candidates)
            for v, r in zip(candidates, reduced):
                assert (not r.any()) == (f.solve(rows.T, v)[0] is not None)
            assert not span.reduce(inside).any()


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_span_added_in_blocks_equals_one_rref(p):
    f = Field(p)
    rng = np.random.default_rng(400 + p)
    for m, n, k in ((7, 5, 3), (6, 6, 6), (8, 4, 2), (5, 7, 5), (4, 3, 0)):
        rows = _random_low_rank(f, rng, m, n, k)
        r, pivots = f.rref(rows)
        for cuts in ([2, 5], [1], [0, 3, 3], [m]):
            span = Span(f, n)
            for block in np.split(rows, cuts):
                span.add(block)
            order = np.argsort(span.pivots)
            assert [span.pivots[i] for i in order] == pivots
            assert np.array_equal(span.basis[order], r[: len(pivots)])


def _random_complex(f, rng, widths):
    """Maps C^j -> C^{j+1} of random rank whose consecutive composites vanish."""
    deltas = []
    for src, tgt in zip(widths, widths[1:]):
        if deltas:
            # rows in the left kernel of the previous map
            left = f.kernel_matrix(deltas[-1].T).T
        else:
            left = f.eye(src)
        k = int(rng.integers(0, left.shape[0] + 1))
        mix = _random_low_rank(f, rng, tgt, left.shape[0], k)
        deltas.append(f.matmul(mix, left) if left.shape[0] else f.zeros(tgt, src))
    return deltas


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_cochain_complex_dims_match_minor_oracle(p):
    f = Field(p)
    rng = np.random.default_rng(500 + p)
    for widths in ((3, 4, 3, 2), (0, 3, 3, 0), (4, 0, 4), (2, 5, 4, 5, 1), (1, 1, 1, 1)):
        for _ in range(3):
            deltas = _random_complex(f, rng, widths)
            cx = CochainComplex(f, deltas)
            ranks = [brute_force_rank(f, d) for d in deltas]
            assert cx.dims == [(widths[j] - ranks[j]) - (ranks[j - 1] if j else 0)
                               for j in range(len(deltas))]
            for d, z in zip(deltas, cx.cocycles):
                assert not f.matmul(d, z).any()
            assert len(cx.coboundaries(0)) == 0
            for j in range(1, len(deltas) + 1):
                assert len(cx.coboundaries(j)) == ranks[j - 1]
                # the stored span is the one a fresh elimination of delta_{j-1}^T gives
                fresh = Span(f, deltas[j - 1].shape[0], deltas[j - 1].T)
                assert cx.coboundaries(j).pivots == fresh.pivots
                assert np.array_equal(cx.coboundaries(j).basis, fresh.basis)


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_rank_modulo_coboundaries_is_the_rank_difference(p):
    f = Field(p)
    rng = np.random.default_rng(600 + p)
    for m, n_img, n_b, k in ((5, 3, 2, 2), (4, 4, 3, 1), (5, 2, 0, 0), (4, 0, 3, 2), (3, 3, 3, 3)):
        b = _random_low_rank(f, rng, m, n_b, k)
        # the image shares part of the span of b and adds at most one direction
        image = f.add(_random_low_rank(f, rng, m, n_img, 1),
                      f.matmul(b, random_matrix(f, rng, n_b, n_img)) if n_b else f.zeros(m, n_img))
        span = Span(f, m, b.T)
        expected = brute_force_rank(f, np.concatenate([image, b], axis=1)) - brute_force_rank(f, b)
        assert f.rank(span.reduce(image.T)) == expected


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_cochain_complex_refuses_maps_that_do_not_compose_to_zero(p):
    f = Field(p)
    with pytest.raises(CompositionNonzero):
        CochainComplex(f, [f.eye(2), f.eye(2)])
    first, second = f.zeros(3, 2), f.zeros(2, 3)
    first[0, 1] = second[1, 0] = f.one
    with pytest.raises(CompositionNonzero):
        CochainComplex(f, [f.zeros(2, 1), first, second])


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_span_extend_by_a_reduced_echelon_equals_add(p):
    f = Field(p)
    rng = np.random.default_rng(700 + p)
    for m, n, k in ((7, 5, 3), (6, 6, 6), (8, 4, 2), (5, 7, 5), (4, 3, 0)):
        rows = _random_low_rank(f, rng, m, n, k)
        for cut in range(m + 1):
            added, extended = Span(f, n, rows[:cut]), Span(f, n, rows[:cut])
            added.add(rows[cut:])
            echelon, pivots = f.rref(extended.reduce(rows[cut:]))
            extended.extend(echelon[: len(pivots)], pivots)
            assert extended.pivots == added.pivots
            assert np.array_equal(extended.basis, added.basis)


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_each_cochain_map_costs_one_elimination(p, monkeypatch):
    f = Field(p)
    rng = np.random.default_rng(900 + p)
    widths = (3, 4, 3, 2, 2)
    deltas_a, deltas_b = _random_complex(f, rng, widths), _random_complex(f, rng, widths)
    calls = []
    rref = Field.rref

    def counting(self, a):
        calls.append(np.shape(a))
        return rref(self, a)

    monkeypatch.setattr(Field, "rref", counting)
    a, b = CochainComplex(f, deltas_a), CochainComplex(f, deltas_b)
    for cx in (a, b):
        for j in range(len(widths)):
            cx.coboundaries(j)
    assert len(calls) == 2 * (len(widths) - 1)


def _periodic_pair(f, rng):
    """Maps A, B of k[Z/3] + k with AB = BA = 0: 1 - s and the norm 1 + s + s^2 on
    the regular summand, zero on the trivial one, in a random basis."""
    a, b = f.zeros(4, 4), f.zeros(4, 4)
    for i in range(3):
        a[i, i], a[(i + 1) % 3, i] = f.one, f.neg(f.one)
        b[:3, i] = f.one
    conj = random_invertible(f, rng, 4)
    inverse, _ = f.solve(conj, f.eye(4))
    return f.matmul(f.matmul(conj, a), inverse), f.matmul(f.matmul(conj, b), inverse)


@pytest.mark.parametrize("p", [3, 0])
def test_cochain_complex_with_repeated_maps(p, monkeypatch):
    """[A, B, A, B, A] has at each degree the cohomology of its two neighbouring
    maps alone, eliminates each distinct map once and composes each distinct
    pair of neighbours once, also when the repeats are equal arrays held in
    different objects."""
    f = Field(p)
    a, b = _periodic_pair(f, np.random.default_rng(1000 + p))
    assert not f.matmul(a, b).any() and not f.matmul(b, a).any()
    deltas = [a, b, a.copy(), b.copy(), a.copy()]
    calls, composed = [], []
    rref, matmul = Field.rref, Field.matmul

    def counting(self, m):
        calls.append(np.shape(m))
        return rref(self, m)

    def composing(self, x, y):
        if any(x is d for d in deltas):
            composed.append((x, y))
        return matmul(self, x, y)

    monkeypatch.setattr(Field, "rref", counting)
    monkeypatch.setattr(Field, "matmul", composing)
    cx = CochainComplex(f, deltas)
    assert len(calls) == 2
    assert len(composed) == 2  # B A and A B
    monkeypatch.undo()
    around = [f.zeros(4, 0)] + deltas + [f.zeros(0, 4)]
    assert cx.dims == [subquotient_dim(f, around[j], around[j + 1]) for j in range(5)]
    assert cx.dims == [2, 1, 1, 1, 1]
    assert cx.coboundaries(1) is cx.coboundaries(3) is cx.coboundaries(5)
    assert cx.cocycles[1] is cx.cocycles[3]


@pytest.mark.parametrize("p", [3, 0])
def test_cochain_complex_tells_equal_bytes_of_other_shapes_apart(p):
    f = Field(p)
    assert array_key(f.zeros(2, 3)) != array_key(f.zeros(3, 2))
    cx = CochainComplex(f, [f.zeros(2, 3), f.zeros(3, 2), f.zeros(2, 3)])
    assert cx.dims == [3, 2, 3]
    assert [z.shape for z in cx.cocycles] == [(3, 3), (2, 2), (3, 3)]
    assert [len(cx.coboundaries(j)) for j in range(4)] == [0, 0, 0, 0]


@pytest.mark.parametrize("p", [3, 0])
def test_cochain_complex_checks_every_pair_of_repeated_maps(p):
    """A repeated map is still checked against the map before it."""
    f = Field(p)
    a, b = _periodic_pair(f, np.random.default_rng(1100 + p))
    with pytest.raises(CompositionNonzero) as exc:
        CochainComplex(f, [a, b, a, a.copy(), b])
    assert exc.value.degree == 3


def _dense_field(p):
    """F_p without its packed layout: Span and rref take the dense reference path."""
    f = Field(p)
    f._lanes = None
    return f


def _check_spans_agree(packed, dense, probe):
    """The packed and dense spans agree on everything a caller reads, and on
    the in-order greedy pick of the probe rows."""
    assert isinstance(packed, PackedSpan) and type(dense) is Span
    reduced = packed.reduce(probe)
    assert reduced.dtype == np.int64 and np.array_equal(reduced, dense.reduce(probe))
    assert len(packed) == len(dense) and packed.pivots == dense.pivots
    assert np.array_equal(packed.basis, dense.basis)
    assert np.array_equal(packed.reduce(probe), reduced)  # read again, after the basis
    rows = packed.pack(probe)
    picked = packed.independent(rows)
    assert picked == dense.independent(dense.pack(probe))
    assert picked == dense.field.rref(dense.reduce(probe).T)[1]
    assert [packed.contains(v) for v in rows] == [not r.any() for r in reduced]


@given(p=st.sampled_from(PACKED_PRIMES), n=st.integers(0, 19), data=st.data())
def test_packed_span_equals_the_dense_span(p, n, data):
    """Blocks added one after another, with widths that are not whole bytes
    (F_2) and empty blocks, then one block appended by extend as CochainComplex
    does; a copy grows apart from its source."""
    f, ref = Field(p), _dense_field(p)

    def rows(count):
        """count rows from a drawn seed, with a drawn share of nonzero entries."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        share = data.draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
        return rng.integers(0, p, size=(count, n)) * (rng.random((count, n)) < share)

    packed, dense = Span(f, n), Span(ref, n)
    for _ in range(data.draw(st.integers(0, 3))):
        block = rows(data.draw(st.integers(0, 6)))
        assert packed.add(block) == dense.add(block)
        _check_spans_agree(packed, dense, rows(data.draw(st.integers(0, 4))))
    before = (list(packed.pivots), packed.basis.copy())
    grown, grown_dense = packed.copy(), dense.copy()
    echelon, pivots = f.rref(grown.reduce(rows(3)))
    grown.extend(echelon[: len(pivots)], pivots)
    grown_dense.extend(echelon[: len(pivots)], pivots)
    _check_spans_agree(grown, grown_dense, rows(3))
    assert packed.pivots == before[0] and np.array_equal(packed.basis, before[1])
    _check_spans_agree(packed, dense, rows(2))


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("m, n", DIFFERENCE_SHAPES)
def test_packed_span_of_shuffled_difference_rows(p, m, n):
    a = Field(p).array(_difference_rows(p, m, n))
    packed, dense = Span(Field(p), n), Span(_dense_field(p), n)
    for block in np.array_split(a, 3):
        assert packed.add(block) == dense.add(block)
    _check_spans_agree(packed, dense, a[: min(m, 40)])
