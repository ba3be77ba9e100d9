"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); the only stated tolerances are wall
clock budgets, asserted per criterion.
"""

import random
import time
from pathlib import Path

import numpy as np

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.cli import run as cli_run
from amalgext.induction import (
    IndElement,
    chi,
    g_act,
    g_translate,
    gamma,
    iota,
    pi,
    tensor_identity,
    tensor_identity_inverse,
    trivial_grep,
)
from amalgext.linalg import Field
from amalgext.mayer_vietoris import (
    MVComplex,
    abelianized_hom_dim,
    ext_G,
    hom_sequence_check,
    verify_les,
)
from amalgext.tree import build_ball, chain_complex

from conftest import bundled, grep2, random_grep, sl2z_word_to_matrix, subgroup_words

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLED = ["d-infinity.amg", "psl2z.amg", "sl2z.amg", "psl2z-f5.amg", "sl2z-f5.amg"]

# the five standard verification instances: bundled amalgam plus characteristic
STANDARD_FIVE = [("d-infinity", 2), ("sl2z", 2), ("sl2z", 3), ("psl2z", 2), ("psl2z", 3)]


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_hom_sequence_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    from amalgext.instfile import parse

    for name in BUNDLED:
        built = parse(str(FIXTURES / name)).build()
        d, f = built.datum, built.field
        pairs = [(trivial_grep(d, f), trivial_grep(d, f))]
        while len(pairs) < 12:
            pairs.append((random_grep(d, f, rng), random_grep(d, f, rng)))
        for v1, v2 in pairs:
            out = hom_sequence_check(v1, v2)
            assert out["exact_at_middle"] and out["image_in_kernel"], name
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 1",
        elapsed < 30.0,
        f"four-term Hom sequence exact on {checked} pairs across {len(BUNDLED)} "
        f"instances ({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_short_exact_sequence_mv_check():
    start = time.monotonic()
    runs = 0
    for name in BUNDLED:
        path = str(FIXTURES / name)
        nontrivial = "flip2" if name.startswith("d-infinity") else "std2"
        for rep_name in ("triv", nontrivial):
            for radius in (1, 2, 3, 4):
                code, text = cli_run(["mv-check", path, "--radius", str(radius),
                                      "--grep", rep_name])
                assert code == 0 and "RESULT: PASS" in text, (name, rep_name, radius)
                runs += 1
    # the characteristic-3 companions of the standard five
    for name in ("sl2z.amg", "psl2z.amg"):
        for radius in (1, 2, 3, 4):
            code, text = cli_run(["mv-check", str(FIXTURES / name), "--char", "3",
                                  "--radius", str(radius), "--grep", "std2"])
            assert code == 0, (name, radius)
            runs += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 2",
        elapsed < 60.0,
        f"injectivity, middle exactness and surjectivity on {runs} mv-check runs "
        f"at radii <= 4 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_3_mayer_vietoris_les():
    worst = 0.0
    total_nodes = 0
    for name, p in STANDARD_FIVE:
        start = time.monotonic()
        d = bundled(name).datum
        f = Field(p)
        k = trivial_grep(d, f)
        v = grep2(d, f)
        for v1 in (k, v):
            for v2 in (k, v):
                rep = verify_les(v1, v2, 5)
                assert rep.exact, (name, p, v1.dim, v2.dim)
                total_nodes += len(rep.nodes)
        worst = max(worst, time.monotonic() - start)
    _report(
        "criterion 3",
        worst < 120.0,
        f"long exact sequence exact at all {total_nodes} nodes, degrees <= 5, "
        f"5 instances x 4 module pairs (worst instance {worst:.1f}s < 120s)",
    )


def test_criterion_4_quantitative_anchors():
    f2 = Field(2)
    d_inf = bundled("d-infinity").datum
    dims = ext_G(trivial_grep(d_inf, f2), trivial_grep(d_inf, f2), 5)
    assert dims == [1, 2, 2, 2, 2, 2], dims

    expected_oracle = {
        ("d-infinity", 2): 2,
        ("sl2z", 2): 1,
        ("sl2z", 3): 1,
        ("psl2z", 2): 1,
        ("psl2z", 3): 1,
        ("psl2z", 5): 0,
    }
    checks = []
    for (name, p), expected in expected_oracle.items():
        d = bundled(name).datum
        f = Field(p)
        oracle = abelianized_hom_dim(d, p)
        assert oracle == expected, (name, p, oracle)
        computed = ext_G(trivial_grep(d, f), trivial_grep(d, f), 1)[1]
        assert computed == oracle, (name, p, computed, oracle)
        checks.append((name, p))
    _report(
        "criterion 4",
        True,
        "ext dims (1,2,2,2,2,2) for d-infinity/F2; Ext^1 matches the "
        f"abelianization oracle on {len(checks)} instance/characteristic pairs",
    )


def test_criterion_5_injective_dimension_consequence():
    rng = np.random.default_rng(55)
    d = bundled("psl2z").datum
    f = Field(5)
    k = trivial_grep(d, f)
    v = grep2(d, f)
    pairs = [(k, k), (v, k), (k, v), (v, v),
             (random_grep(d, f, rng), random_grep(d, f, rng)),
             (random_grep(d, f, rng), random_grep(d, f, rng))]
    for v1, v2 in pairs:
        dims = ext_G(v1, v2, 5)
        assert all(x == 0 for x in dims[2:]), dims
    _report(
        "criterion 5",
        True,
        f"Ext^j = 0 for j >= 2 on {len(pairs)} module pairs over psl2z/F5 "
        "(characteristic coprime to both factor orders)",
    )


def test_criterion_6_tree_and_chain_checks():
    count = 0
    for name, chars in (("d-infinity", (2, 3)), ("psl2z", (2, 5)), ("sl2z", (2, 3, 5))):
        d = bundled(name).datum
        for r in range(0, 6):
            ball = build_ball(d, r)
            assert ball.num_vertices == ball.num_edges + 1
            assert ball.is_forest() and ball.is_connected()
            for p in chars:
                f = Field(p)
                boundary, aug = chain_complex(ball, f)
                assert not np.any(f.matmul(aug, boundary))
                assert f.rank(boundary) == ball.num_edges          # H_1 = 0
                assert ball.num_vertices - f.rank(boundary) == 1   # H_0 = k
                count += 1
    sl2 = bundled("sl2z").datum
    ball = build_ball(sl2, 5)
    degs = ball.degrees()
    for i in ball.interior_vertices():
        assert degs[i] == (2 if ball.vertices[i].tag == TAG_K1 else 3)
    _report(
        "criterion 6",
        True,
        f"tree property and chain exactness on {count} (ball, field) checks up to "
        "radius 5; sl2z interior degrees exactly (2, 3)",
    )


def _seeded_vector(rng, field, dim):
    v = field.array([rng.randrange(max(field.p, 2)) for _ in range(dim)])
    if not np.any(v != 0):
        v[rng.randrange(dim)] = 1
    return v


def test_criterion_7_property_suite():
    rng = random.Random(7777)
    f2, f3 = Field(2), Field(3)
    sl2 = bundled("sl2z").datum
    datums = [bundled("d-infinity").datum, bundled("psl2z").datum, sl2]
    words = {d.name: d.reduced_words(3) for d in datums}
    greps = {(d.name, f.p): grep2(d, f) for d in datums for f in (f2, f3)}

    # pi o iota = id, 1000 seeded cases
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        v = greps[(d.name, f.p)]
        tag = rng.choice((TAG_K1, TAG_K2, TAG_I))
        x = _seeded_vector(rng, f, v.dim)
        assert np.array_equal(pi(iota(tag, v, x)), x)

    # iota equivariance under the inducing subgroup, 1000 seeded cases
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        v = greps[(d.name, f.p)]
        tag = rng.choice((TAG_K1, TAG_K2, TAG_I))
        subgroup = {TAG_K1: 1, TAG_K2: 2}.get(tag)
        elems = subgroup_words(d, tag)
        k, kw = elems[rng.randrange(len(elems))]
        x = _seeded_vector(rng, f, v.dim)
        lhs = g_translate(iota(tag, v, x), kw)
        rhs = iota(tag, v, f.matmul(v.module(tag).mats[k], x))
        assert lhs == rhs

    # pi and gamma equivariance, 1000 seeded cases each
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        v = greps[(d.name, f.p)]
        ws = words[d.name]
        g0, g = rng.choice(ws), rng.choice(ws)
        felem = chi(TAG_K2, v, g0, _seeded_vector(rng, f, v.dim))
        assert np.array_equal(pi(g_translate(felem, g)), g_act(v, g, pi(felem)))
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        v = greps[(d.name, f.p)]
        ws = words[d.name]
        g0, g = rng.choice(ws), rng.choice(ws)
        felem = chi(TAG_I, v, g0, _seeded_vector(rng, f, v.dim))
        side = rng.choice((1, 2))
        assert gamma(side, g_translate(felem, g)) == g_translate(gamma(side, felem), g)

    # tensor identity roundtrip and the commuting square, 1000 seeded cases each
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        scal = trivial_grep(d, f)
        v = greps[(d.name, f.p)]
        ws = words[d.name]
        parts = {}
        for w in rng.sample(ws, min(2, len(ws))):
            parts[d.canon(TAG_K1, w).word] = f.array([rng.randrange(1, max(f.p, 2))])
        felem = IndElement(TAG_K1, scal, parts)
        vec = _seeded_vector(rng, f, v.dim)
        big = tensor_identity(felem, v, vec)
        total = None
        for piece, wv in tensor_identity_inverse(big, scal):
            summand = tensor_identity(piece, v, wv)
            total = summand if total is None else total + summand
        assert (total is None and not big.support) or total == big
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        scal = trivial_grep(d, f)
        v = greps[(d.name, f.p)]
        ws = words[d.name]
        parts = {d.canon(TAG_I, w).word: f.array([1]) for w in rng.sample(ws, min(2, len(ws)))}
        felem = IndElement(TAG_I, scal, parts)
        vec = _seeded_vector(rng, f, v.dim)
        side = rng.choice((1, 2))
        assert gamma(side, tensor_identity(felem, v, vec)) == \
            tensor_identity(gamma(side, felem), v, vec)

    # g_act is a homomorphism, 1000 seeded cases
    for _ in range(1000):
        d = rng.choice(datums)
        f = rng.choice((f2, f3))
        v = greps[(d.name, f.p)]
        ws = words[d.name]
        u, w = rng.choice(ws), rng.choice(ws)
        x = _seeded_vector(rng, f, v.dim)
        assert np.array_equal(g_act(v, d.multiply(u, w), x), g_act(v, u, g_act(v, w, x)))

    # normal-form arithmetic against the integer matrix model, 1000 seeded cases
    sl2_words = words["sl2z"]
    for _ in range(1000):
        u, w = rng.choice(sl2_words), rng.choice(sl2_words)
        assert np.array_equal(sl2z_word_to_matrix(sl2.multiply(u, w)),
                              sl2z_word_to_matrix(u) @ sl2z_word_to_matrix(w))

    # d o d = 0 on every resolution and assembled cone, over 1000 composite checks
    zero_checks = 0
    rng_np = np.random.default_rng(31)
    combos = []
    for d in datums:
        for f in (f2, f3):
            k = trivial_grep(d, f)
            v = greps[(d.name, f.p)]
            combos.extend([(d, f, k, k), (d, f, v, k), (d, f, k, v), (d, f, v, v)])
            combos.append((d, f, random_grep(d, f, rng_np), random_grep(d, f, rng_np)))
            combos.append((d, f, random_grep(d, f, rng_np), random_grep(d, f, rng_np)))
    for d, f, v1, v2 in combos:
        mv = MVComplex(v1, v2, 4)
        for res in (mv.q, mv.p[0], mv.p[1]):
            for j in range(2, res.length() + 1):
                assert not res.diffs[j].mul(res.diffs[j - 1]).coeffs.any()
                zero_checks += 1
            assert not np.any(f.matmul(res.diff_operator(0), res.diff_operator(1)))
            # the kernel cover that closes the cone's top in place of d_5
            assert not res.kernel_cover(4).mul(res.diffs[4]).coeffs.any()
            zero_checks += 2
        for j in range(len(mv.deltas) - 1):
            assert not np.any(f.matmul(mv.deltas[j + 1], mv.deltas[j]))
            zero_checks += 1
        for deltas in (mv.delta_q, mv.delta_p[0], mv.delta_p[1]):
            for j in range(len(deltas) - 1):
                assert not np.any(f.matmul(deltas[j + 1], deltas[j]))
                zero_checks += 1
    assert zero_checks >= 1000, zero_checks

    # report byte determinism across two runs
    for args in (
        ["les", str(FIXTURES / "sl2z.amg"), "--degree", "4"],
        ["mv-check", str(FIXTURES / "psl2z.amg"), "--radius", "3", "--grep", "std2"],
        ["chain", str(FIXTURES / "d-infinity.amg"), "--radius", "4"],
        ["tree", str(FIXTURES / "sl2z-f5.amg"), "--radius", "3"],
    ):
        assert cli_run(args) == cli_run(args)

    _report(
        "criterion 7",
        True,
        f"property suite green: 7 seeded families x 1000 cases, {zero_checks} "
        "zero-composite checks, byte-identical reports",
    )
