import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import amalgext.instfile as instfile
from amalgext.cli import MAX_BALL_CELLS, main, run
from amalgext.instfile import ParseError, ValidationError, parse, parse_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
S4_INSTANCE = str(FIXTURES.parent / "bench" / "instances" / "s4-s3-s4.amg")
ALL_FIXTURES = ["d-infinity.amg", "psl2z.amg", "sl2z.amg", "psl2z-f5.amg", "sl2z-f5.amg"]


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_all_bundled_fixtures_parse_and_validate():
    for name in ALL_FIXTURES:
        inst = parse(fixture(name))
        built = inst.build()
        assert built.datum.K1.order >= 1
        assert built.name == name[:-4]


def test_sl2z_fixture_matches_programmatic_datum():
    """The fixture is Z/4 *_{Z/2} Z/6, with I = {1, -1} sent to {e, a^2} and {e, b^3}."""
    built = parse(fixture("sl2z.amg")).build()
    d = built.datum
    assert d.K1.order == 4 and d.K2.order == 6 and d.I.order == 2
    assert d.K1.labels == ["e", "a", "aa", "aaa"]
    assert d.K2.labels == ["e", "b", "bb", "bbb", "bbbb", "bbbbb"]
    assert list(d.emb1.mapping) == [0, 2]
    assert list(d.emb2.mapping) == [0, 3]
    std = built.grep("std2")
    assert std.dim == 2


def test_non_homomorphic_embedding_reports_line_and_pair(tmp_path):
    bad = tmp_path / "bad.amg"
    bad.write_text(
        "[instance]\n"
        "name = broken\n"
        "characteristic = 2\n"
        "[group K1]\n"
        "perm a = 1 2 3 0\n"
        "[group K2]\n"
        "perm b = 1 2 3 4 5 0\n"
        "[subgroup I]\n"
        "perm z = 1 0\n"
        "embed K1 = 0 1\n"
        "embed K2 = 0 3\n"
    )
    with pytest.raises(ValidationError) as err:
        parse(str(bad))
    assert "line 10" in str(err.value)
    assert "(z, z)" in str(err.value)


def test_parse_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_text("[instance]\nname = x\ncharacteristic = 4\n")
    assert "characteristic 4 is not prime" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_text("[instance\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_text("noise\n")
    assert "line 1" in str(err.value)


def test_grep_block_invalid_in_overridden_characteristic():
    inst = parse(fixture("d-infinity.amg"))
    # flip2 uses -1 entries, so it stays valid in characteristic 3 as well
    built = inst.build(3)
    assert built.grep("flip2").dim == 2


@pytest.mark.parametrize("char, builds", [([], 1), (["--char", "2"], 1), (["--char", "3"], 2)])
def test_one_cli_run_builds_each_grep_once_per_field(monkeypatch, char, builds):
    # parsing builds over the declared F2 to validate; the run reuses that
    # instance unless it asks for another characteristic
    calls = []
    real = instfile.grep_from_generators

    def counting(datum, fld, gens1, gens2):
        calls.append(fld.p)
        return real(datum, fld, gens1, gens2)

    monkeypatch.setattr(instfile, "grep_from_generators", counting)
    code, _ = run(["les", fixture("sl2z.amg"), "--degree", "2", "--v1", "std2"] + char)
    assert code == 0
    assert len(calls) == builds
    assert calls[-1] == (int(char[1]) if char else 2)


def test_cli_validate_ok_exit_zero(capsys):
    assert main(["validate", fixture("psl2z.amg")]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert out.startswith("# amalgext report format 1")


def test_cli_missing_file_exit_two():
    code, text = run(["validate", "no-such-file.amg"])
    assert code == 2
    assert "error" in text


def test_cli_invalid_file_exit_two(tmp_path):
    bad = tmp_path / "bad.amg"
    bad.write_text("[instance]\nname = x\ncharacteristic = 2\n")
    code, text = run(["validate", str(bad)])
    assert code == 2
    assert "error" in text


def test_cli_huge_characteristic_exits_two_fast():
    for char in ("1000000000000000003", "3037000507"):  # primes too large for int64 products
        start = time.perf_counter()
        code, text = run(["validate", fixture("sl2z.amg"), "--char", char])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text.startswith("error: ") and f"characteristic {char} is too large" in text
    code, text = run(["validate", fixture("sl2z.amg"), "--char", "1000000000000000001"])
    assert code == 2 and "characteristic must be a prime" in text


@pytest.mark.parametrize("argv, message", [
    (["validate", "sl2z.amg", "--char", "3037000507"],
     "--char: characteristic 3037000507 is too large for exact int64 arithmetic "
     "(at most 3037000500)"),
    (["validate", "sl2z.amg", "--char", "9"], "--char: characteristic must be a prime, got 9"),
    (["ext", "sl2z.amg", "--degree", "-1"], "--degree: degree must be nonnegative"),
    (["les", "sl2z.amg", "--degree", "0"], "--degree: degree must be at least 1"),
], ids=["char-too-large", "char-not-prime", "ext-degree-negative", "les-degree-zero"])
def test_option_errors_name_the_option(argv, message):
    command, name, *options = argv
    assert run([command, fixture(name)] + options) == (2, f"error: {message}\n")


def test_a_group_over_the_order_limit_is_refused_at_its_section_fast(tmp_path):
    path = tmp_path / "s7.amg"
    path.write_text("[instance]\nname = s7\ncharacteristic = 2\n\n"
                    "[group K1]\nperm a = 1 0 2 3 4 5 6\nperm b = 1 2 3 4 5 6 0\n\n"
                    "[group K2]\nperm c = 1 0\n\n"
                    "[subgroup I]\ntable = 0\nembed K1 = 0\nembed K2 = 0\n")
    start = time.perf_counter()
    code, text = run(["validate", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, text) == (2, f"error: {path}: line 5: group K1: the generated group has "
                               "order over the limit of 1000\n")


def test_declared_characteristic_too_large_is_refused(tmp_path):
    text = Path(fixture("sl2z.amg")).read_text()
    big = tmp_path / "big.amg"
    big.write_text(text.replace("characteristic = 2", "characteristic = 3037000507"))
    code, out = run(["validate", str(big)])
    assert code == 2 and "too large" in out
    big.write_text(text.replace("characteristic = 2", "characteristic = 3037000493"))
    code, out = run(["validate", str(big)])
    assert code == 0 and "characteristic: 3037000493" in out


def test_cli_unknown_grep_exit_two():
    code, text = run(["les", fixture("psl2z.amg"), "--v1", "nope", "--v2", "triv"])
    assert code == 2
    assert "nope" in text


def test_cli_les_command_passes():
    code, text = run(["les", fixture("sl2z.amg"), "--char", "2", "--degree", "5",
                      "--v1", "triv", "--v2", "triv"])
    assert code == 0
    assert "long exact sequence: PASS" in text
    assert text.count("FAIL") == 0


def test_cli_mv_check_passes():
    code, text = run(["mv-check", fixture("d-infinity.amg"), "--char", "2", "--radius", "3"])
    assert code == 0
    assert "injective: PASS" in text
    assert "middle exact: PASS" in text
    assert "surjective: PASS" in text


def test_cli_tree_reports_degrees_and_writes_dot(tmp_path):
    dot = tmp_path / "out.dot"
    code, text = run(["tree", fixture("sl2z.amg"), "--radius", "3", "--dot", str(dot)])
    assert code == 0
    assert "interior K1 degrees: [2]" in text
    assert "interior K2 degrees: [3]" in text
    content = dot.read_text()
    assert content.startswith("graph tree_ball {")
    code2, text2 = run(["tree", fixture("sl2z.amg"), "--radius", "3", "--dot", str(dot)])
    assert content == dot.read_text()


def test_cli_chain_command():
    code, text = run(["chain", fixture("psl2z.amg"), "--radius", "4"])
    assert code == 0
    assert "H_1 = 0: PASS" in text and "H_0 = k: PASS" in text


def test_cli_ext_over_each_group():
    for over, expected in (("G", "ext_G: 1 2 2 2"), ("K1", "ext_K1: 1 1 1 1"),
                           ("I", "ext_I: 1 0 0 0")):
        code, text = run(["ext", fixture("d-infinity.amg"), "--degree", "3", "--over", over])
        assert code == 0
        assert expected in text


def test_cli_char_override_runs_f3_checks():
    code, text = run(["les", fixture("sl2z.amg"), "--char", "3", "--degree", "4"])
    assert code == 0
    assert "characteristic: 3" in text


def test_cli_reports_byte_identical_across_runs():
    args = ["les", fixture("sl2z.amg"), "--degree", "4", "--v1", "std2", "--v2", "std2"]
    out1 = run(args)
    out2 = run(args)
    assert out1 == out2
    args = ["mv-check", fixture("sl2z-f5.amg"), "--radius", "3", "--grep", "std2"]
    assert run(args) == run(args)


def test_cli_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.txt"
    code, text = run(["chain", fixture("sl2z.amg"), "--radius", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text() == text


def test_cli_runs_in_one_process_match_fresh_processes(tmp_path):
    """One process parses every argv with one parser; no option carries over."""
    out = tmp_path / "report.txt"
    commands = [
        ["ext", fixture("sl2z.amg"), "--char", "3", "--degree", "5", "--out", str(out)],
        ["ext", fixture("sl2z.amg")],
        ["les", fixture("psl2z.amg"), "--degree", "2", "--v1", "triv"],
        ["ext"],
        ["tree", fixture("d-infinity.amg"), "--radius", "2"],
        ["mv-check", fixture("sl2z-f5.amg"), "--grep", "std2"],
        ["validate", fixture("sl2z.amg")],
    ]
    in_process = []
    for argv in commands:
        in_process.append(run(argv))
        if out.exists():
            assert argv[-2:] == ["--out", str(out)]
            out.unlink()
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    main_call = "import sys; from amalgext.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, (code, text) in zip(commands, in_process):
        argv = [str(tmp_path / "fresh.txt") if a == str(out) else a for a in argv]
        fresh = subprocess.run([sys.executable, "-c", main_call, *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (fresh.returncode, fresh.stdout) == (code, text), argv
    assert "characteristic: 2" in in_process[1][1]
    assert "ext_G: 1 1 1 1" in in_process[1][1].splitlines()  # degree 3, not 5


@pytest.mark.parametrize("command", ["tree", "chain", "mv-check"])
def test_cli_refuses_a_huge_radius_quickly(command):
    start = time.perf_counter()
    code, text = run([command, S4_INSTANCE, "--radius", "40"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert text.startswith("error: --radius 40 spans at least 2185 edge cosets")
    assert f"over the limit of {MAX_BALL_CELLS} cells" in text


def test_cli_radius_limit_counts_edge_cosets_times_dimension():
    # D-infinity has 2r + 1 edge cosets of length <= r
    largest = (MAX_BALL_CELLS - 1) // 2
    assert run(["tree", fixture("d-infinity.amg"), "--radius", str(largest)])[0] == 0
    assert run(["tree", fixture("d-infinity.amg"), "--radius", str(largest + 1)])[0] == 2
    code, text = run(["mv-check", fixture("d-infinity.amg"), "--grep", "flip2",
                      "--radius", str(largest // 2 + 1)])
    assert code == 2 and " x dim 2, " in text
    code, text = run(["tree", fixture("d-infinity.amg"), "--radius", str(10**15)])
    assert code == 2 and f"at least {MAX_BALL_CELLS + 1} edge cosets" in text


def test_s4_ext_to_degree_8_matches_the_greedy_resolution_dims():
    """S4 *_{S3} S4 has no closed form; its anchor is the dims that the greedy
    first-fit resolution gave, which any generator rule must keep."""
    start = time.perf_counter()
    code, text = run(["ext", S4_INSTANCE, "--char", "2", "--degree", "8"])
    assert code == 0
    assert "ext_G: 1 1 3 5 5 7 9 9 11" in text.splitlines()
    assert "degree 1 matches abelianization oracle: PASS" in text.splitlines()
    assert time.perf_counter() - start < 5.0


_HEAD = "[instance]\nname = gens\ncharacteristic = 3\n[group K1]\nperm a = 1 2 3 0\n"
_REST = ("[group K2]\nperm b = 1 0\n"
         "[subgroup I]\ntable = 0\nembed K1 = 0\nembed K2 = 0\n")


def test_cli_refuses_a_generator_named_e_that_would_pose_as_the_identity(tmp_path):
    # perm e is a^2, and its block I would silently be read as the identity's,
    # while the block of a squares to -I; the file is inconsistent
    path = tmp_path / "e.amg"
    path.write_text(_HEAD + "perm e = 2 3 0 1\n" + _REST
                    + "[grep bad]\nmat K1 a = 0 -1 / 1 0\nmat K1 e = 1 0 / 0 1\n"
                      "mat K2 b = 1 0 / 0 1\n")
    code, text = run(["validate", str(path)])
    assert code == 2
    assert text == (f"error: {path}: line 6: generator name 'e' is reserved "
                    "for the identity\n")


@pytest.mark.parametrize("perm, message", [
    ("perm a = 2 3 0 1", "generator 'a' is named twice"),
    ("perm b = 0 1 2 3", "generator 'b' is the identity; write 'table = 0' for the trivial group"),
    ("perm c = 1 2 3 0", "generator 'c' repeats generator 'a'"),
    ("perm b = 0 0 1 2", "generator 'b' is not a permutation of 0..3: 0 0 1 2"),
    ("perm b = 1 0 2", "generator 'b' moves 3 points, but generator 'a' moves 4"),
])
def test_cli_refuses_a_repeated_or_trivial_generator_at_its_line(tmp_path, perm, message):
    path = tmp_path / "gens.amg"
    path.write_text(_HEAD + perm + "\n" + _REST)
    code, text = run(["validate", str(path)])
    assert code == 2
    assert text == f"error: {path}: line 6: {message}\n"
    with pytest.raises(ValidationError) as err:
        parse(str(path))
    assert err.value.line == 6


def test_each_generator_index_is_the_element_labelled_with_its_name():
    paths = [fixture(name) for name in ALL_FIXTURES] + [S4_INSTANCE, S4_INSTANCE.replace(
        "s4-s3-s4", "gl2z")]
    checked = 0
    for path in paths:
        for section in instfile._split_sections(Path(path).read_text()):
            if section.header in ("group K1", "group K2", "subgroup I"):
                group, index = instfile._build_group(section, section.header)
                assert all(group.labels[k] == nm for nm, k in index.items())
                checked += len(index)
    assert checked > 0


BIG = str(2**64)


@pytest.mark.parametrize("old, new, line, message", [
    ("characteristic = 2", "characteristic = 3037000507", 7,
     "characteristic 3037000507 is too large for exact int64 arithmetic (at most 3037000500)"),
    ("characteristic = 2", "characteristic = 4", 7, "characteristic 4 is not prime"),
    ("mat K1 a = 0 -1 / 1 0", f"mat K1 a = 0 {BIG} / 1 0", 22,
     f"integer out of int64 range in '0 {BIG} '"),
    ("mat z = -1", f"mat z = {BIG}", 28, f"integer out of int64 range in '{BIG}'"),
    ("perm z = 1 0", f"table = {BIG}", 16, f"integer out of int64 range in '{BIG}'"),
    ("embed K1 = 0 2", f"embed K1 = 0 {BIG}", 17, f"integer out of int64 range in '0 {BIG}'"),
    ("embed K1 = 0 2", "embed K1 = 0 7", 17, "embedding entries must be elements 0..3 of K1"),
    ("embed K2 = 0 3", "embed K2 = 0 -1", 18, "embedding entries must be elements 0..5 of K2"),
])
def test_cli_refuses_integers_out_of_range_at_their_line(tmp_path, old, new, line, message):
    # each of these raised OverflowError or IndexError, or was reported at line 0
    path = tmp_path / "range.amg"
    path.write_text(Path(fixture("sl2z.amg")).read_text().replace(old, new))
    code, text = run(["validate", str(path)])
    assert code == 2
    assert text == f"error: {path}: line {line}: {message}\n"


FIXTURE_LINES = [Path(fixture(name)).read_text().splitlines() for name in ALL_FIXTURES]
LINE_POOL = sorted({line for lines in FIXTURE_LINES for line in lines})
TOKENS = ["0", "1", "2", "3", "5", "-1", "7", "x", "e", "K1", "I", "/", "=", "#", "[", "]",
          "[group K1]", "perm", "mat", "table", "3037000507", BIG]


@st.composite
def mutated_fixtures(draw):
    """A bundled fixture after one to three line-level mutations: a line
    deleted, duplicated, swapped with another, replaced by or preceded by a
    line of any fixture, or one of its tokens replaced, deleted or preceded by
    another token."""
    lines = list(draw(st.sampled_from(FIXTURE_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert", "token"]))
        if kind == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(LINE_POOL)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace":
            lines[i] = draw(st.sampled_from(LINE_POOL))
        else:
            tokens = lines[i].split()
            k = draw(st.integers(0, len(tokens)))
            edit = draw(st.sampled_from(["replace", "delete", "insert"]))
            if edit == "insert" or k == len(tokens):
                tokens.insert(k, draw(st.sampled_from(TOKENS)))
            elif edit == "delete":
                del tokens[k]
            else:
                tokens[k] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(text=mutated_fixtures())
def test_mutated_fixtures_are_answered_or_refused_at_a_line_of_the_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.amg"
    path.write_text(text)
    code, out = run(["validate", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        head = f"error: {path}: line "
        assert out.startswith(head)
        line = int(out[len(head):].split(":", 1)[0])
        assert 1 <= line <= len(text.splitlines())
    else:
        code, out = run(["ext", str(path), "--degree", "2"])
        assert code in (0, 1, 2)
