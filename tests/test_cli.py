import argparse
import hashlib
import json
import shlex

import pytest

from partition_forge import characters, cli
from partition_forge.cli import main
from partition_forge.core import UsageError, parse_energy

from helpers import MIXED_TEXT, STRICT_TEXT

FLAT_TEXT = "6a 5a 5b 4c 4c 4c 4b 4a 3c 3a 2a 1c 1c 1b 1a 1b 1b 0c"
REGULAR_TEXT = "10a 8a 8b 7b 5a 4a 3a 2b 1a 1b 1b 0c"


# not minimal (eps(b, a) = 2): the word ba at size 4 has two F2 and two F1
# members but one R1 member
NON_MINIMAL_TEXT = "a b g\ng\n0 0 1\n2 0 1\n0 0 0\n"
ONE_COLOR_TEXT = "g\ng\n0\n"
# eps(b, a) = -1: 0g ... 0g 0b 1a 0g is an F1 member of size 1 for every
# number of leading 0g parts
GROUND_LOOP_TEXT = "a b g\ng\n0 0 1\n-1 0 1\n0 0 0\n"
# eps(a, b) = 0 and eps(b, g) = 0: 1a 0a 0b 0g is an F1 member of size 1
# with three parts before its terminal, past the default part cap of 2
DEEP_FLAT_TEXT = "a b g\ng\n1 0 0\n1 1 0\n1 1 0\n"


@pytest.fixture()
def energies(tmp_path):
    mixed = tmp_path / "mixed.energy"
    mixed.write_text(MIXED_TEXT)
    strict = tmp_path / "strict.energy"
    strict.write_text(STRICT_TEXT)
    return str(mixed), str(strict)


# labels a and aa prefix each other: a run of n a's splits in Fibonacci(n + 1) ways
PREFIX_TEXT = "a aa g\ng\n1 0 1\n0 1 1\n0 0 0\n"
# delta_g = 1 and eps(a, a) = 0: zero-size a parts repeat up to the length cap
ZERO_RUN_TEXT = "a g\ng\n0 0\n1 0\n"
# the ground color alone: every grounded family is just its terminal part
GROUND_ONLY_TEXT = "g\ng\n0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_omega_golden(capsys, energies):
    mixed, _ = energies
    code, out, _ = run(capsys, "omega", "--energy", mixed, "--in", FLAT_TEXT)
    assert code == 0
    assert out == REGULAR_TEXT + "\n"


def test_omega_inv_golden(capsys, energies):
    mixed, _ = energies
    code, out, _ = run(capsys, "omega-inv", "--energy", mixed, "--in", REGULAR_TEXT)
    assert code == 0
    assert out == FLAT_TEXT + "\n"


def test_output_byte_stable(capsys, energies):
    mixed, _ = energies
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "enumerate", "--family", "F1", "--energy", mixed,
                        "--max-size", "4", "--max-parts", "4")
        outs.add(out)
    assert len(outs) == 1


def test_count_trivial(capsys, energies):
    mixed, _ = energies
    code, out, _ = run(capsys, "count", "--family", "F1", "--energy", mixed,
                       "--word", "", "--size", "0")
    assert code == 0 and out == "1\n"


def test_split_merge_roundtrip(capsys, energies):
    _, strict = energies
    code, out, _ = run(capsys, "split2", "--energy", strict, "--in", "3ab 0cc")
    assert code == 0 and out == "2a 1b 0c\n"
    code, out, _ = run(capsys, "merge2", "--energy", strict, "--in", "2a 1b 0c")
    assert code == 0 and out == "3ab 0cc\n"


def test_flatten_invert(capsys, energies):
    _, strict = energies
    code, out, _ = run(capsys, "flatten", "--energy", strict, "--degree", "2",
                       "--in", "3ab 0cc")
    assert code == 0 and out == "2a 1b 0c\n"
    code, out, _ = run(capsys, "flatten", "--energy", strict, "--degree", "2",
                       "--in", "2a 1b 0c", "--invert")
    assert code == 0 and out == "3ab 0cc\n"


def test_enumerate_json(capsys, energies):
    mixed, _ = energies
    code, out, _ = run(capsys, "enumerate", "--family", "R1", "--energy", mixed,
                       "--max-size", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert {"text", "size", "parts"} <= set(data["members"][0])


def test_verify_deg2_table(capsys, energies):
    _, strict = energies
    code, out, _ = run(capsys, "verify-deg2", "--energy", strict, "--word", "ab",
                       "--max-size", "6")
    assert code == 0
    assert "verdict: pass" in out


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "glaisher_analogue",
                       "--m", "3", "--order", "16")
    assert code == 0
    assert "verdict: pass" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("16")]
    assert lines and "10" in lines[0]


def test_character_verb(capsys):
    code, out, _ = run(capsys, "character", "--family", "A2n2", "--rank", "2",
                       "--order", "4")
    assert code == 0
    assert "product matches" in out


def test_series_verb(capsys):
    spec = json.dumps([{"sign": 1, "offset": 1, "modulus": 2, "exps": []}])
    code, out, _ = run(capsys, "series", "--factors", spec, "--order", "5")
    assert code == 0
    assert out.strip() == "1 + 1*q^1 + 1*q^3 + 1*q^4 + 1*q^5"


@pytest.mark.parametrize("sign,want", ((-1, "0"), (1, "2 + 2*q^1 + 2*q^2 + 4*q^3")))
def test_series_offset_zero_unit_step(capsys, sign, want):
    spec = json.dumps([{"offset": 0, "sign": sign}])
    assert run(capsys, "series", "--factors", spec, "--order", "3") == (0, want + "\n", "")


@pytest.mark.parametrize("spec,message", (
    ('[{"sign":1}]', "has no offset"),
    ('{"offset":1}', "must be a JSON list"),
    ('[1]', "is not a JSON object"),
    ('[{"offset":"x"}]', "offset must be an integer"),
    ('[{"offset":1,"modulus":1.5}]', "modulus must be an integer"),
    ('[{"offset":true}]', "offset must be an integer"),
    ('[{"offset":1,"sign":2}]', "sign must be +1 or -1"),
    ('[{"offset":1,"exps":[1]}]', "wrong dimension"),
    ('[{"offset":1,"exps":"a"}]', "exps must be a list of integers"),
    ('[{"offset":1,"reciprocal":1}]', "reciprocal must be true or false"),
    ('[{"offset":0,"reciprocal":true}]', "needs offset >= 1"),
    ('[{"offest":1}]', "unknown factor key"),
    ('[{"offset":1', "Expecting"),
    pytest.param(('[{"offset":1}]', "--order", "1001"), "--order must be at most 1000",
                 id="order-past-limit"),
))
def test_series_malformed_factors_exit_2(capsys, spec, message):
    args = spec if isinstance(spec, tuple) else (spec, "--order", "3")
    code, out, err = run(capsys, "series", "--factors", *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv,message", (
    (("verify", "--identity", "euler", "--order", "51"), "--order must be at most 50, got 51"),
    (("verify", "--identity", "glaisher", "--m", "2", "--order", "1000000"),
     "--order must be at most 50, got 1000000"),
    (("character", "--family", "A2n2", "--rank", "2", "--order", "31"),
     "--order must be at most 30, got 31"),
    (("character", "--family", "A2n2", "--rank", "51", "--order", "1"),
     "--rank must be at most 50, got 51"),
    (("character", "--family", "Bn1-Ln", "--rank", "2000", "--order", "1"),
     "--rank must be at most 50, got 2000"),
    (("verify", "--identity", "keith_xiong", "--m", "101", "--order", "2"),
     "--m must be at most 100, got 101"),
    # the order is checked first
    (("verify", "--identity", "keith_xiong", "--m", "101", "--order", "51"),
     "--order must be at most 50, got 51"),
))
def test_size_past_limit_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_character_at_rank_limit_runs(capsys):
    code, out, _ = run(capsys, "character", "--family", "A2n2", "--rank", "50", "--order", "1")
    assert code == 0 and "product matches" in out


def test_malformed_partition_exits_2(capsys, energies):
    mixed, _ = energies
    code, out, err = run(capsys, "omega", "--energy", mixed, "--in", "5a 1b 0c")
    assert code == 2
    assert "flat relation fails" in err.lower().replace("f1", "flat")


def test_unknown_color_exits_2(capsys, energies):
    mixed, _ = energies
    code, _, err = run(capsys, "omega", "--energy", mixed, "--in", "3z 0c")
    assert code == 2 and "error" in err


def test_missing_energy_file_exits_2(capsys):
    code, _, err = run(capsys, "count", "--family", "F1", "--energy", "/no/such/file",
                       "--word", "", "--size", "0")
    assert code == 2


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    cli._shared_parser()  # the parser is built before the patch and still sees it

    def fake(name, order, m=None):
        return {"identity": name, "m": m, "order": order, "pass": False,
                "rows": [{"n": 0, "left": 1, "right": 2, "match": False}]}

    monkeypatch.setattr(cli.characters, "verify_named_identity", fake)
    code = cli.main(["verify", "--identity", "euler", "--order", "3"])
    out = capsys.readouterr().out
    assert code == 1 and "FAIL" in out


def test_character_mismatch_lines(capsys, monkeypatch):
    cli._shared_parser()  # the parser is built before the patch and still sees it
    bad = {"q": 1, "exps": [1, 0], "lhs": 2, "rhs": 1}

    def fake(family, rank, order):
        return {"paths_agree": False, "lhs_equals_rhs": False, "pass": False,
                "mismatches": [bad]}

    monkeypatch.setattr(cli.characters, "verify_character", fake)
    assert run(capsys, "character", "--family", "A2n2", "--rank", "2", "--order", "2") == (
        1, "A2n2 rank 2 to order 2: paths DISAGREE, product MISMATCH\n"
           "  q^1 [1, 0]: %r\n" % (bad,), "")


def test_series_factors_from_a_file(capsys, tmp_path):
    spec = tmp_path / "factors.json"
    spec.write_text(MIXED_FACTORS)
    for form in ((), ("--json",)):
        inline = run(capsys, "series", "--colors", "a,b", "--factors", MIXED_FACTORS,
                     "--order", "6", *form)
        assert inline[0] == 0
        assert run(capsys, "series", "--colors", "a,b", "--factors", "@%s" % spec,
                   "--order", "6", *form) == inline
    code, out, err = run(capsys, "series", "--factors", "@%s" % (tmp_path / "missing"),
                         "--order", "3")
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] No such file")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_exit_2(capsys, energies, monkeypatch, error):
    _, strict = energies

    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli.families, "count_by_word", exhausted)
    code, out, err = run(capsys, "count", "--family", "F1", "--energy", strict,
                         "--word", "ab", "--size", "3")
    assert (code, out, err) == (2, "", "error: %s\n" % error.__name__)


def test_verify_deg2_negative_max_size_exits_2(capsys, energies):
    _, strict = energies
    code, out, err = run(capsys, "verify-deg2", "--energy", strict, "--word", "a",
                         "--max-size", "-1")
    assert code == 2 and out == ""
    assert err == "error: max_size must be non-negative\n"


def test_deep_enumeration_exits_0(capsys, tmp_path):
    path = tmp_path / "zero_run.energy"
    path.write_text(ZERO_RUN_TEXT)
    code, out, err = run(capsys, "enumerate", "--family", "F1", "--energy", str(path),
                         "--max-size", "0", "--max-parts", "1500")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1501
    assert lines[0] == "0g" and lines[-1] == "0a " * 1500 + "0g"


def test_deep_r2_enumeration_exits_0(capsys, tmp_path):
    # zero-size secondary parts chain without end on the mixed energy, but
    # none can end before the terminal, so only the terminal part is listed
    path = tmp_path / "mixed.energy"
    path.write_text(MIXED_TEXT)
    code, out, err = run(capsys, "enumerate", "--family", "R2", "--energy", str(path),
                         "--max-size", "0", "--max-parts", "1500")
    assert (code, out, err) == (0, "0cc\n", "")


def test_ground_only_energy_r2(capsys, tmp_path):
    path = tmp_path / "ground_only.energy"
    path.write_text(GROUND_ONLY_TEXT)
    energy = str(path)
    code, out, _ = run(capsys, "enumerate", "--family", "R2", "--energy", energy,
                       "--max-size", "3")
    assert (code, out) == (0, "0gg\n")
    code, out, _ = run(capsys, "count", "--family", "R2", "--energy", energy,
                       "--word", "", "--size", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "verify-deg2", "--energy", energy, "--word", "",
                       "--max-size", "3")
    assert code == 0 and "verdict: pass" in out


def test_verify_deg2_json_rows(capsys, energies):
    mixed, _ = energies
    code, out, _ = run(capsys, "verify-deg2", "--energy", mixed, "--word", "ba",
                       "--max-size", "4", "--json")
    data = json.loads(out)
    assert code == 0 and data["pass"] and data["word"] == "ba"
    assert [row["n"] for row in data["rows"]] == [0, 1, 2, 3, 4]
    assert list(data["rows"][0]) == ["n", "F2", "F1", "R1", "O", "E", "R2", "all_equal"]


def test_long_prefix_label_is_ambiguous(capsys, tmp_path):
    path = tmp_path / "prefix.energy"
    path.write_text(PREFIX_TEXT)
    code, out, err = run(capsys, "omega", "--energy", str(path),
                         "--in", "1" + "a" * 200 + " 0g")
    assert code == 2 and out == ""
    assert err.startswith("error: ambiguous color label in token")


def test_parse_word_rejects_ground_only():
    colors, _ = parse_energy(PREFIX_TEXT)
    with pytest.raises(UsageError, match="does not spell non-ground colors"):
        cli._parse_word("g", colors)
    with pytest.raises(UsageError, match="does not spell non-ground colors"):
        cli._parse_word("gg", colors)
    with pytest.raises(UsageError, match="ambiguous"):
        cli._parse_word("aa", colors)
    assert cli._parse_word("a", colors) == (0,)


def test_shared_parser_matches_fresh_parser(capsys, energies, monkeypatch):
    mixed, strict = energies
    requests = (
        ("count", "--family", "Q1", "--energy", strict, "--word", "a", "--size", "1"),
        ("omega", "--energy", mixed, "--in", FLAT_TEXT),
        ("verify-deg2", "--energy", strict, "--word", "ab", "--max-size", "5"),
    )

    def outcomes():
        got = []
        for argv in requests:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    shared = outcomes()
    assert cli._shared_parser() is cli._shared_parser()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared[0][2].startswith("usage: partition-forge count")


# (argv, exit code, stdout or the message of the one stderr line, or for
# exit code 1 a line of stdout); "{mixed}", "{strict}" and the other names
# in braces stand for the energy files, "{{" and "}}" for braces
EXIT_CODES = (
    ("enumerate --family F1 --energy {strict} --max-size 1", 0, "0c\n1a 0c\n1b 0c\n"),
    ("enumerate --family Fk --energy {strict} --max-size 1", 2,
     "degree-k partitions need degree >= 1, got None"),
    # a member at the default part cap: the finite family lists 12 members
    # under a cap of 3, and the ground loop repeats 0g without end
    ("enumerate --family F1 --energy {deep_flat} --max-size 1", 2,
     "a member reaches the default part cap of 2 parts, so longer ones may be missing; "
     "pass --max-parts"),
    ("enumerate --family F1 --energy {deep_flat} --max-size 1 --max-parts 3", 0,
     "0g\n0a 0g\n0b 0g\n0a 0b 0g\n1a 0a 0g\n1b 0a 0g\n1b 0b 0g\n1g 0a 0g\n1g 0b 0g\n"
     "1a 0a 0b 0g\n1b 0a 0b 0g\n1g 0a 0b 0g\n"),
    ("count --family F1 --energy {deep_flat} --word ab --size 1", 0, "1\n"),
    ("enumerate --family F1 --energy {ground_loop} --max-size 1 --word ba", 2,
     "default part cap of 4 parts"),
    ("count --family F2 --energy {strict} --word ab --size 5", 0, "2\n"),
    # O- sizes reach below zero: 0a -2b and 1a -3b
    ("count --family O- --energy {strict} --word ab --size -2", 0, "2\n"),
    # |--size| is checked before the energy is read: O- and E- sizes are negative
    ("count --family F1 --energy {strict} --word ab --size 100", 0, "49\n"),
    ("count --family O- --energy {strict} --word ab --size -100", 0, "51\n"),
    ("count --family F1 --energy {ground_loop} --word ba --size 1", 2,
     "a count up to size 1 is infinite"),
    ("count --family F1 --energy {ground_loop} --word ba --size 0", 0, "0\n"),
    ("count --family F1 --energy {strict} --word ab --size 101", 2,
     "|--size| must be at most 100, got 101"),
    ("count --family O- --energy /no/such/file --word ab --size -101", 2,
     "|--size| must be at most 100, got 101"),
    ("count --family Fk --energy {strict} --word a --size 1", 2,
     "degree-k partitions need degree >= 1, got None"),
    # an Fk walk builds all n^k color words: 3^10 = 59,049 are allowed
    ("count --family Fk --energy {strict} --word b --size 2 --degree 10", 0, "1\n"),
    ("count --family Fk --energy {strict} --word ab --size 2 --degree 11", 2,
     "--degree 11 over 3 colors walks 3^11 color words, more than 100000"),
    ("enumerate --family Fk --energy {strict} --max-size 2 --degree 13", 2,
     "--degree 13 over 3 colors walks 3^13 color words, more than 100000"),
    ("enumerate --family Fk --energy {strict} --max-size 0 --degree 1000000000", 2,
     "--degree 1000000000 over 3 colors walks 3^1000000000 color words, more than 100000"),
    # one word of 100000 letters: the word table copies no word per letter
    ("count --family Fk --energy {one_color} --word '' --size 0 --degree 100000", 0, "1\n"),
    ("omega --energy {mixed} --in '1c 1a 0c'", 0, "2a 0c\n"),
    ("omega --energy {mixed} --in '5a 1b 0c'", 2,
     "F1 relation fails between Primary(size=5, color=0) and Primary(size=1, color=1)"),
    ("omega-inv --energy {mixed} --in '2a 0c'", 0, "1c 1a 0c\n"),
    ("omega-inv --energy {mixed} --in '1c 1a 0c'", 2, "regular partitions avoid the ground color"),
    # eps(b, a) = 2: the maps would change the size or the word
    ("omega --energy {non_minimal} --in '1a 0g'", 2,
     "the degree-one maps need a minimal energy, every eps in {0, 1}"),
    ("omega-inv --energy {non_minimal} --in '1a 0g'", 2,
     "the degree-one maps need a minimal energy, every eps in {0, 1}"),
    ("split2 --energy {strict} --in '3ab 0cc'", 0, "2a 1b 0c\n"),
    ("split2 --energy {strict} --in 0c", 2, "parts must have degree 2"),
    ("merge2 --energy {strict} --in '2a 1b 0c'", 0, "3ab 0cc\n"),
    ("merge2 --energy {strict} --in 0cc", 2, "parts must be primary"),
    ("flatten --energy {strict} --degree 2 --in '3ab 0cc'", 0, "2a 1b 0c\n"),
    ("flatten --energy {strict} --degree 3 --invert --in '2a 1b 0c'", 0, "3abc 0ccc\n"),
    # degree one takes degree-one text both ways
    ("flatten --energy {strict} --degree 1 --in '1a 0c'", 0, "1a 0c\n"),
    ("flatten --energy {strict} --degree 1 --invert --in '1a 0c'", 0, "1a 0c\n"),
    ("flatten --energy {strict} --degree 0 --in '1a 0c'", 2,
     "degree-k partitions need degree >= 1, got 0"),
    ("flatten --energy {strict} --degree 0 --invert --in '1a 0c'", 2,
     "degree-k partitions need degree >= 1, got 0"),
    ("flatten --energy {strict} --degree -1 --in '1a 0c'", 2,
     "degree-k partitions need degree >= 1, got -1"),
    ("flatten --energy {strict} --degree -1 --invert --in '1a 0c'", 2,
     "degree-k partitions need degree >= 1, got -1"),
    # the inverse pads its last group with zero parts up to the degree
    ("flatten --energy {strict} --degree 1000001 --invert --in 0c", 2,
     "--degree must be at most 1000000, got 1000001"),
    ("verify-deg2 --energy {strict} --word a --max-size 1", 0, None),
    ("verify-deg2 --energy {strict} --word a --max-size -1", 2, "max_size must be non-negative"),
    ("verify-deg2 --energy {strict} --word a --max-size 80", 0, None),
    ("verify-deg2 --energy /no/such/file --word a --max-size 81", 2,
     "--max-size must be at most 80, got 81"),
    ("verify-deg2 --energy {non_minimal} --word ba --max-size 4", 1,
     "4         2     2     1     1     1     2   NO\n"),
    ("character --family A2n2 --rank 2 --order 2", 0,
     "A2n2 rank 2 to order 2: paths agree, product matches\n"),
    ("character --family A2n2 --rank 2 --order 31", 2, "--order must be at most 30, got 31"),
    ("character --family A2n2 --rank 2 --order -1", 2, "truncation order must be non-negative"),
    ("verify --identity euler --order 3", 0, None),
    ("verify --identity euler --order 51", 2, "--order must be at most 50, got 51"),
    ("verify --identity glaisher --m 100 --order 2", 0, None),
    ("verify --identity glaisher --m 101 --order 2", 2, "--m must be at most 100, got 101"),
    ("verify --identity siladic_companion --order -1", 2, "truncation order must be non-negative"),
    ("verify --identity keith_xiong --m 2 --order -1", 2, "truncation order must be non-negative"),
    ("verify --identity euler --m 1 --order 3", 2, "identity euler takes no modulus m"),
    ("verify --identity siladic_companion --m 3 --order 3", 2,
     "identity siladic_companion takes no modulus m"),
    ("series --factors '[{{\"offset\":1}}]' --order 3", 0, "1 + 1*q^1 + 1*q^2 + 2*q^3\n"),
    ("series --factors '[{{\"offset\":1}}' --order 3", 2, "Expecting ',' delimiter"),
    ("series --colors a --factors '[{{\"exps\": [9223372036854775808], \"offset\": 1}}]' --order 1",
     2, "at most 64 fit"),
)


@pytest.mark.parametrize("command,code,expected", EXIT_CODES)
def test_exit_codes(capsys, energies, tmp_path, command, code, expected):
    mixed, strict = energies
    non_minimal = tmp_path / "non_minimal.energy"
    non_minimal.write_text(NON_MINIMAL_TEXT)
    one_color = tmp_path / "one_color.energy"
    one_color.write_text(ONE_COLOR_TEXT)
    ground_loop = tmp_path / "ground_loop.energy"
    ground_loop.write_text(GROUND_LOOP_TEXT)
    deep_flat = tmp_path / "deep_flat.energy"
    deep_flat.write_text(DEEP_FLAT_TEXT)
    argv = shlex.split(command.format(mixed=mixed, strict=strict, non_minimal=non_minimal,
                                      one_color=one_color, ground_loop=ground_loop,
                                      deep_flat=deep_flat))
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert err == "" and (expected is None or out == expected)
    elif code == 1:
        assert err == "" and expected in out and out.endswith("verdict: FAIL\n")
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert expected in err


def test_every_verb_has_an_exit_code_row():
    (verbs,) = [action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    covered = {command.split()[0] for command, _, _ in EXIT_CODES}
    assert set(verbs) <= covered


MIXED_FACTORS = ('[{"offset": 1, "exps": [1, -2]}, '
                 '{"offset": 2, "modulus": 3, "exps": [0, 1], "reciprocal": true}]')

# the README examples of series, character and verify, and a multivariate
# series, --json forms and product columns read through coeff(): sha256 of
# stdout as printed while pochhammer_expand still returned a tuple-keyed dict;
# keith_xiong's as printed while its rows had their own code path
PRODUCT_SIDE_STDOUT = (
    ("verify --identity glaisher_analogue --m 3 --order 16",
     "76521b8ac264525ab3ab435cbf33d8d865031da1c99bf016d9b342738405430b"),
    ("character --family Bn1-Ln --rank 3 --order 8",
     "3c4edc5ad63ed2df38323eb28c308a5dcf96b87f3b263f91e49c1a5b723e9725"),
    ("series --factors '[{\"sign\": 1, \"offset\": 1, \"modulus\": 2}]' --order 9",
     "87e54d5eaabed86ff51190cd3d8e3922b5de6dc9ae64f2aeacb51d7edd478964"),
    ("series --factors '%s' --colors a,b --order 8" % MIXED_FACTORS,
     "03d806167ed446a36120b8f7a95335730b5741e84b4492607a326392531d2dc5"),
    ("series --factors '%s' --colors a,b --order 8 --json" % MIXED_FACTORS,
     "c92e2e8d2d5764589055be0fb2c9c4412b2f333c52bc26223d9600ec5a2d0469"),
    ("character --family Dn12-L0 --rank 2 --order 6 --json",
     "d9b1767fee3b5c61bf42d3ccdd35ba13c856b7911992c7b3b8bcf9cdedb1f95a"),
    ("verify --identity euler --order 20",
     "6f7bae24f85f569fa12d8ad8d82d3efd94999dd275101c35ceac187401097a3b"),
    ("verify --identity glaisher --m 3 --order 20 --json",
     "62c1e8d3c5d91b980156cb0fdfe39b15909912c321e75bce0ddde2c4021ee504"),
    ("verify --identity siladic_companion --order 20",
     "4acb273829b15c23ffaefcc0f8845922b89201f4dae6540adc744dd1ad695b42"),
    ("verify --identity keith_xiong --m 3 --order 12",
     "9e4b0e7bb4c54118d253e810775a4cb4a989213189f34355a2621fab21f02f39"),
    ("verify --identity keith_xiong --m 2 --order 10 --json",
     "92f459910d3249bf303f4a67143eb9904571cbd05c2763063e900ac516817bff"),
)


@pytest.mark.parametrize("command,digest", PRODUCT_SIDE_STDOUT)
def test_product_side_stdout_is_unchanged(capsys, command, digest):
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 over exit code, stdout and stderr of `verify` for every identity at
# orders 0-20, with --m absent and 0-5, in text and --json (1,470 calls), as
# printed while each identity had its own branch of the column builder
VERIFY_CORPUS_DIGEST = "b7d08ece095d2fdeab1a8565899ddb60b2b7eb015cf3cfc1717dea3cb7aa1814"


def test_verify_corpus_is_pinned(capsys):
    digest = hashlib.sha256()
    calls = 0
    for name in characters.IDENTITIES:
        for order in range(21):
            for m in (None, 0, 1, 2, 3, 4, 5):
                for fmt in ((), ("--json",)):
                    argv = ["verify", "--identity", name, "--order", str(order), *fmt]
                    argv += [] if m is None else ["--m", str(m)]
                    digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
                    calls += 1
    assert calls == 1470
    assert digest.hexdigest() == VERIFY_CORPUS_DIGEST
