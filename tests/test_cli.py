import json

import pytest

from partition_forge import cli
from partition_forge.cli import main
from partition_forge.core import UsageError, parse_energy

from helpers import MIXED_TEXT, STRICT_TEXT

FLAT_TEXT = "6a 5a 5b 4c 4c 4c 4b 4a 3c 3a 2a 1c 1c 1b 1a 1b 1b 0c"
REGULAR_TEXT = "10a 8a 8b 7b 5a 4a 3a 2b 1a 1b 1b 0c"


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
