"""The exit-code contract under generated command lines: every verb, on good
and broken energy files, partition texts, words, budgets and factor JSON,
exits 0, 1 or 2 (argparse's own usage errors exit 2), prints no traceback
and ends within a few seconds."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge import characters, families
from partition_forge.cli import main
from partition_forge.core import format_energy

from helpers import MIXED_TEXT, STRICT_TEXT, small_energies

ENERGY_TEXTS = (
    MIXED_TEXT,
    STRICT_TEXT,
    "a b g\ng\n0 0 1\n2 0 1\n0 0 0\n",  # not minimal
    "a b g\ng\n0 -1 1\n-1 0 1\n0 0 0\n",  # sizes can sink
    *(format_energy(colors, energy) for colors, energy in small_energies()[::9]),
    # broken: empty, unknown ground, a missing row, a non-integer entry, a
    # short row, a label starting with a digit, repeated labels
    "",
    "a b\nz\n0 0\n0 0\n",
    "a b\nb\n0 0\n",
    "a b\nb\nx y\n0 0\n",
    "a b g\ng\n0 0 1\n0 0\n0 0 0\n",
    "1a g\ng\n0 0\n0 0\n",
    "a a\na\n0 0\n0 0\n",
)
SECONDS = 5


@pytest.fixture(scope="module")
def energy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("energies")
    paths = []
    for i, text in enumerate(ENERGY_TEXTS):
        path = root / ("%d.energy" % i)
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(root / "missing.energy")]


def _value(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _flag(flag, values):
    """No argument, or the flag with one value drawn."""
    return st.one_of(st.just([]), _value(flag, values))


def _switch(flag):
    return st.sampled_from(([], [flag]))


words = st.text("abcgz", max_size=4)
sizes = st.integers(-1, 6)
labels = st.sampled_from(("a", "b", "c", "g", "z", "", "aa", "ab", "ba", "bb", "cc", "gg", "abc"))
tokens = st.one_of(st.builds("{}{}".format, st.integers(-2, 9), labels),
                   st.text("0123456789abcgz+", max_size=4))
# members on the mixed and strict energies among the generated texts, so the maps also succeed
partitions = st.one_of(st.lists(tokens, max_size=6).map(" ".join), st.sampled_from((
    "0c", "1c 1a 0c", "2a 0c", "2a 1b 0c", "3ab 0cc", "10a 8a 8b 7b 5a 4a 3a 2b 1a 1b 1b 0c")))
factor_lists = st.lists(st.fixed_dictionaries(
    {"offset": st.integers(-1, 3)},
    optional={"sign": st.sampled_from((1, -1, 0)), "modulus": st.integers(0, 3),
              "exps": st.lists(st.integers(-2, 2), max_size=2), "reciprocal": st.booleans()},
), max_size=3).map(json.dumps)
factors = st.one_of(factor_lists, st.text(max_size=8), st.sampled_from((
    '{"offset": 1}', "[1]", '[{"offset": "x"}]', '[{"offset": 1', "null", '[{"offest": 1}]',
    "@/no/such/file")))


def commands(energies):
    """argv lists over every verb.  enumerate stays at --max-size 3 or less:
    E- on the mixed energy took 2.3 s at 4 and over 10 s at 5."""
    family = st.sampled_from(families.FAMILY_TAGS)

    def verb(*parts):
        return st.tuples(*parts).map(lambda chunks: [a for chunk in chunks for a in chunk])

    def fixed(*args):
        return st.just(list(args))

    return st.one_of(
        verb(fixed("enumerate"), _value("--family", family), _value("--energy", energies),
             _value("--max-size", st.integers(-1, 3)), _flag("--max-parts", st.integers(0, 6)),
             _flag("--word", words), _flag("--degree", st.integers(-1, 4)), _switch("--json")),
        verb(fixed("count"), _value("--family", family), _value("--energy", energies),
             _value("--word", words), _value("--size", sizes),
             _flag("--degree", st.integers(-1, 4))),
        verb(st.sampled_from(("omega", "omega-inv", "split2", "merge2")).map(lambda v: [v]),
             _value("--energy", energies), _value("--in", partitions)),
        verb(fixed("flatten"), _value("--energy", energies), _value("--degree", sizes),
             _value("--in", partitions), _switch("--invert")),
        verb(fixed("verify-deg2"), _value("--energy", energies), _value("--word", words),
             _value("--max-size", sizes), _switch("--json")),
        verb(fixed("character"),
             _value("--family", st.sampled_from(characters.CHARACTER_FAMILIES)),
             _value("--rank", st.integers(-1, 3)), _value("--order", sizes), _switch("--json")),
        verb(fixed("verify"), _value("--identity", st.sampled_from(characters.IDENTITIES)),
             _flag("--m", sizes), _value("--order", sizes), _switch("--json")),
        verb(fixed("series"), _value("--factors", factors), _value("--order", sizes),
             _flag("--colors", st.sampled_from(("", "a", "a,b"))), _switch("--json")),
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_generated_command_lines_keep_the_exit_codes(energy_files, data):
    # the first three energies are drawn more often, since the partitions fit them
    energies = st.one_of(st.sampled_from(energy_files[:3]), st.sampled_from(energy_files))
    argv = data.draw(commands(energies), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < SECONDS, (argv, elapsed)
