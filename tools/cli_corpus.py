"""Digest of the command line's exit codes and output over a fixed corpus.

Runs ``partition_forge.cli.main`` in process over a fixed list of calls and
prints, per verb, the number of calls and one sha256 over every call's
argv, exit code, stdout and stderr, then the same for all calls together.
Two checkouts that print the same lines answer the corpus byte for byte
alike, so a change meant to keep the output can be checked with one
command at both commits:

    python tools/cli_corpus.py

The energies are the two shipped files and copies of the non-minimal,
one-color, sinking, ground-loop and deep-flat energy texts that the tests use,
written to a temporary directory; both directories are replaced by fixed
names before hashing, so the digests do not depend on where the checkout
lives.  The inputs of the maps are the first members that the corpus's own
``enumerate`` calls print.  Stdlib only; it writes nothing in the repository.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from partition_forge import characters, cli, families  # noqa: E402

SHIPPED = {name: ROOT / "demos" / "energies" / ("two_color_%s.energy" % name)
           for name in ("strict", "mixed")}
TEXTS = {
    "non_minimal": "a b g\ng\n0 0 1\n2 0 1\n0 0 0\n",  # eps(b, a) = 2
    "one_color": "g\ng\n0\n",
    "sinking": "a b g\ng\n0 -1 1\n-1 0 1\n0 0 0\n",  # sizes can sink
    # eps(b, a) = -1: F1 counts of the word ba are infinite from size 1
    "ground_loop": "a b g\ng\n0 0 1\n-1 0 1\n0 0 0\n",
    # eps(a, b) = eps(b, g) = 0: a finite F1 family outgrows the default part cap
    "deep_flat": "a b g\ng\n1 0 0\n1 1 0\n1 1 0\n",
}
WORDS = (None, "", "a", "ab", "ba")
FIRST = 12  # map inputs per family and energy
SERIES_FACTORS = (
    ("[]", None),
    ('[{"offset": 1}]', None),
    ('[{"sign": -1, "offset": 1, "modulus": 2}, {"offset": 2, "reciprocal": true}]', None),
    ('[{"offset": 1, "exps": [1, -2]}, '
     '{"offset": 2, "modulus": 3, "exps": [0, 1], "reciprocal": true}]', "a,b"),
    ('[{"offset": 0, "exps": [1]}, {"sign": -1, "offset": 1, "exps": [2]}]', "x"),
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _corpus(energies):
    """Yield (verb, argv) for every call; the maps read ``enumerate``'s output."""
    first = {}  # (energy, family) -> member texts
    for name, path in energies.items():
        for tag in families.FAMILY_TAGS:
            degree = ["--degree", "2"] if tag == families.FK else []
            for size in range(4):
                for word in WORDS:
                    argv = ["enumerate", "--family", tag, "--energy", path,
                            "--max-size", str(size), *degree]
                    argv += [] if word is None else ["--word", word]
                    for fmt in ((), ("--json",)):
                        out = yield "enumerate", argv + list(fmt)
                        if size == 3 and word is None and not fmt and out[0] == 0:
                            key = tag + "2" * bool(degree)  # Fk at degree 2 is Fk2
                            first[name, key] = out[1].splitlines()[:FIRST]
        for k in (1, 3):
            argv = ["enumerate", "--family", "Fk", "--energy", path, "--max-size", "3",
                    "--degree", str(k)]
            out = yield "enumerate", argv
            if out[0] == 0:
                first[name, "Fk%d" % k] = out[1].splitlines()[:FIRST]

    for name, path in energies.items():
        for tag in families.FAMILY_TAGS:
            degree = ["--degree", "2"] if tag == families.FK else []
            for word in ("", "a", "ab", "ba"):
                for size in range(-3, 7):
                    yield "count", ["count", "--family", tag, "--energy", path, "--word", word,
                                    "--size", str(size), *degree]

    for name, path in energies.items():
        maps = (("omega", "F1", []), ("omega-inv", "R1", []), ("merge2", "F1", []),
                ("split2", "F2", []),
                *(("flatten", "Fk%d" % k, ["--degree", str(k)]) for k in (1, 2, 3)),
                *(("flatten", "F1", ["--degree", str(k), "--invert"]) for k in (1, 2, 3)))
        for verb, tag, extra in maps:
            for text in first.get((name, tag), []):
                yield verb, [verb, "--energy", path, *extra, "--in", text]

    for name, path in energies.items():
        for word in ("a", "ab", "bab"):
            for fmt in ((), ("--json",)):
                yield "verify-deg2", ["verify-deg2", "--energy", path, "--word", word,
                                      "--max-size", "8", *fmt]

    for family in characters.CHARACTER_FAMILIES:
        rank = 3 if family == "Bn1-Ln" else 2
        for order in range(6):
            for fmt in ((), ("--json",)):
                yield "character", ["character", "--family", family, "--rank", str(rank),
                                    "--order", str(order), *fmt]

    for name in characters.IDENTITIES:
        for m in (None, 2, 3):
            for order in range(13):
                for fmt in ((), ("--json",)):
                    argv = ["verify", "--identity", name, "--order", str(order), *fmt]
                    yield "verify", argv + ([] if m is None else ["--m", str(m)])

    for factors, colors in SERIES_FACTORS:
        for order in (0, 3, 9):
            for fmt in ((), ("--json",)):
                argv = ["series", "--factors", factors, "--order", str(order), *fmt]
                yield "series", argv + ([] if colors is None else ["--colors", colors])

    strict, missing = energies["strict"], str(Path(energies["one_color"]).with_name("no.energy"))
    for argv in (
        [],
        ["enumerate", "--family", "Q1", "--energy", strict, "--max-size", "1"],
        ["enumerate", "--family", "F1", "--energy", strict],
        ["enumerate", "--family", "F1", "--energy", missing, "--max-size", "1"],
        ["enumerate", "--family", "Fk", "--energy", strict, "--max-size", "1"],
        ["enumerate", "--family", "F1", "--energy", strict, "--max-size", "1", "--word", "z"],
        ["count", "--family", "F1", "--energy", strict, "--word", "ab", "--size", "101"],
        ["count", "--family", "Fk", "--energy", strict, "--word", "ab", "--size", "2",
         "--degree", "11"],
        ["omega", "--energy", strict, "--in", "1z 0c"],
        ["omega", "--energy", strict, "--in", "5a 1b 0c"],
        ["omega", "--energy", strict, "--in", ""],
        ["omega-inv", "--energy", strict, "--in", "1c 1a 0c"],
        ["split2", "--energy", strict, "--in", "0c"],
        ["merge2", "--energy", strict, "--in", "0cc"],
        ["flatten", "--energy", strict, "--degree", "0", "--in", "1a 0c"],
        ["flatten", "--energy", strict, "--degree", "1000001", "--invert", "--in", "0c"],
        ["verify-deg2", "--energy", strict, "--word", "a", "--max-size", "-1"],
        ["verify-deg2", "--energy", missing, "--word", "a", "--max-size", "81"],
        ["character", "--family", "A2n2", "--rank", "1", "--order", "2"],
        ["character", "--family", "A2n2", "--rank", "2", "--order", "31"],
        ["character", "--family", "A2n2", "--rank", "2", "--order", "-1"],
        ["verify", "--identity", "euler", "--order", "51"],
        ["verify", "--identity", "euler", "--m", "2", "--order", "3"],
        ["verify", "--identity", "glaisher", "--order", "3"],
        ["verify", "--identity", "glaisher", "--m", "1", "--order", "3"],
        ["verify", "--identity", "glaisher", "--m", "101", "--order", "3"],
        ["verify", "--identity", "nothing", "--order", "3"],
        ["series", "--factors", "[{", "--order", "3"],
        ["series", "--factors", '[{"modulus": 1}]', "--order", "3"],
        ["series", "--factors", "@" + missing, "--order", "3"],
        ["series", "--factors", "[]", "--order", "1001"],
    ):
        yield "usage", argv


def run(energies, replace):
    """{verb: [calls, sha256]} over the corpus, plus a ``total`` entry."""
    digests = {}
    total = hashlib.sha256()
    calls = 0
    corpus = _corpus(energies)
    out = None
    while True:
        try:
            verb, argv = corpus.send(out)
        except StopIteration:
            break
        out = _call(argv)
        record = json.dumps([argv, *out])
        for old, new in replace:
            record = record.replace(old, new)
        entry = digests.setdefault(verb, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(record.encode())
        total.update(record.encode())
        calls += 1
    table = {verb: [n, h.hexdigest()] for verb, (n, h) in digests.items()}
    table["total"] = [calls, total.hexdigest()]
    return table


def digests():
    """``run`` over the shipped energies and the test texts, written to a
    temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        energies = {name: str(path) for name, path in SHIPPED.items()}
        for name, text in TEXTS.items():
            path = Path(tmp) / ("%s.energy" % name)
            path.write_text(text, encoding="utf-8")
            energies[name] = str(path)
        return run(energies, ((tmp, "<tmp>"), (str(ROOT), "<root>")))


def main():
    for verb, (calls, digest) in digests().items():
        print("%-12s %6d  %s" % (verb, calls, digest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
