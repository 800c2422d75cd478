"""Byte-stable CLI text across every verb: tools/cli_corpus.py's digests, pinned.

The corpus runs ``cli.main`` in process over 6,001 fixed calls and hashes
each call's argv, exit code, stdout and stderr, per verb and in total.  The
digests include argparse's and ``json``'s own error texts, which change
between Python versions, so the pins hold on CPython 3.11.  A change meant
to alter the CLI's output updates these pins and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

PINNED = {
    "enumerate": [2534, "28e91afbcc6501d0a6ec1e319b02df424112cb28c5ceb8efb97f21437533028b"],
    "count": [2520, "7fa61fa16c676d72d472e29c860cf1921421b7c39e9194f37595f76496000c2d"],
    "omega": [37, "d613d4610218174202195d8269daff6711f96c64ace5f4d4210baf7d810e36aa"],
    "omega-inv": [37, "c242029fd34c1596ccdb37f6ace580a8e2f2228b80f4a09b77fc3922bc3a5bf6"],
    "merge2": [37, "6f845e0fc5e2c475c32773dab730f02c01f0e1dc47597a0d50abe5e6d0edd2cb"],
    "split2": [49, "1c5d8d186541a70c0f4b0edd9e19f15924f3a941f0e77caa683aa0485e8fa54b"],
    "flatten": [246, "d51f8ebf718641054744ce799e6efc80934e87d6ed595a5193c9afd34d71999f"],
    "verify-deg2": [42, "4f0e18bd12c1eba2bc1d3840b3b4218318d22a7a2021380bf6c84dafb5eedaba"],
    "character": [48, "ec79422a033a8210311bb5ba7d375f11ec07aadf732a18653a1b1e6756a99127"],
    "verify": [390, "86b248e75a557c64919bc611855136224c9076f05aa6ad9622e747674497743f"],
    "series": [30, "f21202064bc88517653c65333f944a786d08c3a0ce6d0a5002487f8ec440a97e"],
    "usage": [31, "e616d9d9199900439538917e0e9804ee3a915cab1c8a882eb63c9719adceda59"],
    "total": [6001, "8817f329751436dd044479d7a0991437fcf9767a6ad33e5e161901ce2591c73d"],
}


@pytest.fixture(scope="module")
def table():
    return cli_corpus.digests()


@pytest.mark.parametrize("verb", PINNED)
def test_cli_corpus_is_pinned(table, verb):
    assert table.get(verb) == PINNED[verb]


def test_cli_corpus_has_no_other_verb(table):
    assert table.keys() == PINNED.keys()
