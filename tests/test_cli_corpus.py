"""Byte-stable CLI text across every verb: tools/cli_corpus.py's digests, pinned.

The corpus runs ``cli.main`` in process over 5,237 fixed calls and hashes
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
    "enumerate": [2172, "2976bd47a9c9c888975d0a8dc3c94c495f5a9e842c6b1f1ef1bb75a0b5e0253d"],
    "count": [2160, "6b61e6866237f38dc923c511010b17df3f8cc0b07ae5cd8660c496ac530a44a7"],
    "omega": [37, "d613d4610218174202195d8269daff6711f96c64ace5f4d4210baf7d810e36aa"],
    "omega-inv": [37, "c242029fd34c1596ccdb37f6ace580a8e2f2228b80f4a09b77fc3922bc3a5bf6"],
    "merge2": [37, "6f845e0fc5e2c475c32773dab730f02c01f0e1dc47597a0d50abe5e6d0edd2cb"],
    "split2": [37, "5a649cb0e236af3e48c4971681b65e17b9c9140b7fc23254d148dee3816d197c"],
    "flatten": [222, "7ca11b175e1b45caba37a819806b6e81d03d3b0262c15ebfc39bb5681aebb3ad"],
    "verify-deg2": [36, "648669c6e7b4be9c84946ef525b27a8012da1f16f1e801d7b70433039d3e1c80"],
    "character": [48, "ec79422a033a8210311bb5ba7d375f11ec07aadf732a18653a1b1e6756a99127"],
    "verify": [390, "86b248e75a557c64919bc611855136224c9076f05aa6ad9622e747674497743f"],
    "series": [30, "f21202064bc88517653c65333f944a786d08c3a0ce6d0a5002487f8ec440a97e"],
    "usage": [31, "e616d9d9199900439538917e0e9804ee3a915cab1c8a882eb63c9719adceda59"],
    "total": [5237, "347f74bffee27bd56c2735871e42fa7e3d8f0ebccbd59a91543fbecd29bf9eff"],
}


@pytest.fixture(scope="module")
def table():
    return cli_corpus.digests()


@pytest.mark.parametrize("verb", PINNED)
def test_cli_corpus_is_pinned(table, verb):
    assert table.get(verb) == PINNED[verb]


def test_cli_corpus_has_no_other_verb(table):
    assert table.keys() == PINNED.keys()
