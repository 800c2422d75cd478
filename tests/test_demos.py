"""Each demo runs from the repository root, exits 0 and prints its verdicts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the lines each demo must print
EXPECTED = {
    "01_flat_to_regular.py": ["roundtrip: ok"],
    "02_degree_two_chain.py": [],
    "03_characters.py": ["routes agree: True", "lhs == product: True"],
    "04_named_identities.py": ["euler: pass", "glaisher(m=3): pass", "keith_xiong(m=3): pass",
                               "glaisher_analogue(m=3): pass", "siladic_companion: pass"],
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo(name):
    done = subprocess.run([sys.executable, "demos/" + name], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": "src"})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in EXPECTED[name]:
        assert line in lines
    # an identity verdict line reads "<name>: pass" or "<name>: FAIL"
    assert not [line for line in lines if re.fullmatch(r"\S+: FAIL", line)]
