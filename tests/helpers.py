"""Shared test data: the two running three-color energies and the full
catalog of minimal ground-compatible energies on few colors."""

from itertools import product

from partition_forge.core import ColorSystem, EnergyMatrix, InvalidPartitionError, parse_energy

# b repeats, a does not, a and b alternate freely
MIXED_TEXT = "a b c\nc\n1 0 1\n0 0 1\n0 0 0\n"
# strict two-color ladder: ... > k_b > k_a > (k-1)_b > ...
STRICT_TEXT = "a b c\nc\n1 1 1\n0 1 1\n0 0 0\n"


def mixed_energy():
    return parse_energy(MIXED_TEXT)


def strict_energy():
    return parse_energy(STRICT_TEXT)


def small_energies(max_colors=3):
    """Every minimal ground-compatible energy on at most max_colors colors.

    The ground is always the last color.  Counts: 1 one-color, 4 two-color,
    32 three-color configurations.
    """
    out = []
    for n in range(1, max_colors + 1):
        m = n - 1
        names = tuple("abcde"[:m]) + ("g",)
        colors = ColorSystem(names, m)
        deltas = (0, 1) if m else (0,)
        for delta in deltas:
            for block in product((0, 1), repeat=m * m):
                rows = [[0] * n for _ in range(n)]
                for i in range(m):
                    for j in range(m):
                        rows[i][j] = block[i * m + j]
                    rows[i][m] = 1 - delta
                    rows[m][i] = delta
                out.append((colors, EnergyMatrix(tuple(tuple(r) for r in rows))))
    return out


def w(colors, text):
    """Spell a word of single-letter color labels as index tuple."""
    return tuple(colors.index(ch) for ch in text)


def rejects(check, *args):
    """Whether ``check(*args)`` raises InvalidPartitionError."""
    try:
        check(*args)
    except InvalidPartitionError:
        return True
    return False
