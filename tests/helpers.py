"""Shared test data: the two running three-color energies and the full
catalog of minimal ground-compatible energies on few colors."""

from itertools import product

from hypothesis import strategies as st

from partition_forge.core import (
    ColorSystem,
    DegreeK,
    EnergyMatrix,
    InvalidPartitionError,
    Primary,
    flat_sizes,
    parse_energy,
)

# b repeats, a does not, a and b alternate freely
MIXED_TEXT = "a b c\nc\n1 0 1\n0 0 1\n0 0 0\n"
# strict two-color ladder: ... > k_b > k_a > (k-1)_b > ...
STRICT_TEXT = "a b c\nc\n1 1 1\n0 1 1\n0 0 0\n"


def mixed_energy():
    return parse_energy(MIXED_TEXT)


def strict_energy():
    return parse_energy(STRICT_TEXT)


def small_energies(max_colors=3, values=(0, 1)):
    """Every ground-compatible energy on at most max_colors colors whose
    entries between non-ground colors take the given values; the default
    values give every minimal one.

    The ground is always the last color.  Counts: 1 one-color, 4 two-color,
    32 three-color configurations for two values.
    """
    out = []
    for n in range(1, max_colors + 1):
        m = n - 1
        names = tuple("abcde"[:m]) + ("g",)
        colors = ColorSystem(names, m)
        deltas = (0, 1) if m else (0,)
        for delta in deltas:
            for block in product(values, repeat=m * m):
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


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


# ---------------------------------------------------------------------------
# Hypothesis strategies on random minimal ground-compatible energies, past
# the exhaustive catalog; the ground is the last color


@st.composite
def minimal_energies(draw, min_colors=4, max_colors=5):
    n = draw(st.integers(min_colors, max_colors))
    m = n - 1
    delta = draw(st.integers(0, 1))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * m, max_size=m * m))
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][:m] = bits[i * m : (i + 1) * m]
        rows[i][m] = 1 - delta
        rows[m][i] = delta
    colors = ColorSystem(tuple("abcd"[:m]) + ("g",), m)
    return colors, EnergyMatrix(tuple(map(tuple, rows)))


@st.composite
def flat_members(draw, min_colors=4, max_colors=5):
    """A flat member is fixed by its color sequence; the last colored part
    is non-ground, since a ground part there would be a second zero part."""
    colors, energy = draw(minimal_energies(min_colors, max_colors))
    seq = draw(st.lists(st.integers(0, colors.n - 1), max_size=10))
    if seq:
        seq.append(draw(st.sampled_from(colors.non_ground)))
    full = tuple(seq) + (colors.ground,)
    pi = tuple(map(Primary, flat_sizes(full, energy, colors), full))
    return colors, energy, pi


@st.composite
def regular_members(draw, min_colors=4, max_colors=5, max_word=8, max_residual=6):
    """A regular member is its word's skeleton plus a weakly decreasing
    non-negative residual, of at most ``max_word`` parts each at most
    ``max_residual``."""
    colors, energy = draw(minimal_energies(min_colors, max_colors))
    word = draw(st.lists(st.sampled_from(colors.non_ground), max_size=max_word))
    residual = sorted(draw(st.lists(st.integers(0, max_residual), min_size=len(word),
                                    max_size=len(word))), reverse=True)
    skeleton = flat_sizes(tuple(word) + (colors.ground,), energy, colors)
    body = tuple(Primary(s + r, c) for s, r, c in zip(skeleton, residual, word))
    return colors, energy, body + (Primary(0, colors.ground),)


@st.composite
def degree_k_members(draw, k, min_colors=2, max_colors=4):
    """A flat degree-k member from its words alone, right to left: a part's
    base is the base to its right plus the energy from its last color to the
    next word and the energy inside that word.  The last word before the
    terminal is not all ground, or its part would be a second zero part."""
    colors, energy = draw(minimal_energies(min_colors, max_colors))
    e, g = energy.e, colors.ground
    word = st.lists(st.integers(0, colors.n - 1), min_size=k, max_size=k).map(tuple)
    words = draw(st.lists(word, max_size=6))
    if words and set(words[-1]) == {g}:
        words[-1] = words[-1][:-1] + (draw(st.sampled_from(colors.non_ground)),)
    parts = [DegreeK(0, (g,) * k)]
    for w in reversed(words):
        right = parts[-1]
        inside = sum(e(c, d) for c, d in zip(right.colors, right.colors[1:]))
        parts.append(DegreeK(right.base + e(w[-1], right.colors[0]) + inside, w))
    return colors, energy, tuple(reversed(parts))
