from collections import Counter

import pytest

from partition_forge.core import (
    DegreeK,
    Primary,
    Secondary,
    SizeTransform,
    UsageError,
    color_word,
    parse_partition,
    partition_size,
)
from partition_forge.families import (
    Budget,
    canonical_key,
    count_by_word,
    is_member,
    members,
    validate_member,
)

from helpers import mixed_energy, small_energies, strict_energy, w

GROUNDED_TAGS = ("F1", "R1", "F2", "R2")
ALL_TAGS = GROUNDED_TAGS + ("O+", "O-", "E+", "E-")


def test_r1_contains_worked_example():
    colors, energy = mixed_energy()
    word = w(colors, "aabbaaababb")
    found = members("R1", energy, colors, Budget(56, 20, word))
    target = parse_partition("10a 8a 8b 7b 5a 4a 3a 2b 1a 1b 1b 0c", colors, energy)
    assert target in found


def test_f1_trivial_budget():
    from partition_forge.core import ground_delta

    # every grounded family, on every small energy including the one-color one
    for colors, energy in small_energies():
        g = colors.ground
        terminals = {"F1": Primary(0, g), "R1": Primary(0, g), "F2": Secondary(0, g, g),
                     "R2": Secondary(0, g, g), "Fk": DegreeK(0, (g, g))}
        for tag, terminal in terminals.items():
            found = members(tag, energy, colors, Budget(0, 1), degree=2)
            trivial = (terminal,)
            if ground_delta(energy, colors) == 0:
                # colored parts have positive size, so only the trivial partition fits
                assert found == [trivial], (tag, energy)
            else:
                # zero-size colored parts exist; the trivial partition still leads
                assert found[0] == trivial, (tag, energy)
                assert all(partition_size(pi, energy) == 0 for pi in found)


def _budget_for(tag, size, parts):
    # the downward half lines admit arbitrarily negative parts, so keep those
    # windows small
    if tag in ("O-", "E-"):
        return Budget(min(size, 4), min(parts, 3))
    return Budget(size, parts)


def test_determinism_and_canonical_order():
    colors, energy = strict_energy()
    for tag, degree in [(tag, None) for tag in ALL_TAGS] + [("Fk", 2), ("Fk", 3)]:
        budget = _budget_for(tag, 6, 5)
        first = members(tag, energy, colors, budget, degree=degree)
        second = members(tag, energy, colors, budget, degree=degree)
        assert first == second
        keys = [canonical_key(pi, energy) for pi in first]
        # strictly increasing: a total order, and no duplicates from the walks
        assert all(a < b for a, b in zip(keys, keys[1:])), tag
        assert len(set(first)) == len(first)


def test_downward_half_line_rejects_transform():
    colors, energy = strict_energy()
    transform = SizeTransform.identity(colors.n)
    for tag in ("O-", "E-"):
        with pytest.raises(UsageError, match="transforms are not supported"):
            members(tag, energy, colors, Budget(3, 3), transform=transform)


def test_closure_every_member_validates():
    for colors, energy in (mixed_energy(), strict_energy()):
        for tag in ALL_TAGS:
            for pi in members(tag, energy, colors, _budget_for(tag, 7, 6)):
                validate_member(tag, pi, energy, colors)
        for k in (2, 3):
            for pi in members("Fk", energy, colors, Budget(7, 6), degree=k):
                validate_member("Fk", pi, energy, colors, degree=k)


def test_monotonicity():
    colors, energy = mixed_energy()
    for tag in ALL_TAGS:
        small = set(members(tag, energy, colors, _budget_for(tag, 5, 2)))
        large = set(members(tag, energy, colors, _budget_for(tag, 8, 3)))
        assert small <= large


def test_flat_equals_regular_by_word():
    for colors, energy in (mixed_energy(), strict_energy()):
        for text in ("", "a", "b", "ab", "ba", "aab", "abb", "bab"):
            word = w(colors, text)
            for n in range(9):
                assert count_by_word("F1", energy, colors, word, n) == count_by_word(
                    "R1", energy, colors, word, n
                )


def test_mixed_equinumerosity_example():
    colors, energy = strict_energy()
    word = w(colors, "ab")
    assert count_by_word("O+", energy, colors, word, 3) == count_by_word(
        "E+", energy, colors, word, 3
    )


def test_o_e_equinumerosity_small():
    # both half lines, every small energy, every word and size in a window
    for colors, energy in small_energies(max_colors=2):
        o = members("O+", energy, colors, Budget(6, 7))
        e = members("E+", energy, colors, Budget(6, 7))
        oc = Counter((color_word(p, colors), partition_size(p, energy)) for p in o)
        ec = Counter((color_word(p, colors), partition_size(p, energy)) for p in e)
        for key, cnt in oc.items():
            word, n = key
            if len(word) + n + 1 <= 7:
                assert ec[key] == cnt, (colors, energy, key)


def test_count_by_word_edges():
    colors, energy = mixed_energy()
    assert count_by_word("F1", energy, colors, (), 0) == 1
    assert count_by_word("F1", energy, colors, (), 3) == 0


def test_zero_size_parts_need_length_cap():
    # with delta_g = 1 colored parts of size zero repeat, so the length cap
    # is what keeps the family finite
    colors, energy = [
        (c, e) for c, e in small_energies(max_colors=2) if e.e(c.ground, 0) == 1 and e.e(0, 0) == 0
    ][0]
    found = members("F1", energy, colors, Budget(0, 6))
    assert len(found) == 7  # zero through six zero-size parts of the one color
    # the walk keeps its stack on the heap, so a deep budget cannot overflow
    assert len(members("F1", energy, colors, Budget(0, 1500))) == 1501


def test_budget_validation():
    with pytest.raises(UsageError):
        Budget(-1, 3)
    with pytest.raises(UsageError):
        Budget(3, 0)


def test_unknown_tag():
    colors, energy = mixed_energy()
    with pytest.raises(UsageError):
        members("X9", energy, colors, Budget(3, 3))
    with pytest.raises(UsageError):
        validate_member("X9", (), energy, colors)


def test_is_member_rejects():
    colors, energy = mixed_energy()
    a = colors.index("a")
    good = parse_partition("1a 0c", colors, energy)
    assert is_member("F1", good, energy, colors)
    assert not is_member("F1", (Primary(5, a), Primary(0, colors.ground)), energy, colors)
    assert not is_member("R1", (Primary(1, a),), energy, colors)  # missing terminal


def test_grounded_families_need_compatible_energy():
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "g"), 1)
    bad = EnergyMatrix(((1, 1), (1, 0)))
    with pytest.raises(UsageError):
        members("F1", bad, colors, Budget(3, 3))


def test_flat_parity_checks_survive_optimisation():
    # eps(ground, ground) = 1 breaks the parity of the flat sizes; the check
    # is an explicit raise, so it also holds under python -O
    from partition_forge.core import ColorSystem, EnergyMatrix
    from partition_forge.families import _f2_members, _fk_members

    colors = ColorSystem(("a", "g"), 1)
    odd_ground = EnergyMatrix(((0, 1), (0, 1)))
    with pytest.raises(UsageError, match="wrong parity"):
        _f2_members(odd_ground, colors, Budget(3, 3))
    with pytest.raises(UsageError, match="does not fit a degree-2 part"):
        _fk_members(odd_ground, colors, Budget(3, 3), 2)
