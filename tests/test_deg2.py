from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge.core import (
    ColorSystem,
    EnergyMatrix,
    InvalidPartitionError,
    Primary,
    Secondary,
    color_word,
    ground_delta,
    mixed_rel,
    parse_partition,
    part_color_seq,
    partition_size,
    secondary_regular_rel,
)
from partition_forge.deg2 import (
    FLATREG2_FAMILIES,
    add_ground,
    embed_part,
    flatreg2_table,
    merge_flat1,
    rmap,
    rmap_inv,
    split_flat2,
    strip_ground,
    verify_flatreg2,
)
from partition_forge.degk import flatten_k, unflatten_k
from partition_forge.families import Budget, count_by_word, members, validate_member

from helpers import (
    degree_k_members,
    flat_members,
    minimal_energies,
    mixed_energy,
    regular_members,
    small_energies,
    strict_energy,
    w,
)


def test_split_merge_examples():
    colors, energy = strict_energy()
    pi2 = parse_partition("3ab 0cc", colors, energy)
    pi1 = parse_partition("2a 1b 0c", colors, energy)
    assert split_flat2(pi2, energy, colors) == pi1
    assert merge_flat1(pi1, energy, colors) == pi2
    assert split_flat2(parse_partition("0cc", colors, energy), energy, colors) == (
        parse_partition("0c", colors, energy)
    )


def test_split_merge_roundtrips():
    colors, energy = strict_energy()
    for pi in members("F2", energy, colors, Budget(10, 11)):
        assert merge_flat1(split_flat2(pi, energy, colors), energy, colors) == pi
    for pi in members("F1", energy, colors, Budget(10, 11)):
        assert split_flat2(merge_flat1(pi, energy, colors), energy, colors) == pi


def test_rmap_parity_examples():
    colors, energy = strict_energy()
    a = colors.index("a")
    g = colors.ground
    # rho = 1: odd sizes keep the color on the left
    assert rmap((Primary(1, a),), energy, colors)[0] == Secondary(0, a, g)
    assert rmap((Primary(2, a),), energy, colors)[0] == Secondary(1, g, a)
    part = Secondary(1, a, colors.index("b"))
    assert embed_part(part, energy, colors) == part
    with pytest.raises(InvalidPartitionError) as info:
        embed_part(Secondary(1, a, g), energy, colors)
    assert str(info.value) == (
        "secondary part Secondary(half=1, left=0, right=2) already carries the ground")


def test_rmap_roundtrips():
    colors, energy = strict_energy()
    for pi in members("E+", energy, colors, Budget(12, 13)):
        assert rmap_inv(rmap(pi, energy, colors), energy, colors) == pi
    for pi in members("R2", energy, colors, Budget(12, 13)):
        assert rmap(rmap_inv(pi, energy, colors), energy, colors) == pi


def test_rmap_rejects_interior_ground_pair():
    colors, energy = strict_energy()
    a, g = colors.index("a"), colors.ground
    bad = (Secondary(5, g, g), Secondary(1, a, g), Secondary(0, g, g))
    with pytest.raises(InvalidPartitionError):
        rmap_inv(bad, energy, colors)


def test_strip_add_ground():
    colors, energy = strict_energy()
    two_a = parse_partition("2a 0c", colors, energy)
    assert strip_ground(two_a, energy, colors) == two_a[:1]
    assert add_ground(two_a[:1], energy, colors) == two_a
    trivial = parse_partition("0c", colors, energy)
    assert strip_ground(trivial, energy, colors) == ()
    assert add_ground((), energy, colors) == trivial
    with pytest.raises(InvalidPartitionError):
        add_ground((Primary(0, colors.index("a")),), energy, colors)  # below rho = 1


def test_strip_ground_rejects_r1_with_rising_sizes():
    # with a negative entry R1 sizes may rise, so R1 is not O+ plus a terminal
    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix(((0, -1, 1), (0, 0, 1), (0, 0, 0)))
    rising = parse_partition("0a 1b 0g", colors, energy)
    assert rising in members("R1", energy, colors, Budget(4, 3))
    with pytest.raises(InvalidPartitionError, match="part sizes must be >= 1"):
        strip_ground(rising, energy, colors)


def _parts_in_window(colors, energy, bound):
    """All primary and secondary parts over the non-ground colors with |size| <= bound."""
    out = []
    for c in colors.non_ground:
        for k in range(-bound, bound + 1):
            out.append(Primary(k, c))
        for cp in colors.non_ground:
            e = energy.e(c, cp)
            for h in range(-(bound + 1) // 2 - 1, bound):
                if abs(2 * h + e) <= bound:
                    out.append(Secondary(h, c, cp))
    return out


def test_embedding_preserves_relations():
    # the mixed relation holds exactly when the embedded parts satisfy the
    # secondary regular relation
    catalog = [strict_energy()] + small_energies()
    for colors, energy in catalog:
        parts = _parts_in_window(colors, energy, 10)
        for x in parts:
            ex = embed_part(x, energy, colors)
            for y in parts:
                ey = embed_part(y, energy, colors)
                assert mixed_rel(x, y, energy) == secondary_regular_rel(
                    ex, ey, energy, colors
                ), (colors.names, energy.values, x, y)


def test_embedding_preserves_last_part_condition():
    # membership of a part on the upper half line matches the embedded
    # part's relation to the terminal ground pair
    catalog = [strict_energy()] + small_energies()
    for colors, energy in catalog:
        g = colors.ground
        rho = 1 - ground_delta(energy, colors)
        terminal = Secondary(0, g, g)
        for p in _parts_in_window(colors, energy, 10):
            member = (p.size if isinstance(p, Primary) else p.half) >= rho
            embedded = secondary_regular_rel(
                embed_part(p, energy, colors), terminal, energy, colors
            )
            assert member == embedded, (colors.names, energy.values, p)


def test_embedding_parity_invariant():
    colors, energy = strict_energy()
    g = colors.ground
    rho = 1 - ground_delta(energy, colors)
    for pi in members("E+", energy, colors, Budget(9, 10)):
        for part in rmap(pi, energy, colors)[:-1]:
            from partition_forge.core import secondary_size

            size = secondary_size(part, energy)
            if part.right == g and part.left != g:
                assert size % 2 == rho % 2
            if part.left == g and part.right != g:
                assert size % 2 == (1 - rho) % 2


def test_verify_flatreg2_examples():
    colors, energy = strict_energy()
    report = verify_flatreg2(energy, colors, w(colors, "ab"), 5)
    assert report["all_equal"] and report["counts"]["F2"] == 2
    report = verify_flatreg2(energy, colors, (), 0)
    assert report["all_equal"] and set(report["counts"].values()) == {1}
    report = verify_flatreg2(energy, colors, w(colors, "a"), 1)
    assert report["all_equal"] and report["counts"]["F2"] == 1


@pytest.mark.parametrize("shipped", [mixed_energy, strict_energy])
def test_flatreg2_table_rows_match_cells(shipped):
    colors, energy = shipped()
    max_size = 7
    for length in range(4):
        for letters in product("ab", repeat=length):
            word = w(colors, "".join(letters))
            table = flatreg2_table(energy, colors, word, max_size)
            cells = [verify_flatreg2(energy, colors, word, n) for n in range(max_size + 1)]
            assert table == cells
            for row in table:
                for label, tag in FLATREG2_FAMILIES:
                    assert row["counts"][label] == count_by_word(
                        tag, energy, colors, word, row["n"]), (letters, row)


def test_flatreg2_atlas_on_the_catalog():
    # the six degree-two families agree on every minimal catalog energy,
    # every non-ground word up to length 3 and every size 0..7
    cells = 0
    for colors, energy in small_energies():
        letters = [colors.names[c] for c in colors.non_ground]
        for length in range(4):
            for spelt in product(letters, repeat=length):
                table = flatreg2_table(energy, colors, w(colors, "".join(spelt)), 7)
                assert all(row["all_equal"] for row in table), (energy.values, spelt)
                cells += len(table)
    assert cells == 3976


def test_split_merge_preserve_size_and_word():
    colors, energy = strict_energy()
    for pi in members("F2", energy, colors, Budget(9, 10)):
        split = split_flat2(pi, energy, colors)
        assert partition_size(split, energy) == partition_size(pi, energy)
        assert color_word(split, colors) == color_word(pi, colors)
    for pi in members("E+", energy, colors, Budget(9, 10)):
        image = rmap(pi, energy, colors)
        assert partition_size(image, energy) == partition_size(pi, energy)
        assert color_word(image, colors) == color_word(pi, colors)


# ---------------------------------------------------------------------------
# properties on random minimal ground-compatible energies with two to four
# colors, past the strict energy of acceptance criterion 5


def _bases_and_words(pi):
    return [(p[0], part_color_seq(p)) for p in pi]


@given(degree_k_members(2))
@settings(max_examples=200, deadline=None)
def test_split_is_flatten_at_degree_two(case):
    colors, energy, pi = case
    secondary = tuple(Secondary(p.base, *p.colors) for p in pi)
    validate_member("F2", secondary, energy, colors)
    flat = split_flat2(secondary, energy, colors)
    assert flat == flatten_k(pi, energy, colors, 2)
    assert merge_flat1(flat, energy, colors) == secondary


@given(flat_members(2, 4))
@settings(max_examples=200, deadline=None)
def test_merge_is_unflatten_at_degree_two(case):
    colors, energy, pi = case
    merged = merge_flat1(pi, energy, colors)
    validate_member("F2", merged, energy, colors)
    assert _bases_and_words(merged) == _bases_and_words(unflatten_k(pi, energy, colors, 2))
    assert split_flat2(merged, energy, colors) == pi


@given(minimal_energies(2, 4))
@settings(max_examples=40, deadline=None)
def test_rmap_roundtrips_random_energies(case):
    colors, energy = case
    for tag, there, back in (("E+", rmap, rmap_inv), ("R2", rmap_inv, rmap)):
        for pi in members(tag, energy, colors, Budget(5, 4)):
            image = there(pi, energy, colors)
            assert back(image, energy, colors) == pi
            assert partition_size(image, energy) == partition_size(pi, energy)
            assert color_word(image, colors) == color_word(pi, colors)


@given(regular_members(2, 4))
@settings(max_examples=200, deadline=None)
def test_strip_add_ground_roundtrip_random_energies(case):
    colors, energy, pi = case
    body = strip_ground(pi, energy, colors)
    validate_member("O+", body, energy, colors)
    assert add_ground(body, energy, colors) == pi
