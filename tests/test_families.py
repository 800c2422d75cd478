from collections import Counter
from functools import partial
from itertools import chain, product

import pytest

from partition_forge.core import (
    ColorSystem,
    DegreeK,
    EnergyMatrix,
    InvalidPartitionError,
    Primary,
    Secondary,
    SizeTransform,
    UsageError,
    color_word,
    flat_sizes,
    min_diff_rel,
    mixed_rel,
    parse_partition,
    partition_size,
    secondary_regular_rel,
)
from partition_forge.deg2 import add_ground, rmap, rmap_inv
from partition_forge.families import (
    Budget,
    canonical_key,
    count_by_word,
    flat_walk,
    members,
    size_counts,
    validate_flat,
    validate_member,
    walk_members,
)

from helpers import mixed_energy, outcome, rejects, small_energies, strict_energy, w

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


TAG_DEGREES = [(tag, None) for tag in ALL_TAGS] + [("Fk", 2), ("Fk", 3)]


def _canonical_cases():
    """Every family on every catalog energy at Budget(4, 5), with no word and
    with each word over {a, b} of length 0 to 2; and both shipped energies
    at the budgets the benchmark's roundtrip sweep walks them at.  O- and E-
    stay at the catalog's budget: on the mixed energy at Budget(6, 7), E-
    alone has 2.4 million members."""
    for colors, energy in small_energies():
        letters = colors.non_ground
        words = [None, ()] + [(c,) for c in letters] + list(product(letters, repeat=2))
        for word in words:
            for tag, degree in TAG_DEGREES:
                yield tag, degree, colors, energy, Budget(4, 5, word)
    for (colors, energy), size in ((strict_energy(), 12), (mixed_energy(), 6)):
        for tag, degree in TAG_DEGREES:
            if tag not in ("O-", "E-"):
                yield tag, degree, colors, energy, Budget(size, size + 1)


def test_members_are_the_walk_sorted_by_canonical_key():
    # members may read the key off the parts, but the order stays the one
    # canonical_key defines
    cases = 0
    for tag, degree, colors, energy, budget in _canonical_cases():
        found = members(tag, energy, colors, budget, degree=degree)
        walked = walk_members(tag, energy, colors, budget, degree=degree)
        assert found == sorted(walked, key=lambda pi: canonical_key(pi, energy)), (
            tag, degree, energy, budget)
        cases += 1
    assert cases == 10 * (2 + 4 * 4 + 32 * 8) + 2 * 8


def test_canonical_order_ties_and_the_empty_member():
    colors, energy = strict_energy()
    # the parts break the one tie: the same sizes and colors, grouped two ways
    tie = [parse_partition(text, colors, energy) for text in ("5a 2ba", "5ab 2a")]
    assert canonical_key(tie[0], energy)[:3] == canonical_key(tie[1], energy)[:3]
    found = members("E+", energy, colors, Budget(7, 2))
    i = found.index(min(tie))
    assert found[i + 1] == max(tie)
    # the empty member leads every O and E list
    for tag in ("O+", "O-", "E+", "E-"):
        assert members(tag, energy, colors, Budget(4, 3))[0] == (), tag


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


def test_lower_half_line_counts_equal_a_filter_of_members():
    # O- and E- sizes reach below zero: one walk per word counts what a
    # word-free enumeration holds for that word, at every size
    negative = 0
    for colors, energy in (mixed_energy(), strict_energy()):
        for tag in ("O-", "E-"):
            found = members(tag, energy, colors, Budget(3, 4))
            for text in ("", "a", "b", "ab", "ba", "bb", "aab", "bab"):
                word = w(colors, text)
                want = Counter(partition_size(pi, energy) for pi in found
                               if color_word(pi, colors) == word)
                assert size_counts(tag, energy, colors, word, 3) == want
                for n in range(4):
                    assert count_by_word(tag, energy, colors, word, n) == want[n]
                negative += sum(cnt for n, cnt in want.items() if n < 0)
    assert negative > 0


def test_count_by_word_edges():
    colors, energy = mixed_energy()
    assert count_by_word("F1", energy, colors, (), 0) == 1
    assert count_by_word("F1", energy, colors, (), 3) == 0
    # O- and E- sizes reach below zero (0a -2b and 1a -3b; -3ab, 0a -3b and
    # 1a -4b), and an upper family has no member there
    colors, energy = strict_energy()
    ab = w(colors, "ab")
    assert count_by_word("O-", energy, colors, ab, -2) == 2
    assert count_by_word("E-", energy, colors, ab, -3) == 3
    assert count_by_word("E+", energy, colors, ab, -2) == 0
    assert count_by_word("O+", energy, colors, (), 0) == 1
    assert count_by_word("E+", energy, colors, ab, 0) == 0


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


def test_walks_refuse_unsupported_requests():
    colors, energy = strict_energy()
    sinking = EnergyMatrix(((0, -1, 1), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(UsageError) as info:
        members("O-", sinking, colors, Budget(3, 3))
    assert str(info.value) == "half-line-down enumeration needs a non-negative energy"
    with pytest.raises(UsageError) as info:
        members("Fk", energy, colors, Budget(3, 3), degree=2,
                transform=SizeTransform.identity(colors.n))
    assert str(info.value) == "transforms are not supported for degree-k enumeration"
    with pytest.raises(InvalidPartitionError) as info:
        validate_flat((1, 2), energy, colors, 2)
    assert str(info.value) == "parts must have degree 2"


def test_budget_validation():
    with pytest.raises(UsageError):
        Budget(-1, 3)
    with pytest.raises(UsageError):
        Budget(3, 0)
    # the part cap defaults to one past the size and the word's letters
    assert Budget(5).max_parts == 6
    assert Budget(5, word=(0, 1)).max_parts == 8
    assert Budget(5, word=[0, 1]) == Budget(5, 8, (0, 1))
    assert Budget(5, 2, (0, 1)).max_parts == 2 and Budget(0, 1).max_parts == 1
    with pytest.raises(UsageError, match="^max_parts must be positive$"):
        Budget(3, 0)
    with pytest.raises(UsageError, match="^max_size must be non-negative$"):
        Budget(-1)


def test_unknown_tag():
    colors, energy = mixed_energy()
    with pytest.raises(UsageError):
        members("X9", energy, colors, Budget(3, 3))
    with pytest.raises(UsageError):
        validate_member("X9", (), energy, colors)


def test_validate_member_rejects():
    colors, energy = mixed_energy()
    a = colors.index("a")
    good = parse_partition("1a 0c", colors, energy)
    validate_member("F1", good, energy, colors)
    with pytest.raises(InvalidPartitionError):
        validate_member("F1", (Primary(5, a), Primary(0, colors.ground)), energy, colors)
    with pytest.raises(InvalidPartitionError):
        validate_member("R1", (Primary(1, a),), energy, colors)  # missing terminal


# (tag, partition on the strict energy, message); a = 0, b = 1, ground c = 2,
# rho = 1.  The precedence rows fail two checks and name the one made first.
S, P = Secondary, Primary
REGULAR_MESSAGES = (
    ("R2", (), "grounded partition cannot be empty"),
    ("R2", (P(0, 2),), "parts must be secondary"),
    ("R2", (P(0, 2), S(1, 0, 1)), "parts must be secondary"),
    ("R2", (S(1, 0, 1),), "terminal part must be the zero ground part"),
    ("R2", (S(1, 2, 2),), "terminal part must be the zero ground part"),
    ("R2", (S(0, 2, 2), S(0, 2, 2)), "part before the terminal cannot be the zero ground part"),
    ("R2", (S(3, 2, 2), S(0, 2, 2)), "secondary regular partitions avoid the ground color pair"),
    ("R2", (S(3, 2, 2), S(0, 0, 1), S(0, 2, 2)),
     "secondary regular partitions avoid the ground color pair"),
    ("R2", (S(0, 0, 1), S(0, 2, 2)), "R2 relation fails between "
     "Secondary(half=0, left=0, right=1) and Secondary(half=0, left=2, right=2)"),
    ("O+", (S(1, 0, 1),), "parts must be primary with non-ground colors"),
    ("O+", (P(0, 0), P(1, 2)), "parts must be primary with non-ground colors"),
    ("O+", (P(0, 0),), "part sizes must be >= 1"),
    ("O+", (P(1, 0), P(0, 0)), "part sizes must be >= 1"),
    ("O+", (P(1, 0), P(1, 0)),
     "energy relation fails between Primary(size=1, color=0) and Primary(size=1, color=0)"),
    ("O-", (P(2, 0),), "part sizes must be <= 1"),
    ("O-", (P(0, 0), P(0, 0)),
     "energy relation fails between Primary(size=0, color=0) and Primary(size=0, color=0)"),
    ("E+", (DegreeK(1, (0, 1, 0)),), "parts must be primary or secondary"),
    ("E+", (S(1, 0, 2),), "parts must avoid the ground color"),
    ("E+", (P(0, 0),), "part Primary(size=0, color=0) below the half line"),
    ("E+", (S(0, 0, 1),), "part Secondary(half=0, left=0, right=1) below the half line"),
    ("E+", (P(0, 0), P(1, 2)), "part Primary(size=0, color=0) below the half line"),
    ("E+", (P(2, 0), S(0, 0, 1)), "part Secondary(half=0, left=0, right=1) below the half line"),
    ("E+", (P(1, 0), P(1, 0)),
     "mixed relation fails between Primary(size=1, color=0) and Primary(size=1, color=0)"),
    ("E-", (P(2, 0),), "part Primary(size=2, color=0) above the half line"),
    ("E-", (S(1, 0, 1),), "part Secondary(half=1, left=0, right=1) above the half line"),
    ("E-", (P(1, 0), P(2, 1)), "part Primary(size=2, color=1) above the half line"),
    ("E-", (P(0, 0), P(0, 0)),
     "mixed relation fails between Primary(size=0, color=0) and Primary(size=0, color=0)"),
)


@pytest.mark.parametrize("tag,pi,message", REGULAR_MESSAGES)
def test_regular_messages_and_precedence(tag, pi, message):
    # the maps that read R2, O+ and E+ members give the validator's message
    colors, energy = strict_energy()
    checks = [validate_member]
    checks += {"R2": [rmap_inv], "O+": [add_ground], "E+": [rmap]}.get(tag, [])
    for check in checks:
        args = (tag, pi) if check is validate_member else (pi,)
        with pytest.raises(InvalidPartitionError) as info:
            check(*args, energy, colors)
        assert str(info.value) == message


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

    colors = ColorSystem(("a", "g"), 1)
    odd_ground = EnergyMatrix(((0, 1), (0, 1)))
    with pytest.raises(UsageError, match="wrong parity"):
        flat_walk(odd_ground, colors, Budget(3, 3), 2, Secondary)
    with pytest.raises(UsageError, match="does not fit a degree-2 part"):
        flat_walk(odd_ground, colors, Budget(3, 3), 2, DegreeK)


def test_flat_walk_equals_members():
    # members sorts what flat_walk builds: the same multiset, every member
    # valid, on every catalog energy and both shipped transforms
    from partition_forge.characters import keith_xiong_setup, siladic_setup

    cases = []
    for colors, energy in small_energies():
        for word in (None, tuple(reversed(colors.non_ground))):
            cases.append((colors, energy, Budget(3, 4, word), None))
    colors, energy, transform = siladic_setup()
    cases.append((colors, energy, Budget(30, 31), transform))
    colors, energy, transform = keith_xiong_setup(3)
    cases.append((colors, energy, Budget(14, 15), transform))
    for colors, energy, budget, transform in cases:
        runs = [("F1", 1, Primary, None), ("F2", 2, Secondary, None)]
        if transform is None:
            runs += [("Fk", k, DegreeK, k) for k in (2, 3)]
        for tag, k, make, degree in runs:
            walked = flat_walk(energy, colors, budget, k, make, transform)
            found = members(tag, energy, colors, budget, degree=degree, transform=transform)
            assert Counter(walked) == Counter(found), (tag, k, energy, budget)
            for pi in found:
                validate_member(tag, pi, energy, colors, degree=degree)


def _flat_by_color_sequences(energy, colors, budget, transform=None):
    # every F1 member within the budget, from its color sequence alone: each
    # sequence of at most max_parts colors before the ground fixes the sizes
    g = colors.ground
    found = []
    for length in range(budget.max_parts + 1):
        for seq in product(range(colors.n), repeat=length):
            full = seq + (g,)
            pi = tuple(map(Primary, flat_sizes(full, energy, colors), full))
            try:
                validate_member("F1", pi, energy, colors)
            except InvalidPartitionError:
                continue
            charge = (sum(transform.part_degree(p, energy) for p in pi) if transform
                      else partition_size(pi, energy))
            if charge <= budget.max_size and (budget.word is None
                                              or color_word(pi, colors) == budget.word):
                found.append(pi)
    return found


def test_flat_walk_equals_its_color_sequences():
    # an F1 route that never walks: the same multiset on every catalog
    # energy, with and without a word, and under Keith-Xiong's transform
    from partition_forge.characters import keith_xiong_setup

    cases = []
    for colors, energy in small_energies():
        for word in (None, tuple(reversed(colors.non_ground))):
            cases.append((colors, energy, Budget(3, 4, word), None))
    colors, energy, transform = keith_xiong_setup(3)
    for word in (None, (2, 1)):
        cases.append((colors, energy, Budget(12, 7, word), transform))
    for colors, energy, budget, transform in cases:
        walked = flat_walk(energy, colors, budget, transform=transform)
        want = _flat_by_color_sequences(energy, colors, budget, transform)
        assert Counter(walked) == Counter(want), (energy, budget)


def test_flat_walk_checks_each_row_for_negative_sizes():
    # the a word's charge (size + 5) sorts it past the budget's break while
    # its size is already negative: the walk must still raise
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "g"), 1)
    energy = EnergyMatrix(((-1, 1), (2, 0)))
    transform = SizeTransform(1, (5, 0))
    assert len(flat_walk(energy, colors, Budget(10, 10), transform=transform)) == 3
    for max_size in (11, 12):
        with pytest.raises(UsageError, match="negative part size"):
            flat_walk(energy, colors, Budget(max_size, 10), transform=transform)


# the relation every pair of neighbours of a regular family's member meets
NEIGHBOURS = {
    "R1": lambda x, y, energy, colors: min_diff_rel(x, y, energy),
    "O+": lambda x, y, energy, colors: min_diff_rel(x, y, energy),
    "O-": lambda x, y, energy, colors: min_diff_rel(x, y, energy),
    "E+": lambda x, y, energy, colors: mixed_rel(x, y, energy),
    "E-": lambda x, y, energy, colors: mixed_rel(x, y, energy),
    "R2": secondary_regular_rel,
}


def _budget_size(tag, pi, energy):
    """The size a budget reads: |total size| on the lower half line."""
    size = partition_size(pi, energy)
    return abs(size) if tag in ("O-", "E-") else size


def _regular_brute_force(tag, energy, colors, budget, bases):
    """A regular family by filtering: every sequence of the family's parts
    with bases in ``bases``, judged by the budget and ``validate_member``.

    The parts are primary for R1 and O, primary or secondary for E, over
    the non-ground colors, and secondary over every pair but the ground pair
    for R2.  A sequence with two consecutive unrelated parts is no member,
    so sequences grow only through related parts.  O- and E- read the
    budget as |total size| <= max_size.
    """
    g, ng = colors.ground, colors.non_ground
    if tag == "R2":
        parts = [Secondary(h, d, dp) for d in range(colors.n) for dp in range(colors.n)
                 if (d, dp) != (g, g) for h in bases]
    else:
        parts = [Primary(k, c) for c in ng for k in bases]
        if tag in ("E+", "E-"):
            parts += [Secondary(h, d, dp) for d in ng for dp in ng for h in bases]
    term = {"R1": (Primary(0, g),), "R2": (Secondary(0, g, g),)}.get(tag, ())
    related = NEIGHBOURS[tag]
    found, level = [], [()]
    for length in range(budget.max_parts + 1):
        for seq in level:
            pi = seq + term
            if (_budget_size(tag, pi, energy) <= budget.max_size
                    and not rejects(validate_member, tag, pi, energy, colors)):
                found.append(pi)
        if length < budget.max_parts:
            level = [seq + (p,) for seq in level for p in parts
                     if not seq or related(seq[-1], p, energy, colors)]
    return sorted(found, key=lambda pi: canonical_key(pi, energy))


def _assert_walk_equals_brute_force(tag, colors, energy, budget, bases, words=True):
    """The walk equals the filter, and with ``words`` also every
    word-filtered budget on a three-color energy; returns the members."""
    size, parts = budget.max_size, budget.max_parts
    expected = _regular_brute_force(tag, energy, colors, budget, bases)
    assert members(tag, energy, colors, budget) == expected, (tag, energy)
    if words and colors.n >= 3:
        # word-filtered budgets select from the same candidates
        for text in ("", "a", "b", "ab", "ba", "abb", "bab"):
            word = w(colors, text)
            for n in range(size + 1):
                assert members(tag, energy, colors, Budget(n, parts, word)) == [
                    pi for pi in expected
                    if color_word(pi, colors) == word and _budget_size(tag, pi, energy) <= n
                ], (tag, energy, word, n)
    return expected


def _strictly_inside(found, bases):
    """Whether every base of the members found lies strictly inside the window."""
    got = [p[0] for pi in found for p in pi]
    return not got or bases[0] < min(got) and max(got) < bases[-1]


def test_r2_walk_equals_brute_force():
    cases = [(colors, energy, 5) for colors, energy in small_energies()[::4]]
    cases += [(colors, energy, 6) for colors, energy in (mixed_energy(), strict_energy())]
    for colors, energy, size in cases:
        _assert_walk_equals_brute_force("R2", colors, energy, Budget(size, 3), range(-2, 4))


def test_r2_walk_equals_brute_force_with_negative_energies():
    # a negative entry lets halves rise and sizes go negative, so the walk
    # must prune by the least charge of the parts still to come; the halves
    # found lie strictly inside the range searched
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "b", "g"), 2)
    for rows, budget, halves in [
        (((0, -1, 1), (0, 0, 1), (0, 0, 0)), Budget(3, 3), range(-3, 5)),
        (((-1, 0, 0), (0, 0, 0), (1, 1, 0)), Budget(3, 2), range(-5, 6)),
    ]:
        energy = EnergyMatrix(rows)
        found = _assert_walk_equals_brute_force("R2", colors, energy, budget, halves, words=False)
        assert _strictly_inside(found, halves), rows


def _regular_cases():
    """Rows (tag, colors, energy, budget, bases) for R1, O+, O-, E+ and E-
    on every 4th catalog energy, both shipped energies and every 4th energy
    with entries {0, 2} and a 2, for R2 on the last, and for R1, O+ and E+
    on an energy with a -1 entry, where R1 sizes may rise from one part to
    the next (``0a 1b 0g``), so R1 is not O+ with a terminal appended.

    Upper parts lie between 0 and the size cap.  A lower part lies at or
    below 2 (a secondary part of upper half 1), so with |total| <= 3 and
    three parts none lies below -7.
    """
    from partition_forge.core import ColorSystem, EnergyMatrix

    def row(tag, colors, energy, budget, bases):
        text = "/".join(" ".join(map(str, r)) for r in energy.values)
        return pytest.param(tag, colors, energy, budget, bases,
                            id="%s %s %s" % (tag, "".join(colors.names), text))

    wide = [(c, e) for c, e in small_energies(values=(0, 2)) if 2 in sum(e.values, ())][::4]
    energies = small_energies()[::4] + [mixed_energy(), strict_energy()] + wide
    rows = []
    for tag in ("R1", "O+", "O-", "E+", "E-"):
        for colors, energy in energies:
            if tag in ("O-", "E-"):
                rows.append(row(tag, colors, energy, Budget(3, 3), range(-8, 3)))
            else:
                rows.append(row(tag, colors, energy, Budget(5, 3), range(-1, 7)))
    rows += [row("R2", colors, energy, Budget(5, 3), range(-2, 5)) for colors, energy in wide]
    negative = EnergyMatrix(((0, -1, 1), (0, 0, 1), (0, 0, 0)))
    for tag in ("R1", "O+", "E+"):
        rows.append(row(tag, ColorSystem(("a", "b", "g"), 2), negative, Budget(4, 3), range(-1, 6)))
    return rows


@pytest.mark.parametrize("tag,colors,energy,budget,bases", _regular_cases())
def test_regular_walks_equal_brute_force(tag, colors, energy, budget, bases):
    found = _assert_walk_equals_brute_force(tag, colors, energy, budget, bases)
    assert _strictly_inside(found, bases), (tag, energy)


def test_r2_count_equals_e_plus_on_a_wide_budget():
    # rmap is a bijection E+ -> R2; a walk that pruned only loosely could not
    # reach this budget
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix(((0, 0, 0), (0, 0, 0), (1, 1, 0)))
    budget = Budget(5, 6)
    assert len(members("R2", energy, colors, budget)) == 83837
    assert len(members("E+", energy, colors, budget)) == 83837


def test_r1_needing_a_negative_part_raises_usage_error():
    # eps(a, b) = eps(b, a) = -1: -1a 0b 1a 0g lies within the budget
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix(((0, -1, 1), (-1, 0, 1), (0, 0, 0)))
    assert not rejects(validate_member, "R1", parse_partition("-1a 0b 1a 0g", colors, energy),
                       energy, colors)
    with pytest.raises(UsageError, match="negative part size"):
        members("R1", energy, colors, Budget(4, 3))
    # the least sizes sink by one per part without end, but that member fits
    # every budget, so the tail fronts stop there and not at the part cap
    from partition_forge import families

    assert len(families._tail_table("R1", energy, colors, None, None, 10**4)[0]) == 4
    with pytest.raises(UsageError, match="negative part size"):
        members("R1", energy, colors, Budget(0, 10**6))


def _recording_walk(generated):
    """A stand-in for ``families._walk`` that keeps every child generated:
    the plain recursive walk, which runs ``children`` afresh on every visit."""

    def walk(children, root, budget):
        found = [] if budget.word else [()]

        def visit(path, state):
            for part, child_state, keep in children(state):
                child = path + (part,)
                generated.append(child)
                if keep:
                    found.append(child)
                if len(child) < budget.max_parts:
                    visit(child, child_state)

        visit((), root)
        return found

    return walk


def _plain_path_sum(rule, budget, weigh, capped):
    """A stand-in for ``families._path_sum``: the plain recursive walk, each
    part weighed on every visit, its kept paths' weights counted; with
    UsageError(capped) raised after the walk if a kept path reaches the
    part cap, and the terminal weighed after that."""
    paths = _recording_walk([])(rule.children, rule.root, budget)
    if any(len(path) == budget.max_parts for path in paths):
        raise UsageError(capped)
    shift = sum(map(weigh, rule.term))
    return Counter(sum(map(weigh, path), 0) + shift for path in paths)


def _patched(patch, name, stand_in):
    """Patch ``families.<name>`` with ``stand_in``, and the name that
    ``characters`` imports, if it imports it."""
    from partition_forge import characters, families

    for module in (families, characters):
        if hasattr(module, name):
            patch.setattr(module, name, stand_in)


@pytest.mark.parametrize("tag", ["R1", "O+", "E+", "R2"])
def test_upper_regular_walks_generate_no_dead_ends(tag, monkeypatch):
    # every child generated is a prefix of a member kept, with and without
    # a word, while the part cap allows every tail the word leaves; words of
    # length 4 catch a need that is not raised to a size of its word
    from partition_forge import families

    for colors, energy in small_energies()[::4] + [mixed_energy(), strict_energy()]:
        words = [None] + [w(colors, "".join(t)) for n in (1, 2, 3, 4)
                          for t in product("ab", repeat=n) if set(t) <= set(colors.names)]
        for word in words:
            generated = []
            monkeypatch.setattr(families, "_walk", _recording_walk(generated))
            found = families.walk_members(tag, energy, colors, Budget(7, 4, word))
            term = tag in ("R1", "R2")
            prefixes = {pi[:i] for pi in found for i in range(len(pi) + 1 - term)}
            assert [c for c in generated if c not in prefixes] == [], (energy, word)


def _walks_of(monkeypatch, walk, call):
    """Every list of paths that ``call`` gets from ``walk`` standing in for
    ``families._walk``, and what the call returns or the type and message
    of what it raises."""
    walks = []

    def recorded(children, root, budget):
        walks.append(list(walk(children, root, budget)))
        return walks[-1]

    with monkeypatch.context() as patch:
        _patched(patch, "_walk", recorded)
        result = outcome(call)
    return walks, result


def _assert_walk_is_the_plain_walk(monkeypatch, calls):
    # the driver and the plain recursive walk, which runs children afresh
    # on every visit, give the same paths in the same order, or the same error
    from partition_forge import families

    driver = families._walk
    for call in calls:
        assert _walks_of(monkeypatch, driver, call) == _walks_of(
            monkeypatch, _recording_walk([]), call), call


def _assert_path_sum_is_the_plain_fold(monkeypatch, calls):
    # each call gives from the path sum what it gives from the plain
    # recursive walk folded path by path under the part cap, or raises the
    # same way
    for call in calls:
        with monkeypatch.context() as patch:
            _patched(patch, "_path_sum", _plain_path_sum)
            plain = outcome(call)
        assert outcome(call) == plain, call


def test_walk_is_the_plain_walk_on_the_canonical_cases(monkeypatch):
    _assert_walk_is_the_plain_walk(monkeypatch, [
        partial(walk_members, tag, energy, colors, budget, degree=degree)
        for tag, degree, colors, energy, budget in _canonical_cases()])


def test_walk_is_the_plain_walk_on_the_character_routes(monkeypatch):
    from partition_forge.characters import CHARACTER_FAMILIES, build_config, character_lhs

    # every family at ranks 2 and 3, but B, whose least rank is 3
    configs = [build_config(family, rank) for family in CHARACTER_FAMILIES for rank in (2, 3)
               if (family, rank) != ("Bn1-Ln", 2)]
    calls = [partial(character_lhs, config, order, route) for config in configs
             for order in range(7) for route in ("direct", "transform")]
    assert len(calls) == 7 * 7 * 2
    _assert_path_sum_is_the_plain_fold(monkeypatch, calls)


def test_walk_is_the_plain_walk_on_size_counts(monkeypatch):
    calls = []
    for colors, energy in (strict_energy(), mixed_energy()):
        words = [w(colors, "".join(t)) for n in range(4) for t in product("ab", repeat=n)]
        calls += [partial(size_counts, tag, energy, colors, word, 6, degree)
                  for word in words for tag, degree in TAG_DEGREES]
    assert len(calls) == 2 * 15 * 10
    _assert_path_sum_is_the_plain_fold(monkeypatch, calls)


def _raising_cases():
    """Walks that raise partway, as (tag, colors, energy, budget, transform):
    a negative size past the row's break, a negative part, and a negative
    transformed degree; the first case, a smaller budget, does not raise.
    Tag None is ``flat_walk``'s rule, which skips the ground check of F1."""
    from partition_forge.core import ColorSystem

    colors = ColorSystem(("a", "g"), 1)
    energy = EnergyMatrix(((-1, 1), (2, 0)))
    for max_size in (10, 11, 12):
        yield None, colors, energy, Budget(max_size, 10), SizeTransform(1, (5, 0))
    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix(((0, -1, 1), (-1, 0, 1), (0, 0, 0)))
    for tag, budget in (("F1", Budget(4, 3)), ("R1", Budget(4, 3)), ("R1", Budget(0, 10**6))):
        yield tag, colors, energy, budget, None
    colors, energy = strict_energy()
    for tag in ("F1", "F2", "R1", "O+", "E+"):
        yield tag, colors, energy, Budget(6, 7), SizeTransform(1, (-2, 0, 0))


def _walked(tag, colors, energy, budget, degree=None, transform=None):
    """The members of a family, or with tag None of ``flat_walk``, in walk order."""
    if tag is None:
        return flat_walk(energy, colors, budget, transform=transform)
    return walk_members(tag, energy, colors, budget, degree=degree, transform=transform)


def test_walk_is_the_plain_walk_where_the_rules_raise(monkeypatch):
    calls = [partial(_walked, tag, colors, energy, budget, transform=transform)
             for tag, colors, energy, budget, transform in _raising_cases()]
    for call in calls[1:]:
        with pytest.raises(UsageError, match="negative"):
            call()
    _assert_walk_is_the_plain_walk(monkeypatch, calls)


def _assert_fold_is_the_member_walk(tag, colors, energy, budget, degree=None, transform=None):
    # the path sum with packed weights gives gf_from_partitions over the
    # members, and with part sizes the Counter of the members' sizes, or
    # both sides raise the same error; the flat rule's states do not hold
    # the part cap, so where a walked member reaches it, the members are
    # walked again under twice the cap: if one reaches that too, the family
    # is infinite and the path sum must raise, else it must sum them all
    from partition_forge import families
    from partition_forge.core import part_size
    from partition_forge.series import _packed_weights, gf_from_partitions

    def rule_at(budget):
        if tag is None:
            return families._flat_rule(energy, colors, budget, transform=transform)
        return families._rule(tag, energy, colors, budget, degree, transform)

    def fold(weigh):
        return families._path_sum(rule_at(budget), budget, weigh, "infinite")

    def reaches_cap(budget):
        rule = rule_at(budget)
        paths = families._walk(rule.children, rule.root, budget)
        return any(len(path) == budget.max_parts for path in paths)

    def sizes(found):
        size = {p: part_size(p, energy) for p in set(chain.from_iterable(found))}.__getitem__
        return Counter(sum(map(size, pi)) for pi in found)

    order = budget.max_size
    found = outcome(_walked, tag, colors, energy, budget, degree, transform)
    case = tag, degree, energy, budget, transform
    cut = tag in (None, "F1", "F2", "Fk") and isinstance(found, list) and reaches_cap(budget)
    walked = Budget(order, 2 * budget.max_parts, budget.word) if cut else budget
    # a digit holds the part cap's count of a part's colors, degree k or two
    weigh, read = _packed_weights(colors, energy, transform, walked.max_parts * (degree or 2))
    if cut and reaches_cap(walked):
        with pytest.raises(UsageError, match="infinite"):
            fold(weigh)
        return "infinite"
    if cut:
        found = outcome(_walked, tag, colors, energy, walked, degree, transform)
    if isinstance(found, list):
        summed = outcome(gf_from_partitions, found, colors, energy, order, transform)
        counted = sizes(found)
    else:
        summed = counted = found
    assert outcome(lambda: read(fold(weigh), order)) == summed, case
    assert outcome(fold, partial(part_size, energy=energy)) == counted, case
    return "cut" if cut else "walked"


def test_fold_is_the_member_walk_on_the_canonical_cases():
    # a flat family can reach the catalog's part cap, finite or infinite
    kinds = Counter(_assert_fold_is_the_member_walk(tag, colors, energy, budget, degree)
                    for tag, degree, colors, energy, budget in _canonical_cases())
    assert set(kinds) == {"walked", "cut", "infinite"}, kinds


def test_fold_is_the_member_walk_where_the_rules_raise():
    for tag, colors, energy, budget, transform in _raising_cases():
        assert _assert_fold_is_the_member_walk(
            tag, colors, energy, budget, transform=transform) == "walked"


def test_size_counts_is_the_member_walk():
    # both shipped energies, every {a, b} word of length 0 to 3, every size
    # up to 30: the sizes of the members walked, each shorter than its cap
    for colors, energy in (strict_energy(), mixed_energy()):
        words = [w(colors, "".join(t)) for n in range(4) for t in product("ab", repeat=n)]
        for word, size, (tag, degree) in product(words, range(31), TAG_DEGREES):
            budget = Budget(size, word=word)
            found = walk_members(tag, energy, colors, budget, degree=degree)
            term = tag in GROUNDED_TAGS + ("Fk",)  # the terminal is past the cap
            assert all(len(pi) - term < budget.max_parts for pi in found)
            assert size_counts(tag, energy, colors, word, size, degree) == Counter(
                partition_size(pi, energy) for pi in found), (tag, degree, word, size)


def test_size_counts_refuses_an_infinite_count():
    # eps(b, a) = -1: 0g ... 0g 0b 1a 0g is an F1 member of size 1 for every
    # number of leading 0g parts, so each longer part cap lists one more
    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix([[0, 0, 1], [-1, 0, 1], [0, 0, 0]])
    word = w(colors, "ba")
    assert [len(walk_members("F1", energy, colors, Budget(1, cap, word)))
            for cap in range(3, 7)] == [2, 3, 4, 5]
    assert size_counts("F1", energy, colors, word, 0) == Counter()
    for max_size in (1, 2, 3):
        with pytest.raises(UsageError, match="count up to size %d is infinite" % max_size):
            size_counts("F1", energy, colors, word, max_size)
    # a regular part spells a letter, so R1 stops short of its cap
    assert size_counts("R1", energy, colors, word, 3) == Counter({1: 1, 2: 1, 3: 2})


def _expansions(monkeypatch, name, stand_in, call):
    """Per walk that ``call`` makes through ``stand_in``, standing in for
    ``families._walk`` or ``families._path_sum`` as ``name`` says, a Counter
    of the times ``children`` ran on each state."""
    counts = []

    def counting(children):
        counts.append(Counter())

        def counted(state, seen=counts[-1]):
            seen[state] += 1
            return children(state)

        return counted

    def walk(children, root, budget):
        return stand_in(counting(children), root, budget)

    def path_sum(rule, *args):
        return stand_in(rule._replace(children=counting(rule.children)), *args)

    with monkeypatch.context() as patch:
        _patched(patch, name, walk if name == "_walk" else path_sum)
        call()
    return counts


def test_the_walk_expands_each_state_once(monkeypatch):
    from partition_forge import families
    from partition_forge.characters import build_config, character_lhs

    def expansions(name, stand_in, call):
        # (states, visits): equal when each state is expanded once
        counts = _expansions(monkeypatch, name, stand_in, call)
        return sum(map(len, counts)), sum(sum(seen.values()) for seen in counts)

    # each Bn1-Ln route at rank 3 and order 6 sums over 87 states, which
    # the plain walk expands 21,120 times
    config = build_config("Bn1-Ln", 3)
    for route in ("direct", "transform"):
        call = partial(character_lhs, config, 6, route)
        assert expansions("_path_sum", families._path_sum, call) == (87, 87)
        assert expansions("_path_sum", _plain_path_sum, call) == (87, 21120)
    # the 37 catalog R1 walks at Budget(7, 7): 3,283 states, 26,708 visits
    energies = small_energies()
    assert len(energies) == 37

    def catalog():
        for colors, energy in energies:
            walk_members("R1", energy, colors, Budget(7, 7))

    assert expansions("_walk", families._walk, catalog) == (3283, 3283)
    assert expansions("_walk", _recording_walk([]), catalog) == (3283, 26708)


def test_huge_part_caps_stay_cheap():
    # the tail fronts stop once two successive ones are equal, so a part
    # cap of a million builds no front per allowed part
    for colors, energy in (mixed_energy(), strict_energy()):
        for tag in ("R1", "O+", "E+", "R2"):
            assert members(tag, energy, colors, Budget(3, 10**6)) == members(
                tag, energy, colors, Budget(3, 4)), tag


def test_path_sum_drops_each_state_once_summed():
    # F1 with the word ab at size 400 on the strict energy: every state's
    # sums held to the end peak near 7 MB, dropped once their last row is
    # summed near 0.5 MB
    import tracemalloc

    colors, energy = strict_energy()
    word = w(colors, "ab")
    tracemalloc.start()
    try:
        counts = size_counts("F1", energy, colors, word, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    found = walk_members("F1", energy, colors, Budget(400, word=word))
    assert counts == Counter(partition_size(pi, energy) for pi in found)
