from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge.core import (
    DegreeK,
    InvalidPartitionError,
    Primary,
    Secondary,
    UsageError,
    color_word,
    epsilon2,
    epsilon_k,
    flat_rel,
    parse_energy,
    parse_partition,
    part_size,
    partition_size,
)
from partition_forge.degk import flatten_k, gamma_parts, unflatten_k
from partition_forge.deg2 import split_flat2
from partition_forge.families import Budget, members, validate_member

from helpers import degree_k_members, flat_members, strict_energy


def test_epsilon_k_degenerate_cases():
    colors, energy = strict_energy()
    for x in range(3):
        for y in range(3):
            assert epsilon_k(energy, 1, (x,), (y,)) == energy.e(x, y)
    for x in range(3):
        for y in range(3):
            for d in range(3):
                for dp in range(3):
                    # epsilon2 is epsilon_k at k = 2; the reference is its formula
                    want = energy.e(x, y) + 2 * energy.e(y, d) + energy.e(d, dp)
                    assert epsilon_k(energy, 2, (x, y), (d, dp)) == want
                    assert epsilon2(energy, x, y, d, dp) == want


def test_epsilon_k_cube():
    colors, energy = strict_energy()
    a = colors.index("a")
    assert epsilon_k(energy, 3, (a, a, a), (a, a, a)) == 9


def test_epsilon_k_matches_size_difference():
    # consecutive flat degree-k parts differ in size by exactly the energy
    colors, energy = strict_energy()
    for k in (2, 3):
        for pi in members("Fk", energy, colors, Budget(8, 6), degree=k):
            for x, y in zip(pi, pi[1:]):
                diff = part_size(x, energy) - part_size(y, energy)
                assert diff == epsilon_k(energy, k, x.colors, y.colors)


def test_epsilon_k_length_mismatch():
    colors, energy = strict_energy()
    with pytest.raises(UsageError):
        epsilon_k(energy, 2, (0,), (0, 1))


def test_part_sums_and_chain():
    colors, energy = strict_energy()
    for k in (2, 3):
        for pi in members("Fk", energy, colors, Budget(8, 6), degree=k):
            for part in pi:
                gammas = gamma_parts(part, energy)
                assert sum(p.size for p in gammas) == part_size(part, energy)
                for hi, lo in zip(gammas, gammas[1:]):
                    assert hi.size - lo.size == energy.e(hi.color, lo.color)


def test_degree_flat_via_halves():
    colors, energy = strict_energy()
    k = 3
    for pi in members("Fk", energy, colors, Budget(7, 5), degree=k):
        for x, y in zip(pi, pi[1:]):
            expected = (
                gamma_parts(x, energy)[-1].size - gamma_parts(y, energy)[0].size
                == energy.e(x.colors[-1], y.colors[0])
            )
            assert flat_rel(x, y, energy) == expected


def test_flatten_trivial():
    colors, energy = strict_energy()
    g = colors.ground
    assert flatten_k((DegreeK(0, (g, g, g)),), energy, colors, 3) == parse_partition(
        "0c", colors, energy
    )
    assert unflatten_k(parse_partition("0c", colors, energy), energy, colors, 3) == (
        DegreeK(0, (g, g, g)),
    )


def test_roundtrips():
    colors, energy = strict_energy()
    for k in (2, 3, 4):
        for pi in members("Fk", energy, colors, Budget(9, 8), degree=k):
            flat = flatten_k(pi, energy, colors, k)
            assert unflatten_k(flat, energy, colors, k) == pi
        for pi in members("F1", energy, colors, Budget(9, 8)):
            grouped = unflatten_k(pi, energy, colors, k)
            assert flatten_k(grouped, energy, colors, k) == pi


def test_counts_match_degree_one():
    colors, energy = strict_energy()
    f1 = Counter(
        (color_word(p, colors), partition_size(p, energy))
        for p in members("F1", energy, colors, Budget(9, 12))
    )
    for k in (2, 3, 4):
        fk = Counter(
            (color_word(p, colors), partition_size(p, energy))
            for p in members("Fk", energy, colors, Budget(9, 12), degree=k)
        )
        for key, cnt in f1.items():
            assert fk[key] == cnt, (k, key)
        for key, cnt in fk.items():
            assert f1[key] == cnt, (k, key)


def test_degree_two_matches_dedicated_splitter():
    colors, energy = strict_energy()
    for pi in members("F2", energy, colors, Budget(10, 11)):
        as_degree = tuple(
            DegreeK(p.half, (p.left, p.right)) if isinstance(p, Secondary) else p
            for p in pi
        )
        assert flatten_k(as_degree, energy, colors, 2) == split_flat2(pi, energy, colors)


def test_requires_idle_ground():
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "g"), 1)
    weird = EnergyMatrix(((1, 1), (0, 1)))  # eps(ground, ground) != 0
    with pytest.raises(UsageError):
        flatten_k((DegreeK(0, (1, 1)),), weird, colors, 2)


# strict energy, colors a = 0, b = 1, c = 2 (ground): 3ab 0cc is S(1, 0, 1) S(0, 2, 2)
S, D = Secondary, DegreeK
FLAT_MESSAGES = (
    (2, (), "grounded partition cannot be empty"),
    (3, (), "grounded partition cannot be empty"),
    # every part's degree is read before the terminal is looked at
    (3, (D(1, (0, 1)), D(0, (2, 2, 2))), "parts must have degree 3"),
    (3, (D(0, (2, 2, 2)), D(1, (0, 1))), "parts must have degree 3"),
    (2, (S(1, 0, 1),), "terminal part must be the zero ground part"),
    (3, (D(1, (0, 1, 1)),), "terminal part must be the zero ground part"),
    # the terminal and the part before it are checked before any relation
    (2, (S(5, 0, 0), S(1, 0, 1)), "terminal part must be the zero ground part"),
    (3, (D(5, (0, 0, 0)), D(2, (0, 1, 1))), "terminal part must be the zero ground part"),
    (2, (S(0, 2, 2), S(0, 2, 2)), "part before the terminal cannot be the zero ground part"),
    (2, (S(5, 0, 0), S(0, 2, 2), S(0, 2, 2)),
     "part before the terminal cannot be the zero ground part"),
    (3, (D(0, (2, 2, 2)), D(0, (2, 2, 2))),
     "part before the terminal cannot be the zero ground part"),
    (2, (S(2, 0, 1), S(0, 2, 2)), "F2 relation fails between Secondary(half=2, left=0, right=1)"
     " and Secondary(half=0, left=2, right=2)"),
    # the first failing pair is named
    (2, (S(9, 0, 0), S(1, 0, 1), S(0, 2, 2)), "F2 relation fails between Secondary(half=9, "
     "left=0, right=0) and Secondary(half=1, left=0, right=1)"),
    (3, (D(2, (0, 1, 1)), D(0, (2, 2, 2))), "F3 relation fails between DegreeK(base=2, "
     "colors=(0, 1, 1)) and DegreeK(base=0, colors=(2, 2, 2))"),
    (3, (D(9, (0, 1, 1)), D(1, (0, 1, 1)), D(0, (2, 2, 2))), "F3 relation fails between "
     "DegreeK(base=9, colors=(0, 1, 1)) and DegreeK(base=1, colors=(0, 1, 1))"),
)


@pytest.mark.parametrize("k,pi,message", FLAT_MESSAGES)
def test_flat_messages_and_precedence(k, pi, message):
    # the validator of the family and the maps on it give the same message
    colors, energy = strict_energy()
    checks = [lambda: flatten_k(pi, energy, colors, k)]
    if k == 2:
        checks += [lambda: validate_member("F2", pi, energy, colors),
                   lambda: split_flat2(pi, energy, colors)]
    else:
        checks += [lambda: validate_member("Fk", pi, energy, colors, degree=k)]
    for check in checks:
        with pytest.raises(InvalidPartitionError) as info:
            check()
        assert str(info.value) == message


def test_part_types_are_checked_by_validate_member_alone():
    # the maps read any part of the right degree; validate_member also
    # checks the family's part type, before the terminal
    colors, energy = strict_energy()
    secondary = parse_partition("3ab 0cc", colors, energy)
    degree_two = tuple(D(p.half, (p.left, p.right)) for p in secondary)
    flat = parse_partition("2a 1b 0c", colors, energy)
    assert split_flat2(degree_two, energy, colors) == flat
    assert flatten_k(secondary, energy, colors, 2) == flat
    assert flatten_k(flat, energy, colors, 1) == flat
    rows = (
        (lambda: validate_member("F2", degree_two, energy, colors), "parts must be secondary"),
        (lambda: validate_member("F2", flat, energy, colors), "parts must be secondary"),
        (lambda: split_flat2(flat, energy, colors), "parts must have degree 2"),
        (lambda: validate_member("Fk", secondary, energy, colors, degree=2),
         "parts must have degree 2"),
        (lambda: validate_member("Fk", (S(1, 0, 1),), energy, colors, degree=2),
         "parts must have degree 2"),
        (lambda: flatten_k((S(1, 0, 1),), energy, colors, 2),
         "terminal part must be the zero ground part"),
        (lambda: flatten_k((Primary(1, 0),), energy, colors, 2), "parts must have degree 2"),
    )
    for check, message in rows:
        with pytest.raises(InvalidPartitionError) as info:
            check()
        assert str(info.value) == message


def test_maps_need_a_zero_ground_energy():
    colors, energy = parse_energy("a g\ng\n0 1\n0 1\n")  # eps(ground, ground) = 1
    pi = parse_partition("0g", colors, energy)
    for fn, message in ((flatten_k, "splitting requires eps(ground, ground) = 0"),
                        (unflatten_k, "grouping requires eps(ground, ground) = 0")):
        with pytest.raises(UsageError) as info:
            fn(pi, energy, colors, 2)
        assert str(info.value) == message


@pytest.mark.parametrize("degree", (None, 0, -1))
def test_degree_below_one_is_a_usage_error(degree):
    colors, energy = strict_energy()
    pi = parse_partition("1a 0c", colors, energy)
    checks = [lambda: validate_member("Fk", pi, energy, colors, degree=degree),
              lambda: validate_member("Fk", (Primary(1, 0),), energy, colors, degree=degree),
              lambda: members("Fk", energy, colors, Budget(2, 2), degree=degree)]
    if degree is not None:
        checks += [lambda: flatten_k(pi, energy, colors, degree),
                   lambda: unflatten_k(pi, energy, colors, degree)]
    for check in checks:
        with pytest.raises(UsageError, match="degree-k partitions need degree >= 1"):
            check()


# ---------------------------------------------------------------------------
# properties on random minimal ground-compatible energies with two to four
# colors, past the strict energy


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), degree_k_members(k))))
@settings(max_examples=200, deadline=None)
def test_flatten_roundtrip_random_energies(case):
    k, (colors, energy, pi) = case
    validate_member("Fk", pi, energy, colors, degree=k)
    flat = flatten_k(pi, energy, colors, k)
    validate_member("F1", flat, energy, colors)
    assert partition_size(flat, energy) == partition_size(pi, energy)
    assert color_word(flat, colors) == color_word(pi, colors)
    assert unflatten_k(flat, energy, colors, k) == pi


@given(st.integers(1, 4), flat_members(2, 4))
@settings(max_examples=200, deadline=None)
def test_unflatten_roundtrip_random_energies(k, case):
    colors, energy, pi = case
    grouped = unflatten_k(pi, energy, colors, k)
    validate_member("Fk", grouped, energy, colors, degree=k)
    assert partition_size(grouped, energy) == partition_size(pi, energy)
    assert color_word(grouped, colors) == color_word(pi, colors)
    assert flatten_k(grouped, energy, colors, k) == pi
