import pickle
from itertools import chain, product
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge.core import (
    ColorSystem,
    DegreeK,
    EnergyMatrix,
    InvalidPartitionError,
    Primary,
    Secondary,
    UsageError,
    color_word,
    ground_delta,
    parse_partition,
    partition_size,
)
from partition_forge.deg1 import decompose, omega, omega_inv, recompose
from partition_forge.degk import gamma_parts
from partition_forge.families import Budget, members, validate_member

from helpers import (
    flat_members,
    mixed_energy,
    regular_members,
    rejects,
    small_energies,
    strict_energy,
)

FLAT_TEXT = "6a 5a 5b 4c 4c 4c 4b 4a 3c 3a 2a 1c 1c 1b 1a 1b 1b 0c"
REGULAR_TEXT = "10a 8a 8b 7b 5a 4a 3a 2b 1a 1b 1b 0c"


def test_decompose_worked_example():
    colors, energy = mixed_energy()
    pi = parse_partition(REGULAR_TEXT, colors, energy)
    mu, nu = decompose(pi, energy, colors)
    assert mu == parse_partition("4a 3a 3b 3b 3a 2a 1a 1b 1a 1b 1b 0c", colors, energy)
    assert nu == (6, 5, 5, 4, 2, 2, 2, 1, 0, 0, 0)
    assert recompose((mu, nu), energy, colors) == pi


def test_decompose_trivial():
    colors, energy = mixed_energy()
    trivial = (Primary(0, colors.ground),)
    assert decompose(trivial, energy, colors) == (trivial, ())


def test_decompose_small():
    colors, energy = mixed_energy()
    pi = parse_partition("2a 0c", colors, energy)
    mu, nu = decompose(pi, energy, colors)
    assert mu == parse_partition("1a 0c", colors, energy)
    assert nu == (1,)
    assert recompose((mu, nu), energy, colors) == pi


def test_recompose_rejects_bad_residual():
    colors, energy = mixed_energy()
    mu, nu = decompose(parse_partition("2a 0c", colors, energy), energy, colors)
    with pytest.raises(UsageError):
        recompose((mu, (1, 1)), energy, colors)
    with pytest.raises(UsageError):
        recompose((mu, (-1,)), energy, colors)


def test_omega_worked_example():
    colors, energy = mixed_energy()
    pi = parse_partition(FLAT_TEXT, colors, energy)
    assert omega(pi, energy, colors) == parse_partition(REGULAR_TEXT, colors, energy)


def test_omega_inv_worked_example():
    colors, energy = mixed_energy()
    pi = parse_partition(REGULAR_TEXT, colors, energy)
    assert omega_inv(pi, energy, colors) == parse_partition(FLAT_TEXT, colors, energy)


def test_omega_edges():
    colors, energy = mixed_energy()
    trivial = (Primary(0, colors.ground),)
    assert omega(trivial, energy, colors) == trivial
    assert omega_inv(trivial, energy, colors) == trivial
    small_flat = parse_partition("1c 1a 0c", colors, energy)
    small_reg = parse_partition("2a 0c", colors, energy)
    assert omega(small_flat, energy, colors) == small_reg
    assert omega_inv(small_reg, energy, colors) == small_flat


def test_omega_rejects_non_members():
    colors, energy = mixed_energy()
    bad = parse_partition("5a 1b 0c", colors, energy)  # 5-1 != eps(a,b)
    with pytest.raises(InvalidPartitionError):
        omega(bad, energy, colors)
    with pytest.raises(InvalidPartitionError):
        omega_inv(parse_partition("1c 1a 0c", colors, energy), energy, colors)


NOT_MINIMAL = "the degree-one maps need a minimal energy, every eps in {0, 1}"


def test_maps_refuse_every_non_minimal_energy():
    # every ground-compatible energy on colors a b g with entries 0-3 and
    # one above 1: the scan assumes eps in {0, 1}, and on eps(b, b) = 2
    # omega took 2b 1g 1b 0g (size 4) to 4b 1b 0g (size 5)
    colors = ColorSystem(("a", "b", "g"), 2)
    trivial = (Primary(0, 2),)
    refused = 0
    for delta, block in product((0, 1), product(range(4), repeat=4)):
        if max(block) < 2:
            continue
        energy = EnergyMatrix(((*block[:2], 1 - delta), (*block[2:], 1 - delta),
                               (delta, delta, 0)))
        assert ground_delta(energy, colors) == delta
        for fn in (omega, omega_inv):
            with pytest.raises(UsageError) as info:
                fn(trivial, energy, colors)
            assert str(info.value) == NOT_MINIMAL
        refused += 1
    assert refused == 480
    # the ground-compatibility message comes first
    broken = EnergyMatrix(((2, 0, 1), (0, 0, 1), (0, 1, 0)))
    for fn in (omega, omega_inv):
        with pytest.raises(UsageError, match="not ground-compatible"):
            fn(trivial, broken, colors)
    # decompose and recompose hold on any energy
    energy = EnergyMatrix(((0, 0, 1), (0, 2, 1), (0, 0, 0)))
    pi = (Primary(5, 1), Primary(0, 2))
    assert recompose(decompose(pi, energy, colors), energy, colors) == pi


class ForeignPart(NamedTuple):
    """A part that reads like a primary one but is not a ``Primary``."""

    size: int
    color: int


def _built_afresh(out, pi):
    return type(out) is tuple and out is not pi and all(type(p) is Primary for p in out)


def test_maps_return_tuples_of_primary_parts():
    colors, energy = mixed_energy()
    g = colors.ground
    budget = Budget(7, 5)
    # flats with no ground part but the terminal are their own images, as
    # regulars with an empty residual are their own preimages
    flats = [pi for pi in members("F1", energy, colors, budget)
             if [p.color for p in pi].count(g) == 1]
    regulars = [pi for pi in members("R1", energy, colors, budget)
                if decompose(pi, energy, colors)[1] == (0,) * (len(pi) - 1)]
    assert (Primary(0, g),) in flats and len(flats) > 5 and set(flats) == set(regulars)
    flat, regular = (parse_partition(text, colors, energy) for text in (FLAT_TEXT, REGULAR_TEXT))
    for fn, pi in ([(omega, pi) for pi in flats + [flat]]
                   + [(omega_inv, pi) for pi in regulars + [regular]]):
        want = fn(pi, energy, colors)
        for arg in (pi, list(pi), tuple(ForeignPart(*p) for p in pi),
                    [ForeignPart(*p) for p in pi]):
            out = fn(arg, energy, colors)
            assert _built_afresh(out, arg), (fn.__name__, arg)
            assert out == want
    assert all(omega(pi, energy, colors) == pi for pi in flats)
    assert all(omega_inv(pi, energy, colors) == pi for pi in regulars)


# mixed energy, colors a = 0, b = 1, c = 2 (ground): eps(a, a) = 1, eps(a, b) = 0
P = Primary
DEGREE_ONE_MESSAGES = (
    ("F1", (), "grounded partition cannot be empty"),
    ("R1", (), "grounded partition cannot be empty"),
    # every part is read before the terminal is looked at
    ("F1", (P(1, 0), Secondary(0, 2, 2)), "parts must be primary"),
    ("R1", (DegreeK(0, (2, 2, 2)), P(0, 2)), "parts must be primary"),
    ("F1", (P(0, 2), P(1, 0)), "terminal part must be the zero ground part"),
    ("R1", (P(1, 0),), "terminal part must be the zero ground part"),
    ("F1", (P(1, 0), P(0, 2), P(0, 2)), "part before the terminal cannot be the zero ground part"),
    ("R1", (P(0, 2), P(0, 2)), "part before the terminal cannot be the zero ground part"),
    # R1's ground color is checked before any relation, even an earlier one
    ("R1", (P(0, 0), P(5, 2), P(1, 0), P(0, 2)), "regular partitions avoid the ground color"),
    ("R1", (P(1, 2), P(1, 0), P(0, 2)), "regular partitions avoid the ground color"),
    ("F1", (P(5, 0), P(1, 1), P(0, 2)),
     "F1 relation fails between Primary(size=5, color=0) and Primary(size=1, color=1)"),
    ("F1", (P(2, 0), P(0, 2)),
     "F1 relation fails between Primary(size=2, color=0) and Primary(size=0, color=2)"),
    ("R1", (P(1, 0), P(1, 0), P(0, 2)),
     "R1 relation fails between Primary(size=1, color=0) and Primary(size=1, color=0)"),
)


@pytest.mark.parametrize("tag,pi,message", DEGREE_ONE_MESSAGES)
def test_degree_one_messages_and_precedence(tag, pi, message):
    # the validator and the map on the family give the same message
    colors, energy = mixed_energy()
    for check in (lambda: validate_member(tag, pi, energy, colors),
                  lambda: (omega if tag == "F1" else omega_inv)(pi, energy, colors)):
        with pytest.raises(InvalidPartitionError) as info:
            check()
        assert str(info.value) == message


def _forward_table(colors, energy, budget):
    """The inverse of omega, as the table of its images of the F1 members."""
    return {omega(pi, energy, colors): pi for pi in members("F1", energy, colors, budget)}


def test_omega_inv_inverts_the_forward_table_on_the_catalog():
    # an R1 member within Budget(6, 6) has at most 5 colored parts, and its
    # preimage adds at most 6 ground parts, one per unit of its residual's
    # largest part
    checked = 0
    for colors, energy in small_energies():
        table = _forward_table(colors, energy, Budget(6, 12))
        for pi in members("R1", energy, colors, Budget(6, 6)):
            assert omega_inv(pi, energy, colors) == table[pi]
            checked += 1
    assert len(small_energies()) == 37 and checked > 5000


@given(regular_members(max_word=4, max_residual=12))
@settings(max_examples=100, deadline=None)
def test_omega_inv_inverts_the_forward_table_on_random_energies(case):
    # the F1 members of the regular member's word and size, past the
    # catalog's colors and regular_members' default residual
    colors, energy, pi = case
    word = tuple(p.color for p in pi[:-1])
    table = _forward_table(colors, energy, Budget(partition_size(pi, energy), word=word))
    assert omega_inv(pi, energy, colors) == table[pi]


def test_maps_share_one_part_table_per_energy():
    colors, energy = mixed_energy()
    budget = Budget(7, 6)
    flats = members("F1", energy, colors, budget)
    regulars = members("R1", energy, colors, budget)
    outs = ([omega(pi, energy, colors) for pi in flats]
            + [omega_inv(pi, energy, colors) for pi in regulars]
            + [decompose(pi, energy, colors)[0] for pi in regulars]
            + [tuple(gamma_parts(p, energy)) for pi in flats for p in pi])
    # equal parts from one energy are one object, a Primary
    parts = {}
    for p in chain.from_iterable(outs):
        assert type(p) is Primary and parts.setdefault(p, p) is p
    assert len(parts) == len(energy._parts)
    # a part's fields are ints, whatever equal values the first caller passed
    fresh = EnergyMatrix(energy.values)
    (terminal,) = omega((ForeignPart(False, colors.ground),), fresh, colors)
    assert repr(terminal) == "Primary(size=0, color=2)"
    assert omega(flats[-1], fresh, colors)[-1] is terminal
    # an equal energy has its own table, and builds equal parts afresh
    again = EnergyMatrix(energy.values)
    assert again == energy and again._parts == {}
    for pi in flats:
        image = omega(pi, again, colors)
        assert image == omega(pi, energy, colors)
        assert all(q is again._parts[q] and q is not parts[q] for q in image)


def test_energy_with_a_filled_part_table_pickles():
    colors, energy = mixed_energy()
    flat = parse_partition(FLAT_TEXT, colors, energy)
    regular = omega(flat, energy, colors)
    assert len(energy._parts) > 5
    fresh = EnergyMatrix(energy.values)
    copy = pickle.loads(pickle.dumps(energy))
    for other in (fresh, copy):
        assert other == energy and energy == other and hash(other) == hash(energy)
    assert repr(energy) == repr(fresh)
    # the copy carries its own table, and maps as the original does
    assert copy._parts == energy._parts and copy._parts is not energy._parts
    assert omega_inv(regular, copy, colors) == flat and omega(flat, copy, colors) == regular


def _roundtrip_families(colors, energy, max_size, max_parts):
    budget = Budget(max_size, max_parts)
    flats = members("F1", energy, colors, budget)
    regulars = members("R1", energy, colors, budget)
    for pi in flats:
        image = omega(pi, energy, colors)
        validate_member("R1", image, energy, colors)
        assert partition_size(image, energy) == partition_size(pi, energy)
        assert color_word(image, colors) == color_word(pi, colors)
        assert omega_inv(image, energy, colors) == pi
    for pi in regulars:
        pre = omega_inv(pi, energy, colors)
        validate_member("F1", pre, energy, colors)
        assert partition_size(pre, energy) == partition_size(pi, energy)
        assert color_word(pre, colors) == color_word(pi, colors)
        assert omega(pre, energy, colors) == pi
    return len(flats), len(regulars)


def test_roundtrips_mixed_and_strict():
    for colors, energy in (mixed_energy(), strict_energy()):
        nf, nr = _roundtrip_families(colors, energy, 10, 8)
        assert nf > 1 and nr > 1


def test_refinement_ground_part_count():
    # flats with exactly s' non-terminal ground parts map to regulars whose
    # residual has largest part s'
    colors, energy = mixed_energy()
    g = colors.ground
    for pi in members("F1", energy, colors, Budget(9, 8)):
        grounds = sum(1 for p in pi[:-1] if p.color == g)
        _, nu = decompose(omega(pi, energy, colors), energy, colors)
        largest = nu[0] if nu else 0
        assert largest == grounds


def test_roundtrips_every_small_energy():
    for colors, energy in small_energies(max_colors=2):
        _roundtrip_families(colors, energy, 7, 5)


# ---------------------------------------------------------------------------
# properties on random energies past the exhaustive catalog (at most three
# colors): minimal ground-compatible energies on four and five colors


@given(flat_members())
@settings(max_examples=200, deadline=None)
def test_omega_roundtrip_random_energies(case):
    colors, energy, pi = case
    validate_member("F1", pi, energy, colors)
    image = omega(pi, energy, colors)
    validate_member("R1", image, energy, colors)
    assert partition_size(image, energy) == partition_size(pi, energy)
    assert color_word(image, colors) == color_word(pi, colors)
    assert omega_inv(image, energy, colors) == pi


@given(regular_members())
@settings(max_examples=200, deadline=None)
def test_omega_inv_roundtrip_random_energies(case):
    colors, energy, pi = case
    validate_member("R1", pi, energy, colors)
    pre = omega_inv(pi, energy, colors)
    validate_member("F1", pre, energy, colors)
    assert partition_size(pre, energy) == partition_size(pi, energy)
    assert color_word(pre, colors) == color_word(pi, colors)
    assert omega(pre, energy, colors) == pi


@given(st.one_of(flat_members(), regular_members()), st.data())
@settings(max_examples=300, deadline=None)
def test_maps_reject_exactly_the_non_members(case, data):
    colors, energy, pi = case
    g = colors.ground
    k = data.draw(st.integers(0, len(pi) - 1))
    size, color = pi[k]
    kind = data.draw(st.sampled_from(("bump", "ground", "drop", "no terminal", "extra zero")))
    if kind == "bump":
        bad = pi[:k] + (Primary(size + data.draw(st.sampled_from((-1, 1))), color),) + pi[k + 1:]
    elif kind == "ground":
        bad = pi[:k] + (Primary(size, g),) + pi[k + 1:]
    elif kind == "drop":
        bad = pi[:k] + pi[k + 1:]
    elif kind == "no terminal":
        bad = pi[:-1]
    else:
        bad = pi[:-1] + (Primary(0, g),) + pi[-1:]
    assert rejects(omega, bad, energy, colors) == rejects(validate_member, "F1", bad, energy, colors)
    assert rejects(omega_inv, bad, energy, colors) == rejects(
        validate_member, "R1", bad, energy, colors)
