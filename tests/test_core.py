import pytest
from hypothesis import example, given, settings, strategies as st

from partition_forge.core import (
    _label_splits,
    ColorSystem,
    EnergyMatrix,
    EnergyStructureError,
    Primary,
    Secondary,
    UsageError,
    epsilon2,
    epsilon2_prime,
    delta_exception,
    flat_rel,
    flat_sizes,
    format_energy,
    format_partition,
    ground_delta,
    lower_half,
    min_diff_rel,
    mixed_rel,
    parse_energy,
    parse_partition,
    part_size,
    secondary_regular_rel,
    secondary_size,
    upper_half,
    validate_energy,
)

from helpers import MIXED_TEXT, STRICT_TEXT, mixed_energy, small_energies, strict_energy, w


# the two degree-two energy tables for the strict ladder, frozen from the
# worked 9x9 matrices (rows and columns ordered aa ab ac ba bb bc ca cb cc)
EPS2_GOLDEN = [
    [4, 4, 4, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 1, 2, 2, 1, 1, 1],
    [3, 3, 3, 2, 3, 3, 2, 2, 2],
    [2, 2, 2, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 1, 2, 2, 1, 1, 1],
    [3, 3, 3, 2, 3, 3, 2, 2, 2],
    [1, 1, 1, 2, 3, 3, 2, 2, 2],
    [1, 1, 1, 0, 1, 1, 0, 0, 0],
]
EPS2_PRIME_GOLDEN = [
    [4, 4, 4, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 1, 2, 2, 3, 3, 1],
    [3, 3, 3, 2, 3, 3, 2, 2, 2],
    [2, 2, 2, 3, 4, 4, 3, 3, 3],
    [2, 2, 2, 1, 2, 2, 1, 3, 1],
    [3, 3, 3, 2, 3, 3, 2, 2, 2],
    [1, 1, 1, 2, 3, 3, 2, 2, 2],
    [1, 1, 1, 0, 1, 1, 0, 0, 0],
]


def test_validate_energy_mixed():
    colors, energy = mixed_energy()
    report = validate_energy(energy, colors)
    assert report == {"minimal": True, "ground_ok": True, "delta_g": 0, "violations": []}


def test_validate_energy_single_color():
    colors = ColorSystem(("g",), 0)
    report = validate_energy(EnergyMatrix(((0,),)), colors)
    assert report["minimal"] and report["ground_ok"]
    assert report["delta_g"] == 0  # vacuous case reported as 0 by convention


def test_validate_energy_strict():
    colors, energy = strict_energy()
    assert validate_energy(energy, colors)["delta_g"] == 0


def test_validate_energy_violations():
    colors = ColorSystem(("a", "g"), 1)
    bad = EnergyMatrix(((1, 1), (1, 0)))
    report = validate_energy(bad, colors)
    assert not report["ground_ok"]
    assert report["delta_g"] is None
    assert report["violations"]


def test_validate_energy_dimension_mismatch():
    colors = ColorSystem(("a", "g"), 1)
    with pytest.raises(EnergyStructureError):
        validate_energy(EnergyMatrix(((0,),)), colors)


def test_flat_relation_examples():
    colors, energy = mixed_energy()
    a, b = colors.index("a"), colors.index("b")
    assert flat_rel(Primary(1, a), Primary(1, b), energy)
    assert not flat_rel(Primary(2, a), Primary(1, b), energy)


def test_mixed_relation_example():
    colors, energy = strict_energy()
    a, b = colors.index("a"), colors.index("b")
    five_ab = Secondary(2, a, b)
    assert secondary_size(five_ab, energy) == 5
    assert mixed_rel(five_ab, Primary(1, a), energy)


def test_relation_kind_errors():
    colors, energy = strict_energy()
    with pytest.raises(UsageError):
        flat_rel(Primary(1, 0), Secondary(1, 0, 1), energy)
    with pytest.raises(UsageError):
        min_diff_rel(Secondary(1, 0, 1), Primary(0, 0), energy)
    with pytest.raises(UsageError):
        mixed_rel(Primary(1, 0), (1, 0), energy)
    with pytest.raises(UsageError):
        secondary_regular_rel(Primary(1, 0), Primary(0, 0), energy, colors)


def test_epsilon2_examples():
    colors, energy = strict_energy()
    a, b, c = 0, 1, 2
    assert epsilon2(energy, a, b, b, a) == 3
    assert epsilon2(energy, c, c, c, c) == 0
    assert epsilon2_prime(energy, colors, a, c, c, a) == 3
    assert epsilon2(energy, a, c, c, a) == 1


def test_epsilon2_golden_tables():
    colors, energy = strict_energy()
    pairs = [(x, y) for x in range(3) for y in range(3)]
    for i, (x, y) in enumerate(pairs):
        for j, (d, dp) in enumerate(pairs):
            assert epsilon2(energy, x, y, d, dp) == EPS2_GOLDEN[i][j]
            assert epsilon2_prime(energy, colors, x, y, d, dp) == EPS2_PRIME_GOLDEN[i][j]


def test_delta_exception_patterns():
    # the difference eps2' - eps2 is 2*delta, zero except on the stated
    # patterns; when delta_g = 0 only the (c g, g d') pattern survives
    for colors, energy in small_energies():
        g = colors.ground
        dg = ground_delta(energy, colors)
        for c in range(colors.n):
            for cp in range(colors.n):
                for d in range(colors.n):
                    for dp in range(colors.n):
                        diff = epsilon2_prime(energy, colors, c, cp, d, dp) - epsilon2(
                            energy, c, cp, d, dp
                        )
                        assert diff == 2 * delta_exception(energy, colors, c, cp, d, dp)
                        assert diff in (-2, 0, 2)
                        if dg == 0 and diff:
                            assert cp == g and d == g and c != g and dp != g


def test_ground_comparability():
    # parts with the ground color always compare with every other part
    for colors, energy in small_energies():
        g = colors.ground
        for c in colors.non_ground:
            for k in range(-5, 6):
                for l in range(-5, 6):
                    forward = min_diff_rel(Primary(k, c), Primary(l, g), energy)
                    backward = min_diff_rel(Primary(l, g), Primary(k, c), energy)
                    assert forward != backward


def test_secondary_halves():
    for colors, energy in small_energies():
        for c in range(colors.n):
            for cp in range(colors.n):
                for k in range(-3, 4):
                    part = Secondary(k, c, cp)
                    hi, lo = upper_half(part, energy), lower_half(part)
                    assert hi.size + lo.size == secondary_size(part, energy)
                    assert flat_rel(hi, lo, energy)


def test_flat_sizes_worked_example():
    colors, energy = mixed_energy()
    full = w(colors, "aabcccbacaaccbabb") + (colors.ground,)
    assert flat_sizes(full, energy, colors) == (
        6, 5, 5, 4, 4, 4, 4, 4, 3, 3, 2, 1, 1, 1, 1, 1, 1, 0,
    )


def test_flat_sizes_edges():
    colors, energy = mixed_energy()
    assert flat_sizes((), energy, colors) == (0,)
    assert flat_sizes((colors.index("b"), colors.ground), energy, colors) == (1, 0)
    with pytest.raises(UsageError):
        flat_sizes((colors.index("b"),), energy, colors)


def test_energy_text_roundtrip():
    for text in (MIXED_TEXT, STRICT_TEXT):
        colors, energy = parse_energy(text)
        again = parse_energy(format_energy(colors, energy))
        assert again == (colors, energy)


def test_energy_text_errors():
    with pytest.raises(EnergyStructureError):
        parse_energy("a b\nz\n0 0\n0 0\n")
    with pytest.raises(EnergyStructureError):
        parse_energy("a b\nb\n0 0\n")
    with pytest.raises(EnergyStructureError):
        parse_energy("a b\nb\nx y\n0 0\n")


def test_partition_text_roundtrip():
    colors, energy = strict_energy()
    for text in ("10a 8a 8b 0c", "3ab 0cc", "5ab 2ca 0cc", "0c"):
        pi = parse_partition(text, colors, energy)
        assert format_partition(pi, colors, energy) == text


def test_partition_text_errors():
    colors, energy = strict_energy()
    with pytest.raises(UsageError):
        parse_partition("3x", colors, energy)
    with pytest.raises(UsageError):
        parse_partition("pear", colors, energy)
    with pytest.raises(UsageError):
        parse_partition("4ab", colors, energy)  # wrong parity for eps(a,b)=1


def test_part_size_kinds():
    colors, energy = strict_energy()
    assert part_size(Primary(7, 0), energy) == 7
    assert part_size(Secondary(2, 0, 1), energy) == 5
    with pytest.raises(UsageError):
        part_size("nope", energy)


def test_flat_partitions_determined_by_word():
    # the full color sequence pins the sizes, and distinct sequences give
    # distinct flat partitions
    from partition_forge.families import Budget, members

    colors, energy = mixed_energy()
    seen = {}
    for pi in members("F1", energy, colors, Budget(7, 6)):
        full = tuple(p.color for p in pi)
        assert flat_sizes(full, energy, colors) == tuple(p.size for p in pi)
        assert full not in seen
        seen[full] = pi


def test_degree_two_energies_reject_bad_colors():
    colors, energy = strict_energy()
    with pytest.raises(UsageError):
        epsilon2(energy, 0, 1, 9, 0)
    with pytest.raises(UsageError):
        epsilon2_prime(energy, colors, -1, 1, 0, 0)


def _brute_splits(label, names, exclude):
    """Every split of label into the allowed names, by plain recursion."""
    if not label:
        return [()]
    return [
        (c,) + rest
        for c, name in enumerate(names)
        if c not in exclude and label.startswith(name)
        for rest in _brute_splits(label[len(name):], names, exclude)
    ]


@given(
    st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=6, unique=True),
    st.text("ab", max_size=10),
    st.sets(st.integers(0, 5), max_size=2),
)
@example(["a", "aa", "b"], "aaaa", set())
@example(["a", "aa", "b"], "aaba", {0})
@settings(max_examples=300, deadline=None)
def test_label_splits_match_brute_force(names, label, exclude):
    colors = ColorSystem(tuple(names), 0)
    found = _brute_splits(label, names, exclude)
    count, witness = _label_splits(label, colors, exclude=exclude)
    assert count == min(2, len(found))
    assert witness == (found[0] if found else None)


def test_label_splits_long_prefix_run():
    # a run of n a's splits in Fibonacci(n + 1) ways, too many to list
    colors = ColorSystem(("a", "aa", "g"), 2)
    assert _label_splits("a" * 200, colors) == (2, (0,) * 200)
    assert _label_splits("aa" * 100 + "g", colors, exclude={2}) == (0, None)
