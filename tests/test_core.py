import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import partition_forge
from partition_forge.core import (
    _label_splits,
    ColorSystem,
    DegreeK,
    EnergyMatrix,
    EnergyStructureError,
    Primary,
    Secondary,
    SizeTransform,
    UsageError,
    epsilon2,
    epsilon2_prime,
    epsilon_k,
    delta_exception,
    flat_rel,
    flat_sizes,
    format_energy,
    format_partition,
    ground_delta,
    min_diff_rel,
    mixed_rel,
    parse_energy,
    parse_partition,
    part_color_seq,
    part_size,
    secondary_regular_rel,
    secondary_size,
    validate_energy,
)
from partition_forge.deg1 import decompose, omega, omega_inv
from partition_forge.degk import gamma_parts

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


# ground-compatible with delta_g = 0 at ground 2 and 1 at ground 0, not at ground 1
GROUNDED = ((0, 1, 1), (0, 0, 1), (0, 0, 0))


def test_color_system_hashes_as_its_fields():
    colors = ColorSystem(("a", "b", "g"), 2)
    again = ColorSystem(["a", "b", "g"], 2)
    assert colors == again and hash(colors) == hash(again)
    assert hash(colors) == hash((colors.names, colors.ground))
    assert ColorSystem(("a", "b", "g"), 1) != colors
    # the cached non-ground indices enter neither equality nor the hash,
    # and the cache leaves the class frozen
    read = ColorSystem(("a", "b", "g"), 2)
    assert read.non_ground == (0, 1)
    assert read == again and hash(read) == hash(again) and again == read
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.non_ground = ()
    assert read.non_ground == (0, 1)
    # the memoized delta_g enters neither equality nor the hash
    energy = EnergyMatrix(GROUNDED)
    ground_delta(energy, colors)
    assert energy == EnergyMatrix(GROUNDED) and hash(energy) == hash(EnergyMatrix(GROUNDED))


def test_color_system_unpickled_elsewhere_hashes_afresh():
    # string hashes are salted per process, so a copy must hash afresh; the
    # colors travel with their non-ground indices already cached and the
    # energy with its delta_g already memoized
    code = (
        "import pickle, sys\n"
        "from partition_forge.core import ColorSystem, EnergyMatrix, ground_delta\n"
        "colors, energy = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {ColorSystem(('a', 'b', 'g'), 2): 'found',\n"
        "         EnergyMatrix(%r): 'energy'}\n"
        "print(table.get(colors), table.get(energy), ground_delta(energy, colors),\n"
        "      colors.non_ground)\n"
    ) % (GROUNDED,)
    colors, energy = ColorSystem(("a", "b", "g"), 2), EnergyMatrix(GROUNDED)
    assert ground_delta(energy, colors) == 0 and colors.non_ground == (0, 1)
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(partition_forge.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          input=pickle.dumps((colors, energy)), timeout=60)
    assert done.stdout == b"found energy 0 (0, 1)\n", done.stderr


def test_ground_delta_keeps_no_energy_alive():
    # values no other test uses, so no equal energy was looked up before
    colors = ColorSystem(("kept_a", "kept_b", "kept_g"), 2)
    energy = EnergyMatrix(((0, 23571, 1), (-23571, 0, 1), (0, 0, 0)))
    assert ground_delta(energy, colors) == 0
    # nor do the parts that the maps build and each energy keeps in its table
    regular = (Primary(1, 0), Primary(0, 2))
    assert decompose(regular, energy, colors)[1] == (0,)
    minimal = EnergyMatrix(((1, 0, 1), (0, 0, 1), (0, 0, 0)))
    flat = omega_inv((Primary(3, 0),) + regular, minimal, colors)
    assert omega(flat, minimal, colors)[0] == Primary(3, 0)
    assert energy._parts and len(minimal._parts) > 3
    refs = weakref.ref(energy), weakref.ref(colors), weakref.ref(minimal)
    del energy, colors, minimal
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_ground_delta_memo_checks_size_labels_and_ground():
    energy = EnergyMatrix(GROUNDED)
    assert ground_delta(energy, ColorSystem(("a", "b", "g"), 2)) == 0
    # another number of colors with the same ground index still mismatches
    with pytest.raises(EnergyStructureError, match="energy is 3x3 but there are 4 colors"):
        ground_delta(energy, ColorSystem(("a", "b", "g", "h"), 2))
    # the labels do not enter the value
    assert ground_delta(energy, ColorSystem(("x", "y", "z"), 2)) == 0
    # each ground index has its own value, and a failure raises every time
    assert ground_delta(energy, ColorSystem(("g", "b", "c"), 0)) == 1
    cases = [(energy, ColorSystem(("a", "g", "c"), 1),
              "eps(ground, c) = 1 disagrees with delta_g = 0"),
             (EnergyMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0))), ColorSystem(("a", "b", "g"), 2),
              "eps(ground, b) = 0 disagrees with delta_g = 1")]
    for bad, colors, violation in cases:
        for _ in range(2):
            with pytest.raises(UsageError) as info:
                ground_delta(bad, colors)
            assert str(info.value) == "energy is not ground-compatible: " + violation
    assert ground_delta(energy, ColorSystem(("a", "b", "g"), 2)) == 0


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


def test_relations_read_on_sizes():
    # each regular relation is a least drop in size from a part to the next:
    # eps for primary parts, a table of the four kinds for mixed parts, and
    # eps'_2 for secondary parts, where eps'_2 = eps_2 off the ground
    for colors, energy in small_energies() + small_energies(values=(0, 2))[::4]:
        e, n = energy.e, colors.n
        primary = [Primary(b, c) for c in range(n) for b in range(-2, 3)]
        secondary = [Secondary(b, c, d) for c in range(n) for d in range(n) for b in range(-2, 3)]

        def drop(x, y):
            return part_size(x, energy) - part_size(y, energy)

        def mixed_least(x, y):
            if isinstance(x, Primary):
                if isinstance(y, Primary):
                    return e(x.color, y.color) + 1
                return e(x.color, y.left) + e(y.left, y.right)
            if isinstance(y, Primary):
                return e(x.left, x.right) + e(x.right, y.color) + 1
            return epsilon2(energy, x.left, x.right, y.left, y.right)

        for x in primary:
            for y in primary:
                assert min_diff_rel(x, y, energy) == (drop(x, y) >= e(x.color, y.color))
        for x in primary + secondary:
            for y in primary + secondary:
                assert mixed_rel(x, y, energy) == (drop(x, y) >= mixed_least(x, y)), (x, y)
        for x in secondary:
            for y in secondary:
                least = epsilon2_prime(energy, colors, x.left, x.right, y.left, y.right)
                assert secondary_regular_rel(x, y, energy, colors) == (drop(x, y) >= least)
                if colors.ground not in (x.left, x.right, y.left, y.right):
                    assert least == epsilon2(energy, x.left, x.right, y.left, y.right)


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
                    hi, lo = gamma_parts(part, energy)
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


# the energy text splits its labels on whitespace and skips lines starting with '#'
@pytest.mark.parametrize("names", (("#a", "g"), ("a", "#g"), ("a b", "g"), ("a\tb", "g")))
def test_color_labels_the_energy_text_cannot_carry(names):
    with pytest.raises(EnergyStructureError, match="whitespace or start with '#'"):
        ColorSystem(names, 1)


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


# (function, arguments after the energy, message) on the three-color strict
# energy: epsilon2 is epsilon_k at k = 2, so both name the first bad index
BAD_COLOR_INDICES = (
    (epsilon_k, (1, (-1,), (1,)), "invalid color index -1"),
    (epsilon_k, (1, (0,), (5,)), "invalid color index 5"),
    (epsilon_k, (3, (0, 1, 3), (0, 1, 2)), "invalid color index 3"),
    (epsilon_k, (2, (0,), (5, 5)), "color words must both have length 2"),
    (epsilon2, (5, 1, 0, 0), "invalid color index 5"),
    (epsilon2, (0, 1, 9, -1), "invalid color index 9"),
    (epsilon2, (0, 1, 0, -1), "invalid color index -1"),
)


@pytest.mark.parametrize("fn,args,message", BAD_COLOR_INDICES)
def test_energy_words_reject_bad_color_indices(fn, args, message):
    colors, energy = strict_energy()
    with pytest.raises(UsageError) as info:
        fn(energy, *args)
    assert str(info.value) == message


# (call on the strict energy, error type, exact message): each check of the
# color system, the energy table and the part text, once
CORE_MESSAGES = (
    (lambda c, e: ColorSystem(("a", "a", "g"), 2), EnergyStructureError,
     "color labels must be distinct"),
    (lambda c, e: ColorSystem(("a", "g"), 2), EnergyStructureError, "ground index out of range"),
    (lambda c, e: ColorSystem(("1a", "g"), 1), EnergyStructureError,
     "color labels may not start with a digit or sign: '1a'"),
    (lambda c, e: c.index("z"), UsageError, "unknown color label 'z'"),
    (lambda c, e: EnergyMatrix(((0, 1), (0,))), EnergyStructureError,
     "energy table must be square"),
    (lambda c, e: parse_energy("a\n"), EnergyStructureError,
     "energy text needs labels, ground, and rows"),
    (lambda c, e: part_color_seq((1, 2)), UsageError, "not a part: (1, 2)"),
    (lambda c, e: SizeTransform(0, (0, 0, 0)), UsageError, "transformation scale must be positive"),
    (lambda c, e: parse_partition("4abc", c, e), UsageError, "size 4 does not fit a degree-3 part"),
    (lambda c, e: parse_partition("   ", c, e), UsageError, "empty partition text"),
)


@pytest.mark.parametrize("call,error,message", CORE_MESSAGES)
def test_core_messages(call, error, message):
    colors, energy = strict_energy()
    with pytest.raises(error) as info:
        call(colors, energy)
    assert str(info.value) == message


def test_validate_energy_violation_texts():
    def _violations(rows):
        return validate_energy(EnergyMatrix(rows), ColorSystem(("a", "b", "g"), 2))["violations"]

    assert _violations(((0, 0, 1), (0, 0, 1), (0, 0, 1))) == ["eps(ground, ground) = 1 != 0"]
    # eps(ground, a) = 0 sets delta_g, and b has its own consistent pair
    assert _violations(((0, 0, 1), (0, 0, 0), (0, 1, 0))) == [
        "eps(ground, b) = 1 disagrees with delta_g = 0"]


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


# ---------------------------------------------------------------------------
# text formats on random color systems: labels of one to three letters, some
# of which spell others, and energies with negative entries


@st.composite
def labelled_partitions(draw):
    names = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=4,
                          unique=True))
    n = len(names)
    colors = ColorSystem(tuple(names), draw(st.integers(0, n - 1)))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    energy = EnergyMatrix(tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n)))
    color, size = st.integers(0, n - 1), st.integers(-5, 20)
    part = st.one_of(
        st.builds(Primary, size, color),
        st.builds(Secondary, size, color, color),
        st.builds(DegreeK, size, st.lists(color, min_size=2, max_size=4).map(tuple)),
    )
    return colors, energy, tuple(draw(st.lists(part, min_size=1, max_size=5)))


@given(labelled_partitions())
@example((ColorSystem(("a", "ab", "b"), 2), EnergyMatrix(((0,) * 3,) * 3), (Secondary(1, 0, 2),)))
@settings(max_examples=300, deadline=None)
def test_partition_text_roundtrip_random_labels(case):
    colors, energy, pi = case
    text = format_partition(pi, colors, energy)
    labels = ["".join(map(colors.label, part_color_seq(p))) for p in pi]
    if any(_label_splits(label, colors)[0] > 1 for label in labels):
        with pytest.raises(UsageError, match="ambiguous"):
            parse_partition(text, colors, energy)
        return
    back = parse_partition(text, colors, energy)
    assert format_partition(back, colors, energy) == text
    for got, part in zip(back, pi):
        if isinstance(part, DegreeK) and len(part.colors) == 2:
            assert isinstance(got, Secondary)  # equal as text, checked above
        else:
            assert got == part


# no whitespace and no leading '#': ColorSystem rejects those
@given(
    st.lists(st.builds(str.__add__, st.sampled_from("abAB_"), st.text("ab09_+-'", max_size=3)),
             min_size=1, max_size=4, unique=True),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_energy_text_roundtrip_random(names, data):
    n = len(names)
    colors = ColorSystem(tuple(names), data.draw(st.integers(0, n - 1)))
    row = st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(tuple)
    energy = EnergyMatrix(tuple(data.draw(st.lists(row, min_size=n, max_size=n))))
    assert parse_energy(format_energy(colors, energy)) == (colors, energy)
