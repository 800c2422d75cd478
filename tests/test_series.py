import copy
import json
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge import classic
from partition_forge.characters import (
    build_config,
    character_lhs,
    character_rhs,
    keith_xiong_setup,
    siladic_setup,
)
from partition_forge.core import (
    ColorSystem,
    EnergyMatrix,
    Primary,
    Secondary,
    SizeTransform,
    UsageError,
    color_word,
    part_color_seq,
    part_size,
)
from partition_forge.families import Budget, members, walk_members
from partition_forge.series import (
    PackedRows,
    ProductFactor,
    TruncatedSeries,
    gf_from_partitions,
    pochhammer_expand,
)

from helpers import mixed_energy, small_energies, strict_energy


def q_only(order):
    return TruncatedSeries.one(order, 0)


def mono(coeff, d, order):
    return TruncatedSeries.monomial(coeff, d, (), order, 0)


def test_basic_ring_ops():
    one_plus_q = mono(1, 0, 3) + mono(1, 1, 3)
    one_minus_q = mono(1, 0, 3) + mono(-1, 1, 3)
    prod = one_plus_q * one_minus_q
    assert prod == mono(1, 0, 3) + mono(-1, 2, 3)
    assert prod.coeff(2) == -1
    assert prod.coeff(1) == 0


def test_constant_term_of_positive_offset_products():
    factors = (
        ProductFactor(1, (), 1, 1),
        ProductFactor(-1, (), 3, 2),
        ProductFactor(1, (), 2, 2, reciprocal=True),
    )
    assert pochhammer_expand(factors, 8, 0).coeff(0) == 1


def test_distinct_parts_product():
    # (-q; q)_inf counts partitions into distinct parts
    series = pochhammer_expand((ProductFactor(1, (), 1, 1),), 5, 0)
    assert series.q_coefficients() == [classic.count(n, classic.is_distinct) for n in range(6)]


def test_distinct_odd_product():
    series = pochhammer_expand((ProductFactor(1, (), 1, 2),), 9, 0)
    assert series.q_coefficients() == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2]
    assert series.q_coefficients() == [classic.count(n, classic.is_distinct_odd) for n in range(10)]


def test_euler_product_equality():
    lhs = pochhammer_expand((ProductFactor(1, (), 1, 1),), 12, 0)
    rhs = pochhammer_expand(
        (ProductFactor(-1, (), 2, 2), ProductFactor(-1, (), 1, 1, reciprocal=True)),
        12,
        0,
    )
    third = pochhammer_expand((ProductFactor(-1, (), 1, 2, reciprocal=True),), 12, 0)
    assert lhs == rhs == third


def test_three_regular_product_coefficient():
    series = pochhammer_expand(
        (ProductFactor(-1, (), 3, 3), ProductFactor(-1, (), 1, 1, reciprocal=True)),
        16,
        0,
    )
    assert series.coeff(16) == classic.count(16, lambda lam: classic.is_m_regular(lam, 3))


@pytest.mark.parametrize("m", (2, 3, 4))
def test_glaisher_product_three_ways(m):
    series = pochhammer_expand(
        (ProductFactor(-1, (), m, m), ProductFactor(-1, (), 1, 1, reciprocal=True)),
        20,
        0,
    )
    for n in range(21):
        expected = series.coeff(n)
        assert classic.count(n, lambda lam: classic.is_m_regular(lam, m)) == expected
        assert classic.count(n, lambda lam: classic.occurrences_below(lam, m)) == expected
        assert classic.count(n, lambda lam: classic.is_m_flat(lam, m)) == expected


def test_gf_from_partitions_empty():
    colors = ColorSystem(("g",), 0)
    energy = EnergyMatrix(((0,),))
    assert gf_from_partitions((), colors, energy, 5) == TruncatedSeries.zero(5, 0)


def test_gf_counts_single_part_flats():
    colors, energy = mixed_energy()
    flats = members("F1", energy, colors, Budget(2, 3))
    series = gf_from_partitions(flats, colors, energy, 2)
    singles = [
        pi for pi in flats
        if len(pi) == 2 and pi[0].size == 1
    ]
    assert sum(v for (d, _), v in series.coeffs.items() if d == 1) == len(singles)


def test_strict_single_color_gf_matches_product():
    # one non-ground color: (-x q; q)_inf lists partitions into distinct
    # parts with the color exponent marking the number of parts
    colors = ColorSystem(("x", "g"), 1)
    energy = EnergyMatrix(((1, 1), (0, 0)))
    flats = members("R1", energy, colors, Budget(12, 13))
    lhs = gf_from_partitions(flats, colors, energy, 12)
    rhs = pochhammer_expand((ProductFactor(1, (1,), 1, 1),), 12, 1)
    for d in range(13):
        for e in range(5):
            assert lhs.coeff(d, (e,)) == rhs.coeff(d, (e,))


def test_negative_transformed_degree_rejected():
    colors = ColorSystem(("x", "g"), 1)
    energy = EnergyMatrix(((1, 1), (0, 0)))
    bad = SizeTransform(1, (-5, 0))
    flats = members("R1", energy, colors, Budget(4, 3))
    with pytest.raises(UsageError):
        gf_from_partitions(flats, colors, energy, 4, transform=bad)
    # the error names the first part of negative degree, in order of
    # occurrence, even when a later partition has a sum of degree >= 0
    x, g = 0, 1
    parts = [(Primary(3, x), Primary(0, g)), (Primary(9, x), Primary(-1, x), Primary(-2, x))]
    with pytest.raises(UsageError, match=re.escape("part Primary(size=-1, color=0)")):
        gf_from_partitions(parts, colors, energy, 20)


@pytest.mark.parametrize("setup,tags,order", [
    (keith_xiong_setup(3), ("F1", "R1"), 12),
    (siladic_setup(), ("R2", "F2", "O+"), 16),
])
def test_transformed_gf_equals_a_sum_of_part_degrees(setup, tags, order):
    # the reference weighs each member part by part with part_degree and
    # counts its non-ground colors in the order of colors.non_ground
    colors, energy, transform = setup
    var = {c: i for i, c in enumerate(colors.non_ground)}
    for tag in tags:
        found = walk_members(tag, energy, colors, Budget(order, order + 1), transform=transform)
        want = Counter()
        for pi in found:
            exps = [0] * len(var)
            for c in color_word(pi, colors):
                exps[var[c]] += 1
            want[(sum(transform.part_degree(p, energy) for p in pi), tuple(exps))] += 1
        got = gf_from_partitions(found, colors, energy, order, transform)
        assert got.nvars == len(var) and got.coeffs == dict(want)


def test_packed_weight_digits_hold_every_color_of_a_partition():
    # three parts but four a's: a digit sized from the longest partition
    # alone (two bits) would carry the count into the degree, giving q^7 a^0
    colors = ColorSystem(("a", "g"), 1)
    energy = EnergyMatrix(((0, 1), (0, 0)))
    pi = (Secondary(2, 0, 0), Secondary(1, 0, 0), Secondary(0, 1, 1))
    assert gf_from_partitions([pi], colors, energy, 10).coeffs == {(6, (4,)): 1}


def _looped_gf(partitions, colors, energy, order):
    # one tuple-keyed monomial per partition, summed part by part
    var = {c: i for i, c in enumerate(colors.non_ground)}
    acc = Counter()
    for pi in partitions:
        exps = [0] * len(var)
        for p in pi:
            for c in part_color_seq(p):
                if c in var:
                    exps[var[c]] += 1
        d = sum(part_size(p, energy) for p in pi)
        if d <= order:
            acc[(d, tuple(exps))] += 1
    return dict(acc)


@pytest.mark.parametrize("shipped", (mixed_energy, strict_energy))
def test_packed_gf_equals_a_tuple_keyed_sum(shipped):
    colors, energy = shipped()
    runs = [(tag, None) for tag in ("F2", "R2", "E+")]
    if shipped is strict_energy:
        runs.append(("Fk", 3))
    for tag, degree in runs:
        found = walk_members(tag, energy, colors, Budget(9, 10), degree=degree)
        for order in (4, 9):
            got = gf_from_partitions(found, colors, energy, order)
            assert got.coeffs == _looped_gf(found, colors, energy, order), (tag, order)


@pytest.mark.parametrize("count", (127, 128))
def test_packed_gf_at_a_byte_digit_boundary(count):
    # 127 parts of one color fill a signed 8-bit digit; 128 need 16 bits
    colors = ColorSystem(("a", "b", "g"), 2)
    energy = EnergyMatrix(((0, 1, 1), (0, 0, 1), (0, 0, 0)))
    partitions = [
        tuple(Primary(1, 0) for _ in range(count)) + (Primary(0, 2),),
        tuple(Primary(2, 1) for _ in range(count - 1)) + (Primary(1, 0), Primary(0, 2)),
        (Primary(3, 1), Primary(0, 2)),
    ]
    for order in (3, 2 * count, 3 * count):
        got = gf_from_partitions(partitions, colors, energy, order)
        assert got.coeffs == _looped_gf(partitions, colors, energy, order), order


def test_reciprocal_needs_positive_offset():
    with pytest.raises(UsageError):
        pochhammer_expand((ProductFactor(1, (), 0, 2, reciprocal=True),), 4, 0)
    with pytest.raises(UsageError):
        pochhammer_expand((ProductFactor(1, (), 1, 0),), 4, 0)


def reference_product(factors, order, nvars):
    """The product multiplied out step by step with TruncatedSeries.__mul__."""
    one = TruncatedSeries.one(order, nvars)
    out = one
    for f in factors:
        a = f.offset
        while a <= order:
            if f.reciprocal:
                step = TruncatedSeries(order, nvars, {
                    (a * j, tuple(e * j for e in f.exps)): 1 for j in range(order // a + 1)
                })
            else:
                step = one + TruncatedSeries.monomial(f.sign, a, f.exps, order, nvars)
            out = out * step
            a += f.modulus
    return out


@pytest.mark.parametrize("nvars", (0, 2))
def test_offset_zero_step_with_unit_monomial(nvars):
    zeros = (0,) * nvars
    plus = pochhammer_expand((ProductFactor(1, zeros, 0, 1),), 3, nvars)
    assert [plus.coeff(d) for d in range(4)] == [2, 2, 2, 4]
    assert len(plus.coeffs) == 4
    minus = pochhammer_expand((ProductFactor(-1, zeros, 0, 1),), 3, nvars)
    assert minus == TruncatedSeries.zero(3, nvars)


def test_empty_product_ignores_the_order():
    assert pochhammer_expand((), 10**9, 0).coeffs == {(0, ()): 1}


def test_factor_checks_keep_their_order_and_messages():
    cases = (
        ((ProductFactor(1, (), 1, 1),), -1, 0, "truncation order must be non-negative"),
        ((ProductFactor(1, (1,), 1, 0),), 4, 0, "factor modulus must be >= 1"),
        ((ProductFactor(1, (1,), 1, 1),), 4, 0, "factor monomial has wrong dimension"),
        ((ProductFactor(5, (), 0, 1, True),), 4, 0, "reciprocal factor needs offset >= 1"),
        ((ProductFactor(5, (), -1, 1),), 4, 0, "factor offset must be non-negative"),
        ((ProductFactor(1, (), 1, 1), ProductFactor(0, (), 1, 1)), 4, 0,
         "factor sign must be +1 or -1"),
    )
    for factors, order, nvars, message in cases:
        with pytest.raises(UsageError, match=re.escape(message)):
            pochhammer_expand(factors, order, nvars)


def test_reciprocal_ignores_its_sign():
    factors = (ProductFactor(1, (1, -2), 1, 2, reciprocal=True),)
    assert pochhammer_expand(factors, 9, 2) == pochhammer_expand(
        (factors[0]._replace(sign=-7),), 9, 2
    )


product_factors = st.integers(0, 3).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.integers(0, 12),
    st.lists(
        st.builds(
            lambda sign, exps, offset, modulus, reciprocal: ProductFactor(
                sign, exps, max(offset, reciprocal), modulus, reciprocal
            ),
            st.sampled_from((1, -1)),
            st.tuples(*[st.integers(-2, 2)] * nvars),
            st.integers(0, 4),
            st.integers(1, 3),
            st.booleans(),
        ),
        max_size=4,
    ),
))


@given(product_factors)
@settings(max_examples=150, deadline=None)
def test_expansion_matches_the_reference_product(case):
    nvars, order, factors = case
    assert pochhammer_expand(factors, order, nvars) == reference_product(
        factors, order, nvars
    )


@pytest.mark.parametrize("top", (
    2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1,
))
def test_expansion_at_the_digit_boundaries(top):
    # the exponent bound is top and q^3 reaches it in both signs, so the
    # digit is 8, 16, 32 or 64 bits wide with nothing to spare, or one step up
    third = top // 3
    factors = (
        ProductFactor(1, (third, -third), 1, 5),
        ProductFactor(-1, (top - third, third - top), 2, 5),
    )
    got = pochhammer_expand(factors, 3, 2)
    assert got == reference_product(factors, 3, 2)
    assert got.coeff(3, (top, -top)) == -1


def _dict_backed(series):
    return TruncatedSeries(series.order, series.nvars, dict(series.coeffs.items()))


@given(product_factors)
@settings(max_examples=150, deadline=None)
def test_packed_view_reads_like_its_dict(case):
    nvars, order, factors = case
    packed = pochhammer_expand(factors, order, nvars)
    view = packed.coeffs
    assert isinstance(view, PackedRows)
    plain = dict(view.items())
    assert len(view) == len(plain) and list(view) == list(plain)
    assert list(view.items()) == list(plain.items())
    assert list(view.values()) == list(plain.values())
    assert 0 not in plain.values()
    for key, v in plain.items():
        assert view.get(key) == v and view[key] == v and key in view
    zeros = (0,) * nvars
    wrong_lengths = [(0, zeros + (0,))] + [(0, zeros[1:])] * (nvars > 0)
    # a digit at either end of the signed range: +half is past the width,
    # and -half fits but no product here reaches it
    half = 1 << (view.width - 1)
    edges = [(d, zeros[:i] + (e,) + zeros[i + 1:])
             for d in range(order + 1) for i in range(nvars) for e in (half, -half)]
    for miss in [(-1, zeros), (order + 1, zeros), "q", 7] + wrong_lengths + edges:
        assert miss not in plain
        assert view.get(miss) is None and miss not in view
        with pytest.raises(KeyError):
            view[miss]
    plain_series = _dict_backed(packed)
    assert packed == plain_series and plain_series == packed
    assert hash(packed) == hash(plain_series)
    assert packed + plain_series == plain_series + packed == plain_series * 2
    assert packed - packed == TruncatedSeries.zero(order, nvars) == -packed + plain_series
    assert packed.terms() == plain_series.terms()
    assert packed.q_coefficients() == plain_series.q_coefficients()
    names = ["x%d" % i for i in range(nvars)]
    assert packed.text(names) == plain_series.text(names)
    assert json.dumps(packed.to_json()) == json.dumps(plain_series.to_json())


@pytest.mark.parametrize("top", (2**7 - 1, 2**15 - 1))
def test_packed_view_misses_past_its_digits(top):
    # the q^3 term (top, -top) fills an 8- or 16-bit digit; a vector that
    # moves one carry between its digits packs to the same int
    third = top // 3
    factors = (
        ProductFactor(1, (third, -third), 1, 5),
        ProductFactor(-1, (top - third, third - top), 2, 5),
    )
    view = pochhammer_expand(factors, 3, 2).coeffs
    assert view.width == top.bit_length() + 1
    carry = 1 << view.width
    assert view[(3, (top, -top))] == -1
    for exps in ((top + 1, 0), (0, top + 1), (-top - 2, 0), (0, -top - 2),
                 (top - carry, 1 - top), (top + carry, -top - 1)):
        assert view.get((3, exps)) is None and (3, exps) not in view
    assert view[(0, (0, 0))] == 1
    for exps in ((), (0,), (0, 0, 0)):  # each packs to 0, the key of (0, 0)
        assert view.get((0, exps)) is None


def test_packed_and_dict_series_compare_across_layouts():
    # x^200 q^2 cancels, but its bound widens the digits: the key of y moves
    y_q = ProductFactor(1, (0, 1), 1, 5)
    cancels = (ProductFactor(1, (200, 0), 2, 5), ProductFactor(-1, (200, 0), 2, 5))
    wide = pochhammer_expand((y_q,) + cancels, 2, 2)
    narrow = pochhammer_expand((y_q,), 2, 2)
    assert (wide.coeffs.width, narrow.coeffs.width) == (16, 8)
    assert wide.coeffs.rows != narrow.coeffs.rows
    plain = TruncatedSeries(2, 2, {(0, (0, 0)): 1, (1, (0, 1)): 1})
    for a, b in ((wide, narrow), (narrow, wide), (wide, plain), (plain, wide)):
        assert a == b and hash(a) == hash(b)
    other = TruncatedSeries(2, 2, {(0, (0, 0)): 1, (1, (0, 2)): 1})
    for a in (wide, narrow):
        assert a != other and other != a and a.coeffs != other.coeffs


def _packed(plain, nvars, width, empty_rows):
    """The view of ``{(d, exps): v}`` at ``width``-bit digits, with
    ``empty_rows`` empty rows past its last degree."""
    rows = [{} for _ in range(max((d for d, _ in plain), default=-1) + 1 + empty_rows)]
    for (d, exps), v in plain.items():
        rows[d][sum(e << width * i for i, e in enumerate(exps))] = v
    return PackedRows(rows, nvars, width)


@st.composite
def packed_pairs(draw):
    """Two views and the dicts they stand for: the second the first, or it
    with one key or one value changed, with one more term past its last
    degree, at the other width, or with one more variable; each with its
    own number of trailing empty rows."""
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(-128, 127)] * nvars)
    key = st.tuples(st.integers(0, 4), exps)
    value = st.integers(-3, 3).filter(bool)
    plain = draw(st.dictionaries(key, value, max_size=8))
    width = draw(st.sampled_from((8, 16)))
    change = draw(st.sampled_from(("none", "key", "value", "extra", "width", "nvars")))
    other, other_nvars, other_width = dict(plain), nvars, width
    if change in ("key", "value") and plain:
        k = draw(st.sampled_from(sorted(plain)))
        v = other.pop(k)
        if change == "key":
            other[draw(key)] = v
        else:
            other[k] = v + draw(value)
        other = {k: v for k, v in other.items() if v}
    elif change == "extra":
        other[(max((d for d, _ in plain), default=-1) + 1, draw(exps))] = draw(value)
    elif change == "width":
        other_width = 24 - width
    elif change == "nvars":
        other, other_nvars = {(d, e + (0,)): v for (d, e), v in plain.items()}, nvars + 1
    empty = st.integers(0, 2)
    return (_packed(plain, nvars, width, draw(empty)), plain,
            _packed(other, other_nvars, other_width, draw(empty)), other)


@given(packed_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_equality_is_the_unpacked_equality(case):
    a, plain_a, b, plain_b = case
    assert dict(a.items()) == plain_a and dict(b.items()) == plain_b
    same = plain_a == plain_b
    assert (a == b) == (b == a) == same and (a != b) == (b != a) == (not same)
    assert (a == plain_b) == (plain_b == a) == same
    for view, plain in ((a, plain_a), (b, plain_b)):
        order = max(len(view.rows) - 1, 0)
        packed = TruncatedSeries._of(order, view.nvars, view)
        twin = TruncatedSeries(order, view.nvars, plain)
        assert packed == twin and twin == packed and hash(packed) == hash(twin)


def test_cancelling_product_keeps_no_zero():
    pair = (ProductFactor(-1, (1,), 1, 5), ProductFactor(1, (1,), 1, 5))  # (1 - x q)(1 + x q)
    got = pochhammer_expand(pair, 2, 1)
    assert dict(got.coeffs.items()) == {(0, (0,)): 1, (2, (2,)): -1}
    assert len(got.coeffs) == 2 and (1, (1,)) not in got.coeffs
    assert got.coeffs.rows == [{0: 1}, {}, {2: -1}] and 0 not in got.coeffs.values()
    assert got.q_coefficients() == [1, 0, -1]
    cut = pochhammer_expand(pair, 1, 1)
    assert cut.q_coefficients() == [1, 0]
    assert cut == pochhammer_expand((), 1, 1) and cut == TruncatedSeries.one(1, 1)


def test_packed_series_pickles_and_copies():
    factors = (ProductFactor(1, (1, -2), 1, 2), ProductFactor(-1, (0, 3), 2, 3, reciprocal=True))
    packed = pochhammer_expand(factors, 6, 2)
    assert isinstance(packed.coeffs, PackedRows)
    for twin in (pickle.loads(pickle.dumps(packed)), copy.deepcopy(packed), copy.copy(packed)):
        assert isinstance(twin.coeffs, PackedRows)
        assert twin == packed and hash(twin) == hash(packed)
        assert twin.terms() == packed.terms() and twin.coeff(1, (1, -2)) == 1


def test_expansion_past_64_bit_digits_is_refused():
    for exps in ((2**63,), (-(2**63),)):
        with pytest.raises(UsageError, match="at most 64 fit"):
            pochhammer_expand((ProductFactor(1, exps, 1, 1),), 1, 1)
    # a geometric step reaches its monomial order // a times
    with pytest.raises(UsageError, match="at most 64 fit"):
        pochhammer_expand((ProductFactor(1, (2**62,), 1, 1, reciprocal=True),), 2, 1)


@pytest.mark.parametrize("family,ranks,order", (
    ("A2n2", (2, 3, 4), 12),
    ("Dn12-L0", (2, 3, 4), 12),
    ("Dn12-Ln", (2, 3, 4), 12),
    ("Bn1-Ln", (3, 4), 8),  # the reference route takes seconds at rank 4 past order 8
))
def test_character_products_match_the_reference_product(family, ranks, order):
    for rank in ranks:
        config = build_config(family, rank)
        nvars = len(config.colors.non_ground)
        assert pochhammer_expand(config.rhs_factors, order, nvars) == reference_product(
            config.rhs_factors, order, nvars
        )


def test_dimension_mismatch_rejected():
    with pytest.raises(UsageError):
        TruncatedSeries.one(4, 1) * TruncatedSeries.one(4, 2)
    with pytest.raises(UsageError):
        TruncatedSeries.one(4, 1) + TruncatedSeries.one(5, 1)


def test_text_and_json_forms():
    s = TruncatedSeries(4, 2, {(0, (0, 0)): 1, (2, (1, 0)): -3, (1, (0, 2)): 2})
    assert s.text(["a", "b"]) == "1 + 2*q^1*b^2 + -3*q^2*a^1"
    dump = s.to_json(["a", "b"])
    assert dump["terms"][1] == {"coeff": 2, "q": 1, "exps": [0, 2]}
    assert repr(TruncatedSeries(2, 1, {(1, (1,)): 2})) == "TruncatedSeries(order=2, 2*q^1*c1^1)"


@pytest.mark.parametrize("build,message", (
    (lambda: TruncatedSeries(-1, 0), "truncation order must be non-negative"),
    (lambda: TruncatedSeries(2, 1, {(0, (1, 1)): 1}), "exponent vector has wrong dimension"),
    (lambda: TruncatedSeries(2, 1, {(-1, (0,)): 1}), "negative q-degree"),
    (lambda: TruncatedSeries.one(2, 1) + 3, "expected a TruncatedSeries"),
))
def test_series_messages(build, message):
    with pytest.raises(UsageError) as info:
        build()
    assert str(info.value) == message


small_series = st.builds(
    lambda entries: TruncatedSeries(6, 1, {
        (d, (e,)): c for (d, e, c) in entries
    }),
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(-2, 3), st.integers(-4, 4)),
        max_size=6,
    ),
)


@given(small_series, small_series, small_series)
@settings(max_examples=120, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series)
@settings(max_examples=60, deadline=None)
def test_ring_identities(a):
    one = TruncatedSeries.one(6, 1)
    zero = TruncatedSeries.zero(6, 1)
    assert a * one == a
    assert a + zero == a
    assert a + (-a) == zero


def _product_by_definition(a, b):
    acc = Counter()
    for (d1, e1), v1 in a.coeffs.items():
        for (d2, e2), v2 in b.coeffs.items():
            if d1 + d2 <= a.order:
                acc[(d1 + d2, tuple(x + y for x, y in zip(e1, e2)))] += v1 * v2
    return {key: v for key, v in acc.items() if v}


# few exponents and unit coefficients, so products often cancel; degrees
# run past the order, where the constructor drops them
sparse_pairs = st.tuples(st.integers(0, 3), st.integers(0, 5)).flatmap(
    lambda shape: st.tuples(*[st.builds(
        lambda entries: TruncatedSeries(shape[1], shape[0], entries),
        st.dictionaries(
            st.tuples(st.integers(0, shape[1] + 2), st.tuples(*[st.integers(-2, 1)] * shape[0])),
            st.sampled_from((-2, -1, 1, 1, 3)),
            max_size=8,
        ),
    )] * 2)
)


def _assert_as_checked(series):
    # a series built without the constructor's checks equals its checked
    # rebuild and holds only terms those checks keep
    assert series == _dict_backed(series)
    for (d, exps), v in series.coeffs.items():
        assert 0 <= d <= series.order and len(exps) == series.nvars and v != 0


@given(sparse_pairs)
@settings(max_examples=200, deadline=None)
def test_mul_matches_its_definition(pair):
    a, b = pair
    want = _product_by_definition(a, b)
    for got in (a * b, b * a):
        _assert_as_checked(got)
        assert got.coeffs == want
        assert 0 not in got.coeffs.values()
        assert (got.order, got.nvars) == (a.order, a.nvars)
    for k in (3, -1):
        scaled = {key: k * v for key, v in a.coeffs.items()}
        assert (a * k).coeffs == scaled and (k * a).coeffs == scaled
    assert (a * 0).coeffs == {} and (0 * a).coeffs == {}


def _seeded_pair(seed):
    # two random series of one shape, with negative exponents, a degree past
    # the order (which the constructor drops), few keys and unit
    # coefficients, so sums and products cancel (14 of the 40 products have
    # a term that cancels)
    rng = random.Random(seed)
    order, nvars = rng.randint(1, 4), rng.randint(1, 2)
    return [TruncatedSeries(order, nvars, {
        (rng.randint(0, order + 1), tuple(rng.randint(-1, 1) for _ in range(nvars))):
            rng.choice((-1, 1)) for _ in range(rng.randint(2, 10))}) for _ in range(2)]


def _characters():
    for family, rank in (("A2n2", 2), ("Dn12-L0", 2), ("Dn12-Ln", 2), ("Bn1-Ln", 3)):
        config = build_config(family, rank)
        yield from (character_lhs(config, 6, "direct"), character_lhs(config, 6, "transform"),
                    character_rhs(config, 6))


def _catalog_gfs():
    for colors, energy in small_energies():
        for tag in ("F1", "R1"):
            found = walk_members(tag, energy, colors, Budget(5, 5))
            for order in (3, 5):  # below the budget, members of size 4 and 5 drop out
                yield gf_from_partitions(found, colors, energy, order)


def _ring_results():
    for seed in range(40):
        a, b = _seeded_pair(seed)
        yield from (a + b, a + -a, -a, a * b, a * 0, 3 * a)


@pytest.mark.parametrize("results", (_characters, _catalog_gfs, _ring_results))
def test_unchecked_series_equal_their_checked_rebuild(results):
    for series in results():
        _assert_as_checked(series)
