import hashlib
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from partition_forge import characters, classic, series
from partition_forge.core import (
    SizeTransform,
    UsageError,
    ground_delta,
    parse_energy,
    validate_energy,
)
from partition_forge.characters import (
    CHARACTER_FAMILIES,
    CrystalConfig,
    build_config,
    character_lhs,
    character_rhs,
    glaisher_analogue_setup,
    keith_xiong_setup,
    siladic_setup,
    verify_character,
    verify_named_identity,
)
from partition_forge.families import Budget, flat_walk, walk_members
from partition_forge.series import (
    PackedRows,
    ProductFactor,
    TruncatedSeries,
    gf_from_partitions,
    pochhammer_expand,
)

from helpers import outcome, small_energies


def test_a_type_config():
    config = build_config("A2n2", 2)
    colors, energy = config.colors, config.energy
    assert colors.names == ("c1", "c2", "cb2", "cb1", "c0")
    assert colors.label(colors.ground) == "c0"
    report = validate_energy(energy, colors)
    assert report["minimal"] and report["ground_ok"] and report["delta_g"] == 0
    # strict chain: at equal size cb1 > cb2 > c2 > c1, nothing repeats
    for c in colors.non_ground:
        assert energy.e(c, c) == 1
    assert energy.e(colors.index("cb1"), colors.index("c1")) == 0
    assert energy.e(colors.index("c1"), colors.index("cb1")) == 1
    # transformed energy doubles the chain and charges the ground row/column
    ep = config.energy_prime
    assert ep.e(colors.index("c1"), colors.index("c1")) == 2
    assert ep.e(colors.index("c1"), colors.ground) == 1
    assert ep.e(colors.ground, colors.index("c1")) == 1


def test_d_type_repeatable_color():
    config = build_config("Dn12-L0", 2)
    c0b = config.colors.index("c0b")
    assert config.energy.e(c0b, c0b) == 0
    assert ground_delta(config.energy, config.colors) == 0


def test_d_lambda_n_ground_and_shifts():
    config = build_config("Dn12-Ln", 2)
    colors = config.colors
    assert colors.label(colors.ground) == "c0b"
    assert config.energy.e(colors.index("c0"), colors.index("c0")) == 0
    shifts = dict(zip(colors.names, config.transform.shifts))
    assert shifts == {"cb2": -2, "cb1": -2, "c0": -1, "c1": 0, "c2": 0, "c0b": 0}


def test_b_type_alternating_pair():
    config = build_config("Bn1-Ln", 3)
    colors, energy = config.colors, config.energy
    c1, cb1 = colors.index("c1"), colors.index("cb1")
    assert energy.e(c1, cb1) == 0 and energy.e(cb1, c1) == 0
    assert energy.e(c1, c1) == 1 and energy.e(cb1, cb1) == 1
    # the transformed matrix picks up the single negative entry
    assert config.energy_prime.e(cb1, c1) == -1


def test_rank_bounds():
    with pytest.raises(UsageError):
        build_config("A2n2", 1)
    with pytest.raises(UsageError):
        build_config("Bn1-Ln", 2)
    with pytest.raises(UsageError):
        build_config("Xn", 2)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _setup_rows(setup):
    colors, energy, transform = setup
    return colors.names, colors.ground, energy.values, transform.scale, transform.shifts


# sha256 of each configuration's colors, ground, energy, energy_prime,
# transform and product ladders at ranks from its least up to 8, as built
# while every family had its own branch of build_config
CONFIG_DIGESTS = (
    ("A2n2", 2, "bf3998907f0032760e6ef69a02748f63e699e9d7c657c846ae50b3f5d391352c"),
    ("Dn12-L0", 2, "b9dec798c99c8049937cb4a21404a2729d119b96b8cb5e0a6b0511d2fa85e4be"),
    ("Dn12-Ln", 2, "5d29c3657e797530ec722aee501fcb28a33186bee8853ac2815d84a279d55516"),
    ("Bn1-Ln", 3, "3aa32b33cac7648265434ec452c790e8f8ad2158665008207a7b2b144172d388"),
)


@pytest.mark.parametrize("family,least,digest", CONFIG_DIGESTS)
def test_config_layer_is_pinned(family, least, digest):
    rows = []
    for rank in range(least, 9):
        c = build_config(family, rank)
        rows.append((c.colors.names, c.colors.ground, c.energy.values, c.energy_prime.values,
                     c.transform.scale, c.transform.shifts, tuple(map(tuple, c.rhs_factors))))
    assert _digest(rows) == digest
    for rank in (least - 1, 0):
        with pytest.raises(UsageError) as exc:
            build_config(family, rank)
        assert str(exc.value) == "%s-type configuration needs rank >= %d" % (family[0], least)


def test_identity_setups_are_pinned():
    # the same rows at m = 2..11, as built while each setup spelled out its
    # own energy table
    assert _digest([_setup_rows(keith_xiong_setup(m)) for m in range(2, 12)]) == \
        "92777ce5c5c95f496f00189e587bcb4cb4151e6e1da6c22a7985acb4e248778b"
    assert _digest([_setup_rows(glaisher_analogue_setup(m)) for m in range(2, 12)]) == \
        "445d5d6f8bca2b41101ef085fcf8a140f8d22c55bb3ad33b5a6ad5ebdfbcce1d"
    assert _setup_rows(siladic_setup()) == (
        ("a", "b", "c"), 2, ((1, 1, 1), (0, 1, 1), (0, 0, 0)), 4, (-3, -1, 0))
    for setup in (keith_xiong_setup, glaisher_analogue_setup):
        with pytest.raises(UsageError) as exc:
            setup(1)
        assert str(exc.value) == "modulus must be >= 2"
    with pytest.raises(UsageError) as exc:
        build_config("Xn", 3)
    assert str(exc.value) == "unknown character family 'Xn'"


def test_lhs_constant_term():
    for family, rank in (("A2n2", 2), ("Dn12-L0", 2), ("Dn12-Ln", 2), ("Bn1-Ln", 3)):
        config = build_config(family, rank)
        lhs = character_lhs(config, 2)
        assert lhs.coeff(0, (0,) * len(config.colors.non_ground)) == 1
        assert character_rhs(config, 2).coeff(0, (0,) * len(config.colors.non_ground)) == 1


def test_a_type_first_coefficient():
    config = build_config("A2n2", 2)
    lhs = character_lhs(config, 1)
    nvars = len(config.colors.non_ground)
    for i in range(nvars):
        unit = tuple(1 if j == i else 0 for j in range(nvars))
        assert lhs.coeff(1, unit) == 1
    assert sum(v for (d, _), v in lhs.coeffs.items() if d == 1) == 4
    assert lhs == character_rhs(config, 1)


def test_d_lambda0_repeatable_term():
    config = build_config("Dn12-L0", 2)
    lhs = character_lhs(config, 1)
    colors = config.colors
    var = {c: i for i, c in enumerate(colors.non_ground)}
    unit = tuple(
        1 if i == var[colors.index("c0b")] else 0 for i in range(len(var))
    )
    assert lhs.coeff(1, unit) == 1


def test_b_alternating_block_factor():
    # the alternating pair at a fixed size is generated by
    # (1 + c1 q^k)(1 + cb1 q^k) / (1 - c1 cb1 q^(2k))
    order = 8
    for k in (1, 2, 3):
        closed = pochhammer_expand(
            (
                ProductFactor(1, (1, 0), k, order + 1),
                ProductFactor(1, (0, 1), k, order + 1),
                ProductFactor(1, (1, 1), 2 * k, order + 1, reciprocal=True),
            ),
            order,
            2,
        )
        direct = TruncatedSeries.zero(order, 2)
        for first in (0, 1):
            length = 1
            while True:
                ones = (length + 1) // 2
                others = length // 2
                exps = (ones, others) if first == 0 else (others, ones)
                if k * length > order:
                    break
                direct += TruncatedSeries.monomial(1, k * length, exps, order, 2)
                length += 1
        direct += TruncatedSeries.one(order, 2)
        assert closed == direct, k


@pytest.mark.parametrize(
    "family,rank", (("A2n2", 2), ("Dn12-L0", 2), ("Dn12-Ln", 2), ("Bn1-Ln", 3))
)
def test_character_identity_small_order(family, rank):
    report = verify_character(family, rank, 5)
    assert report["paths_agree"]
    assert report["lhs_equals_rhs"]


def test_character_mismatch_names_the_one_wrong_cell(monkeypatch):
    real_rhs = characters.character_rhs
    cells = {}

    def off_by_one(config, order):
        rhs = real_rhs(config, order)
        assert isinstance(rhs.coeffs, PackedRows)
        before = dict(rhs.coeffs.items())
        row = rhs.coeffs.rows[3]
        k = min(row)
        row[k] += 1  # one cell of the packed rows, at q^3
        (cell,) = [key for key, v in rhs.coeffs.items() if before[key] != v]
        cells[cell] = before[cell]
        return rhs

    monkeypatch.setattr(characters, "character_rhs", off_by_one)
    report = verify_character("A2n2", 2, 5)
    assert report["paths_agree"] and not report["lhs_equals_rhs"] and not report["pass"]
    [((d, exps), v)] = cells.items()
    assert d == 3
    assert report["mismatches"] == [
        {"q": 3, "exps": list(exps), "direct": v, "transform": v, "product": v + 1}
    ]


def test_character_rank_three_d_type():
    report = verify_character("Dn12-L0", 3, 4)
    assert report["pass"]


def test_identity_setups():
    colors, energy, transform = keith_xiong_setup(3)
    assert ground_delta(energy, colors) == 1
    assert transform.scale == 3 and transform.shifts == (0, 1, 2)
    colors, energy, transform = glaisher_analogue_setup(3)
    assert energy.e(1, 1) == 1 and energy.e(0, 0) == 0
    colors, energy, transform = siladic_setup()
    assert transform.scale == 4 and transform.shifts == (-3, -1, 0)
    with pytest.raises(UsageError):
        keith_xiong_setup(1)


def test_named_identities_small():
    assert verify_named_identity("euler", 12)["pass"]
    assert verify_named_identity("glaisher", 12, m=2)["pass"]
    assert verify_named_identity("keith_xiong", 10, m=2)["pass"]
    report = verify_named_identity("glaisher_analogue", 16, m=3)
    assert report["pass"]
    row16 = report["rows"][16]
    assert row16["regular_distinct"] == 10 and row16["flat_second_kind"] == 10
    report = verify_named_identity("siladic_companion", 9)
    assert report["pass"]
    assert [row["A"] for row in report["rows"]] == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("name,m,keys", (
    ("euler", None, ["distinct", "odd", "product", "quotient_product"]),
    ("glaisher", 2, ["regular", "occurrences", "flat", "product"]),
    ("keith_xiong", 2, ["vectors", "flat", "regular", "flat_colored", "regular_colored"]),
    ("glaisher_analogue", 3, ["regular_distinct", "flat_second_kind", "flat_colored",
                              "regular_colored"]),
    ("siladic_companion", None, ["A", "B", "primary", "distinct_odd", "product"]),
))
def test_named_identity_row_keys(name, m, keys):
    report = verify_named_identity(name, 2, m=m)
    assert [list(row) for row in report["rows"]] == [["n"] + keys + ["match"]] * 3


def test_named_identity_flags_a_differing_count(monkeypatch):
    is_all_odd = classic.is_all_odd
    monkeypatch.setattr(classic, "is_all_odd", lambda lam: is_all_odd(lam) or lam == (2, 1))
    report = verify_named_identity("euler", 5)
    assert not report["pass"]
    assert [row["n"] for row in report["rows"] if not row["match"]] == [3]


@pytest.mark.parametrize("name,m,tag", (("glaisher_analogue", 3, "F1"),
                                        ("siladic_companion", None, "R2")))
def test_named_identity_compares_walked_columns_by_color(monkeypatch, name, m, tag):
    # swapping the two color variables of one walked column keeps every
    # q-count, so only the full degree-n slices can tell the sides apart
    walked = characters._walked

    def swapped(setup, order, **tags):
        columns = walked(setup, order, **tags)
        for label, walked_tag in tags.items():
            if walked_tag == tag:
                series = columns[label]
                assert series.nvars == 2
                swap = {(d, exps[::-1]): v for (d, exps), v in series.coeffs.items()}
                columns[label] = TruncatedSeries(order, 2, swap)
        return columns

    monkeypatch.setattr(characters, "_walked", swapped)
    report = verify_named_identity(name, 8, m=m)
    for row in report["rows"]:
        assert len({v for k, v in row.items() if k not in ("n", "match")}) == 1, row
    assert not report["pass"] and not report["rows"][1]["match"]


def test_keith_xiong_compares_residue_vectors(monkeypatch):
    # 1 + 1 has residue vector (2, 0) mod 3; moving it to (0, 2) keeps
    # every count and the number of vectors at n = 2
    residue_vector = classic.residue_vector
    monkeypatch.setattr(classic, "residue_vector", lambda lam, m: (
        residue_vector(lam, m)[::-1] if lam == (1, 1) else residue_vector(lam, m)))
    report = verify_named_identity("keith_xiong", 5, m=3)
    assert [row["n"] for row in report["rows"] if not row["match"]] == [2]
    assert report["rows"][2] == {"n": 2, "vectors": 2, "flat": 2, "regular": 2,
                                 "flat_colored": 2, "regular_colored": 2, "match": False}


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("predicate", (classic.is_m_flat, classic.is_m_regular))
def test_classical_residue_counts_sum_to_the_q_only_counts(m, predicate):
    # the residue branch groups the partitions by residue vector; summed
    # over the vectors it gives the q-only branch's classic.count
    def holds(lam):
        return predicate(lam, m)

    by_residue = characters._classical(12, holds, m)
    assert by_residue.nvars == m - 1
    assert by_residue.q_coefficients() == characters._classical(12, holds).q_coefficients()


def test_identity_argument_errors():
    with pytest.raises(UsageError):
        verify_named_identity("glaisher", 6)
    with pytest.raises(UsageError):
        verify_named_identity("no-such-identity", 6)


@pytest.mark.parametrize("family", ("A2n2", "Dn12-L0", "Dn12-Ln"))
def test_character_identity_rank_three(family):
    report = verify_character(family, 3, 4)
    assert report["pass"], family


def test_character_lhs_names_its_routes():
    with pytest.raises(UsageError) as info:
        character_lhs(build_config("A2n2", 2), 1, route="x")
    assert str(info.value) == "route must be 'direct' or 'transform'"


def test_character_lhs_raises_on_a_zero_charge_cycle():
    # delta_g = 1 and eps(a, a) = 0: zero-size a parts repeat without end,
    # so every coefficient is infinite; both routes must say so rather than
    # return a series cut off at the part cap
    colors, energy = parse_energy("a g\ng\n0 0\n1 0\n")
    config = CrystalConfig("cyclic", 1, colors, energy, energy, SizeTransform.identity(2), ())
    message = "zero-charge parts repeat, so a coefficient up to q\\^4 is infinite"
    for route in ("direct", "transform"):
        with pytest.raises(UsageError, match=message):
            character_lhs(config, 4, route)


def test_walked_column_raises_on_a_zero_charge_cycle():
    # the same cycle in a named identity's walked column: its F1 sum is
    # refused, where the walk under Budget(order) cut it off silently
    colors, energy = parse_energy("a g\ng\n0 0\n1 0\n")
    setup = colors, energy, SizeTransform.identity(2)
    with pytest.raises(UsageError, match="zero-charge F1 parts repeat, so a coefficient up "
                                         "to q\\^4 is infinite"):
        characters._walked(setup, 4, flat="F1")


def test_character_lhs_raises_exactly_when_a_coefficient_is_infinite():
    # at order 1 a finite family has no member of 10 parts before its
    # terminal (the cap is at most 8 on three colors), while a zero-charge
    # cycle gives members of every length; every catalog energy on up to
    # three colors, under every scale 1-2 and shifts in -2..0
    raised = 0
    for colors, energy in small_energies():
        for scale, shifts in product((1, 2), product((-2, -1, 0), repeat=colors.n)):
            transform = SizeTransform(scale, shifts)
            try:
                deep = flat_walk(energy, colors, Budget(1, 10), transform=transform)
            except UsageError:  # a negative size or charge, on both sides
                continue
            config = CrystalConfig("catalog", 1, colors, energy, energy, transform, ())
            try:
                character_lhs(config, 1, "transform")
                infinite = False
            except UsageError as exc:  # or a negative-degree terminal
                infinite = "zero-charge" in str(exc)
            assert infinite == (max(map(len, deep)) > 10), (energy, transform)
            raised += infinite
    assert raised == 400


def _character_lhs_of_members(config, order, route):
    """``character_lhs`` from the member list: every flat member walked and
    held, its length checked, then summed by ``gf_from_partitions``."""
    direct = route == "direct"
    energy = config.energy_prime if direct else config.energy
    transform = None if direct else config.transform
    cap = (order + 1) * (config.colors.n + 1)
    flats = flat_walk(energy, config.colors, Budget(order, cap), transform=transform)
    if max(map(len, flats)) > cap:  # the terminal is not counted by the cap
        raise UsageError("zero-charge parts repeat, so a coefficient up to q^%d is infinite"
                         % order)
    return gf_from_partitions(flats, config.colors, energy, order, transform)


def test_character_fold_is_the_member_sum():
    # both routes of every family at ranks 2 and 3 (B from 3), orders 0-6
    cases = 0
    for family in CHARACTER_FAMILIES:
        for rank in (2, 3):
            if (family, rank) == ("Bn1-Ln", 2):
                continue
            config = build_config(family, rank)
            for order, route in product(range(7), ("direct", "transform")):
                assert character_lhs(config, order, route) == _character_lhs_of_members(
                    config, order, route), (family, rank, order, route)
                cases += 1
    assert cases == 7 * 7 * 2


def test_character_fold_raises_as_the_member_sum():
    # the catalog sweep of the test above, on both routes: the same series
    # or the same error, a zero-charge cycle before a negative terminal
    outcomes = Counter()
    for colors, energy in small_energies():
        for scale, shifts in product((1, 2), product((-2, -1, 0), repeat=colors.n)):
            config = CrystalConfig("catalog", 1, colors, energy, energy,
                                   SizeTransform(scale, shifts), ())
            for route in ("direct", "transform"):
                folded = outcome(character_lhs, config, 1, route)
                assert folded == outcome(_character_lhs_of_members, config, 1, route), (
                    energy, shifts, route)
                outcomes[folded[1].split(" ")[0] if isinstance(folded, tuple) else "series"] += 1
    assert set(outcomes) == {"series", "zero-charge", "negative"}, outcomes


def _tuple_keyed_read(colors, most):
    """``read`` of ``series._packed_weights`` as it was when it unpacked each
    distinct sum to a ``(d, exps)`` key: the reference for the packed rows."""
    nvars = len(colors.non_ground)
    width, _, size, unpack = series._digits(most.bit_length() + 1, nvars)
    top = width * nvars
    mask = (1 << top) - 1

    def read(counts, order):
        for key in counts:
            if type(key) is series._Negative:
                raise UsageError("negative transformed degree for part %r" % (key.part,))
        return {(key >> top, unpack((key & mask).to_bytes(size, "little"))): v
                for key, v in counts.items() if key >> top <= order}

    return read


def _pin_reads(monkeypatch):
    """Check every ``read`` of the path sums in ``characters`` against the
    tuple-keyed one; returns the list of outcomes checked."""
    real = characters._packed_weights
    checked = []

    def pinned(colors, energy, transform, most):
        weigh, read = real(colors, energy, transform, most)
        reference = _tuple_keyed_read(colors, most)

        def both(counts, order):
            want = outcome(reference, counts, order)
            got = outcome(read, counts, order)
            if isinstance(got, TruncatedSeries):
                assert isinstance(got.coeffs, PackedRows)
                assert dict(got.coeffs.items()) == want
                checked.append("series")
                return got
            assert got == want
            checked.append(got[1].split(" ")[0])
            raise got[0](got[1])

        return weigh, both

    monkeypatch.setattr(characters, "_packed_weights", pinned)
    return checked


def test_packed_read_is_the_tuple_keyed_read(monkeypatch):
    checked = _pin_reads(monkeypatch)
    # both routes of every family at ranks 2 and 3 (B from 3), orders 0-8
    for family in CHARACTER_FAMILIES:
        for rank in (2, 3):
            if (family, rank) == ("Bn1-Ln", 2):
                continue
            config = build_config(family, rank)
            for order, route in product(range(9), ("direct", "transform")):
                character_lhs(config, order, route)
    assert checked == ["series"] * 7 * 9 * 2
    # the walked columns of the named identities
    for m in (2, 3, 4):
        characters._walked(keith_xiong_setup(m), 12, flat_colored="F1", regular_colored="R1")
    characters._walked(glaisher_analogue_setup(3), 12, flat_colored="F1", regular_colored="R1")
    characters._walked(siladic_setup(), 16, A="R2", B="F2", primary="O+")
    assert checked == ["series"] * (7 * 9 * 2 + 2 * 4 + 3)


def test_packed_read_raises_as_the_tuple_keyed_read(monkeypatch):
    # the catalog sweep at order 1: a part of negative degree is refused
    # with the same message, where no zero-charge cycle comes first
    checked = _pin_reads(monkeypatch)
    for colors, energy in small_energies():
        for scale, shifts in product((1, 2), product((-2, -1, 0), repeat=colors.n)):
            config = CrystalConfig("catalog", 1, colors, energy, energy,
                                   SizeTransform(scale, shifts), ())
            for route in ("direct", "transform"):
                outcome(character_lhs, config, 1, route)
    assert set(checked) == {"series", "negative"}, Counter(checked)


def test_character_digit_width_comes_from_the_part_cap():
    # A2n2 at rank 2 has five colors, so the cap is 126 at order 20 and 132
    # at order 21: a color count takes a byte, then two; the members are
    # far shorter, so gf_from_partitions packs both orders in bytes
    config = build_config("A2n2", 2)
    for order, width in ((20, 8), (21, 16)):
        cap = (order + 1) * (config.colors.n + 1)
        assert series._digits(cap.bit_length() + 1, 4)[0] == width
        for route in ("direct", "transform"):
            assert character_lhs(config, order, route) == _character_lhs_of_members(
                config, order, route), (order, route)


def test_identity_digit_width_comes_from_the_part_cap():
    # an identity walks under the part cap order + 1 with two colors a part,
    # so a color count takes a byte at order 62 (2 * 63 = 126), then two at
    # order 63 (128); the members are far shorter, so gf_from_partitions
    # packs both orders in bytes
    for setup, tags in ((siladic_setup(), ("R2", "F2", "O+")),
                        (glaisher_analogue_setup(2), ("F1", "R1"))):
        colors, energy, transform = setup
        for order, width in ((62, 8), (63, 16)):
            bits = (2 * (order + 1)).bit_length() + 1
            assert series._digits(bits, len(colors.non_ground))[0] == width
            walked = characters._walked(setup, order, **{tag: tag for tag in tags})
            for tag in tags:
                found = walk_members(tag, energy, colors, Budget(order), transform=transform)
                assert walked[tag] == gf_from_partitions(
                    found, colors, energy, order, transform), (tag, order)


def test_character_lhs_holds_no_member_list():
    # Bn1-Ln at rank 3 and order 8 has 111,456 direct members: held in a
    # list and summed, they peak near 15 MB
    config = build_config("Bn1-Ln", 3)
    tracemalloc.start()
    try:
        character_lhs(config, 8, "direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


@pytest.mark.parametrize("setup,tags", (
    (glaisher_analogue_setup(3), ("F1", "R1")),
    (keith_xiong_setup(2), ("F1", "R1")),
    (keith_xiong_setup(3), ("F1", "R1")),
    # q -> q^4 with shifts (-3, -1, 0) gives the words ab and ba of size 1
    # charge zero
    (siladic_setup(), ("R2", "F2", "O+")),
), ids=("glaisher_analogue-3", "keith_xiong-2", "keith_xiong-3", "siladic"))
def test_identity_walks_need_no_more_parts_than_their_order(setup, tags):
    # the named identities walk under Budget(order), whose part cap is
    # order + 1: four times that cap finds no further member
    assert Budget(10) == Budget(10, 11)
    colors, energy, transform = setup
    for tag in tags:
        assert walk_members(tag, energy, colors, Budget(10, 11), transform=transform) == \
            walk_members(tag, energy, colors, Budget(10, 44), transform=transform), tag


def test_character_path_sum_is_the_product_up_to_rank_four():
    # the walk takes 39 s at Bn1-Ln rank 4, order 10; the path sum does
    # not walk, so both routes of every family at ranks 2-4 (B from 3)
    # meet the product side there
    cases = 0
    for family in CHARACTER_FAMILIES:
        for rank in range(2 if family != "Bn1-Ln" else 3, 5):
            config = build_config(family, rank)
            rhs = character_rhs(config, 10)
            for route in ("direct", "transform"):
                assert character_lhs(config, 10, route) == rhs, (family, rank, route)
                cases += 1
    assert cases == 11 * 2
