from itertools import product

import pytest

from partition_forge import characters, classic
from partition_forge.core import (
    SizeTransform,
    UsageError,
    ground_delta,
    parse_energy,
    validate_energy,
)
from partition_forge.characters import (
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
from partition_forge.series import PackedRows, ProductFactor, TruncatedSeries, pochhammer_expand

from helpers import small_energies


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
    walk_gf = characters._walk_gf

    def swapped(walked_tag, setup, order):
        series = walk_gf(walked_tag, setup, order)
        if walked_tag != tag:
            return series
        assert series.nvars == 2
        swap = {(d, exps[::-1]): v for (d, exps), v in series.coeffs.items()}
        return TruncatedSeries(order, 2, swap)

    monkeypatch.setattr(characters, "_walk_gf", swapped)
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


def test_identity_argument_errors():
    with pytest.raises(UsageError):
        verify_named_identity("glaisher", 6)
    with pytest.raises(UsageError):
        verify_named_identity("no-such-identity", 6)


@pytest.mark.parametrize("family", ("A2n2", "Dn12-L0", "Dn12-Ln"))
def test_character_identity_rank_three(family):
    report = verify_character(family, 3, 4)
    assert report["pass"], family


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


@pytest.mark.parametrize("setup,tags", (
    (glaisher_analogue_setup(3), ("F1", "R1")),
    (keith_xiong_setup(2), ("F1", "R1")),
    (keith_xiong_setup(3), ("F1", "R1")),
    # q -> q^4 with shifts (-3, -1, 0) gives the words ab and ba of size 1
    # charge zero
    (siladic_setup(), ("R2", "F2", "O+")),
), ids=("glaisher_analogue-3", "keith_xiong-2", "keith_xiong-3", "siladic"))
def test_identity_walks_need_no_more_parts_than_their_order(setup, tags):
    # the named identities walk under Budget(order, order + 1): four times
    # that part cap finds no further member
    colors, energy, transform = setup
    for tag in tags:
        assert walk_members(tag, energy, colors, Budget(10, 11), transform=transform) == \
            walk_members(tag, energy, colors, Budget(10, 44), transform=transform), tag
