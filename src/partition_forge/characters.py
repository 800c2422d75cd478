"""Level-one character configurations and the named identity verifiers.

Each configuration is one row of ``_FAMILIES``: its least rank, its color
labels in chain order with the ground last, the labels that repeat or the
pair that alternates, the scale and shifts of its change of variables, and
the ladders of its product side.  ``build_config`` reads every row the same
way.  One rule, ``_chain_energy``, gives the minimal energy of every chain,
here and in the named identities' setups: eps(x, y) is 1 when x precedes y,
or when x = y is a non-ground color that does not repeat, and 0 otherwise.
The character is verified as an exact truncated-series identity, with the
flat side enumerated both directly under the transformed energy and as the
transform of the untransformed enumeration.

Each named identity is one row of ``_IDENTITIES``, which
``verify_named_identity`` reads the same way: whether it takes a modulus m,
and its ``TruncatedSeries`` columns.  Row n shows each column's coefficient
of q^n and matches when those counts agree and every column in color
variables has the same degree-n slice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import classic
from .core import ColorSystem, EnergyMatrix, SizeTransform, UsageError
from .families import Budget, _flat_rule, _path_sum, _rule
from .series import ProductFactor, TruncatedSeries, _packed_weights, pochhammer_expand

@dataclass(frozen=True)
class CrystalConfig:
    family: str
    rank: int
    colors: ColorSystem
    energy: EnergyMatrix
    energy_prime: EnergyMatrix
    transform: SizeTransform
    rhs_factors: tuple


class _Family(NamedTuple):
    """One configuration at one rank, as ``build_config`` reads it."""

    least: int  # the least rank
    chain: tuple  # color labels in chain order, the ground last
    repeats: tuple  # labels that may repeat
    alternating: tuple  # a pair of labels that alternate freely
    scale: int
    shifts: dict  # shift by label, 0 where absent
    ladders: tuple  # (monomials, offset, modulus, reciprocal), one factor per monomial


# Each family's row, from its rank's unbarred labels c = c1..cn and barred
# labels cb = cbn..cb1.  A monomial is its labels joined by spaces.
_FAMILIES = {
    "A2n2": lambda c, cb: _Family(
        2, c + cb + ("c0",), (), (), 2, dict.fromkeys(c + cb, -1),
        ((c + cb, 1, 2, False),)),
    "Dn12-L0": lambda c, cb: _Family(
        2, c + ("c0b",) + cb + ("c0",), ("c0b",), (), 2, dict.fromkeys(c + cb + ("c0b",), -1),
        ((c + cb, 1, 2, False), (("c0b",), 1, 2, True))),
    "Dn12-Ln": lambda c, cb: _Family(
        2, cb + ("c0",) + c + ("c0b",), ("c0",), (), 2, {**dict.fromkeys(cb, -2), "c0": -1},
        ((c, 2, 2, False), (cb, 0, 2, False), (("c0",), 1, 2, True))),
    "Bn1-Ln": lambda c, cb: _Family(
        3, cb + c + ("c0b",), (), ("cb1", "c1"), 1, dict.fromkeys(cb, -1),
        ((c, 1, 1, False), (cb, 0, 1, False), (("c1 cb1",), 1, 2, True))),
}

CHARACTER_FAMILIES = tuple(_FAMILIES)


def _chain_energy(colors, repeats=(), alternating=()):
    """Minimal energy for one strict chain given by the color order.

    eps(x, y) is 1 when x precedes y, or when x = y is a non-ground color
    not in ``repeats``.  Otherwise it is 0, and so the ``alternating`` pair
    has 0 both ways.  The ground may sit anywhere in the chain.
    """
    g, pair = colors.ground, tuple(sorted(alternating))
    return EnergyMatrix([
        [int(x < y and (x, y) != pair or x == y != g and x not in repeats)
         for y in range(colors.n)]
        for x in range(colors.n)
    ])


def build_config(family, rank):
    """Color system, energies, transformation, and product side for one module."""
    if family not in _FAMILIES:
        raise UsageError("unknown character family %r" % (family,))
    row = _FAMILIES[family](tuple("c%d" % i for i in range(1, rank + 1)),
                            tuple("cb%d" % i for i in range(rank, 0, -1)))
    if rank < row.least:
        # a family's name starts with its type letter
        raise UsageError("%s-type configuration needs rank >= %d" % (family[0], row.least))
    colors = ColorSystem(row.chain, len(row.chain) - 1)
    energy = _chain_energy(colors, {colors.index(label) for label in row.repeats},
                           [colors.index(label) for label in row.alternating])
    transform = SizeTransform(row.scale, tuple(row.shifts.get(label, 0) for label in row.chain))
    sc, sh = transform.scale, transform.shifts
    energy_prime = EnergyMatrix([
        [sc * e + sh[x] - sh[y] for y, e in enumerate(es)] for x, es in enumerate(energy.values)
    ])
    var = {colors.names[c]: i for i, c in enumerate(colors.non_ground)}
    factors = []
    for monomials, offset, modulus, reciprocal in row.ladders:
        for monomial in monomials:
            exps = [0] * len(var)
            for label in monomial.split():
                exps[var[label]] += 1
            factors.append(ProductFactor(1, tuple(exps), offset, modulus, reciprocal))
    return CrystalConfig(family, rank, colors, energy, energy_prime, transform, tuple(factors))


def character_lhs(config, order, route="direct"):
    """Flat-partition generating function, by either enumeration route.

    Both routes sum over the flat rule's states (``_walk_gf``), so no
    member is built and no path is visited twice (the direct route alone
    has millions of members at order ten).  The charge spent is part of a
    state, so a state met again while it is still open closes a cycle of
    zero-charge parts, which can repeat without end: when kept paths leave
    it, a coefficient up to ``order`` is infinite, and ``UsageError`` is
    raised.  There are finitely many states within the charge, so every
    infinite coefficient shows as such a cycle.

    A digit of ``_walk_gf`` holds a count of ``2 * (order + 1)``, and no
    member summed carries one color more than ``2 * order + 1`` times.
    Every part is primary, of one color, and every charge is a positive or
    a zero integer.  At most ``order`` parts have a positive charge, and
    they split the rest of a member into at most ``order + 1`` runs of
    zero-charge parts.  A zero-charge part has one size per color, so a
    color repeated inside a run repeats its part and with it the state:
    a cycle, which the path sum refuses.  So a color appears at most once
    in each run and once in each positive part.  The part cap is not read:
    the flat rule's states alone bound a path.
    """
    if route == "direct":
        energy, transform = config.energy_prime, None
    elif route == "transform":
        energy, transform = config.energy, config.transform
    else:
        raise UsageError("route must be 'direct' or 'transform'")
    budget = Budget(order)
    rule = _flat_rule(energy, config.colors, budget, transform=transform)
    return _walk_gf(rule, budget, (config.colors, energy, transform),
                    "zero-charge parts repeat, so a coefficient up to q^%d is infinite" % order)


def character_rhs(config, order):
    nvars = len(config.colors.non_ground)
    return pochhammer_expand(config.rhs_factors, order, nvars)


def verify_character(family, rank, order):
    """Compare both flat enumeration routes against the product side."""
    _need_order(order)
    config = build_config(family, rank)
    direct = character_lhs(config, order, route="direct")
    via_transform = character_lhs(config, order, route="transform")
    rhs = character_rhs(config, order)
    # both routes pack one digit width, and the product the same one
    # inside the CLI limits, so each comparison goes row by row; past
    # them, a product of another width is compared unpacked
    paths_agree = direct == via_transform
    lhs_equals_rhs = direct == rhs
    report = {
        "family": family,
        "rank": rank,
        "order": order,
        "paths_agree": paths_agree,
        "lhs_equals_rhs": lhs_equals_rhs,
        "pass": paths_agree and lhs_equals_rhs,
    }
    if not report["pass"]:
        diffs = []
        sides = [dict(s.coeffs.items()) for s in (direct, via_transform, rhs)]  # unpacked once
        for key in sorted(set().union(*sides)):
            vals = [side.get(key, 0) for side in sides]
            if len(set(vals)) > 1:
                diffs.append({"q": key[0], "exps": list(key[1]),
                              "direct": vals[0], "transform": vals[1], "product": vals[2]})
        report["mismatches"] = diffs
    return report


# ---------------------------------------------------------------------------
# named identities


def _residue_setup(m, repeats=()):
    """The residue chain r0..r(m-1), ground r0; parts k_{r_i} transform to m*k + i."""
    if m < 2:
        raise UsageError("modulus must be >= 2")
    colors = ColorSystem(tuple("r%d" % i for i in range(m)), 0)
    return colors, _chain_energy(colors, repeats), SizeTransform(m, tuple(range(m)))


def keith_xiong_setup(m):
    """Residue colors r0..r(m-1), ground r0, every residue repeatable; parts
    k_{r_i} transform to m*k + i."""
    return _residue_setup(m, repeats=range(m))


def glaisher_analogue_setup(m):
    """Same residue colors, with every nonzero residue non-repeatable."""
    return _residue_setup(m)


def siladic_setup():
    """The three-color chain with ground c and the quartic substitution."""
    colors = ColorSystem(("a", "b", "c"), 2)
    return colors, _chain_energy(colors), SizeTransform(4, (-3, -1, 0))


def _walk_gf(rule, budget, setup, capped):
    """Generating function of one rule's members on a (colors, energy,
    transformation) setup, up to the budget's size: the path sum
    (``families._path_sum``, raising UsageError(capped) on a cycle that
    kept paths leave), each part weighed once per distinct state by
    ``_packed_weights``, and the distinct sums kept packed in the rows of a
    ``PackedRows``.  A digit holds a count of ``2 * (order + 1)``, the
    order the budget's size: each caller shows that no member it sums
    carries one color more often."""
    colors, energy, transform = setup
    weigh, read = _packed_weights(colors, energy, transform, 2 * (budget.max_size + 1))
    return read(_path_sum(rule, budget, weigh, capped), budget.max_size)


def verify_named_identity(name, order, m=None):
    """Exact per-coefficient verification of one named identity; ``keith_xiong``
    rows also count the residue vectors of its ``flat`` column."""
    _need_order(order)
    if name not in _IDENTITIES:
        raise UsageError("unknown identity %r" % (name,))
    takes_m, columns_at = _IDENTITIES[name]
    if not takes_m and m is not None:
        raise UsageError("identity %s takes no modulus m" % name)
    if takes_m and (m is None or m < 2):
        raise UsageError("this identity needs a modulus m >= 2")
    columns = columns_at(order, m)
    counts = {label: series.q_coefficients() for label, series in columns.items()}
    colored = [series for series in columns.values() if series.nvars]
    # the degrees at which a colored column differs from the first
    differ = {d for series in colored[1:] for d, _ in (series - colored[0]).coeffs}
    vectors = Counter(d for d, _ in columns["flat"].coeffs) if name == "keith_xiong" else None
    rows = []
    for n in range(order + 1):
        row = {label: by_degree[n] for label, by_degree in counts.items()}
        extra = {} if vectors is None else {"vectors": vectors[n]}
        match = len(set(row.values())) == 1 and n not in differ
        rows.append({"n": n, **extra, **row, "match": match})
    return {
        "identity": name,
        "m": m,
        "order": order,
        "rows": rows,
        "pass": all(row["match"] for row in rows),
    }


def _walked(setup, order, **tags):
    """``{label: series}`` of the families ``tags`` names, summed on one
    setup under its transformation up to ``order``.

    A part carries at most two colors, and a member has at most ``order +
    1`` parts: the regular rules hold the part cap ``order + 1`` in their
    states, and in each setup every part of a flat member but its terminal
    has a positive charge.  So a color appears at most ``2 * (order + 1)``
    times, the count a digit of ``_walk_gf`` holds.
    """
    colors, energy, transform = setup
    budget = Budget(order)
    return {label: _walk_gf(_rule(tag, energy, colors, budget, transform=transform), budget,
                            setup, "zero-charge %s parts repeat, so a coefficient up to "
                            "q^%d is infinite" % (tag, order))
            for label, tag in tags.items()}


def _glaisher_product(m, order):
    """(q^m; q^m)_inf / (q; q)_inf, Glaisher's product side and Euler's at m = 2."""
    return pochhammer_expand(
        (ProductFactor(-1, (), m, m), ProductFactor(-1, (), 1, 1, reciprocal=True)), order, 0
    )


def _classical(order, predicate, m=None):
    """Series of the classical partition counts under ``predicate``: q-only,
    or given m, by ``classic.residue_vector`` in m - 1 variables."""
    if m is None:
        return TruncatedSeries(
            order, 0, {(n, ()): classic.count(n, predicate) for n in range(order + 1)}
        )
    return TruncatedSeries(order, m - 1, Counter(
        (n, classic.residue_vector(lam, m))
        for n in range(order + 1) for lam in classic.partitions_of(n) if predicate(lam)))


def _need_order(order):
    if order < 0:
        raise UsageError("truncation order must be non-negative")


# Each named identity's row: whether it takes a modulus m, and its columns
# ``{label: series}`` at (order, m), the labels being the row keys in order:
# walked sides, product sides, and classical counts as q-only series
# (``keith_xiong``'s in its m - 1 residue variables).
_IDENTITIES = {
    "euler": (False, lambda order, m: {
        "distinct": _classical(order, classic.is_distinct),
        "odd": _classical(order, classic.is_all_odd),
        "product": pochhammer_expand((ProductFactor(1, (), 1, 1),), order, 0),
        "quotient_product": _glaisher_product(2, order),
    }),
    "glaisher": (True, lambda order, m: {
        "regular": _classical(order, lambda lam: classic.is_m_regular(lam, m)),
        "occurrences": _classical(order, lambda lam: classic.occurrences_below(lam, m)),
        "flat": _classical(order, lambda lam: classic.is_m_flat(lam, m)),
        "product": _glaisher_product(m, order),
    }),
    "keith_xiong": (True, lambda order, m: {
        "flat": _classical(order, lambda lam: classic.is_m_flat(lam, m), m),
        "regular": _classical(order, lambda lam: classic.is_m_regular(lam, m), m),
        **_walked(keith_xiong_setup(m), order, flat_colored="F1", regular_colored="R1"),
    }),
    "glaisher_analogue": (True, lambda order, m: {
        "regular_distinct": _classical(order, lambda lam: classic.is_m_regular_distinct(lam, m)),
        "flat_second_kind": _classical(order, lambda lam: classic.is_second_kind_flat(lam, m)),
        **_walked(glaisher_analogue_setup(m), order, flat_colored="F1", regular_colored="R1"),
    }),
    "siladic_companion": (False, lambda order, m: {
        **_walked(siladic_setup(), order, A="R2", B="F2", primary="O+"),
        "distinct_odd": _classical(order, classic.is_distinct_odd),
        "product": pochhammer_expand((ProductFactor(1, (), 1, 2),), order, 0),
    }),
}

IDENTITIES = tuple(_IDENTITIES)
