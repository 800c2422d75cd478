"""Level-one character configurations and the named identity verifiers.

Each configuration packages a color system, a minimal energy whose regular
partitions form one strict well-ordered chain (with at most one repeatable
color or one alternating pair), the transformed energy the chain acquires
under a change of variables, and the product side of its character.  The
character is verified as an exact truncated-series identity, with the flat
side enumerated both directly under the transformed energy and as the
transform of the untransformed enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import classic
from .core import ColorSystem, EnergyMatrix, SizeTransform, UsageError
from .families import Budget, _f1_members, members
from .series import (
    ProductFactor,
    gf_from_partitions,
    partition_weight,
    pochhammer_expand,
)

CHARACTER_FAMILIES = ("A2n2", "Dn12-L0", "Dn12-Ln", "Bn1-Ln")

IDENTITIES = (
    "euler",
    "glaisher",
    "keith_xiong",
    "glaisher_analogue",
    "siladic_companion",
)


@dataclass(frozen=True)
class CrystalConfig:
    family: str
    rank: int
    colors: ColorSystem
    energy: EnergyMatrix
    energy_prime: EnergyMatrix
    transform: SizeTransform
    rhs_factors: tuple


def _chain_energy(colors, repeats=(), zero_pairs=()):
    """Minimal energy for one strict chain given by the color order.

    Colors are listed smallest-first with the ground last; eps(x, y) is 1
    when x precedes or equals y in the chain, except that colors in
    ``repeats`` may repeat and pairs in ``zero_pairs`` alternate freely.
    """
    g = colors.ground
    n = colors.n
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == g:
                row.append(0)
            elif y == g:
                row.append(1)
            elif x == y:
                row.append(0 if x in repeats else 1)
            elif (x, y) in zero_pairs:
                row.append(0)
            else:
                row.append(1 if x <= y else 0)
        rows.append(tuple(row))
    return EnergyMatrix(tuple(rows))


def _transformed_energy(energy, transform):
    n = energy.n
    sc, sh = transform.scale, transform.shifts
    rows = tuple(
        tuple(sc * energy.e(x, y) + sh[x] - sh[y] for y in range(n))
        for x in range(n)
    )
    return EnergyMatrix(rows)


def build_config(family, rank):
    """Color system, energies, transformation, and product side for one module."""
    n = rank
    if family == "A2n2":
        if n < 2:
            raise UsageError("A-type configuration needs rank >= 2")
        names = tuple("c%d" % i for i in range(1, n + 1))
        names += tuple("cb%d" % i for i in range(n, 0, -1))
        names += ("c0",)
        colors = ColorSystem(names, len(names) - 1)
        energy = _chain_energy(colors)
        shifts = tuple(-1 if c != colors.ground else 0 for c in range(colors.n))
        transform = SizeTransform(2, shifts)
        factors = tuple(
            ProductFactor(1, _unit(colors, label), 1, 2)
            for label in names[:-1]
        )
    elif family in ("Dn12-L0", "Dn12-Ln"):
        if n < 2:
            raise UsageError("D-type configuration needs rank >= 2")
        unbarred = tuple("c%d" % i for i in range(1, n + 1))
        barred = tuple("cb%d" % i for i in range(n, 0, -1))
        if family == "Dn12-L0":
            names = unbarred + ("c0b",) + barred + ("c0",)
            colors = ColorSystem(names, len(names) - 1)
            energy = _chain_energy(colors, repeats=(colors.index("c0b"),))
            shifts = tuple(-1 if c != colors.ground else 0 for c in range(colors.n))
            transform = SizeTransform(2, shifts)
            factors = tuple(
                ProductFactor(1, _unit(colors, label), 1, 2)
                for label in unbarred + barred
            )
            factors += (ProductFactor(1, _unit(colors, "c0b"), 1, 2, reciprocal=True),)
        else:
            names = barred + ("c0",) + unbarred + ("c0b",)
            colors = ColorSystem(names, len(names) - 1)
            energy = _chain_energy(colors, repeats=(colors.index("c0"),))
            shifts = [0] * colors.n
            shifts[colors.index("c0")] = -1
            for label in barred:
                shifts[colors.index(label)] = -2
            transform = SizeTransform(2, tuple(shifts))
            factors = tuple(
                ProductFactor(1, _unit(colors, label), 2, 2) for label in unbarred
            )
            factors += tuple(
                ProductFactor(1, _unit(colors, label), 0, 2) for label in barred
            )
            factors += (ProductFactor(1, _unit(colors, "c0"), 1, 2, reciprocal=True),)
    elif family == "Bn1-Ln":
        if n < 3:
            raise UsageError("B-type configuration needs rank >= 3")
        barred = tuple("cb%d" % i for i in range(n, 0, -1))
        unbarred = tuple("c%d" % i for i in range(1, n + 1))
        names = barred + unbarred + ("c0b",)
        colors = ColorSystem(names, len(names) - 1)
        energy = _chain_energy(
            colors, zero_pairs=((colors.index("cb1"), colors.index("c1")),)
        )
        shifts = [0] * colors.n
        for label in barred:
            shifts[colors.index(label)] = -1
        transform = SizeTransform(1, tuple(shifts))
        factors = tuple(
            ProductFactor(1, _unit(colors, label), 1, 1) for label in unbarred
        )
        factors += tuple(
            ProductFactor(1, _unit(colors, label), 0, 1) for label in barred
        )
        pair = _unit(colors, "c1", "cb1")
        factors += (ProductFactor(1, pair, 1, 2, reciprocal=True),)
    else:
        raise UsageError("unknown character family %r" % (family,))
    return CrystalConfig(
        family=family,
        rank=rank,
        colors=colors,
        energy=energy,
        energy_prime=_transformed_energy(energy, transform),
        transform=transform,
        rhs_factors=factors,
    )


def _unit(colors, *labels):
    """Exponent vector over the non-ground variables with ones at the labels."""
    var = {c: i for i, c in enumerate(colors.non_ground)}
    exps = [0] * len(var)
    for label in labels:
        exps[var[colors.index(label)]] += 1
    return tuple(exps)


def _character_budget(colors, order):
    stall = 2 * colors.n + 2
    return Budget(order, (order + 1) * (stall + 1)), stall


def character_lhs(config, order, route="direct"):
    """Flat-partition generating function, by either enumeration route.

    The member lists are consumed unsorted: the series sum is order-free and
    the direct route alone can visit millions of partitions at order ten.
    """
    budget, stall = _character_budget(config.colors, order)
    if route == "direct":
        flats = _f1_members(config.energy_prime, config.colors, budget, stall_limit=stall)
        weight, nvars = partition_weight(config.colors, config.energy_prime)
    elif route == "transform":
        flats = _f1_members(
            config.energy, config.colors, budget, transform=config.transform
        )
        weight, nvars = partition_weight(
            config.colors, config.energy, transform=config.transform
        )
    else:
        raise UsageError("route must be 'direct' or 'transform'")
    return gf_from_partitions(flats, weight, order, nvars)


def character_rhs(config, order):
    nvars = len(config.colors.non_ground)
    return pochhammer_expand(config.rhs_factors, order, nvars)


def verify_character(family, rank, order):
    """Compare both flat enumeration routes against the product side."""
    config = build_config(family, rank)
    direct = character_lhs(config, order, route="direct")
    via_transform = character_lhs(config, order, route="transform")
    rhs = character_rhs(config, order)
    report = {
        "family": family,
        "rank": rank,
        "order": order,
        "paths_agree": direct == via_transform,
        "lhs_equals_rhs": direct == rhs,
        "pass": direct == via_transform and direct == rhs,
    }
    if not report["pass"]:
        diffs = []
        keys = set(direct.coeffs) | set(rhs.coeffs) | set(via_transform.coeffs)
        for key in sorted(keys):
            vals = (direct.coeffs.get(key, 0), via_transform.coeffs.get(key, 0), rhs.coeffs.get(key, 0))
            if len(set(vals)) > 1:
                diffs.append({"q": key[0], "exps": list(key[1]),
                              "direct": vals[0], "transform": vals[1], "product": vals[2]})
        report["mismatches"] = diffs
    return report


# ---------------------------------------------------------------------------
# named identities


def keith_xiong_setup(m):
    """Residue colors 0..m-1, ground 0; parts k_{c_i} transform to m*k + i."""
    if m < 2:
        raise UsageError("modulus must be >= 2")
    names = tuple("r%d" % i for i in range(m))
    colors = ColorSystem(names, 0)
    rows = tuple(
        tuple(1 if i < j else 0 for j in range(m)) for i in range(m)
    )
    return colors, EnergyMatrix(rows), SizeTransform(m, tuple(range(m)))


def glaisher_analogue_setup(m):
    """Same residue colors, with every nonzero residue non-repeatable."""
    if m < 2:
        raise UsageError("modulus must be >= 2")
    names = tuple("r%d" % i for i in range(m))
    colors = ColorSystem(names, 0)
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(0 if i == 0 else 1)
            else:
                row.append(1 if i < j else 0)
        rows.append(tuple(row))
    return colors, EnergyMatrix(tuple(rows)), SizeTransform(m, tuple(range(m)))


def siladic_setup():
    """The three-color chain with ground c and the quartic substitution."""
    colors = ColorSystem(("a", "b", "c"), 2)
    energy = EnergyMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 0)))
    return colors, energy, SizeTransform(4, (-3, -1, 0))


def _transformed_counts(tag, energy, colors, transform, order, degree=None):
    """Members bucketed by transformed total size (color variables dropped)."""
    budget = Budget(order, order + 1)
    found = members(tag, energy, colors, budget, degree=degree, transform=transform)
    out = [0] * (order + 1)
    for pi in found:
        out[transform.partition_degree(pi, energy)] += 1
    return out


def _transformed_vectors(tag, energy, colors, transform, order):
    """Counter of (transformed size, residue multiplicity vector) per member.

    Assumes the residue color systems built above: ground at index 0, the
    color with index i standing for residue class i.
    """
    budget = Budget(order, order + 1)
    found = members(tag, energy, colors, budget, transform=transform)
    out = Counter()
    for pi in found:
        degree = transform.partition_degree(pi, energy)
        vec = [0] * (colors.n - 1)
        for p in pi:
            if p.color != colors.ground:
                vec[p.color - 1] += 1
        out[(degree, tuple(vec))] += 1
    return out


def verify_named_identity(name, order, m=None):
    """Exact per-coefficient verification of one named identity."""
    if name == "euler":
        rows = []
        prod1 = pochhammer_expand((ProductFactor(1, (), 1, 1),), order, 0)
        prod2 = pochhammer_expand(
            (ProductFactor(-1, (), 2, 2), ProductFactor(-1, (), 1, 1, reciprocal=True)),
            order,
            0,
        )
        for n in range(order + 1):
            counts = {
                "distinct": classic.count_distinct(n),
                "odd": classic.count_odd(n),
                "product": prod1.coeff(n),
                "quotient_product": prod2.coeff(n),
            }
            rows.append({"n": n, **counts, "match": len(set(counts.values())) == 1})
        return _report(name, m, order, rows)

    if name == "glaisher":
        m = _need_m(m)
        prod = pochhammer_expand(
            (ProductFactor(-1, (), m, m), ProductFactor(-1, (), 1, 1, reciprocal=True)),
            order,
            0,
        )
        rows = []
        for n in range(order + 1):
            counts = {
                "regular": classic.count_m_regular(n, m),
                "occurrences": classic.count_occurrences_below(n, m),
                "flat": classic.count_m_flat(n, m),
                "product": prod.coeff(n),
            }
            rows.append({"n": n, **counts, "match": len(set(counts.values())) == 1})
        return _report(name, m, order, rows)

    if name == "keith_xiong":
        m = _need_m(m)
        colors, energy, transform = keith_xiong_setup(m)
        flat_w = _transformed_vectors("F1", energy, colors, transform, order)
        reg_w = _transformed_vectors("R1", energy, colors, transform, order)
        rows = []
        for n in range(order + 1):
            flat_c = Counter()
            reg_c = Counter()
            for lam in classic.partitions_of(n):
                vec = classic.residue_vector(lam, m)
                if classic.is_m_flat(lam, m):
                    flat_c[vec] += 1
                if classic.is_m_regular(lam, m):
                    reg_c[vec] += 1
            flat_ww = Counter({v: c for (d, v), c in flat_w.items() if d == n})
            reg_ww = Counter({v: c for (d, v), c in reg_w.items() if d == n})
            match = flat_c == reg_c == flat_ww == reg_ww
            rows.append(
                {
                    "n": n,
                    "vectors": len(flat_c),
                    "flat": sum(flat_c.values()),
                    "regular": sum(reg_c.values()),
                    "flat_colored": sum(flat_ww.values()),
                    "regular_colored": sum(reg_ww.values()),
                    "match": match,
                }
            )
        return _report(name, m, order, rows)

    if name == "glaisher_analogue":
        m = _need_m(m)
        colors, energy, transform = glaisher_analogue_setup(m)
        flat_t = _transformed_counts("F1", energy, colors, transform, order)
        reg_t = _transformed_counts("R1", energy, colors, transform, order)
        rows = []
        for n in range(order + 1):
            counts = {
                "regular_distinct": classic.count_m_regular_distinct(n, m),
                "flat_second_kind": classic.count_second_kind_flat(n, m),
                "flat_colored": flat_t[n],
                "regular_colored": reg_t[n],
            }
            rows.append({"n": n, **counts, "match": len(set(counts.values())) == 1})
        return _report(name, m, order, rows)

    if name == "siladic_companion":
        colors, energy, transform = siladic_setup()
        a_side = _transformed_counts("R2", energy, colors, transform, order)
        b_side = _transformed_counts("F2", energy, colors, transform, order)
        o_side = _transformed_counts("O+", energy, colors, transform, order)
        prod = pochhammer_expand((ProductFactor(1, (), 1, 2),), order, 0)
        rows = []
        for n in range(order + 1):
            counts = {
                "A": a_side[n],
                "B": b_side[n],
                "primary": o_side[n],
                "distinct_odd": classic.count_distinct_odd(n),
                "product": prod.coeff(n),
            }
            rows.append({"n": n, **counts, "match": len(set(counts.values())) == 1})
        return _report(name, m, order, rows)

    raise UsageError("unknown identity %r" % (name,))


def _need_m(m):
    if m is None or m < 2:
        raise UsageError("this identity needs a modulus m >= 2")
    return m


def _report(name, m, order, rows):
    return {
        "identity": name,
        "m": m,
        "order": order,
        "rows": rows,
        "pass": all(row["match"] for row in rows),
    }
