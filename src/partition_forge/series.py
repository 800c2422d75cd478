"""Exact truncated multivariate power series in q with commuting color variables.

Coefficients are Python ints (arbitrary precision).  A series is truncated
at a fixed q-order; color exponents are unbounded and may be negative while
a substitution is in flight, but stored q-degrees are always in [0, order].

This module is also the boundary where color words stop being words:
``gf_from_partitions`` is handed a weight map and from then on the colors
commute.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import UsageError, part_color_seq, part_size


class TruncatedSeries:
    """Exact polynomial-style series in q and nvars commuting color variables."""

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order, nvars, coeffs=None):
        if order < 0:
            raise UsageError("truncation order must be non-negative")
        self.order = order
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for (d, exps), v in coeffs.items():
                if not v:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise UsageError("exponent vector has wrong dimension")
                if d < 0:
                    raise UsageError("negative q-degree")
                if d <= order:
                    self.coeffs[(d, exps)] = int(v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, nvars):
        return cls(order, nvars)

    @classmethod
    def one(cls, order, nvars):
        return cls.monomial(1, 0, (0,) * nvars, order, nvars)

    @classmethod
    def monomial(cls, coeff, d, exps, order, nvars):
        return cls(order, nvars, {(d, tuple(exps)): coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise UsageError("expected a TruncatedSeries")
        if other.order != self.order or other.nvars != self.nvars:
            raise UsageError("series order/dimension mismatch")

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for key, v in other.coeffs.items():
            w = coeffs.get(key, 0) + v
            if w:
                coeffs[key] = w
            else:
                coeffs.pop(key, None)
        out = TruncatedSeries(self.order, self.nvars)
        out.coeffs = coeffs
        return out

    def __neg__(self):
        out = TruncatedSeries(self.order, self.nvars)
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = TruncatedSeries(self.order, self.nvars)
            if other:
                out.coeffs = {k: v * other for k, v in self.coeffs.items()}
            return out
        self._check(other)
        order = self.order
        acc = {}
        for (d1, e1), v1 in self.coeffs.items():
            for (d2, e2), v2 in other.coeffs.items():
                d = d1 + d2
                if d > order:
                    continue
                key = (d, tuple(a + b for a, b in zip(e1, e2)))
                w = acc.get(key, 0) + v1 * v2
                if w:
                    acc[key] = w
                else:
                    del acc[key]
        out = TruncatedSeries(order, self.nvars)
        out.coeffs = acc
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.nvars, frozenset(self.coeffs.items())))

    # -- access ------------------------------------------------------------

    def coeff(self, d, exps=None):
        if exps is None:
            exps = (0,) * self.nvars
        return self.coeffs.get((d, tuple(exps)), 0)

    def q_coefficients(self):
        """Coefficients of q^0..q^order with every color variable set to 1."""
        out = [0] * (self.order + 1)
        for (d, _), v in self.coeffs.items():
            out[d] += v
        return out

    def terms(self):
        """Sorted (q-degree, exponent vector, coefficient) triples."""
        return [(d, e, self.coeffs[(d, e)]) for d, e in sorted(self.coeffs)]

    def text(self, var_names=None):
        if not self.coeffs:
            return "0"
        names = var_names or ["c%d" % (i + 1) for i in range(self.nvars)]
        chunks = []
        for d, exps, v in self.terms():
            bits = [str(v)]
            if d:
                bits.append("q^%d" % d)
            bits += ["%s^%d" % (names[i], e) for i, e in enumerate(exps) if e]
            chunks.append("*".join(bits))
        return " + ".join(chunks)

    def to_json(self, var_names=None):
        return {
            "order": self.order,
            "colors": list(var_names) if var_names else ["c%d" % (i + 1) for i in range(self.nvars)],
            "terms": [
                {"coeff": v, "q": d, "exps": list(e)} for d, e, v in self.terms()
            ],
        }

    def __repr__(self):
        return "TruncatedSeries(order=%d, %s)" % (self.order, self.text())


class ProductFactor(NamedTuple):
    """One ladder of a Pochhammer-style product.

    Numerator factors multiply in ``(1 + sign * m * q^(offset + j*modulus))``
    for j >= 0; with ``reciprocal`` set the factor is the expanded geometric
    inverse ``1 / (m q^offset; q^modulus)``, which requires offset >= 1 so the
    expansion terminates at any finite order.
    """

    sign: int
    exps: tuple
    offset: int
    modulus: int
    reciprocal: bool = False


def _factor_series(factor, order, nvars):
    if factor.modulus < 1:
        raise UsageError("factor modulus must be >= 1")
    exps = tuple(factor.exps)
    if len(exps) != nvars:
        raise UsageError("factor monomial has wrong dimension")
    out = TruncatedSeries.one(order, nvars)
    if factor.reciprocal:
        if factor.offset < 1:
            raise UsageError("reciprocal factor needs offset >= 1 to terminate")
        a = factor.offset
        while a <= order:
            geo = TruncatedSeries(
                order,
                nvars,
                {(a * j, tuple(e * j for e in exps)): 1 for j in range(order // a + 1)},
            )
            out = out * geo
            a += factor.modulus
        return out
    if factor.offset < 0:
        raise UsageError("factor offset must be non-negative")
    if factor.sign not in (1, -1):
        raise UsageError("factor sign must be +1 or -1")
    a = factor.offset
    while a <= order:
        out = out * TruncatedSeries(
            order, nvars, {(0, (0,) * nvars): 1, (a, exps): factor.sign}
        )
        a += factor.modulus
    return out


def pochhammer_expand(factors, order, nvars):
    """Exact expansion of a product of Pochhammer ladders to the given order."""
    out = TruncatedSeries.one(order, nvars)
    for factor in factors:
        out = out * _factor_series(factor, order, nvars)
    return out


def partition_weight(colors, energy, transform=None):
    """Weight map sending a part to (q-degree, color-exponent vector).

    The q-degree is the part size, transformed when a transformation is
    given; the exponent vector counts the part's non-ground colors (the
    ground contributes exponent zero).  Returns (weight, nvars).  Weights
    are memoized per part, since enumerations repeat parts heavily.
    """
    var = {c: i for i, c in enumerate(colors.non_ground)}
    cache = {}

    def weight(part):
        got = cache.get(part)
        if got is not None:
            return got
        if transform is None:
            d = part_size(part, energy)
        else:
            d = transform.part_degree(part, energy)
        exps = [0] * len(var)
        for c in part_color_seq(part):
            if c in var:
                exps[var[c]] += 1
        got = (d, tuple(exps))
        cache[part] = got
        return got

    return weight, len(var)


def gf_from_partitions(partitions, weight, order, nvars):
    """Sum of one monomial per partition, at the given weight map."""
    acc = {}
    for pi in partitions:
        d = 0
        exps = [0] * nvars
        for p in pi:
            pd, pe = weight(p)
            if pd < 0:
                raise UsageError("negative transformed degree for part %r" % (p,))
            d += pd
            for i, e in enumerate(pe):
                exps[i] += e
        if d > order:
            continue
        key = (d, tuple(exps))
        acc[key] = acc.get(key, 0) + 1
    return TruncatedSeries(order, nvars, acc)

