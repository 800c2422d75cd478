"""Exact truncated multivariate power series in q with commuting color variables.

Coefficients are Python ints (arbitrary precision).  A series is truncated
at a fixed q-order; color exponents are unbounded and may be negative while
a substitution is in flight, but stored q-degrees are always in [0, order].

This module is also the boundary where color words stop being words:
``_packed_weights`` weighs a part by its size (or transformed degree) and
its non-ground colors as one packed int (the degree above the color-count
digits), so a partition's weight is the sum of its parts', and from then on
the colors commute.  ``gf_from_partitions`` weighs each distinct part of a
member list once; ``characters`` weighs the parts of a path sum
(``families._path_sum``).  Both read the distinct sums into rows by degree
as they are, with no unpacking.

``pochhammer_expand`` does not build a series per factor.  It keeps the
running product as rows by q-degree, and keys each row by one packed int per
exponent vector, so multiplying by a monomial is one int addition.  Each
ladder step updates the rows in place: a binomial ``(1 + sign m q^a)`` is a
shift-and-add, a geometric ``1 / (1 - m q^a)`` a running recurrence
(``sign`` is ignored on reciprocal factors).  The result keeps those rows:
its ``coeffs`` is a ``PackedRows``, a read-only ``Mapping`` from
``(d, exps)`` to the coefficient.  So are the coefficients of
``gf_from_partitions`` and of the path sums.  A view counts and sums its
rows, looks a key up by packing it, and compares with a view of the same
layout row by row; it unpacks every key only to iterate, or to compare
across layouts.  Every other series keeps a plain dict, and
``TruncatedSeries`` reads either through the ``Mapping`` interface.

The public ``TruncatedSeries(order, nvars, coeffs)`` checks every term.  The
results this module builds (sums, negations, products, ``pochhammer_expand``
and ``gf_from_partitions``) are zero-free, inside the order and of the right
width by construction, so they go through the one unchecked constructor,
``TruncatedSeries._of``.

Both packers lay out their exponents as byte-wide signed digits of 8, 16,
32 or 64 bits, sized so that no reachable exponent overflows, and one
unpacker, ``_digits``, reads a key back to its exponent tuple with
``int.to_bytes`` and one ``struct`` unpack, with no Python-level step per
digit.  An exponent past 64 bits raises UsageError.  ``TruncatedSeries.__mul__``
stays tuple-keyed and shares none of this: it is the independent route that
the tests compare ``pochhammer_expand`` with, so a fault in the codec cannot
hide in both.  It sorts its right factor by degree once, so each left term
stops at the order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import partial
from itertools import chain
from operator import add
from struct import Struct
from typing import NamedTuple

from .core import UsageError, part_color_seq, part_size


class TruncatedSeries:
    """Exact polynomial-style series in q and nvars commuting color variables.

    ``coeffs`` maps ``(d, exps)`` to a nonzero int: a dict, or for a
    ``pochhammer_expand`` result the read-only ``PackedRows`` view.
    """

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
    def _of(cls, order, nvars, coeffs):
        """The series on ``coeffs`` as given, without the checks of ``__init__``:
        for results that are zero-free, inside the order and of width nvars
        by construction."""
        out = cls.__new__(cls)
        out.order, out.nvars, out.coeffs = order, nvars, coeffs
        return out

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
        coeffs = dict(self.coeffs.items())  # a tuple-keyed copy to add into
        for key, v in other.coeffs.items():
            w = coeffs.get(key, 0) + v
            if w:
                coeffs[key] = w
            else:
                coeffs.pop(key, None)
        return TruncatedSeries._of(self.order, self.nvars, coeffs)

    def __neg__(self):
        return TruncatedSeries._of(self.order, self.nvars, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries._of(self.order, self.nvars,
                                       {k: v * other for k, v in self.coeffs.items() if other})
        self._check(other)
        order = self.order
        right = sorted(other.coeffs.items())  # by degree, so each left term stops at the order
        acc = {}
        get = acc.get
        for (d1, e1), v1 in self.coeffs.items():
            room = order - d1
            for (d2, e2), v2 in right:
                if d2 > room:
                    break
                key = (d1 + d2, tuple(map(add, e1, e2)))
                acc[key] = get(key, 0) + v1 * v2
        return TruncatedSeries._of(order, self.nvars, {key: v for key, v in acc.items() if v})

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
        if isinstance(self.coeffs, PackedRows):
            rows = self.coeffs.rows
            return [sum(row.values()) for row in rows] + [0] * (self.order + 1 - len(rows))
        out = [0] * (self.order + 1)
        for (d, _), v in self.coeffs.items():
            out[d] += v
        return out

    def terms(self):
        """Sorted (q-degree, exponent vector, coefficient) triples."""
        return sorted((d, e, v) for (d, e), v in self.coeffs.items())

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
    inverse ``1 / (m q^offset; q^modulus)``, which ignores ``sign`` and
    requires offset >= 1 so the expansion terminates at any finite order.
    """

    sign: int
    exps: tuple
    offset: int
    modulus: int
    reciprocal: bool = False


def _ladder(factor, order):
    """The q-exponents offset, offset + modulus, ... that stay within order."""
    return range(factor.offset, order + 1, factor.modulus)


def _check_factor(factor, nvars):
    if factor.modulus < 1:
        raise UsageError("factor modulus must be >= 1")
    if len(tuple(factor.exps)) != nvars:
        raise UsageError("factor monomial has wrong dimension")
    if factor.reciprocal:
        if factor.offset < 1:
            raise UsageError("reciprocal factor needs offset >= 1 to terminate")
        return
    if factor.offset < 0:
        raise UsageError("factor offset must be non-negative")
    if factor.sign not in (1, -1):
        raise UsageError("factor sign must be +1 or -1")


def _digit_bits(factors, order, nvars):
    """Bits per signed exponent digit that no reachable exponent overflows.

    A binomial step adds its monomial at most once, a geometric step at
    q^a at most order // a times; one more bit holds the sign.  ``_digits``
    rounds the count up to a byte-wide signed digit, the layout that both
    packers share and read back with one unpacker.  ``TruncatedSeries.__mul__``
    keeps tuple keys, since it is the route this expansion is checked against.
    """
    bound = [0] * nvars
    for f in factors:
        ladder = _ladder(f, order)
        uses = sum(order // a for a in ladder) if f.reciprocal else len(ladder)
        for i, e in enumerate(f.exps):
            bound[i] += uses * abs(e)
    return max(bound, default=0).bit_length() + 1


def _digits(bits, nvars):
    """The packed layout of nvars signed digits of at least ``bits`` bits.

    Returns ``(width, bias, size, unpack)``: each digit is ``width`` bits,
    bits rounded up to 8, 16, 32 or 64, so a key holds exponent i at
    ``width * i``.  ``unpack(((key + bias) ^ bias).to_bytes(size, "little"))``
    reads a key back as its exponent tuple in C: the bias adds half a digit
    to every digit, which leaves each digit non-negative and carries nothing
    over, and the xor flips each digit's top bit back, so every digit is its
    exponent in two's complement.  A digit past 64 bits raises UsageError.
    """
    for code, width in zip("bhiq", (8, 16, 32, 64)):
        if bits <= width:
            break
    else:
        raise UsageError("a reachable exponent needs %d bits; at most 64 fit" % bits)
    bias = sum(1 << (width * i + width - 1) for i in range(nvars))
    return width, bias, width // 8 * nvars, Struct("<%d%s" % (nvars, code)).unpack


class PackedRows(Mapping):
    """Read-only ``(d, exps) -> coeff`` view of rows by q-degree of packed keys.

    ``rows[d]`` maps each packed exponent key to its nonzero coefficient of
    q^d, in ``_digits``'s layout of ``width``-bit digits; rows past the
    last degree may be empty.  ``len`` and ``TruncatedSeries.q_coefficients``
    read the rows as they are, and a lookup packs its key.  Two views of
    the same width and ``nvars`` compare row by row, since one layout packs
    each ``(d, exps)`` to one key.  Iteration, and comparison with anything
    else, go through one ``_unpacked()`` dict of every key per call, so a
    caller that iterates often takes ``dict(view.items())`` once.  The view
    keeps only the width, not the ``struct`` unpacker, so it pickles and
    copies.
    """

    __slots__ = ("rows", "nvars", "width")

    def __init__(self, rows, nvars, width):
        self.rows = [{k: v for k, v in row.items() if v} if 0 in row.values() else row
                     for row in rows]
        self.nvars = nvars
        self.width = width

    def __len__(self):
        return sum(map(len, self.rows))

    def __getitem__(self, key):
        # the key packed at the view's width; a degree outside the rows, a
        # vector of the wrong length or a digit past the width could alias
        # another key, so each misses
        w = self.width
        half = 1 << (w - 1)
        try:
            d, exps = key
            if d >= 0 and len(exps) == self.nvars and all(-half <= e < half for e in exps):
                return self.rows[d][sum(e << w * i for i, e in enumerate(exps))]
        except (TypeError, ValueError, IndexError, KeyError):
            pass
        raise KeyError(key)

    def _unpacked(self):
        # every key read back to (d, exps) in C
        _, bias, size, unpack = _digits(self.width, self.nvars)
        return {(d, unpack(((k + bias) ^ bias).to_bytes(size, "little"))): v
                for d, row in enumerate(self.rows) for k, v in row.items()}

    def items(self):
        return self._unpacked().items()

    def values(self):
        return self._unpacked().values()

    def __iter__(self):
        return iter(self._unpacked())

    def __eq__(self, other):
        if (isinstance(other, PackedRows) and self.width == other.width
                and self.nvars == other.nvars):
            # one layout, so one key per (d, exps): compare the rows, and
            # the longer view's extra rows must be empty
            short, long = sorted((self.rows, other.rows), key=len)
            return long[:len(short)] == short and not any(long[len(short):])
        return self._unpacked() == other


def _shift_add(into, items, m, s):
    """into += s * x^m * items, on packed keys; ``items`` is not read from
    ``into`` while it changes."""
    get = into.get
    for k, v in items:
        k += m
        into[k] = get(k, 0) + s * v


def pochhammer_expand(factors, order, nvars):
    """Exact expansion of a product of Pochhammer ladders to the given order.

    ``rows[d]`` maps packed exponent keys to the coefficients of q^d.  A
    binomial step ``(1 + s m q^a)`` adds ``s m q^a`` times each row, degrees
    descending so that a row is read before it is written (at a = 0 it reads
    a snapshot); a geometric step ``1 / (1 - m q^a)`` adds ``m q^a`` times
    the already updated row a degrees lower, degrees ascending.
    """
    if order < 0:
        raise UsageError("truncation order must be non-negative")
    for factor in factors:
        _check_factor(factor, nvars)
    width = _digits(_digit_bits(factors, order, nvars), nvars)[0]
    shifts = [width * i for i in range(nvars)]

    rows = [{0: 1}]
    for factor in factors:
        m = sum(e << shift for e, shift in zip(factor.exps, shifts))
        s = factor.sign
        for a in _ladder(factor, order):
            if factor.reciprocal:
                rows += [{} for _ in range(len(rows), order + 1)]
                for d in range(a, order + 1):
                    _shift_add(rows[d], rows[d - a].items(), m, 1)
            elif a == 0:
                for row in rows:
                    _shift_add(row, list(row.items()), m, s)
            else:
                top = min(len(rows) - 1 + a, order)
                rows += [{} for _ in range(len(rows), top + 1)]
                for d in range(top - a, -1, -1):
                    _shift_add(rows[d + a], rows[d].items(), m, s)

    return TruncatedSeries._of(order, nvars, PackedRows(rows, nvars, width))


def gf_from_partitions(partitions, colors, energy, order, transform=None):
    """Sum of one monomial q^d x^e per partition of the sequence
    ``partitions``, truncated at ``order``.

    d sums the part sizes, or under a transformation each part's
    ``part_degree``; e counts the parts' non-ground colors, one variable per
    color of ``colors.non_ground`` (the ground contributes nothing).  Each
    distinct part is weighed once, in order of first occurrence, by
    ``_packed_weights``, so a partition's weight is the sum of its parts'.
    A digit holds any partition's count of one color: the longest partition
    times the most colors of a part.
    """
    parts = dict.fromkeys(chain.from_iterable(partitions))
    widest = max(map(len, map(part_color_seq, parts)), default=0)
    weigh, read = _packed_weights(colors, energy, transform,
                                 max(map(len, partitions), default=0) * widest)
    weight = {p: weigh(p) for p in parts}
    return read(Counter(map(sum, map(partial(map, weight.__getitem__), partitions))), order)


class _Negative:
    """The weight of a part of negative degree, and of every sum with it: a
    sum keeps the first such part it meets, so that part is reported."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = part

    def __add__(self, other):
        return self

    __radd__ = __add__


def _packed_weights(colors, energy, transform, most):
    """``(weigh, read)``: the packed weight of one part, and the series of a
    Counter of sums of such weights.

    ``weigh(part)`` is the int ``(degree << top) + sum(1 << width * var(c))``
    over the part's non-ground colors c, its degree its size or under a
    transformation its ``part_degree``.  A digit is wide enough for a count
    of ``most``, with a sign bit to spare, so the digits below ``top`` are
    a key of ``_digits``'s layout.  ``read(counts, order)`` files each
    distinct sum's count under that key in the row of its degree, drops
    the sums past ``order``, and returns the rows as a ``PackedRows``: no
    sum is unpacked.  A part of negative degree weighs a ``_Negative``, so
    ``read`` raises UsageError naming the first such part of the first sum
    that holds one: only the parts of a sum are checked.
    """
    var = {c: i for i, c in enumerate(colors.non_ground)}
    nvars = len(var)
    width = _digits(most.bit_length() + 1, nvars)[0]
    top = width * nvars
    mask = (1 << top) - 1

    def weigh(p):
        pd = part_size(p, energy) if transform is None else transform.part_degree(p, energy)
        if pd < 0:
            return _Negative(p)
        return (pd << top) + sum(1 << width * var[c] for c in part_color_seq(p) if c in var)

    def read(counts, order):
        rows = [{} for _ in range(order + 1)]
        for key, v in counts.items():
            if type(key) is _Negative:
                raise UsageError("negative transformed degree for part %r" % (key.part,))
            d = key >> top
            if d <= order:
                rows[d][key & mask] = v
        return TruncatedSeries._of(order, nvars, PackedRows(rows, nvars, width))

    return weigh, read
