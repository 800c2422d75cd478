"""Colored parts, energy matrices, and the binary relations between parts.

A primary part ``k_c`` has an integer size ``k`` and a color ``c``.  A
secondary part ``(k, c, c')`` is the sum of the two primary parts
``(k + eps(c, c'))_c`` (its upper half) and ``k_{c'}`` (its lower half) and
has size ``2k + eps(c, c')``.  Partitions are plain tuples of parts read
left to right from the largest; grounded partitions end with the zero part
of the distinguished ground color.

Everything here is immutable and all relation predicates are pure
functions, so values can be shared freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


class UsageError(ValueError):
    """An operation was called with arguments outside its domain."""


class EnergyStructureError(ValueError):
    """An energy table does not structurally match its color system."""


class InvalidPartitionError(ValueError):
    """A sequence of parts is not a member of the required family."""


# ---------------------------------------------------------------------------
# colors and energies


@dataclass(frozen=True)
class ColorSystem:
    """An ordered set of color labels with one distinguished ground color."""

    names: tuple
    ground: int

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise EnergyStructureError("color labels must be distinct")
        if not 0 <= self.ground < len(self.names):
            raise EnergyStructureError("ground index out of range")
        for name in self.names:
            if not name or name[0].isdigit() or name.lstrip("+-")[:1].isdigit():
                raise EnergyStructureError(
                    "color labels may not start with a digit or sign: %r" % (name,)
                )
        object.__setattr__(
            self,
            "_non_ground",
            tuple(c for c in range(len(self.names)) if c != self.ground),
        )

    @property
    def n(self):
        return len(self.names)

    @property
    def non_ground(self):
        """Indices of the colors allowed in color words."""
        return self._non_ground

    def index(self, label):
        try:
            return self.names.index(label)
        except ValueError:
            raise UsageError("unknown color label %r" % (label,)) from None

    def label(self, c):
        return self.names[c]


@dataclass(frozen=True)
class EnergyMatrix:
    """Integer energy on ordered color pairs, stored as a dense square table."""

    values: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", rows)
        for row in rows:
            if len(row) != len(rows):
                raise EnergyStructureError("energy table must be square")

    @property
    def n(self):
        return len(self.values)

    def e(self, c, d):
        return self.values[c][d]

    @property
    def minimal(self):
        return all(v in (0, 1) for row in self.values for v in row)


def validate_energy(energy, colors):
    """Structural report for an energy over a color system.

    Returns a dict with keys ``minimal``, ``ground_ok``, ``delta_g`` and
    ``violations``.  ``delta_g`` is the common value of eps(ground, c) when
    ground compatibility holds (0 by convention when there is no non-ground
    color), and None otherwise.  Dimension mismatches raise.
    """
    if energy.n != colors.n:
        raise EnergyStructureError(
            "energy is %dx%d but there are %d colors" % (energy.n, energy.n, colors.n)
        )
    g = colors.ground
    violations = []
    if energy.e(g, g) != 0:
        violations.append("eps(ground, ground) = %d != 0" % energy.e(g, g))
    delta = None
    for c in colors.non_ground:
        row, col = energy.e(g, c), energy.e(c, g)
        if row not in (0, 1) or col != 1 - row:
            violations.append(
                "colors (%s, ground): eps(ground, c) = %d, eps(c, ground) = %d"
                % (colors.label(c), row, col)
            )
        elif delta is None:
            delta = row
        elif row != delta:
            violations.append(
                "eps(ground, %s) = %d disagrees with delta_g = %d"
                % (colors.label(c), row, delta)
            )
    ground_ok = not violations
    if not colors.non_ground:
        delta = 0
    return {
        "minimal": energy.minimal,
        "ground_ok": ground_ok,
        "delta_g": delta if ground_ok else None,
        "violations": violations,
    }


@lru_cache(maxsize=None)
def ground_delta(energy, colors):
    """The common value delta_g = eps(ground, c), raising if it does not exist."""
    report = validate_energy(energy, colors)
    if not report["ground_ok"]:
        raise UsageError(
            "energy is not ground-compatible: " + "; ".join(report["violations"])
        )
    return report["delta_g"]


# ---------------------------------------------------------------------------
# energy text format
#
# Line 1: space-separated color labels.  Line 2: the ground label.  Then one
# row of the energy table per color, in the order of line 1.  Blank lines and
# lines starting with '#' are skipped.


def parse_energy(text):
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and ln[0] != "#"]
    if len(lines) < 2:
        raise EnergyStructureError("energy text needs labels, ground, and rows")
    names = tuple(lines[0].split())
    ground_label = lines[1]
    if ground_label not in names:
        raise EnergyStructureError("ground label %r not among colors" % ground_label)
    colors = ColorSystem(names, names.index(ground_label))
    rows = lines[2:]
    if len(rows) != len(names):
        raise EnergyStructureError(
            "expected %d energy rows, got %d" % (len(names), len(rows))
        )
    try:
        table = tuple(tuple(int(v) for v in row.split()) for row in rows)
    except ValueError as exc:
        raise EnergyStructureError("non-integer energy entry: %s" % exc) from None
    energy = EnergyMatrix(table)
    if energy.n != colors.n:
        raise EnergyStructureError("energy rows do not match color count")
    return colors, energy


def format_energy(colors, energy):
    lines = [" ".join(colors.names), colors.label(colors.ground)]
    lines += [" ".join(str(v) for v in row) for row in energy.values]
    return "\n".join(lines) + "\n"


def load_energy(path):
    with open(path, encoding="utf-8") as handle:
        return parse_energy(handle.read())


# ---------------------------------------------------------------------------
# parts


class Primary(NamedTuple):
    size: int
    color: int


class Secondary(NamedTuple):
    half: int
    left: int
    right: int


class DegreeK(NamedTuple):
    base: int
    colors: tuple


def secondary_size(part, energy):
    return 2 * part.half + energy.e(part.left, part.right)


def upper_half(part, energy):
    """gamma: the larger of the two primary parts a secondary part sums."""
    return Primary(part.half + energy.e(part.left, part.right), part.left)


def lower_half(part):
    """mu: the smaller of the two primary parts a secondary part sums."""
    return Primary(part.half, part.right)


def part_size(part, energy):
    if isinstance(part, Primary):
        return part.size
    if isinstance(part, Secondary):
        return secondary_size(part, energy)
    if isinstance(part, DegreeK):
        cs = part.colors
        inner = sum(u * energy.e(cs[u - 1], cs[u]) for u in range(1, len(cs)))
        return len(cs) * part.base + inner
    raise UsageError("not a part: %r" % (part,))


def part_color_seq(part):
    """The color indices a part contributes, left to right."""
    if isinstance(part, Primary):
        return (part.color,)
    if isinstance(part, Secondary):
        return (part.left, part.right)
    if isinstance(part, DegreeK):
        return tuple(part.colors)
    raise UsageError("not a part: %r" % (part,))


def partition_size(pi, energy):
    return sum(part_size(p, energy) for p in pi)


def color_word(pi, colors):
    """Sequence of non-ground colors of a partition, read left to right."""
    g = colors.ground
    return tuple(c for p in pi for c in part_color_seq(p) if c != g)


# ---------------------------------------------------------------------------
# size transformations
#
# A change of variables q -> q^scale, color c -> c * q^shift[c] acts on parts
# by sending the size k to scale*k + shift[c] (once per color the part
# carries).  Transformations are stored as data so new ones are added by
# table, not code.


@dataclass(frozen=True)
class SizeTransform:
    scale: int
    shifts: tuple

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        if self.scale < 1:
            raise UsageError("transformation scale must be positive")

    @classmethod
    def identity(cls, n):
        return cls(1, (0,) * n)

    def part_degree(self, part, energy):
        cs = part_color_seq(part)
        return self.scale * part_size(part, energy) + sum(self.shifts[c] for c in cs)

    def partition_degree(self, pi, energy):
        return sum(self.part_degree(p, energy) for p in pi)


# ---------------------------------------------------------------------------
# degree-two energies


def _check_colors(n, *colors):
    for c in colors:
        if not 0 <= c < n:
            raise UsageError("invalid color index %r" % (c,))


def epsilon2(energy, c, cp, d, dp):
    """Energy between secondary colors cc' and dd' in the flat family."""
    _check_colors(energy.n, c, cp, d, dp)
    return energy.e(c, cp) + 2 * energy.e(cp, d) + energy.e(d, dp)


def delta_exception(energy, colors, c, cp, d, dp):
    """The correction delta^eps on secondary color pairs (cc', dd').

    Zero except on one always-on pattern, plus four extra patterns that only
    occur when delta_g = 1.  The patterns are mutually exclusive.
    """
    _check_colors(energy.n, c, cp, d, dp)
    g = colors.ground
    if cp == g and d == g and c != g and dp != g:
        return energy.e(c, dp)
    if ground_delta(energy, colors) == 1:
        if c == g and cp != g and d != g and dp != g and energy.e(cp, d) == 1:
            return -1
        if cp == g and c != g and d != g and dp != g and energy.e(c, d) == 0:
            return -1
        # all four exception patterns require the remaining colors non-ground
        if dp == g and c != g and cp != g and d != g and energy.e(cp, d) == 0:
            return 1
        if d == g and c != g and cp != g and dp != g and energy.e(cp, dp) == 1:
            return 1
    return 0


def epsilon2_prime(energy, colors, c, cp, d, dp):
    """Energy between secondary colors in the regular family."""
    return epsilon2(energy, c, cp, d, dp) + 2 * delta_exception(energy, colors, c, cp, d, dp)


# ---------------------------------------------------------------------------
# relations


def flat_rel(x, y, energy):
    if isinstance(x, Primary) and isinstance(y, Primary):
        return x.size - y.size == energy.e(x.color, y.color)
    if isinstance(x, Secondary) and isinstance(y, Secondary):
        diff = secondary_size(x, energy) - secondary_size(y, energy)
        return diff == epsilon2(energy, x.left, x.right, y.left, y.right)
    raise UsageError("flat relation needs two primary or two secondary parts")


def min_diff_rel(x, y, energy):
    if isinstance(x, Primary) and isinstance(y, Primary):
        return x.size - y.size >= energy.e(x.color, y.color)
    raise UsageError("minimal-difference relation needs two primary parts")


def mixed_rel(x, y, energy):
    """The relation on primary-or-secondary parts, one case per kind pair."""
    e = energy.e
    if isinstance(x, Primary):
        if isinstance(y, Primary):
            return x.size - y.size > e(x.color, y.color)
        if isinstance(y, Secondary):
            return x.size - secondary_size(y, energy) >= e(x.color, y.left) + e(y.left, y.right)
    elif isinstance(x, Secondary):
        if isinstance(y, Primary):
            return secondary_size(x, energy) - y.size > e(x.left, x.right) + e(x.right, y.color)
        if isinstance(y, Secondary):
            return x.half - y.half >= e(x.right, y.left) + e(y.left, y.right)
    raise UsageError("mixed relation needs primary or secondary parts")


def secondary_regular_rel(x, y, energy, colors):
    if not (isinstance(x, Secondary) and isinstance(y, Secondary)):
        raise UsageError("secondary-regular relation needs two secondary parts")
    gap = x.half - y.half - energy.e(x.right, y.left) - energy.e(y.left, y.right)
    return gap >= delta_exception(energy, colors, x.left, x.right, y.left, y.right)


# ---------------------------------------------------------------------------
# flat partitions from color sequences


def flat_sizes(full_colors, energy, colors):
    """Sizes of the unique flat partition with the given full color sequence.

    The sequence must end at the ground color (the terminal part); the empty
    sequence denotes the trivial partition and yields (0,).  Sizes are the
    right-to-left suffix sums of the energies of consecutive colors.
    """
    seq = tuple(full_colors)
    if not seq:
        return (0,)
    if seq[-1] != colors.ground:
        raise UsageError("full color sequence must end at the ground color")
    sizes = [0] * len(seq)
    for k in range(len(seq) - 2, -1, -1):
        sizes[k] = sizes[k + 1] + energy.e(seq[k], seq[k + 1])
    return tuple(sizes)


# ---------------------------------------------------------------------------
# partition text format
#
# Whitespace-separated tokens "<size><colorlabel>"; secondary and degree-k
# parts concatenate their color labels ("3ab").  Grounded families carry the
# terminal ground token ("0c").

_TOKEN = re.compile(r"^([+-]?\d+)(\S+)$")


def _label_splits(label, colors, exclude=()):
    """Count the ways to spell ``label`` as a sequence of color labels.

    Returns ``(count, witness)``: the count is capped at 2 (already
    ambiguous), and the witness is one split as a tuple of color indices,
    or None when there is none.  Colors in ``exclude`` are left out.  A
    right-to-left DP over suffixes, linear in the length of the label.
    """
    names = [(c, name) for c, name in enumerate(colors.names) if c not in exclude]
    end = len(label)
    ways = [0] * end + [1]  # ways[i]: splits of label[i:], capped at 2
    step = [None] * (end + 1)  # step[i]: (color, next i) of one split of label[i:]
    for i in range(end - 1, -1, -1):
        for c, name in names:
            j = i + len(name)
            if ways[i] < 2 and j <= end and ways[j] and label.startswith(name, i):
                ways[i] = min(2, ways[i] + ways[j])
                if step[i] is None:
                    step[i] = (c, j)
    if not ways[0]:
        return 0, None
    witness, i = [], 0
    while i < end:
        c, i = step[i]
        witness.append(c)
    return ways[0], tuple(witness)


def parse_part(token, colors, energy):
    match = _TOKEN.match(token)
    if not match:
        raise UsageError("malformed part token %r" % (token,))
    size = int(match.group(1))
    count, cs = _label_splits(match.group(2), colors)
    if not count:
        raise UsageError("unknown color label in token %r" % (token,))
    if count > 1:
        raise UsageError("ambiguous color label in token %r" % (token,))
    if len(cs) == 1:
        return Primary(size, cs[0])
    if len(cs) == 2:
        eps = energy.e(cs[0], cs[1])
        if (size - eps) % 2:
            raise UsageError(
                "size %d has the wrong parity for color %s%s"
                % (size, colors.label(cs[0]), colors.label(cs[1]))
            )
        return Secondary((size - eps) // 2, cs[0], cs[1])
    inner = sum(u * energy.e(cs[u - 1], cs[u]) for u in range(1, len(cs)))
    if (size - inner) % len(cs):
        raise UsageError("size %d does not fit a degree-%d part" % (size, len(cs)))
    return DegreeK((size - inner) // len(cs), cs)


def parse_partition(text, colors, energy):
    tokens = text.split()
    if not tokens:
        raise UsageError("empty partition text")
    return tuple(parse_part(tok, colors, energy) for tok in tokens)


def format_part(part, colors, energy):
    label = "".join(colors.label(c) for c in part_color_seq(part))
    return "%d%s" % (part_size(part, energy), label)


def format_partition(pi, colors, energy):
    return " ".join(format_part(p, colors, energy) for p in pi)
