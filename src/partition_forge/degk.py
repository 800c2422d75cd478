"""The flat layer of every degree: splitting degree-k flat partitions into
degree-one ones, and regrouping them.

A degree-k part ``(p, c_1...c_k)`` sums k primary parts chained by the flat
relation; its size is ``k*p + sum(u * eps(c_u, c_{u+1}))``.  The maps read a
part only through its base and its color word, so a primary part has degree
one and a secondary part degree two: ``deg2.split_flat2`` and
``deg2.merge_flat1`` are these maps at k = 2.  The forward map lays out the
k primary constituents of each part, truncating trailing zero ground parts
of the last one; the inverse regroups k at a time, padding the final group
with zero ground parts.  Both check their input and their output.
"""

from __future__ import annotations

from .core import DegreeK, Primary, UsageError, part_color_seq
from .families import F1, read_degree_one, require_degree, validate_flat


def gamma_parts(part, energy):
    """The k primary constituents of a part of degree k, largest first."""
    word, ev = part_color_seq(part), energy.values
    sizes = [part[0]]
    for u in range(len(word) - 1, 0, -1):
        sizes.append(sizes[-1] + ev[word[u - 1]][word[u]])
    return list(map(energy._parts.__getitem__, zip(reversed(sizes), word)))


def flatten_k(pi, energy, colors, k):
    """Map a degree-k flat partition to the degree-one flat partition it spells."""
    if energy.e(colors.ground, colors.ground) != 0:
        raise UsageError("splitting requires eps(ground, ground) = 0")
    validate_flat(pi, energy, colors, k)
    out = [q for p in pi[:-1] for q in gamma_parts(p, energy)]
    zero = Primary(0, colors.ground)
    # only the last part's constituents can end in zero ground parts: a part
    # that is all zero ground parts is the terminal, which the part before
    # it may not be
    while out and out[-1] == zero:
        out.pop()
    out.append(zero)
    result = tuple(out)
    read_degree_one(F1, result, energy, colors)
    return result


def unflatten_k(pi, energy, colors, k, make=DegreeK):
    """Regroup a degree-one flat partition k primary parts at a time.

    Each group becomes ``make(base, word)`` for ``DegreeK`` and
    ``make(base, *word)`` for the other part types.
    """
    if energy.e(colors.ground, colors.ground) != 0:
        raise UsageError("grouping requires eps(ground, ground) = 0")
    require_degree(k)
    sizes, cols = read_degree_one(F1, pi, energy, colors)
    # zero ground parts pad the last group and make up the terminal one; every
    # step is exact (read_degree_one, eps(ground, ground) = 0), so a group is a part
    fill = -(len(pi) - 1) % k + k
    sizes[-1:], cols[-1:] = [0] * fill, [colors.ground] * fill
    out = []
    for i in range(0, len(sizes), k):
        base, word = sizes[i + k - 1], tuple(cols[i : i + k])
        out.append(make(base, word) if make is DegreeK else make(base, *word))
    result = tuple(out)
    validate_flat(result, energy, colors, k)
    return result
