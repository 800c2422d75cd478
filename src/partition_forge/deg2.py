"""Degree-two machinery: flat splitting and merging, the parity embedding of
mixed partitions into secondary regular ones, ground stripping, and the
count-level verification across all six degree-two families.

Splitting and merging are the degree-k maps of ``degk`` at k = 2: a
secondary part is a flat part of degree two whose halves are its two
primary constituents, and merging builds ``Secondary`` parts.

The chain runs F2 -> F1 -> R1 -> O -> E -> R2.  Every arrow except O -> E is
an explicit bijection here; that one link is verified by exhaustive counting
(the underlying algorithm belongs to a companion construction and is out of
scope), so the composite is bijective except where documented.  R1 <-> O+
(``strip_ground``, ``add_ground``) is one only on energies without negative
entries: on ``((0,-1,1),(0,0,1),(0,0,0))`` R1 holds ``0a 1b 0g``, whose
sizes rise, and ``strip_ground`` rejects it.
"""

from __future__ import annotations

from .core import (
    InvalidPartitionError,
    Primary,
    Secondary,
    ground_delta,
    secondary_size,
)
from .degk import flatten_k, unflatten_k
from .families import size_counts, validate_member


def split_flat2(pi, energy, colors):
    """Split each secondary part of a flat partition into its two halves."""
    return flatten_k(pi, energy, colors, 2)


def merge_flat1(pi, energy, colors):
    """Pair consecutive primary parts into secondary ones, padding an odd tail."""
    return unflatten_k(pi, energy, colors, 2, Secondary)


def embed_part(p, energy, colors):
    """Size-preserving embedding of one mixed part into the secondary parts.

    A primary part picks up the ground color on the side dictated by its
    size parity; a secondary part over the non-ground colors passes through
    unchanged.
    """
    g = colors.ground
    if isinstance(p, Secondary):
        if g in (p.left, p.right):
            raise InvalidPartitionError("secondary part %r already carries the ground" % (p,))
        return p
    rho = 1 - ground_delta(energy, colors)
    if p.size % 2 == rho % 2:
        return Secondary((p.size - rho) // 2, p.color, g)
    return Secondary((p.size - (1 - rho)) // 2, g, p.color)


def rmap(pi, energy, colors):
    """Embed a mixed partition into the secondary regular family.

    Applies the part embedding throughout and appends the terminal ground
    pair.
    """
    validate_member("E+", pi, energy, colors)
    g = colors.ground
    result = tuple(embed_part(p, energy, colors) for p in pi) + (Secondary(0, g, g),)
    validate_member("R2", result, energy, colors)
    return result


def rmap_inv(pi, energy, colors):
    """Strip the ground color back off the secondary parts that carry it."""
    ground_delta(energy, colors)
    validate_member("R2", pi, energy, colors)
    g = colors.ground
    # R2 validation rejected the ground pair, so a part that carries the
    # ground carries one other color, which its primary part keeps
    result = tuple(p if g not in (p.left, p.right) else
                   Primary(secondary_size(p, energy), p.left if p.right == g else p.right)
                   for p in pi[:-1])
    validate_member("E+", result, energy, colors)
    return result


def strip_ground(pi, energy, colors):
    """Drop the terminal ground part of a regular partition."""
    validate_member("R1", pi, energy, colors)
    out = pi[:-1]
    validate_member("O+", out, energy, colors)
    return out


def add_ground(pi, energy, colors):
    """Append the terminal ground part to a partition on the upper half line."""
    validate_member("O+", pi, energy, colors)
    out = pi + (Primary(0, colors.ground),)
    validate_member("R1", out, energy, colors)
    return out


# (column label, family tag) of the six degree-two families, in table order
FLATREG2_FAMILIES = (("F2", "F2"), ("F1", "F1"), ("R1", "R1"), ("O", "O+"), ("E", "E+"),
                     ("R2", "R2"))


def flatreg2_table(energy, colors, word, max_size):
    """Count all six degree-two families at every size 0..max_size of one word.

    Each family is walked once, by ``size_counts`` at ``max_size`` (the
    budget ``count_by_word`` uses there).  Row n is the ``verify_flatreg2``
    record of the cell (word, n).
    """
    word = tuple(word)
    counts = {label: size_counts(tag, energy, colors, word, max_size)
              for label, tag in FLATREG2_FAMILIES}
    rows = []
    for n in range(max_size + 1):
        row = {label: sizes[n] for label, sizes in counts.items()}
        rows.append({"word": word, "n": n, "counts": row, "all_equal": len(set(row.values())) == 1})
    return rows


def verify_flatreg2(energy, colors, word, n):
    """Count all six degree-two families at one (word, size) cell."""
    return flatreg2_table(energy, colors, word, n)[-1]
