"""The degree-one bijection between flat and regular grounded partitions.

A regular partition splits uniquely into the minimal flat-and-regular
skeleton sharing its color word plus a classical residual partition.  The
forward map reads the ground-colored parts of a flat partition off as
columns of that residual: each run of inserted ground parts becomes a batch
of equal column heights, with one weighted column per descent position that
received an insertion.  The inverse recovers the insertions by comparing
the staircase ``delta_g + |mu_k| + k`` against ``nu'_u - u - 1``.

Both maps validate their input first (they are only defined on the stated
families) through ``families.read_degree_one``, the one F1/R1 validator,
which ``validate_member`` calls too.  It returns the size and color lists
the maps read anyway, and it compares sizes inline rather than calling
``core.flat_rel`` or ``core.min_diff_rel`` per pair: over the 16,275 F1
and 41,254 R1 catalog members at ``Budget(7, 7)`` it takes 2-3 us per
call, against 11-16 us with a type check per part and a predicate call per
pair (2-core host, CPython 3.11.7).
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Primary, UsageError, flat_sizes, ground_delta
from .families import F1, R1, read_degree_one


def decompose(pi, energy, colors):
    """Split a regular partition into (minimal skeleton, residual sizes)."""
    sizes, cols = read_degree_one(R1, pi, energy, colors)
    skeleton = flat_sizes(cols, energy, colors)
    mu = tuple(map(Primary, skeleton, cols))
    nu = tuple(s - m for s, m in zip(sizes[:-1], skeleton))
    return mu, nu


def recompose(dec, energy, colors):
    """Inverse of decompose: add residual sizes back onto the skeleton."""
    mu, nu = dec
    body = mu[:-1]
    nu = tuple(nu)
    if len(nu) != len(body):
        raise UsageError("residual must have one entry per non-terminal part")
    if any(v < 0 for v in nu) or any(a < b for a, b in zip(nu, nu[1:])):
        raise UsageError("residual must be weakly decreasing and non-negative")
    out = tuple(Primary(p.size + v, p.color) for p, v in zip(body, nu)) + (mu[-1],)
    read_degree_one(R1, out, energy, colors)
    return out


def omega(pi, energy, colors):
    """Map a flat grounded partition to the regular one with the same word and size."""
    ground_delta(energy, colors)
    _, cols = read_degree_one(F1, pi, energy, colors)
    g = colors.ground
    word = []  # the non-ground colors
    runs = []  # runs[k]: the ground parts inserted just before word[k]
    run = 0
    for c in cols:  # the terminal ground part only lengthens a run no one reads
        if c == g:
            run += 1
        else:
            word.append(c)
            runs.append(run)
            run = 0
    s = len(word)
    if s == 0:
        return (Primary(0, g),)
    ev = energy.values

    # Right to left: the skeleton sizes, and the residual's columns counted by
    # height.  A descent (eps = 0 to the previous color; position 0 is never
    # one) keeps its column only if an insertion happened there, and then
    # weights one of its columns by k.  ``kept`` counts the kept positions
    # k..s-1, the common height of the columns inserted at k.
    skeleton = [0] * s
    heights = [0] * (s + 1)
    kept = acc = 0
    below = g
    for k in range(s - 1, -1, -1):
        c = word[k]
        acc += ev[c][below]
        skeleton[k] = acc
        below = c
        gap = runs[k]
        if k and ev[word[k - 1]][c] == 0:
            if gap:
                kept += 1
                heights[kept] += gap - 1
                heights[kept + k] += 1
        else:
            kept += 1
            heights[kept] += gap

    # nu = the conjugate of the columns: nu[k] counts the columns above height k
    out = [None] * s
    nu = 0
    for k in range(s - 1, -1, -1):
        nu += heights[k + 1]
        out[k] = Primary(skeleton[k] + nu, word[k])
    out.append(Primary(0, g))
    return tuple(out)


def omega_inv(pi, energy, colors):
    """Map a regular grounded partition back to its flat preimage."""
    dg = ground_delta(energy, colors)
    sizes, cols = read_degree_one(R1, pi, energy, colors)
    g = colors.ground
    s = len(cols) - 1
    if s == 0:
        return (Primary(0, g),)
    ev = energy.values
    skeleton = [0] * s
    nu = [0] * s
    acc = 0
    below = g
    for k in range(s - 1, -1, -1):
        c = cols[k]
        acc += ev[c][below]
        below = c
        skeleton[k] = acc
        nu[k] = sizes[k] - acc
    # the minimal-difference check proved nu weakly decreasing and
    # non-negative, so its conjugate is a count
    nu_prime = []
    j = s
    for u in range(nu[0]):
        while nu[j - 1] <= u:
            j -= 1
        nu_prime.append(j)
    sp = len(nu_prime)

    # with stairs[k] = delta_g + |mu_k| + k (non-decreasing) against
    # thresholds[u] = nu'_u - u - 1 (decreasing), the counting comparisons
    # reduce to two-pointer scans
    lifted = []
    j = sp
    for k in range(s):
        stair = dg + skeleton[k] + k
        while j > 0 and nu_prime[j - 1] - j < stair:
            j -= 1
        lifted.append(skeleton[k] + j)
    ascending = lifted[::-1]
    inserted = []  # (slot, -size) of each recovered ground part
    i = s
    for u in range(sp):
        threshold = nu_prime[u] - u - 1
        while i > 0 and dg + skeleton[i - 1] + i - 1 > threshold:
            i -= 1
        x = nu_prime[u] - i
        # the recovered ground part slots after every lifted part of size
        # at least x + 1 - delta_g, where flatness holds
        inserted.append((s - bisect_left(ascending, x + 1 - dg), -x))
    inserted.sort()
    parts = []
    j = 0
    for k in range(s + 1):
        while j < sp and inserted[j][0] == k:
            parts.append(Primary(-inserted[j][1], g))
            j += 1
        if k < s:
            parts.append(Primary(lifted[k], cols[k]))
    parts.append(Primary(0, g))
    return tuple(parts)
