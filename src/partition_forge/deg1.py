"""The degree-one bijection between flat and regular grounded partitions.

A regular partition splits uniquely into the minimal flat-and-regular
skeleton sharing its color word plus a classical residual partition.  The
forward map reads the ground-colored parts of a flat partition off as
columns of that residual: each run of inserted ground parts becomes a batch
of equal column heights, with one weighted column per descent position that
received an insertion.  The inverse recovers the insertions by comparing
the staircase ``delta_g + |mu_k| + k`` against ``nu'_u - u - 1``.

The staircase assumes a minimal energy, every eps in {0, 1}: on any other
energy the maps raise UsageError after the ground-compatibility check, since
they would return partitions of the wrong size or word (``2b 1g 1b 0g`` went
to ``4b 1b 0g`` when eps(b, b) = 2).  ``decompose`` and ``recompose`` hold
for any energy.  ``EnergyMatrix`` checks minimality once, when it is built.

Both maps validate their input first (they are only defined on the stated
families) through ``families.read_degree_one``, the one F1/R1 validator,
which ``validate_member`` calls too.  It returns the size and color lists
the maps read anyway, and it compares sizes inline rather than calling
``core.flat_rel`` or ``core.min_diff_rel`` per pair.  The maps then build
only the tuple they return, with no intermediate partition, and a
partition with nothing to move is its own image: a flat one with no ground
part but the terminal, a regular one with an empty residual.  Either way
the result is a new tuple of ``Primary`` parts, whatever sequence or part
objects the caller passed.

Over the 16,275 F1 and 41,254 R1 catalog members at ``Budget(7, 7)`` and
the members' images (57,529 calls each; the medians of 7 passes in several
runs on a 2-core host with CPython 3.11.7, whose speed drifts between
runs), ``read_degree_one`` takes 2.3-2.8 us per call, against 7.4-9.9 us
with a type check per part and a predicate call per pair; ``omega`` takes
8.6-9.9 us and ``omega_inv`` 10-12.5 us, validation included.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Primary, UsageError, flat_sizes, ground_delta
from .families import F1, R1, read_degree_one

# the maps build each part as ``_new(Primary, (size, color))``, skipping the
# namedtuple's Python-level constructor
_new = tuple.__new__


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


def _need_minimal(energy):
    if not energy.minimal:
        raise UsageError("the degree-one maps need a minimal energy, every eps in {0, 1}")


def omega(pi, energy, colors):
    """Map a flat grounded partition to the regular one with the same word and size."""
    ground_delta(energy, colors)
    _need_minimal(energy)
    sizes, cols = read_degree_one(F1, pi, energy, colors)
    g = colors.ground
    s = len(cols) - cols.count(g)  # the colored parts
    # no ground part to move: pi is its own image.  This return carries
    # load: the loop below assumes a colored part, so without it the trivial
    # partition 0g (s = 0, one entry in heights) would raise IndexError
    if s == len(cols) - 1:
        return tuple([_new(Primary, p) for p in zip(sizes, cols)])
    ev = energy.values

    # Right to left: the non-ground word, its skeleton sizes, and the
    # residual's columns counted by height.  Each ground part lengthens the
    # run of insertions before the next colored part to its left; the
    # terminal's run, to the right of every colored part, is never read.  A
    # descent (eps = 0 to the previous color; position 0 is never one) keeps
    # its column only if an insertion happened there, and then weights one
    # of its columns by k.  ``kept`` counts the kept positions k..s-1, the
    # common height of the columns inserted at k.
    word = [0] * s
    skeleton = [0] * s
    heights = [0] * (s + 1)
    k = s
    kept = acc = gap = 0
    below = g
    for c in reversed(cols):
        if c == g:
            gap += 1
            continue
        step = ev[c][below]
        if k < s:  # c ends the run before word[k] = below
            if step:
                kept += 1
                heights[kept] += gap
            elif gap:
                kept += 1
                heights[kept] += gap - 1
                heights[kept + k] += 1
        k -= 1
        acc += step
        word[k] = below = c
        skeleton[k] = acc
        gap = 0
    kept += 1
    heights[kept] += gap

    # the residual is the conjugate of the columns: its entry k counts the
    # columns above height k
    nu = 0
    for k in range(s - 1, -1, -1):
        nu += heights[k + 1]
        skeleton[k] += nu
    skeleton.append(0)  # the terminal
    word.append(g)
    return tuple([_new(Primary, p) for p in zip(skeleton, word)])


def omega_inv(pi, energy, colors):
    """Map a regular grounded partition back to its flat preimage."""
    dg = ground_delta(energy, colors)
    _need_minimal(energy)
    sizes, cols = read_degree_one(R1, pi, energy, colors)
    g = colors.ground
    s = len(cols) - 1
    ev = energy.values
    # Right to left: the skeleton sizes, and the conjugate nu' of the
    # residual nu_k = sizes[k] - skeleton[k].  The minimal-difference check
    # proved nu weakly decreasing and non-negative, so nu'_u = k + 1 for
    # nu_(k+1) <= u < nu_k.
    skeleton = [0] * s
    nu_prime = []
    acc = low = 0
    below = g
    for k in range(s - 1, -1, -1):
        c = cols[k]
        acc += ev[c][below]
        below = c
        skeleton[k] = acc
        nu = sizes[k] - acc
        if nu > low:
            nu_prime += [k + 1] * (nu - low)
            low = nu
    if not nu_prime:  # an empty residual: pi is its own skeleton and preimage
        return tuple([_new(Primary, p) for p in zip(sizes, cols)])
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
    # reversed, so each part lands left of the smaller ones in its slot
    inserted.sort(reverse=True)
    lifted.append(0)  # the terminal
    parts = [_new(Primary, p) for p in zip(lifted, cols)]
    for slot, neg in inserted:
        parts.insert(slot, _new(Primary, (-neg, g)))
    return tuple(parts)
