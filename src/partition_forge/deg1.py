"""The degree-one bijection between flat and regular grounded partitions.

A regular partition splits uniquely into the minimal flat-and-regular
skeleton sharing its color word plus a classical residual partition.  The
forward map reads the ground-colored parts of a flat partition off as
columns of that residual, scanning right to left: the run of ground parts at
the j-th kept position becomes plain columns of height j, and a descent
position k that received an insertion, kept as the j-th, weights one of its
columns to height j + k.

The inverse replays that scan.  The R1 surplus of part k over part k + 1
counts the residual's columns of height k + 1, and a non-descent opens as
many ground parts as there are columns at its height.  Take a descent k
with ``kept`` positions kept to its right.  Had it received no insertion,
no plain column still to come would reach above kept + k, since only k - 1
positions and the leftmost run are left, and neither would the weighted
column of a descent to its left, since the kept count grows by at most one
per position.  The weighted columns of the descents to its right were used
up when they were read.  So an unexplained column of height kept + 1 + k
can only be this descent's weighted column: the descent inserted exactly
when there is one.

The scan assumes a minimal energy, every eps in {0, 1}: on any other
energy the maps raise UsageError after the ground-compatibility check, since
they would return partitions of the wrong size or word (``2b 1g 1b 0g`` went
to ``4b 1b 0g`` when eps(b, b) = 2).  ``decompose`` and ``recompose`` hold
for any energy.  ``EnergyMatrix`` checks minimality once, when it is built.

Both maps validate their input first (they are only defined on the stated
families) through ``families.read_degree_one``, the one F1/R1 validator,
which ``validate_member`` calls too.  It returns the size and color lists
the maps read anyway, and it compares sizes inline rather than calling
``core.flat_rel`` or ``core.min_diff_rel`` per pair.  The maps then build
only the tuple they return, with no intermediate partition, and a flat
partition with no ground part but the terminal is its own image.  The
result is always a new tuple of ``Primary`` parts, whatever sequence or part
objects the caller passed.  The parts come from the energy's part table
(``EnergyMatrix._parts``), as do ``decompose``'s skeleton and
``degk.gamma_parts``' constituents, so each part is built once per energy.

Over the 16,275 F1 and 41,254 R1 catalog members at ``Budget(7, 7)`` (the
medians of 7 passes in 3 runs on a 2-core host with CPython 3.11.7),
``read_degree_one`` takes 1.4-1.6 us per call, ``omega`` 3.7-3.8 us on the
F1 members and ``omega_inv`` 4.8-4.9 us on the R1 members, validation
included.  Before the replayed scan and the part table they took 4.7-5.3 us
and 7.5-7.9 us.
"""

from __future__ import annotations

from .core import Primary, UsageError, flat_sizes, ground_delta
from .families import F1, R1, read_degree_one


def decompose(pi, energy, colors):
    """Split a regular partition into (minimal skeleton, residual sizes)."""
    sizes, cols = read_degree_one(R1, pi, energy, colors)
    skeleton = flat_sizes(cols, energy, colors)
    mu = tuple(map(energy._parts.__getitem__, zip(skeleton, cols)))
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
    # partition 0g (s = 0, one entry in rise) would raise IndexError
    parts = energy._parts
    if s == len(cols) - 1:
        return tuple(map(parts.__getitem__, zip(sizes, cols)))
    ev = energy.values

    # Right to left: the non-ground word, and the rise of each of its parts
    # over the next, rise[k + 1] = eps(word[k], word[k + 1]) + nu_k -
    # nu_(k+1), where nu_k - nu_(k+1) counts the residual's columns of
    # height k + 1.  Each ground part lengthens the run of insertions before
    # the next colored part to its left; the terminal's run, to the right of
    # every colored part, is never read.  A descent (eps = 0 to the previous
    # color; position 0 is never one) keeps its column only if an insertion
    # happened there, and then weights one of its columns by k.  ``kept``
    # counts the kept positions k..s-1, the common height of the columns
    # inserted at k.
    word = [0] * s
    rise = [0] * (s + 1)
    k = s
    kept = gap = 0
    below = g
    for c in reversed(cols):
        if c == g:
            gap += 1
            continue
        step = ev[c][below]
        if k < s:  # c ends the run before word[k] = below
            if step:
                kept += 1
                rise[kept] += gap
            elif gap:
                kept += 1
                rise[kept] += gap - 1
                rise[kept + k] += 1
        rise[k] += step
        k -= 1
        word[k] = below = c
        gap = 0
    rise[kept + 1] += gap

    # the sizes are the suffix sums of the rises, built right to left
    out = [parts[0, g]]
    size = 0
    for k in range(s - 1, -1, -1):
        size += rise[k + 1]
        out.append(parts[size, word[k]])
    out.reverse()
    return tuple(out)


def omega_inv(pi, energy, colors):
    """Map a regular grounded partition back to its flat preimage."""
    ground_delta(energy, colors)
    _need_minimal(energy)
    sizes, cols = read_degree_one(R1, pi, energy, colors)
    g = colors.ground
    s = len(cols) - 1
    ev = energy.values
    parts = energy._parts
    # heights[k + 1] = nu_k - nu_(k+1) counts the residual's columns of
    # height k + 1: it is the R1 surplus of part k over part k + 1
    heights = [0] + [sizes[k] - sizes[k + 1] - ev[cols[k]][cols[k + 1]] for k in range(s)]

    # Replay omega's scan right to left, laying the preimage out reversed
    # with its sizes as suffix sums of eps.  ``kept`` counts the kept
    # positions so far; a descent at k keeps its position exactly when a
    # column of height kept + 1 + k is still unexplained, and uses it up.
    out = [parts[0, g]]
    kept = acc = 0
    below = g
    for k in range(s - 1, -1, -1):
        c = cols[k]
        acc += ev[c][below]
        out.append(parts[acc, c])
        below = c
        if not k:  # the leftmost run
            gap = heights[kept + 1]
        elif ev[cols[k - 1]][c]:
            kept += 1
            gap = heights[kept]
        elif heights[kept + 1 + k]:
            kept += 1
            heights[kept + k] -= 1
            gap = heights[kept] + 1
        else:
            continue
        if gap:
            acc += ev[g][c]
            out += [parts[acc, g]] * gap
            below = g
    out.reverse()
    return tuple(out)
