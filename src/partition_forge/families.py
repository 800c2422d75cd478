"""Exhaustive, budgeted enumeration of every partition family.

The generators walk the family definitions directly and serve as the
independent oracle layer: every bijection and identity in the package is
checked against the lists produced here.  All walks are finite under a
budget (total size cap, part-count cap, optional color-word filter).

One driver, ``_walk``, does every walk: a depth-first search kept on an
explicit stack of child generators, so no budget can overflow the Python
stack.  A family supplies only its successor rule: ``children(state)``
yields ``(part, next_state, keep)`` for every admissible next part, where
``keep`` says whether the path ending in that part is emitted.  There are
three rules:

- flat (F1, F2, Fk and both character routes): one rule for every degree
  k.  A flat partition is a grounded sequence of k-letter color words
  whose sizes the energy forces, so ``flat_walk`` runs right to left,
  prepending words and building each part as it is reached: primary parts
  at k = 1, secondary parts for F2, degree-k parts for Fk;
- half line (O+, O-, E+, E- and the body of R1): non-ground parts on one
  side of rho = 1 - delta_g, walked left to right over the admissible next
  sizes with remaining-size pruning.  O is E's primary branch with a gap of
  at least eps where E needs eps + 1, and no secondary parts;
- R2: secondary parts over every color pair but the ground pair, left to
  right, pruned by exact tail tables computed once per call.  For each
  pair p = (d, d') and tail length j, ``need[j][p]`` is the least half a
  part of p can have and still be followed by j more parts and the
  terminal: eps(d', g) at j = 0, then the least need[j-1][q] + gap(p, q)
  over the next pair q, where gap is the drop in half the relation
  requires.  ``least[j]`` bounds the charge of those j parts from below:
  the sum over their positions of the least charge any pair can have
  there.  A child (m, p) is generated only if some j within the part cap
  has m >= need[j][p] and its charge plus least[j] inside the budget.  The
  tables assume no signs, since a negative energy lets halves rise and a
  transform's shifts can make charges negative.  On the catalog and
  shipped energies the walk generates one child per member.

Each walk visits a member once, so no deduplication is needed.
``walk_members`` returns the members in walk order, for callers that only
count them.  ``members`` returns the canonical order of ``canonical_key``:
by length, then the part sizes, then the color sequence, then the
partition tuple itself.  The last component breaks the ties, which occur
only in E+ and E-, where primary and secondary parts can group the same
colors differently (``5a 2ba`` and ``5ab 2a`` on the strict energy).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from .core import (
    DegreeK,
    InvalidPartitionError,
    Primary,
    Secondary,
    UsageError,
    delta_exception,
    ground_delta,
    min_diff_rel,
    mixed_rel,
    part_color_seq,
    part_size,
    partition_size,
    secondary_regular_rel,
)

F1, R1, F2, R2 = "F1", "R1", "F2", "R2"
O_PLUS, O_MINUS, E_PLUS, E_MINUS = "O+", "O-", "E+", "E-"
FK = "Fk"
FAMILY_TAGS = (F1, R1, F2, R2, O_PLUS, O_MINUS, E_PLUS, E_MINUS, FK)


@dataclass(frozen=True)
class Budget:
    """Finite enumeration window: total-size cap, length cap, optional word."""

    max_size: int
    max_parts: int
    word: tuple = None

    def __post_init__(self):
        if self.max_size < 0:
            raise UsageError("max_size must be non-negative")
        if self.max_parts < 1:
            raise UsageError("max_parts must be positive")
        if self.word is not None:
            object.__setattr__(self, "word", tuple(self.word))


def canonical_key(pi, energy):
    sizes = tuple(part_size(p, energy) for p in pi)
    cols = tuple(c for p in pi for c in part_color_seq(p))
    return (len(pi), sizes, cols, pi)


def _walk(children, root, budget):
    """Every kept path of a depth-first walk from ``root``, as a tuple of parts.

    The empty path is kept when the budget has no word to spell; no path
    grows past the part cap.
    """
    if not budget.word:
        yield ()
    max_parts = budget.max_parts
    path = []
    stack = [children(root)]  # stack[i] yields the successors of path[:i]
    while stack:
        for part, state, keep in stack[-1]:
            path.append(part)
            if keep:
                yield tuple(path)
            if len(path) < max_parts:
                stack.append(children(state))
            else:
                path.pop()
            break
        else:
            stack.pop()
            if path:
                path.pop()


# ---------------------------------------------------------------------------
# flat rule (F1, F2, Fk and the character enumerations)


def flat_walk(energy, colors, budget, degree=1, make=Primary, transform=None, stall_limit=None):
    """Every flat grounded partition of degree-k parts under a budget, unsorted.

    A part is a word w of k colors with a size.  The energy between words
    x and y is ``head(x) + k*eps(x_k, y_1) + tail(y)``, where head(w) sums
    u*eps(w_u, w_u+1) and tail(w) sums (k-u)*eps(w_u, w_u+1), so a part's
    size is forced by the part to its right.  The part is built once, when
    the walk reaches it, as ``make(base, *w)`` (``make(base, w)`` for
    ``DegreeK``) with base ``(size - head(w)) / k``: ``Primary`` at degree
    one, ``Secondary`` at degree two.  It is charged its size, or under a
    ``transform`` the scale times its size plus the shifts of its word.
    ``stall_limit`` bounds runs of zero-charge parts and raises
    ``UsageError`` when exceeded, for walks whose termination relies on the
    charge rather than the length cap.
    """
    k, n, g = degree, colors.n, colors.ground
    e = energy.values
    word = budget.word
    wlen = len(word) if word is not None else 0
    max_size = budget.max_size
    sc, sh = (transform.scale, transform.shifts) if transform else (1, (0,) * n)
    spread = (lambda w: (w,)) if make is DegreeK else tuple
    ground = (g,) * k
    below = e[g][g] * k * (k - 1) // 2  # the terminal's size (zero) plus its tail
    # head(w) + tail(w) is k times the energy inside w, so every base is
    # integral when the terminal's is
    if below % k:
        raise UsageError("eps(ground, ground) = %d: a size does not fit a degree-%d part "
                         "(wrong parity); energy unsuitable for flat enumeration" % (e[g][g], k))
    # every word in product order, grown one color at a time, with its head
    # and the energy inside it
    table = [((c,), 0, 0) for c in range(n)]
    for u in range(1, k):
        table = [(w + (c,), head + u * e[w[-1]][c], inside + e[w[-1]][c])
                 for w, head, inside in table for c in range(n)]
    # per word: its head, tail, charge shift, word letters, the fields of
    # its part after the base, and its first and last colors
    words = [(head, k * inside - head, sum(map(sh.__getitem__, w)), tuple(filter(g.__ne__, w)),
              spread(w), w[0], w[-1]) for w, head, inside in table]
    rows = [None] * n

    def build(d):
        # the words above a part whose word starts with d, each led by what
        # it adds to that part's size plus tail
        rows[d] = [(head + k * e[last][d], head, tail, shift, letters, fields, w0)
                   for head, tail, shift, letters, fields, w0, last in words]
        return rows[d]

    # the root's row, last: a zero-size ground word would duplicate the terminal
    rows.append(list(build(g)))
    i = g * sum(n ** j for j in range(k))  # the ground word's place
    if rows[g][i][0] + below == 0:
        del rows[-1][i]

    def children(state):
        # the first color of the part to the right (-1 for the terminal),
        # its size plus tail, the budget spent, the word letters consumed
        # from the right, and the current run of zero-charge parts
        d, below, total, consumed, zrun = state
        row = rows[d]
        for lift, head, tail, shift, letters, fields, w0 in row if row is not None else build(d):
            size = lift + below
            if size < 0:
                raise UsageError("negative part size; energy unsuitable for flat enumeration")
            charge = sc * size + shift
            if charge < 0:
                raise UsageError("negative transformed degree in flat enumeration")
            if total + charge > max_size:
                continue
            ncons = consumed
            if word is not None and letters:
                ncons += len(letters)
                if ncons > wlen or word[wlen - ncons : wlen - consumed] != letters:
                    continue
            nz = zrun + 1 if charge == 0 else 0
            if stall_limit is not None and nz > stall_limit:
                raise UsageError("flat walk stalled on zero-cost parts")
            yield (make((size - head) // k, *fields), (w0, size + tail, total + charge, ncons, nz),
                   word is None or ncons == wlen)

    term = (make(0, *spread(ground)),)
    return [pi[::-1] + term for pi in _walk(children, (-1, below, 0, 0, 0), budget)]


# ---------------------------------------------------------------------------
# half-line rule (O+, O-, E+, E- and the body of R1)


def _half_line(energy, colors, budget, plus=True, secondary=False, transform=None):
    """Non-ground parts on one half line: primary parts, and with
    ``secondary`` also secondary parts.

    Upward (``plus``) every part lies at or above rho = 1 - delta_g, a
    secondary part by its lower half.  Downward every part lies at or below
    rho, a secondary part by its upper half; sizes may be negative, the
    budget is read as |total size| <= max_size, and the energy must be
    non-negative so that sizes weakly decrease.
    """
    rho = 1 - ground_delta(energy, colors)
    if not plus:
        if transform is not None:
            raise UsageError("transforms are not supported for half-line-down enumeration")
        if any(v < 0 for row in energy.values for v in row):
            raise UsageError("half-line-down enumeration needs a non-negative energy")
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    ev = energy.values
    max_size = budget.max_size
    non_ground = colors.non_ground
    pairs = tuple(product(non_ground, repeat=2))
    gap = 1 if secondary else 0  # E's primary parts differ by more than eps, O's by at least eps

    def children(state):
        prev, total, widx = state
        for d in non_ground if word is None else word[widx : widx + 1]:
            if plus:
                lo, hi = rho, (max_size - total - sh[d]) // sc
            else:
                # sizes are weakly decreasing, so a too-negative total never recovers
                lo, hi = -max_size - total, rho
            if prev is None:
                pass
            elif type(prev) is Primary:
                hi = min(hi, prev.size - ev[prev.color][d] - gap)
            else:
                hi = min(hi, 2 * prev.half - ev[prev.right][d] - 1)
            spelt = word is None or widx + 1 == wlen
            for k in range(lo, hi + 1):
                charge = sc * k + sh[d]
                if plus and charge < 0:
                    raise UsageError("negative transformed degree in enumeration")
                part = Primary(k, d)
                t = total + charge
                yield part, (part, t, widx + 1), spelt and (plus or -max_size <= t <= max_size)
        if not secondary:
            return
        if word is None:
            sec = pairs
        else:
            sec = (word[widx : widx + 2],) if widx + 2 <= wlen else ()
        for d, dp in sec:
            edd = ev[d][dp]
            if plus:
                lo = rho
                hi = ((max_size - total - sh[d] - sh[dp]) // sc - edd) // 2
            else:
                lo = (-max_size - total - edd + 1) // 2
                hi = rho - edd
            if prev is None:
                pass
            elif type(prev) is Primary:
                hi = min(hi, (prev.size - ev[prev.color][d] - 2 * edd) // 2)
            else:
                hi = min(hi, prev.half - ev[prev.right][d] - edd)
            spelt = word is None or widx + 2 == wlen
            for m in range(lo, hi + 1):
                charge = sc * (2 * m + edd) + sh[d] + sh[dp]
                if plus and charge < 0:
                    raise UsageError("negative transformed degree in enumeration")
                part = Secondary(m, d, dp)
                t = total + charge
                yield part, (part, t, widx + 2), spelt and (plus or -max_size <= t <= max_size)

    return _walk(children, (None, 0, 0), budget)


# ---------------------------------------------------------------------------
# R2 rule


def _r2_members(energy, colors, budget, transform=None):
    """Secondary regular partitions: all color pairs but the ground pair."""
    g = colors.ground
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    e = energy.e
    # a one-color system has no pairs, so only the terminal part is left
    pairs = [(d, dp) for d, dp in product(range(colors.n), repeat=2) if (d, dp) != (g, g)]
    labels = [tuple(c for c in pair if c != g) for pair in pairs]
    eps = [e(d, dp) for d, dp in pairs]
    base = [sh[d] + sh[dp] for d, dp in pairs]
    # gap[p][q]: the least drop in half from a part of pair p to one of pair q
    gap = [[e(dp, d) + e(d, dq) + delta_exception(energy, colors, c, dp, d, dq)
            for d, dq in pairs] for c, dp in pairs]
    max_parts, max_size = budget.max_parts, budget.max_size
    span = range(len(pairs))

    # Exact tail tables.  need[p] is the least half of a part of pair p that
    # j more parts and the terminal can follow; least bounds the charge of
    # those j parts from below.  fronts[j][p] keeps the pairs (need, least)
    # over tail lengths up to j that no other length beats on both, by
    # rising need.
    need = last = [e(dp, g) for _, dp in pairs]  # the terminal part's relation
    least = 0
    front = [((need[p], 0),) for p in span]
    fronts = [front]
    for _ in range(1, max_parts):
        least += min((sc * (2 * need[q] + eps[q]) + base[q] for q in span), default=0)
        need = [min(need[q] + gap[p][q] for q in span) for p in span]
        front = [_pareto_add(front[p], need[p], least) for p in span]
        fronts.append(front)

    def children(state):
        prev, total, widx, depth = state
        room = max_size - total
        for p in span:
            nw = widx
            if word is not None:
                nw = widx + len(labels[p])
                if word[widx:nw] != labels[p]:
                    continue
            slack = max_parts - depth - 1
            if word is not None:
                slack = min(slack, wlen - nw)  # every part spells a letter
            top = None if prev is None else prev[0] - gap[prev[1]][p]
            spelt = word is None or nw == wlen
            d, dp = pairs[p]
            options = fronts[slack][p]
            # the halves m with some tail length whose need m meets and whose
            # least charge the budget still covers
            for f, (lo, tail) in enumerate(options):
                hi = ((room - tail - base[p]) // sc - eps[p]) // 2
                if f + 1 < len(options):
                    hi = min(hi, options[f + 1][0] - 1)
                if top is not None:
                    hi = min(hi, top)
                for m in range(lo, hi + 1):
                    t = total + sc * (2 * m + eps[p]) + base[p]
                    yield (Secondary(m, d, dp), ((m, p), t, nw, depth + 1),
                           spelt and m >= last[p] and t <= max_size)

    term = (Secondary(0, g, g),)
    return [pi + term for pi in _walk(children, (None, 0, 0, 0), budget)]


def _pareto_add(front, need, least):
    """A (need, least) front, by rising need and falling least, with one point added."""
    out = []
    for point in sorted(front + ((need, least),)):
        if not out or point[1] < out[-1][1]:
            out.append(point)
    return tuple(out)


# ---------------------------------------------------------------------------
# public interface


def walk_members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete list of family members within a budget, in walk order."""
    if tag in (F1, R1, F2, R2, FK):
        ground_delta(energy, colors)  # grounded families need ground compatibility
    if tag == F1:
        return flat_walk(energy, colors, budget, transform=transform)
    if tag == F2:
        return flat_walk(energy, colors, budget, 2, Secondary, transform)
    if tag == FK:
        require_degree(degree)
        if transform is not None:
            raise UsageError("transforms are not supported for degree-k enumeration")
        return flat_walk(energy, colors, budget, degree, DegreeK)
    if tag == R1:
        term = (Primary(0, colors.ground),)
        return [pi + term for pi in _half_line(energy, colors, budget, transform=transform)]
    if tag == R2:
        return _r2_members(energy, colors, budget, transform=transform)
    if tag in (O_PLUS, O_MINUS, E_PLUS, E_MINUS):
        return list(_half_line(energy, colors, budget, plus=tag in (O_PLUS, E_PLUS),
                               secondary=tag in (E_PLUS, E_MINUS), transform=transform))
    raise UsageError("unknown family tag %r" % (tag,))


def members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete list of family members within a budget, in canonical order."""
    found = walk_members(tag, energy, colors, budget, degree=degree, transform=transform)
    return sorted(found, key=lambda pi: canonical_key(pi, energy))


def size_counts(tag, energy, colors, word, max_size, degree=None):
    """Counter of the sizes of the family members with the given non-ground
    word, from one walk under ``Budget(max_size, len(word) + max_size + 1,
    word)``.  A Counter, since O- and E- sizes can be negative.
    """
    word = tuple(word)
    budget = Budget(max_size=max_size, max_parts=len(word) + max_size + 1, word=word)
    found = walk_members(tag, energy, colors, budget, degree=degree)
    return Counter(partition_size(pi, energy) for pi in found)


def count_by_word(tag, energy, colors, word, n, degree=None):
    """Number of family members with the given non-ground word and size n."""
    return size_counts(tag, energy, colors, word, n, degree)[n]


# ---------------------------------------------------------------------------
# membership validation


def _require(cond, message, *args):
    """Raise InvalidPartitionError unless ``cond``, formatting the message only then."""
    if not cond:
        raise InvalidPartitionError(message % args)


def read_degree_one(tag, pi, energy, colors):
    """Size and color lists of an F1 or R1 member, for ``validate_member``
    and the degree-one maps alike.

    Raises InvalidPartitionError for the first constraint violated, in this
    order: emptiness, primary parts, the terminal part, the part before it,
    R1's ground color, the relation between neighbours.  Parts are read by
    attribute rather than checked by type, which is cheaper per part.
    """
    if not pi:
        raise InvalidPartitionError("grounded partition cannot be empty")
    g = colors.ground
    sizes = []
    cols = []
    try:
        for p in pi:
            sizes.append(p.size)
            cols.append(p.color)
    except AttributeError:
        raise InvalidPartitionError("parts must be primary") from None
    if sizes[-1] != 0 or cols[-1] != g:
        raise InvalidPartitionError("terminal part must be the zero ground part")
    if len(sizes) > 1 and sizes[-2] == 0 and cols[-2] == g:
        raise InvalidPartitionError("part before the terminal cannot be the zero ground part")
    flat = tag == F1
    if not flat and g in cols[:-1]:
        raise InvalidPartitionError("regular partitions avoid the ground color")
    ev = energy.values
    above, c = sizes[0], cols[0]
    for i in range(1, len(sizes)):
        size, d = sizes[i], cols[i]
        # F1 steps down by exactly eps, R1 by at least eps
        surplus = above - size - ev[c][d]
        if surplus < 0 or flat and surplus:
            raise InvalidPartitionError(
                "%s relation fails between %r and %r" % (tag, pi[i - 1], pi[i]))
        above, c = size, d
    return sizes, cols


def require_degree(degree):
    """The degree of a degree-k family, raising UsageError unless it is at least 1."""
    if degree is None or degree < 1:
        raise UsageError("degree-k partitions need degree >= 1, got %s" % (degree,))
    return degree


def validate_flat(pi, energy, colors, k):
    """Raise unless ``pi`` is a flat member of degree k, for F2 and Fk in
    ``validate_member`` and for the degree-k maps alike.

    A part is read through its base (its first field) and its color word:
    primary parts have degree one, secondary parts two.  The messages come
    in the order of ``read_degree_one``'s, with the degree of every part in
    place of the primary check.  x steps to y when base(x) - base(y) is
    eps(last(x), first(y)) plus the energy inside y's word (``flat_rel``).
    """
    require_degree(k)
    if not pi:
        raise InvalidPartitionError("grounded partition cannot be empty")
    try:
        words = [part_color_seq(p) for p in pi]
    except UsageError:  # not a part, so of no degree
        words = [()]
    if any(len(w) != k for w in words):
        raise InvalidPartitionError("parts must have degree %d" % k)
    bases = [p[0] for p in pi]
    ground = (colors.ground,) * k
    if bases[-1] != 0 or words[-1] != ground:
        raise InvalidPartitionError("terminal part must be the zero ground part")
    if len(pi) > 1 and bases[-2] == 0 and words[-2] == ground:
        raise InvalidPartitionError("part before the terminal cannot be the zero ground part")
    ev = energy.values
    for i in range(1, len(pi)):
        w = words[i]
        step = ev[words[i - 1][-1]][w[0]] + sum(ev[c][d] for c, d in zip(w, w[1:]))
        if bases[i - 1] - bases[i] != step:
            raise InvalidPartitionError(
                "F%d relation fails between %r and %r" % (k, pi[i - 1], pi[i]))


def validate_member(tag, pi, energy, colors, degree=None):
    """Raise InvalidPartitionError naming the violated constraint."""
    g = colors.ground
    pi = tuple(pi)
    if tag == F1 or tag == R1:
        read_degree_one(tag, pi, energy, colors)
    elif tag == F2:
        _require(all(isinstance(p, Secondary) for p in pi), "parts must be secondary")
        validate_flat(pi, energy, colors, 2)
    elif tag == FK:
        _require(all(isinstance(p, DegreeK) for p in pi),
                 "parts must have degree %d", require_degree(degree))
        validate_flat(pi, energy, colors, degree)
    elif tag == R2:
        term = Secondary(0, g, g)
        _require(len(pi) >= 1, "grounded partition cannot be empty")
        _require(all(isinstance(p, Secondary) for p in pi), "parts must be secondary")
        _require(pi[-1] == term, "terminal part must be the zero ground part")
        if len(pi) > 1:
            _require(pi[-2] != term, "part before the terminal cannot be the zero ground part")
        _require(all((p.left, p.right) != (g, g) for p in pi[:-1]),
                 "secondary regular partitions avoid the ground color pair")
        for x, y in zip(pi, pi[1:]):
            _require(secondary_regular_rel(x, y, energy, colors),
                     "R2 relation fails between %r and %r", x, y)
    elif tag in (O_PLUS, O_MINUS):
        rho = 1 - ground_delta(energy, colors)
        _require(all(isinstance(p, Primary) and p.color != g for p in pi),
                 "parts must be primary with non-ground colors")
        if tag == O_PLUS:
            _require(all(p.size >= rho for p in pi), "part sizes must be >= %d", rho)
        else:
            _require(all(p.size <= rho for p in pi), "part sizes must be <= %d", rho)
        for x, y in zip(pi, pi[1:]):
            _require(min_diff_rel(x, y, energy), "energy relation fails between %r and %r", x, y)
    elif tag in (E_PLUS, E_MINUS):
        rho = 1 - ground_delta(energy, colors)
        for p in pi:
            _require(isinstance(p, (Primary, Secondary)), "parts must be primary or secondary")
            _require(all(c != g for c in part_color_seq(p)),
                     "parts must avoid the ground color")
            if tag == E_PLUS:
                low = p.size if isinstance(p, Primary) else p.half
                _require(low >= rho, "part %r below the half line", p)
            else:
                top = p.size if isinstance(p, Primary) else p.half + energy.e(p.left, p.right)
                _require(top <= rho, "part %r above the half line", p)
        for x, y in zip(pi, pi[1:]):
            _require(mixed_rel(x, y, energy), "mixed relation fails between %r and %r", x, y)
    else:
        raise UsageError("unknown family tag %r" % (tag,))

