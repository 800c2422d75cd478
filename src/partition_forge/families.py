"""Exhaustive, budgeted enumeration of every partition family.

The generators walk the family definitions directly and serve as the
independent oracle layer: every bijection and identity in the package is
checked against the lists produced here.  All walks are finite under a
budget (total size cap, part-count cap, optional color-word filter).

A family supplies only its successor rule, a ``_Rule``: ``children(state)``
yields ``(part, next_state, keep)`` for every admissible next part, where
``keep`` says whether the path ending in that part is a member (with the
terminal, if the family has one).  A rule must be a pure function of its
state, as both rules are.  Two functions read the rules, both on explicit
stacks, so no budget can overflow the Python stack, and both expand each
state once:

- ``_walk``, the member walk (``walk_members``, ``members``, ``flat_walk``),
  lists every kept path under the part cap in depth-first order.  Paths
  meet the same state again and again (a flat part's size is forced by its
  right neighbour), so it keeps, for one call, a dict from each state to
  the list of its successors: the rule runs on a state's first visit and
  the list is replayed on every later one.  The dict holds only the
  distinct states reached, whose number grows polynomially in the budget.
- ``_path_sum`` sums a weight over the members without visiting a path:
  the path model of Kang, Kashiwara, Misra, Miwa, Nakashima and Nakayashiki
  (1992).  One post-order pass gives each state the counts of the weights
  of the kept paths that leave it, from its successors' counts, each part
  weighed once.  A Bn1-Ln character route at rank 3 and order 6 has
  87 states, which the member walk visits 21,120 times.  ``size_counts``
  (so ``count_by_word``, ``verify-deg2`` and ``deg2.flatreg2_table``)
  weighs a part by its size; ``characters.character_lhs`` and the walked
  columns of the named identities by its packed degree and color counts
  (``series._packed_weights``).  It does not apply the part cap, which
  regular states hold themselves; its cycle rule stands in for it on the
  flat rule: a successor back to a state still open is a cycle of parts
  that repeat without end, and the sum is refused when kept paths leave
  it.

A rule that raises partway through a state's successors does so when the
state is first expanded, before either function enters any of them.  There
are two rules:

- flat (F1, F2, Fk and both character routes): one rule for every degree
  k.  A flat partition is a grounded sequence of k-letter color words
  whose sizes the energy forces, so ``_flat_rule`` runs right to left,
  prepending words and building each part when its state is first
  expanded: primary parts at k = 1, secondary parts for F2, degree-k parts
  for Fk.  Its rows of words are sorted by charge, so a node checks its
  row's least size once and stops at the first word over the budget.
  Parts of charge zero can repeat without end, and then only the part cap
  ends the member walk; the path sum meets them as a cycle, on which
  ``characters.character_lhs`` and ``size_counts`` raise;
- regular (R1, O+, O-, E+, E- and R2): ``_regular_rule`` runs left to
  right.  A part is a word w with a base b, of size len(w)*b + inner(w),
  inner(w) the energy inside w.  The words are the non-ground colors for
  R1 and O, those and the non-ground pairs for E, and every pair but the
  ground pair for R2.  ``drops[p][q]`` is the least drop in size from a part of word p
  to the next, of word q: eps(c, d) between primary parts (plus one in E),
  eps(c, d) + eps(d, d') from a primary to a secondary part, eps(l, r) +
  eps(r, d) + 1 back, and eps'_2 = eps_2 + 2 delta between secondary parts
  (``core.epsilon2_prime``).
  R1 and R2 end a path with the drop to their terminal part, O+ and E+ on
  any part at or above the half line len(w)*rho + inner(w), rho = 1 -
  delta_g.  One cached table per walk prunes all four: per count of letters
  still to spell (with no word, of parts still allowed) each word has a
  front of points (need, least, below), one per tail worth taking: a part
  of size need or more can start a tail of charge least, and the point
  serves the sizes up to below, under the next need.  A child is made only
  where a point's need is met and the budget covers its least, so each one
  leads to a member, while the part cap allows the word's tail.  Without a
  word the fronts stop at two equal ones, since all later ones repeat them.
  O- and E- lie at or below len(w)*rho - inner(w), and their budget bounds
  |total size|.

Each walk visits a member once, so no deduplication is needed.
``walk_members`` returns the members in walk order.  ``members`` returns
the canonical order of ``canonical_key``: by length, then the part sizes,
then the color sequence, then the partition tuple itself.  The last
component breaks the ties, which occur only in E+ and E-, where primary
and secondary parts can group the same colors differently (``5a 2ba`` and
``5ab 2a`` on the strict energy).
``canonical_key`` stays the definition of that order; ``members`` sorts on
the same key, built without a dispatch per part occurrence.  A primary
part is its own (size, color) pair, so for F1, R1, O+ and O- the sizes and
colors are the two columns of the partition, ``zip(*pi)``.  The members of
the other families share few distinct parts, so ``members`` takes each
distinct part's size and colors once, from ``part_size`` and
``part_color_seq``, and looks them up per member.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, product
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .core import (
    DegreeK,
    InvalidPartitionError,
    Primary,
    Secondary,
    UsageError,
    epsilon2_prime,
    ground_delta,
    min_diff_rel,
    mixed_rel,
    part_color_seq,
    part_size,
    secondary_regular_rel,
)

F1, R1, F2, R2 = "F1", "R1", "F2", "R2"
O_PLUS, O_MINUS, E_PLUS, E_MINUS = "O+", "O-", "E+", "E-"
FK = "Fk"
FAMILY_TAGS = (F1, R1, F2, R2, O_PLUS, O_MINUS, E_PLUS, E_MINUS, FK)
GROUNDED_TAGS = (F1, R1, F2, R2, FK)  # the families whose members end in a terminal part


@dataclass(frozen=True)
class Budget:
    """Finite enumeration window: total-size cap, length cap, optional word.

    The length cap defaults to ``max_size + len(word) + 1``, or
    ``max_size + 1`` without a word.
    """

    max_size: int
    max_parts: int = None
    word: tuple = None

    def __post_init__(self):
        if self.max_size < 0:
            raise UsageError("max_size must be non-negative")
        if self.word is not None:
            object.__setattr__(self, "word", tuple(self.word))
        if self.max_parts is None:
            object.__setattr__(self, "max_parts", self.max_size + len(self.word or ()) + 1)
        if self.max_parts < 1:
            raise UsageError("max_parts must be positive")


def canonical_key(pi, energy):
    sizes = tuple(part_size(p, energy) for p in pi)
    cols = tuple(c for p in pi for c in part_color_seq(p))
    return (len(pi), sizes, cols, pi)


class _Rule(NamedTuple):
    """A family's walk under one budget: its successor rule, its root state,
    its terminal parts, and whether its paths run right to left."""

    children: object
    root: tuple
    term: tuple
    leftward: bool


def _walk(children, root, budget):
    """Every kept path of a depth-first walk from ``root``, each the tuple
    of its parts, in walk order.

    The empty path is kept when the budget has no word to spell.  No path
    grows past the part cap.  Each state is expanded once: its successors
    are listed on the first visit, each part in a one-part tuple, and the
    list is replayed on every later one, so ``children`` must be a pure
    function of its state.
    """
    if not budget.word:
        yield ()
    max_parts = budget.max_parts

    def expand(state):
        return [((part,), nxt, keep) for part, nxt, keep in children(state)]

    expanded = {root: expand(root)}  # state -> its successors
    paths = [()]  # paths[i] is the path's first i parts
    stack = [iter(expanded[root])]  # stack[i] yields the successors of that path
    while stack:
        for part, state, keep in stack[-1]:
            path = paths[-1] + part
            if keep:
                yield path
            if len(stack) < max_parts:
                row = expanded.get(state)
                if row is None:
                    row = expanded[state] = expand(state)
                stack.append(iter(row))
                paths.append(path)
            break
        else:
            stack.pop()
            paths.pop()


# ---------------------------------------------------------------------------
# flat rule (F1, F2, Fk and the character enumerations)


def flat_walk(energy, colors, budget, degree=1, make=Primary, transform=None):
    """Every flat grounded partition of degree-k parts under a budget, unsorted
    (``_flat_rule``)."""
    return _members(_flat_rule(energy, colors, budget, degree, make, transform), budget)


def _flat_rule(energy, colors, budget, degree=1, make=Primary, transform=None):
    """The flat rule: flat grounded partitions of degree-k parts under a budget.

    A part is a word w of k colors with a size.  The energy between words
    x and y is ``head(x) + k*eps(x_k, y_1) + tail(y)``, where head(w) sums
    u*eps(w_u, w_u+1) and tail(w) sums (k-u)*eps(w_u, w_u+1), so a part's
    size is forced by the part to its right.  The part is built once, when
    its state is first expanded, as ``make(base, *w)`` (``make(base, w)`` for
    ``DegreeK``) with base ``(size - head(w)) / k``: ``Primary`` at degree
    one, ``Secondary`` at degree two.  It is charged its size, or under a
    ``transform`` the scale times its size plus the shifts of its word.
    Zero-charge parts may repeat without end, and then only the part cap
    ends the member walk; ``_path_sum`` meets them as a cycle of states.

    Each row (the words that may precede a given first color) is built when
    a node first needs it and cached per first color for the call.  It is
    sorted once by what a word adds to the charge beyond the share of the
    part to its right, which the row has in common, so a node's scan breaks
    at the first word over the budget.  A negative charge sorts before the
    break and is checked per word; a negative size need not, so a node
    first raises if its row's least lift gives one.
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
    # every word in product order, with its head and the energy inside it;
    # the sums grow one letter at a time (the i-th prefix ends in color
    # i % n) and the words come from product, so no word is copied per letter
    heads = insides = [0] * n
    for u in range(1, k):
        heads = [h + u * x for i, h in enumerate(heads) for x in e[i % n]]
        insides = [s + x for i, s in enumerate(insides) for x in e[i % n]]
    table = zip(product(range(n), repeat=k), heads, insides)
    # per word: its head, tail, charge shift, word letters, the fields of
    # its part after the base, and its first and last colors
    words = [(head, k * inside - head, sum(map(sh.__getitem__, w)), tuple(filter(g.__ne__, w)),
              spread(w), w[0], w[-1]) for w, head, inside in table]
    # the root's row (d = -1) is the ground's without a zero-size ground
    # word, which would duplicate the terminal (and its lift, -below, leaves
    # the least lift harmless)
    i = g * sum(n ** j for j in range(k))  # the ground word's place
    skip = i if words[i][0] + k * e[g][g] + below == 0 else None

    @cache
    def ranked(d):
        # the words above a part whose word starts with d, each with its
        # lift (what it adds to that part's size plus tail), sorted by the
        # charge it adds beyond sc * below; and the least lift
        lifts = [head + k * e[last][g if d < 0 else d] for head, *_, last in words]
        return sorted([(sc * lift + shift, lift, head, tail, letters, fields, w0)
                       for j, (lift, (head, tail, shift, letters, fields, w0, _))
                       in enumerate(zip(lifts, words)) if d >= 0 or j != skip],
                      key=itemgetter(0)), min(lifts)

    new = tuple.__new__

    def children(state):
        # the first color of the part to the right (-1 for the terminal),
        # its size plus tail, the budget spent, and the word letters
        # consumed from the right
        d, below, total, consumed = state
        row, least = ranked(d)
        # a word of negative size may sort past the break, so check the row once
        if below + least < 0:
            raise UsageError("negative part size; energy unsuitable for flat enumeration")
        base = sc * below
        room = max_size - total - base
        for cost, lift, head, tail, letters, fields, w0 in row:
            if cost > room:  # the rest of the row costs more
                break
            charge = cost + base
            if charge < 0:
                raise UsageError("negative transformed degree in flat enumeration")
            ncons = consumed
            if word is not None and letters:
                ncons += len(letters)
                if ncons > wlen or word[wlen - ncons : wlen - consumed] != letters:
                    continue
            size = lift + below
            # a part is the tuple of its base and its fields
            yield (new(make, ((size - head) // k,) + fields), (w0, size + tail, total + charge, ncons),
                   word is None or ncons == wlen)

    return _Rule(children, (-1, below, 0, 0), (make(0, *spread(ground)),), True)


# ---------------------------------------------------------------------------
# regular rule (R1, O+, O-, E+, E- and R2)


@lru_cache(maxsize=256)
def _tail_table(tag, energy, colors, transform, word, max_parts):
    """A regular walk's one cached table, its drops and levels:
    ``levels[left]`` lists, with ``left`` letters or parts left, the next
    part's ``(index, len(w), inner(w), part type, w, charge shift, letters
    or parts used, least size that ends a path, front)`` (module docstring).
    The drop between two secondary parts is ``core.epsilon2_prime``, the
    definition of eps'_2; the table is built once per cached call."""
    g, ng, ev = colors.ground, colors.non_ground, energy.values
    mixed = tag in (E_PLUS, E_MINUS)
    if tag == R2:
        # a one-color system has no pairs, so only the terminal part is left
        words = [w for w in product(range(colors.n), repeat=2) if w != (g, g)]
    else:
        words = [(c,) for c in ng] + (list(product(ng, repeat=2)) if mixed else [])

    def drop(p, q):
        step = ev[p[-1]][q[0]]
        if len(p) == 1:
            return step + (ev[q[0]][q[1]] if len(q) == 2 else mixed)  # E: more than eps
        if len(q) == 1:
            return ev[p[0]][p[1]] + step + 1
        return epsilon2_prime(energy, colors, *p, *q)

    # per word w in walk order: (index, len(w), inner(w), part type, w, letters);
    # the drops to R1's and R2's terminal come last
    rows = tuple((i, len(w), ev[w[0]][w[-1]] * (len(w) - 1), Primary if len(w) == 1 else Secondary,
                  w, tuple(filter(g.__ne__, w))) for i, w in enumerate(words))
    targets = words + {R1: [(g,)], R2: [(g, g)]}.get(tag, [])
    drops = tuple(tuple(drop(p, q) for q in targets) for p in words)
    rho = 1 - ground_delta(energy, colors)
    sc, sh = (transform.scale, transform.shifts) if transform else (1, (0,) * colors.n)
    wlen = len(word) if word is not None else 0
    shifts = [sum(map(sh.__getitem__, w)) for *_, w, _ in rows]
    uses = [len(letters) if word is not None else 1 for *_, letters in rows]

    def allowed(left):
        if word is None:
            return rows if left else ()
        return [r for r in rows if word[wlen - left :][: len(r[-1])] == r[-1]]

    def front(p, left):
        # each tail gives the part's least size (a size of w, on its floor or up)
        # and the least charge after it; by rising need and falling least,
        # each point holds up to the size under the next need
        _, k, inside, *_ = rows[p]
        points = [(ends[p], 0)] if word is None or not left else []
        for q, *_ in allowed(left):
            for need, least, _ in fronts[left - uses[q]][q]:
                size = max(need + drops[p][q], ends[p] if half else -inf)
                points.append((size + (inside - size) % k, least + sc * need + shifts[q]))
        points.sort()
        out = [point for i, point in enumerate(points) if all(point[1] < o[1] for o in points[:i])]
        return tuple((*point, nxt[0] - 1) for point, nxt in zip(out, out[1:] + [(inf,)]))

    if tag in (O_MINUS, E_MINUS):  # a path may end on any part, at or below the half line
        ends = [-inf] * len(rows)
        fronts = [[((None, None, k * rho - inside),) for _, k, inside, *_ in rows]] * (wlen + 1)
    else:  # at or above the half line, or past the drop to the terminal
        half = tag in (O_PLUS, E_PLUS)
        ends = [k * rho + inside if half else d[-1] + (inside - d[-1]) % k
                for (_, k, inside, *_), d in zip(rows, drops)]
        fronts = []  # fronts[left][p]
        while len(fronts) < (wlen + 1 if word is not None else max_parts):
            fronts.append([front(p, len(fronts)) for p in range(len(rows))])
            # with no word, the fronts after two equal ones repeat them; and once
            # a part of negative charge c starts a member of total c + least <= 0,
            # which every budget holds, the walk raises on it with no deeper front
            if word is None and (len(fronts) > 1 and fronts[-1] == fronts[-2] or tag != R2 and any(
                    sc * need + shifts[p] + max(least, 1) <= 0
                    for p, points in enumerate(fronts[-1]) for need, least, _ in points)):
                break
    levels = [[(*r[:5], shifts[r[0]], uses[r[0]], ends[r[0]], fronts[left - uses[r[0]]][r[0]])
               for r in allowed(left) if fronts[left - uses[r[0]]][r[0]]]
              for left in range(len(fronts) + 1 if word is None else wlen + 1)]
    return levels, drops


def _regular_rule(tag, energy, colors, budget, transform=None):
    """The rule of R1, O+, O-, E+, E- or R2 under a budget: one walk over
    part words and their drop table (module docstring)."""
    lower = tag in (O_MINUS, E_MINUS)
    if lower and transform is not None:
        raise UsageError("transforms are not supported for half-line-down enumeration")
    if lower and any(v < 0 for row in energy.values for v in row):
        raise UsageError("half-line-down enumeration needs a non-negative energy")
    word, max_size, max_parts = budget.word, budget.max_size, budget.max_parts
    levels, drops = _tail_table(tag, energy, colors, transform, word,
                                max_parts if word is None and not lower else None)
    sc = transform.scale if transform else 1
    raising = tag in (R1, O_PLUS, E_PLUS)  # R2's sizes may go negative
    new = tuple.__new__

    def children(state):
        # the word and size of the part before (at the root, an infinite
        # size), the budget spent, and the letters or parts left
        prev, above, total, left = state
        room = max_size - total
        for i, k, inside, make, w, shift, used, end, points in levels[min(left, len(levels) - 1)]:
            nleft = left - used
            top = above - drops[prev][i]
            for lo, tail, below in points:
                # the sizes from the need to below whose charge and tail the
                # budget covers; lower sizes weakly decrease, so a too-negative
                # total never recovers
                lo, hi = (-max_size - total, min(below, top)) if lower else (
                    lo, min((room - tail - shift) // sc, below, top))
                first, last = -((inside - lo) // k), (hi - inside) // k
                if first > last:
                    continue
                if raising and sc * (k * first + inside) + shift < 0:
                    raise UsageError("negative %s in enumeration"
                                     % ("transformed degree" if transform else "part size"))
                # a path may end on the part from its end on, within the budget
                cap = ((room - shift) // sc - inside) // k
                for b in range(first, last + 1):
                    size = k * b + inside
                    # a part is the tuple of its base and its colors
                    yield (new(make, (b,) + w), (i, size, total + sc * size + shift, nleft),
                           (word is None or not nleft) and size >= end and b <= cap)

    g = colors.ground
    term = {R1: (Primary(0, g),), R2: (Secondary(0, g, g),)}.get(tag, ())
    return _Rule(children, (0, inf, 0, max_parts if word is None else len(word)), term, False)


# ---------------------------------------------------------------------------
# public interface


def _rule(tag, energy, colors, budget, degree=None, transform=None):
    """The ``_Rule`` of one family under a budget, raising UsageError for a
    family that cannot be walked so."""
    if tag in GROUNDED_TAGS:
        ground_delta(energy, colors)  # grounded families need ground compatibility
    if tag == F1:
        return _flat_rule(energy, colors, budget, transform=transform)
    if tag == F2:
        return _flat_rule(energy, colors, budget, 2, Secondary, transform)
    if tag == FK:
        require_degree(degree)
        if transform is not None:
            raise UsageError("transforms are not supported for degree-k enumeration")
        return _flat_rule(energy, colors, budget, degree, DegreeK)
    if tag in (R1, R2, O_PLUS, O_MINUS, E_PLUS, E_MINUS):
        return _regular_rule(tag, energy, colors, budget, transform)
    raise UsageError("unknown family tag %r" % (tag,))


def _members(rule, budget):
    """The members of one rule's walk, in walk order: each kept path, read
    left to right, then the terminal."""
    paths = _walk(rule.children, rule.root, budget)
    if rule.leftward:
        return [pi[::-1] + rule.term for pi in paths]
    return [pi + rule.term for pi in paths]


def _path_sum(rule, budget, weigh, capped):
    """Counter of the weights of the members of one rule's walk, a member's
    weight the sum of ``weigh`` over its parts, summed over the rule's
    states rather than its paths.

    A depth-first pass on an explicit stack expands each state once, as
    ``_walk`` does, weighing each part once, numbers the states in the
    order first met (so the second pass hashes no state), and lists them in
    post-order.  A second pass gives each state in that order a dict
    ``{sum: count}`` over the kept paths that leave it: per successor in row
    order, the part's own weight if its path is kept, then the weight plus
    each sum of the successor's state.  The earlier part is added on the
    left and a dict is filled in row order, so its keys come in the order
    in which the walk first meets them, and a sum holding a
    ``series._Negative`` keeps the part that the walk keeps.  A state's
    dict is dropped once every row that holds the state has been summed.
    No path is visited twice and no member is built.

    The part cap is not applied: only the rule's own states bound a path.
    A successor whose state is still open in the first pass closes a cycle,
    which carries nothing into the sums.  In the second pass,
    UsageError(capped) is raised if kept paths leave a state that closes a
    cycle, since they repeat without end, so a count is infinite.  The
    empty path is kept when the budget has no word, and the terminal is
    weighed last, as the walk weighs it.
    """
    children = rule.children
    index = {}  # state -> its number, in the order first met
    holders = []  # holders[i]: the rows that hold state i
    closed = []  # closed[i]: whether state i has left the stack
    post = []  # (i, its successors as (weight, number, keep)), in post-order
    cycles = set()  # the numbers of the states met again while open

    def expand(state):
        i = index[state] = len(holders)
        holders.append(0)
        closed.append(False)
        return i, iter([(weigh(part), nxt, keep) for part, nxt, keep in children(state)]), []

    stack = [expand(rule.root)]
    while stack:
        i, rest, row = stack[-1]
        for weight, nxt, keep in rest:
            j = index.get(nxt)
            if j is None:  # first met: enter it
                stack.append(expand(nxt))
                j = len(holders) - 1
                holders[j] = 1
                row.append((weight, j, keep))
                break
            if not closed[j]:
                cycles.add(j)
            holders[j] += 1
            row.append((weight, j, keep))
        else:
            stack.pop()
            closed[i] = True
            post.append((i, row))
    sums = [None] * len(holders)  # sums[i]: the sums of the kept paths leaving state i
    for i, row in post:
        out = {}
        get = out.get
        for weight, j, keep in row:
            if keep:
                out[weight] = get(weight, 0) + 1
            sub = sums[j]
            if sub is None:  # a cycle
                continue
            for total, n in sub.items():
                total = weight + total
                out[total] = get(total, 0) + n
            holders[j] -= 1
            if not holders[j]:  # no row left to read it
                sums[j] = None
        if out and i in cycles:
            raise UsageError(capped)
        sums[i] = out
    found = sums[0]  # the root's
    if not budget.word:  # the empty path, first in walk order
        found = {0: 0, **found}
        found[0] += 1
    shift = sum(map(weigh, rule.term))
    return Counter({total + shift: n for total, n in found.items()} if shift else found)


def walk_members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete list of family members within a budget, in walk order."""
    return _members(_rule(tag, energy, colors, budget, degree, transform), budget)


def _primary_key(pi):
    """``canonical_key`` of a partition into primary parts, each of which is
    its own (size, color) pair."""
    sizes, cols = zip(*pi) if pi else ((), ())
    return len(pi), sizes, cols, pi


def members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete list of family members within a budget, in canonical order."""
    found = walk_members(tag, energy, colors, budget, degree=degree, transform=transform)
    if tag in (F1, R1, O_PLUS, O_MINUS):
        return sorted(found, key=_primary_key)
    # the members share few distinct parts: size and colors once per part
    parts = set(chain.from_iterable(found))
    size = {p: part_size(p, energy) for p in parts}.__getitem__
    cols = {p: part_color_seq(p) for p in parts}.__getitem__
    return sorted(found, key=lambda pi: (len(pi), tuple(map(size, pi)),
                                         tuple(chain.from_iterable(map(cols, pi))), pi))


def size_counts(tag, energy, colors, word, max_size, degree=None):
    """Counter of the sizes of the family members with the given non-ground
    word, from one path sum of the rule under ``Budget(max_size,
    word=word)``, each part weighed by its size.  A Counter, since O- and
    E- sizes can be negative.

    UsageError is raised when the path sum meets a cycle that kept paths
    leave, exactly when a count up to ``max_size`` is infinite.  A flat
    state holds the size spent and the letters consumed, and the flat rule
    refuses a negative size, so the parts of a cycle are all ground and of
    size zero, and they repeat without end, changing neither the size nor
    the word.  Conversely, the states within the budget are finitely many,
    so a family with members of every length repeats a state on one of
    them.  A regular state counts the letters left, which every regular
    part spells, so a regular rule has no cycle.  The whole window is
    refused, as the flat rule refuses a whole energy on one negative size.
    """
    budget = Budget(max_size, word=tuple(word))
    rule = _rule(tag, energy, colors, budget, degree)
    return _path_sum(rule, budget, partial(part_size, energy=energy), "an all-ground part of "
                     "size zero repeats, so a count up to size %d is infinite" % max_size)


def count_by_word(tag, energy, colors, word, n, degree=None):
    """Number of family members with the given non-ground word and size n,
    from the walk at |n|, since O- and E- sizes can be negative."""
    return size_counts(tag, energy, colors, word, abs(n), degree)[n]


# ---------------------------------------------------------------------------
# membership validation


def _require(cond, message, *args):
    """Raise InvalidPartitionError unless ``cond``, formatting the message only then."""
    if not cond:
        raise InvalidPartitionError(message % args)


def _check_ends(bases, words, ground):
    """Raise unless a grounded partition, given as the bases and color words
    of its parts, ends in the zero ground part (base 0, word ``ground``)
    with no zero ground part before it: the one check of the grounded end
    for F1, R1, F2, Fk and R2.  Emptiness is reported first."""
    if not bases:
        raise InvalidPartitionError("grounded partition cannot be empty")
    if bases[-1] != 0 or words[-1] != ground:
        raise InvalidPartitionError("terminal part must be the zero ground part")
    if len(bases) > 1 and bases[-2] == 0 and words[-2] == ground:
        raise InvalidPartitionError("part before the terminal cannot be the zero ground part")


def read_degree_one(tag, pi, energy, colors):
    """Size and color lists of an F1 or R1 member, for ``validate_member``
    and the degree-one maps alike.

    Raises InvalidPartitionError for the first constraint violated, in this
    order: primary parts, then ``_check_ends`` (emptiness, the terminal
    part, the part before it), R1's ground color, the relation between
    neighbours.  An empty partition has no part to fail the first check, so
    it is reported as empty.  Parts are read by attribute rather than
    checked by type, which is cheaper per part.
    """
    g = colors.ground
    sizes = []
    cols = []
    try:
        for p in pi:
            sizes.append(p.size)
            cols.append(p.color)
    except AttributeError:
        raise InvalidPartitionError("parts must be primary") from None
    _check_ends(sizes, cols, g)
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
    place of the primary check; both check the grounded end with
    ``_check_ends``.  x steps to y when base(x) - base(y) is eps(last(x),
    first(y)) plus the energy inside y's word (``flat_rel``).
    """
    require_degree(k)
    try:
        words = [part_color_seq(p) for p in pi]
    except UsageError:  # not a part, so of no degree
        words = [()]
    if any(len(w) != k for w in words):
        raise InvalidPartitionError("parts must have degree %d" % k)
    bases = [p[0] for p in pi]
    _check_ends(bases, words, (colors.ground,) * k)
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
        _require(all(isinstance(p, Secondary) for p in pi), "parts must be secondary")
        pairs = [(p.left, p.right) for p in pi]
        _check_ends([p.half for p in pi], pairs, (g, g))
        _require((g, g) not in pairs[:-1],
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

