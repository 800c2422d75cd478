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

- flat (F1, F2, Fk and both character routes): a flat partition is
  determined by its full color sequence, so the walk runs right to left,
  prepending symbols whose sizes are forced;
- half line (O+, O-, E+, E- and the body of R1): non-ground parts on one
  side of rho = 1 - delta_g, walked left to right over the admissible next
  sizes with remaining-size pruning.  O is E's primary branch with a gap of
  at least eps where E needs eps + 1, and no secondary parts;
- R2: secondary parts over every color pair but the ground pair, left to
  right.

Each walk visits a member once, so no deduplication is needed.  ``members``
returns the canonical order of ``canonical_key``: by length, then the part
sizes, then the color sequence, then the partition tuple itself.  The last
component breaks the ties, which occur only in E+ and E-, where primary and
secondary parts can group the same colors differently (``5a 2ba`` and
``5ab 2a`` on the strict energy).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    DegreeK,
    InvalidPartitionError,
    Primary,
    Secondary,
    UsageError,
    delta_exception,
    epsilon2,
    flat_rel,
    ground_delta,
    min_diff_rel,
    mixed_rel,
    part_color_seq,
    part_size,
    partition_size,
    secondary_regular_rel,
)
from .degk import epsilon_k, validate_flat_k

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


def _sorted_members(members, energy):
    return sorted(members, key=lambda pi: canonical_key(pi, energy))


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


def flat_walk(all_syms, ground_sym, eps, budget, cost=None, letters=None, stall_limit=None):
    """All flat grounded sequences under a budget.

    Returns tuples of (size, sym) read left to right, excluding the terminal
    ground part.  ``eps(x, y)`` is the energy between symbols, ``cost(size,
    sym)`` the budget charge of one part (the size itself by default), and
    ``letters(sym)`` the non-ground word letters the symbol contributes.
    ``stall_limit`` bounds runs of zero-cost parts and raises when exceeded,
    for walks whose termination relies on the cost rather than the length cap.
    """
    word = budget.word
    wlen = len(word) if word is not None else 0
    if cost is None:
        cost = lambda size, sym: size
    if letters is None:
        letters = lambda sym: (sym,) if sym != ground_sym else ()
    max_size = budget.max_size

    def children(state):
        # the part to the right, the budget spent, the word letters consumed
        # from the right, and the current run of zero-cost parts
        (below_size, below_sym), total, consumed, zrun = state
        first = below_sym is None
        if first:
            below_sym = ground_sym
        for sym in all_syms:
            size = eps(sym, below_sym) + below_size
            if first and sym == ground_sym and size == 0:
                continue  # would duplicate the terminal zero ground part
            if size < 0:
                raise UsageError("negative part size; energy unsuitable for flat enumeration")
            charge = cost(size, sym)
            if charge < 0:
                raise UsageError("negative transformed degree in flat enumeration")
            if total + charge > max_size:
                continue
            ncons = consumed
            if word is not None:
                lab = letters(sym)
                if lab:
                    ncons += len(lab)
                    if ncons > wlen or word[wlen - ncons : wlen - consumed] != lab:
                        continue
            nz = zrun + 1 if charge == 0 else 0
            if stall_limit is not None and nz > stall_limit:
                raise RuntimeError("flat walk stalled on zero-cost parts")
            part = (size, sym)
            yield part, (part, total + charge, ncons, nz), word is None or ncons == wlen

    return [seq[::-1] for seq in _walk(children, ((0, None), 0, 0, 0), budget)]


def _f1_members(energy, colors, budget, transform=None, stall_limit=None):
    g = colors.ground
    cost = None
    if transform is not None:
        sc, sh = transform.scale, transform.shifts
        cost = lambda size, c: sc * size + sh[c]
    seqs = flat_walk(range(colors.n), g, energy.e, budget, cost=cost, stall_limit=stall_limit)
    out = []
    for seq in seqs:
        out.append(tuple(Primary(sz, c) for sz, c in seq) + (Primary(0, g),))
    return out


def _f2_members(energy, colors, budget, transform=None):
    g = colors.ground
    pairs = list(product(range(colors.n), repeat=2))
    eps = lambda x, y: epsilon2(energy, x[0], x[1], y[0], y[1])
    letters = lambda p: tuple(c for c in p if c != g)
    cost = None
    if transform is not None:
        sc, sh = transform.scale, transform.shifts
        cost = lambda size, p: sc * size + sh[p[0]] + sh[p[1]]
    seqs = flat_walk(pairs, (g, g), eps, budget, cost=cost, letters=letters)
    out = []
    for seq in seqs:
        parts = []
        for size, (x, y) in seq:
            e = energy.e(x, y)
            if (size - e) % 2:
                raise UsageError("secondary part size %d has the wrong parity; "
                                 "energy unsuitable for flat enumeration" % size)
            parts.append(Secondary((size - e) // 2, x, y))
        out.append(tuple(parts) + (Secondary(0, g, g),))
    return out


def _fk_members(energy, colors, budget, k):
    g = colors.ground
    words = list(product(range(colors.n), repeat=k))
    eps = lambda x, y: epsilon_k(energy, k, x, y)
    letters = lambda w: tuple(c for c in w if c != g)
    seqs = flat_walk(words, (g,) * k, eps, budget, letters=letters)
    out = []
    for seq in seqs:
        parts = []
        for size, cs in seq:
            inner = sum(u * energy.e(cs[u - 1], cs[u]) for u in range(1, k))
            if (size - inner) % k:
                raise UsageError("size %d does not fit a degree-%d part; "
                                 "energy unsuitable for flat enumeration" % (size, k))
            parts.append(DegreeK((size - inner) // k, cs))
        out.append(tuple(parts) + (DegreeK(0, (g,) * k),))
    return out


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
    rise = ground_delta(energy, colors)
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    e = energy.e
    # each pair with the word letters it spells
    pairs = [(d, dp, tuple(c for c in (d, dp) if c != g))
             for d, dp in product(range(colors.n), repeat=2) if (d, dp) != (g, g)]
    # a one-color system has no pairs, so only the terminal part is left
    min_h = min((e(dp, g) for _, dp, _ in pairs), default=0)
    max_parts, max_size = budget.max_parts, budget.max_size

    def children(state):
        prev, total, widx, depth = state
        slack = max_parts - depth - 1
        lo = min_h - rise * slack
        # when delta_g = 1, halves may rise by one per step and later parts
        # can shed size, so the budget bound carries a sound (loose) margin
        shed = min(0, 2 * slack * (min_h - max_parts)) if rise else 0
        for d, dp, lab in pairs:
            nw = widx
            if word is not None:
                nw = widx + len(lab)
                if word[widx:nw] != lab:
                    continue
            edd = e(d, dp)
            hi = ((max_size - total - shed - sh[d] - sh[dp]) // sc - edd) // 2
            if prev is not None:
                hi = min(
                    hi,
                    prev.half
                    - e(prev.right, d)
                    - edd
                    - delta_exception(energy, colors, prev.left, prev.right, d, dp),
                )
            spelt = word is None or nw == wlen
            floor = e(dp, g)  # the last part before the terminal needs half >= eps(dp, g)
            for m in range(lo, hi + 1):
                part = Secondary(m, d, dp)
                t = total + sc * (2 * m + edd) + sh[d] + sh[dp]
                yield part, (part, t, nw, depth + 1), spelt and m >= floor and t <= max_size

    term = (Secondary(0, g, g),)
    return [pi + term for pi in _walk(children, (None, 0, 0, 0), budget)]


# ---------------------------------------------------------------------------
# public interface


def members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete list of family members within a budget, in canonical order."""
    if tag in (F1, R1, F2, R2, FK):
        ground_delta(energy, colors)  # grounded families need ground compatibility
    if tag == F1:
        out = _f1_members(energy, colors, budget, transform=transform)
    elif tag == F2:
        out = _f2_members(energy, colors, budget, transform=transform)
    elif tag == FK:
        if degree is None or degree < 1:
            raise UsageError("degree-k enumeration needs degree >= 1")
        if transform is not None:
            raise UsageError("transforms are not supported for degree-k enumeration")
        out = _fk_members(energy, colors, budget, degree)
    elif tag == R1:
        term = (Primary(0, colors.ground),)
        out = [pi + term for pi in _half_line(energy, colors, budget, transform=transform)]
    elif tag == R2:
        out = _r2_members(energy, colors, budget, transform=transform)
    elif tag in (O_PLUS, O_MINUS, E_PLUS, E_MINUS):
        out = _half_line(energy, colors, budget, plus=tag in (O_PLUS, E_PLUS),
                         secondary=tag in (E_PLUS, E_MINUS), transform=transform)
    else:
        raise UsageError("unknown family tag %r" % (tag,))
    return _sorted_members(out, energy)


def count_by_word(tag, energy, colors, word, n, degree=None):
    """Number of family members with the given non-ground word and size n."""
    word = tuple(word)
    budget = Budget(max_size=n, max_parts=len(word) + n + 1, word=word)
    found = members(tag, energy, colors, budget, degree=degree)
    return sum(1 for pi in found if partition_size(pi, energy) == n)


# ---------------------------------------------------------------------------
# membership validation


def _require(cond, message):
    if not cond:
        raise InvalidPartitionError(message)


def validate_member(tag, pi, energy, colors, degree=None):
    """Raise InvalidPartitionError naming the violated constraint."""
    g = colors.ground
    pi = tuple(pi)
    if tag == F1 or tag == R1:
        _require(len(pi) >= 1, "grounded partition cannot be empty")
        _require(all(isinstance(p, Primary) for p in pi), "parts must be primary")
        _require(pi[-1] == Primary(0, g), "terminal part must be the zero ground part")
        if len(pi) > 1:
            _require(pi[-2] != Primary(0, g),
                     "part before the terminal cannot be the zero ground part")
        if tag == R1:
            _require(all(p.color != g for p in pi[:-1]),
                     "regular partitions avoid the ground color")
        rel = flat_rel if tag == F1 else min_diff_rel
        for x, y in zip(pi, pi[1:]):
            _require(rel(x, y, energy), "%s relation fails between %r and %r" % (tag, x, y))
    elif tag == F2 or tag == R2:
        term = Secondary(0, g, g)
        _require(len(pi) >= 1, "grounded partition cannot be empty")
        _require(all(isinstance(p, Secondary) for p in pi), "parts must be secondary")
        _require(pi[-1] == term, "terminal part must be the zero ground part")
        if len(pi) > 1:
            _require(pi[-2] != term, "part before the terminal cannot be the zero ground part")
        if tag == R2:
            _require(all((p.left, p.right) != (g, g) for p in pi[:-1]),
                     "secondary regular partitions avoid the ground color pair")
            for x, y in zip(pi, pi[1:]):
                _require(secondary_regular_rel(x, y, energy, colors),
                         "R2 relation fails between %r and %r" % (x, y))
        else:
            for x, y in zip(pi, pi[1:]):
                _require(flat_rel(x, y, energy),
                         "F2 relation fails between %r and %r" % (x, y))
    elif tag == FK:
        validate_flat_k(pi, energy, colors, degree)
    elif tag in (O_PLUS, O_MINUS):
        rho = 1 - ground_delta(energy, colors)
        _require(all(isinstance(p, Primary) and p.color != g for p in pi),
                 "parts must be primary with non-ground colors")
        if tag == O_PLUS:
            _require(all(p.size >= rho for p in pi), "part sizes must be >= %d" % rho)
        else:
            _require(all(p.size <= rho for p in pi), "part sizes must be <= %d" % rho)
        for x, y in zip(pi, pi[1:]):
            _require(min_diff_rel(x, y, energy),
                     "energy relation fails between %r and %r" % (x, y))
    elif tag in (E_PLUS, E_MINUS):
        rho = 1 - ground_delta(energy, colors)
        for p in pi:
            _require(isinstance(p, (Primary, Secondary)), "parts must be primary or secondary")
            _require(all(c != g for c in part_color_seq(p)),
                     "parts must avoid the ground color")
            if tag == E_PLUS:
                low = p.size if isinstance(p, Primary) else p.half
                _require(low >= rho, "part %r below the half line" % (p,))
            else:
                top = p.size if isinstance(p, Primary) else p.half + energy.e(p.left, p.right)
                _require(top <= rho, "part %r above the half line" % (p,))
        for x, y in zip(pi, pi[1:]):
            _require(mixed_rel(x, y, energy),
                     "mixed relation fails between %r and %r" % (x, y))
    else:
        raise UsageError("unknown family tag %r" % (tag,))


def is_member(tag, pi, energy, colors, degree=None):
    try:
        validate_member(tag, pi, energy, colors, degree=degree)
    except InvalidPartitionError:
        return False
    return True
