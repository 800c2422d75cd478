"""Exhaustive, budgeted enumeration of every partition family.

The generators walk the family definitions directly and serve as the
independent oracle layer: every bijection and identity in the package is
checked against the lists produced here.  All walks are finite under a
budget (total size cap, part-count cap, optional color-word filter) and
return canonically sorted, duplicate-free lists.

Flat families are walked right to left (a flat partition is determined by
its full color sequence, so the walk prepends colors and the sizes are
forced).  Minimal-difference families are walked left to right, descending
over admissible next parts with remaining-size pruning.
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
    return (len(pi), sizes, cols)


def _sorted_members(members, energy):
    members = sorted(set(members), key=lambda pi: canonical_key(pi, energy))
    return members


def _part_cost(part, energy, transform):
    if transform is None:
        return part_size(part, energy)
    return transform.part_degree(part, energy)


# ---------------------------------------------------------------------------
# flat walk (shared by F1, F2, Fk and the character enumerations)


def flat_walk(all_syms, ground_sym, eps, budget, cost=None, letters=None, stall_limit=None):
    """All flat grounded sequences under a budget.

    Yields tuples of (size, sym) read left to right, excluding the terminal
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
    max_size, max_parts = budget.max_size, budget.max_parts
    results = []

    def down(stack, fsize, fsym, total, consumed, zrun):
        if word is None or consumed == wlen:
            results.append(tuple(reversed(stack)))
        if len(stack) >= max_parts:
            return
        empty = fsym is None
        below_sym = ground_sym if empty else fsym
        below_size = 0 if empty else fsize
        for sym in all_syms:
            size = eps(sym, below_sym) + below_size
            if empty and sym == ground_sym and size == 0:
                continue  # would duplicate the terminal zero ground part
            if size < 0:
                raise UsageError("negative part size; energy unsuitable for flat enumeration")
            charge = cost(size, sym)
            if charge < 0:
                raise UsageError("negative transformed degree in flat enumeration")
            if total + charge > max_size:
                continue
            if word is not None:
                lab = letters(sym)
                if lab:
                    n = len(lab)
                    if consumed + n > wlen or word[wlen - consumed - n : wlen - consumed] != lab:
                        continue
                    ncons = consumed + n
                else:
                    ncons = consumed
            else:
                ncons = consumed
            nz = zrun + 1 if charge == 0 else 0
            if stall_limit is not None and nz > stall_limit:
                raise RuntimeError("flat walk stalled on zero-cost parts")
            stack.append((size, sym))
            down(stack, size, sym, total + charge, ncons, nz)
            stack.pop()

    down([], 0, None, 0, 0, 0)
    return results


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
# minimal-difference walks


def _o_plus_walk(energy, colors, budget, rho, transform=None):
    """Primary parts over the non-ground colors, sizes >= rho."""
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    ev = energy.values
    max_size, max_parts = budget.max_size, budget.max_parts
    non_ground = colors.non_ground
    results = []
    out = results.append

    def down(stack, prev_size, prev_color, total, widx):
        if word is None or widx == wlen:
            out(tuple(stack))
        if len(stack) >= max_parts:
            return
        if word is None:
            cands = non_ground
        else:
            cands = (word[widx],) if widx < wlen else ()
        for c in cands:
            hi = (max_size - total - sh[c]) // sc
            if prev_color is not None:
                rel = prev_size - ev[prev_color][c]
                if rel < hi:
                    hi = rel
            for k in range(rho, hi + 1):
                charge = sc * k + sh[c]
                if charge < 0:
                    raise UsageError("negative transformed degree in enumeration")
                stack.append(Primary(k, c))
                down(stack, k, c, total + charge, widx + 1)
                stack.pop()

    down([], 0, None, 0, 0)
    return results


def _o_minus_walk(energy, colors, budget, rho):
    """Primary parts over the non-ground colors, sizes <= rho.

    Sizes may be negative; the budget is read as |total size| <= max_size.
    Requires a non-negative energy so parts are weakly decreasing.
    """
    if any(v < 0 for row in energy.values for v in row):
        raise UsageError("half-line-down enumeration needs a non-negative energy")
    word = budget.word
    wlen = len(word) if word is not None else 0
    results = []

    def down(stack, prev, total, widx):
        if (word is None or widx == wlen) and -budget.max_size <= total <= budget.max_size:
            results.append(tuple(stack))
        if len(stack) >= budget.max_parts:
            return
        if word is None:
            cands = colors.non_ground
        else:
            cands = (word[widx],) if widx < wlen else ()
        for c in cands:
            hi = rho
            if prev is not None:
                hi = min(hi, prev.size - energy.e(prev.color, c))
            lo = -budget.max_size - total
            for k in range(lo, hi + 1):
                part = Primary(k, c)
                stack.append(part)
                down(stack, part, total + k, widx + 1)
                stack.pop()

    down([], None, 0, 0)
    return results


def _e_walk(energy, colors, budget, rho, plus=True, transform=None):
    """Primary and secondary parts over the non-ground colors, on one half line."""
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    e = energy.e
    max_parts, max_size = budget.max_parts, budget.max_size
    results = []

    if not plus and any(v < 0 for row in energy.values for v in row):
        raise UsageError("half-line-down enumeration needs a non-negative energy")

    def emit_ok(total):
        if plus:
            return True
        return -max_size <= total <= max_size

    def down(stack, prev, total, widx):
        if (word is None or widx == wlen) and emit_ok(total):
            results.append(tuple(stack))
        if len(stack) >= max_parts:
            return
        # primary candidates
        if word is None:
            prim = colors.non_ground
        else:
            prim = (word[widx],) if widx < wlen else ()
        for d in prim:
            if plus:
                lo = rho
                hi = (max_size - total - sh[d]) // sc
            else:
                # sizes are weakly decreasing, so a too-negative total never recovers
                lo = -max_size - total
                hi = rho
            if prev is None:
                pass
            elif isinstance(prev, Primary):
                hi = min(hi, prev.size - e(prev.color, d) - 1)
            else:
                hi = min(hi, 2 * prev.half - e(prev.right, d) - 1)
            for l in range(lo, hi + 1):
                charge = sc * l + sh[d]
                if plus and charge < 0:
                    raise UsageError("negative transformed degree in enumeration")
                part = Primary(l, d)
                stack.append(part)
                down(stack, part, total + charge, widx + 1)
                stack.pop()
        # secondary candidates
        if word is None:
            sec = list(product(colors.non_ground, repeat=2))
        elif widx + 2 <= wlen:
            sec = [(word[widx], word[widx + 1])]
        else:
            sec = []
        for d, dp in sec:
            edd = e(d, dp)
            if plus:
                lo = rho
                hi = ((max_size - total - sh[d] - sh[dp]) // sc - edd) // 2
            else:
                lo = (-max_size - total - edd + 1) // 2
                hi = rho - edd
            if prev is None:
                pass
            elif isinstance(prev, Primary):
                hi = min(hi, (prev.size - e(prev.color, d) - 2 * edd) // 2)
            else:
                hi = min(hi, prev.half - e(prev.right, d) - edd)
            for m in range(lo, hi + 1):
                part = Secondary(m, d, dp)
                charge = sc * (2 * m + edd) + sh[d] + sh[dp]
                if plus and charge < 0:
                    raise UsageError("negative transformed degree in enumeration")
                stack.append(part)
                down(stack, part, total + charge, widx + 2)
                stack.pop()

    down([], None, 0, 0)
    return results


def _r2_walk(energy, colors, budget, transform=None):
    """Secondary regular partitions: all color pairs but the ground pair."""
    g = colors.ground
    dg = ground_delta(energy, colors)
    rise = 1 if dg == 1 else 0
    word = budget.word
    wlen = len(word) if word is not None else 0
    sc = transform.scale if transform else 1
    sh = transform.shifts if transform else (0,) * colors.n
    e = energy.e
    pairs = [p for p in product(range(colors.n), repeat=2) if p != (g, g)]
    min_h = min(e(y, g) for _, y in pairs)
    max_parts, max_size = budget.max_parts, budget.max_size
    results = []

    def down(stack, prev, total, widx):
        if word is None or widx == wlen:
            if not stack or stack[-1].half >= e(stack[-1].right, g):
                if total <= max_size:
                    results.append(tuple(stack) + (Secondary(0, g, g),))
        if len(stack) >= max_parts:
            return
        slack = max_parts - len(stack) - 1
        for d, dp in pairs:
            if word is not None:
                lab = tuple(c for c in (d, dp) if c != g)
                n = len(lab)
                if word[widx : widx + n] != lab:
                    continue
                nw = widx + n
            else:
                nw = widx
            edd = e(d, dp)
            lo = min_h - rise * slack
            # when delta_g = 1, halves may rise by one per step and later parts
            # can shed size, so the budget bound carries a sound (loose) margin
            shed = min(0, 2 * slack * (min_h - max_parts)) if rise else 0
            hi = ((max_size - total - shed - sh[d] - sh[dp]) // sc - edd) // 2
            if prev is not None:
                hi = min(
                    hi,
                    prev.half
                    - e(prev.right, d)
                    - edd
                    - delta_exception(energy, colors, prev.left, prev.right, d, dp),
                )
            for m in range(lo, hi + 1):
                part = Secondary(m, d, dp)
                charge = sc * (2 * m + edd) + sh[d] + sh[dp]
                stack.append(part)
                down(stack, part, total + charge, nw)
                stack.pop()

    down([], None, 0, 0)
    return results


# ---------------------------------------------------------------------------
# public interface


def members(tag, energy, colors, budget, degree=None, transform=None):
    """Complete, canonically sorted list of family members within a budget."""
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
        rho = 1 - ground_delta(energy, colors)
        body = _o_plus_walk(energy, colors, budget, rho, transform=transform)
        out = [pi + (Primary(0, colors.ground),) for pi in body]
    elif tag == R2:
        out = _r2_walk(energy, colors, budget, transform=transform)
    elif tag in (O_PLUS, O_MINUS, E_PLUS, E_MINUS):
        rho = 1 - ground_delta(energy, colors)
        if tag == O_PLUS:
            out = _o_plus_walk(energy, colors, budget, rho, transform=transform)
        elif tag == O_MINUS:
            out = _o_minus_walk(energy, colors, budget, rho)
        else:
            out = _e_walk(energy, colors, budget, rho, plus=(tag == E_PLUS), transform=transform)
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
