"""Command-line front end for enumeration, bijections, series, and identity
verification.

Exit codes: 0 on success (or verified), 1 when a verification finds a
mismatch, 2 on usage errors (malformed partitions, unknown colors, broken
energy files), with a diagnostic naming the violated constraint.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import characters, deg1, deg2, degk, families, series
from .core import (
    EnergyStructureError,
    InvalidPartitionError,
    UsageError,
    _label_splits,
    format_partition,
    load_energy,
    parse_partition,
    part_color_seq,
    part_size,
    partition_size,
)


def _parse_word(text, colors):
    if not text:
        return ()
    count, word = _label_splits(text, colors, exclude={colors.ground})
    if not count:
        raise UsageError("word %r does not spell non-ground colors" % (text,))
    if count > 1:
        raise UsageError("word %r is ambiguous" % (text,))
    return word


def _partition_json(pi, colors, energy):
    return [
        {
            "size": part_size(p, energy),
            "colors": [colors.label(c) for c in part_color_seq(p)],
        }
        for p in pi
    ]


# Size limits past which a request would run for seconds to minutes (times
# on a 2-core host).  Each ladder step of a product touches every row, so a
# series costs at least the square of its order.  verify caches every
# classical partition of each n, about 2.3x more memory per +5 of order
# (order 50: 3-7 s, 392-401 MB).  Its residue identities build an m x m
# energy (keith_xiong m = 1000, order 2: 3.1 s), and their columns grow with
# m too (keith_xiong m = 10, order 50: 15-17 s, 0.85 GB, of which the two
# path sums take 2.6-3.0 s and 0.18 GB and the two classical residue
# columns most of the rest).  A character's path sum grows with both rank
# and order (A2n2 rank 2, order 40: 0.1 s; rank 200, order 2: 5.5 s,
# 0.7 GB), and can be slow inside the limits (Bn1-Ln rank 4, order 10:
# 0.6-0.9 s, 58 MB; rank 5, order 10: 7 s, 0.5 GB).  An Fk walk builds
# all n^k color words first (3^10 words: 0.7 s, 3^12: 5.6 s).  flatten
# --invert pads its last group with zero ground parts up to the degree, so
# time and memory grow linearly in it (degree 10^6: 0.7 s, 54 MB; 3 x 10^6:
# 2.0 s, 130 MB).
# count and verify-deg2 sum over the rule's states and build no member,
# and the regular families, whose states seldom meet, cost the most
# (count --word abab at size 100: 0.02 s for F1 and F2; verify-deg2 --word
# abab at max size 80: 0.3-0.45 s; count --word bbbbbbbb on the mixed
# energy at size 100: 0.06 s for F1, 0.09 s for F2).
MAX_SERIES_ORDER = 1000
MAX_VERIFY_ORDER = 50
MAX_VERIFY_MODULUS = 100
MAX_CHARACTER_ORDER = 30
MAX_CHARACTER_RANK = 50
MAX_FLAT_WORDS = 10**5
MAX_FLATTEN_DEGREE = 10**6
MAX_COUNT_SIZE = 100
MAX_VERIFY_DEG2_SIZE = 80


def _at_most(flag, value, limit):
    if value > limit:
        raise UsageError("%s must be at most %d, got %d" % (flag, limit, value))


def _check_words(args, colors):
    """Refuse an Fk request whose n^k color words are past MAX_FLAT_WORDS."""
    n, k = colors.n, args.degree
    # 2 to the limit's bit length is past the limit, so the capped power is
    # past it exactly when n^k is, and a huge k costs nothing
    top = MAX_FLAT_WORDS.bit_length()
    if args.family == families.FK and k is not None and n ** min(k, top) > MAX_FLAT_WORDS:
        raise UsageError("--degree %d over %d colors walks %d^%d color words, more than %d"
                         % (k, n, n, k, MAX_FLAT_WORDS))


def _cmd_enumerate(args):
    colors, energy = load_energy(args.energy)
    _check_words(args, colors)
    word = _parse_word(args.word, colors) if args.word is not None else None
    budget = families.Budget(args.max_size, args.max_parts, word)
    found = families.members(args.family, energy, colors, budget, degree=args.degree)
    # a member at the default cap may have longer ones past it, which the
    # walk did not reach
    term = args.family not in (families.O_PLUS, families.O_MINUS, families.E_PLUS,
                               families.E_MINUS)
    if args.max_parts is None and any(len(pi) - term >= budget.max_parts for pi in found):
        raise UsageError("a member reaches the default part cap of %d parts, so longer ones "
                         "may be missing; pass --max-parts" % budget.max_parts)
    if args.json:
        print(
            json.dumps(
                {
                    "family": args.family,
                    "members": [
                        {
                            "text": format_partition(pi, colors, energy),
                            "size": partition_size(pi, energy),
                            "parts": _partition_json(pi, colors, energy),
                        }
                        for pi in found
                    ],
                },
                indent=2,
            )
        )
    else:
        for pi in found:
            print(format_partition(pi, colors, energy))
    return 0


def _cmd_count(args):
    _at_most("|--size|", abs(args.size), MAX_COUNT_SIZE)  # O- and E- sizes are negative
    colors, energy = load_energy(args.energy)
    _check_words(args, colors)
    word = _parse_word(args.word, colors)
    print(
        families.count_by_word(
            args.family, energy, colors, word, args.size, degree=args.degree
        )
    )
    return 0


def _map_command(args, fn):
    colors, energy = load_energy(args.energy)
    pi = parse_partition(args.part, colors, energy)
    out = fn(pi, energy, colors)
    print(format_partition(out, colors, energy))
    return 0


def _cmd_flatten(args):
    _at_most("--degree", args.degree, MAX_FLATTEN_DEGREE)
    fn = degk.unflatten_k if args.invert else degk.flatten_k
    return _map_command(args, lambda pi, energy, colors: fn(pi, energy, colors, args.degree))


def _cmd_verify_deg2(args):
    _at_most("--max-size", args.max_size, MAX_VERIFY_DEG2_SIZE)
    colors, energy = load_energy(args.energy)
    word = _parse_word(args.word, colors)
    rows = deg2.flatreg2_table(energy, colors, word, args.max_size)
    ok = all(row["all_equal"] for row in rows)
    if args.json:
        print(json.dumps({"word": args.word, "rows": [
            {"n": r["n"], **r["counts"], "all_equal": r["all_equal"]} for r in rows
        ], "pass": ok}, indent=2))
    else:
        labels = [label for label, _ in deg2.FLATREG2_FAMILIES]
        print("n    " + "".join("%6s" % t for t in labels) + "   equal")
        for r in rows:
            print(
                "%-4d " % r["n"]
                + "".join("%6d" % r["counts"][t] for t in labels)
                + "   %s" % ("yes" if r["all_equal"] else "NO")
            )
        print("verdict: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_character(args):
    _at_most("--order", args.order, MAX_CHARACTER_ORDER)
    _at_most("--rank", args.rank, MAX_CHARACTER_RANK)
    report = characters.verify_character(args.family, args.rank, args.order)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            "%s rank %d to order %d: paths %s, product %s"
            % (
                args.family,
                args.rank,
                args.order,
                "agree" if report["paths_agree"] else "DISAGREE",
                "matches" if report["lhs_equals_rhs"] else "MISMATCH",
            )
        )
        for bad in report.get("mismatches", [])[:20]:
            print("  q^%d %s: %r" % (bad["q"], bad["exps"], bad))
    return 0 if report["pass"] else 1


def _cmd_verify(args):
    _at_most("--order", args.order, MAX_VERIFY_ORDER)
    if args.m is not None:
        _at_most("--m", args.m, MAX_VERIFY_MODULUS)
    report = characters.verify_named_identity(args.identity, args.order, m=args.m)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        keys = [k for k in report["rows"][0] if k not in ("n", "match")]
        print("n    " + "".join("%18s" % k for k in keys))
        for row in report["rows"]:
            print(
                "%-4d " % row["n"]
                + "".join("%18s" % row[k] for k in keys)
                + ("" if row["match"] else "   MISMATCH")
            )
        print("verdict: %s" % ("pass" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_factors(data, nvars):
    """ProductFactors from the decoded --factors JSON, rejecting anything else."""
    if not isinstance(data, list):
        raise UsageError("--factors must be a JSON list of factor objects")
    factors = []
    for item in data:
        if not isinstance(item, dict):
            raise UsageError("factor %r is not a JSON object" % (item,))
        unknown = sorted(set(item) - {"sign", "exps", "offset", "modulus", "reciprocal"})
        if unknown:
            raise UsageError("unknown factor key %r" % (unknown[0],))
        if "offset" not in item:
            raise UsageError("factor %r has no offset" % (item,))
        for key in ("sign", "offset", "modulus"):
            if not _is_int(item.get(key, 1)):
                raise UsageError("factor %s must be an integer, got %r" % (key, item[key]))
        exps = item.get("exps", [0] * nvars)
        if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
            raise UsageError("factor exps must be a list of integers, got %r" % (exps,))
        if not isinstance(item.get("reciprocal", False), bool):
            raise UsageError("factor reciprocal must be true or false")
        factors.append(
            series.ProductFactor(
                item.get("sign", 1),
                tuple(exps),
                item["offset"],
                item.get("modulus", 1),
                item.get("reciprocal", False),
            )
        )
    return factors


def _cmd_series(args):
    _at_most("--order", args.order, MAX_SERIES_ORDER)
    spec = args.factors
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as handle:
            spec = handle.read()
    names = args.colors.split(",") if args.colors else []
    names = [n for n in names if n]
    factors = _parse_factors(json.loads(spec), len(names))
    out = series.pochhammer_expand(factors, args.order, len(names))
    if args.json:
        print(json.dumps(out.to_json(names), indent=2))
    else:
        print(out.text(names))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partition-forge",
        description="colored-partition bijections, enumeration oracles, and q-series checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", _cmd_enumerate, help="list family members under a budget")
    p.add_argument("--family", required=True, choices=families.FAMILY_TAGS)
    p.add_argument("--energy", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-parts", type=int)
    p.add_argument("--word")
    p.add_argument("--degree", type=int)
    p.add_argument("--json", action="store_true")

    p = add("count", _cmd_count, help="count members with a fixed word and size")
    p.add_argument("--family", required=True, choices=families.FAMILY_TAGS)
    p.add_argument("--energy", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--degree", type=int)

    for name, fn in (
        ("omega", lambda a: _map_command(a, deg1.omega)),
        ("omega-inv", lambda a: _map_command(a, deg1.omega_inv)),
        ("split2", lambda a: _map_command(a, deg2.split_flat2)),
        ("merge2", lambda a: _map_command(a, deg2.merge_flat1)),
    ):
        p = add(name, fn, help="apply the %s map to one partition" % name)
        p.add_argument("--energy", required=True)
        p.add_argument("--in", dest="part", required=True)

    p = add("flatten", _cmd_flatten, help="split (or regroup) degree-k parts")
    p.add_argument("--energy", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--in", dest="part", required=True)
    p.add_argument("--invert", action="store_true")

    p = add("verify-deg2", _cmd_verify_deg2, help="six-family count table for one word")
    p.add_argument("--energy", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("character", _cmd_character, help="check one level-one character identity")
    p.add_argument("--family", required=True, choices=characters.CHARACTER_FAMILIES)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify", _cmd_verify, help="check one named partition identity")
    p.add_argument("--identity", required=True, choices=characters.IDENTITIES)
    p.add_argument("--m", type=int)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("series", _cmd_series, help="expand a Pochhammer-style product")
    p.add_argument("--factors", required=True, help="JSON list of factors, or @file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--colors", help="comma-separated color variable names")
    p.add_argument("--json", action="store_true")

    return parser


# argparse parsers are not changed by parsing, so one serves every call
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, InvalidPartitionError, EnergyStructureError, OSError,
            json.JSONDecodeError, MemoryError, RecursionError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
