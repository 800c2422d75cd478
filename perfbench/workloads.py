"""The four benchmark workloads and their correctness checks.

``build(name, seed, size)`` imports partition_forge, generates the
workload's inputs and returns a ``Workload``: a list of requests.  One
pass runs every request once, in order.  Each request does its work and
its exact checks; an exception escaping a request counts as one failed
check, and the pass goes on.

Every call into the package is looked up through its module at call time
(``pf.deg1.omega``, never a name bound at set-up), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from itertools import product
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENERGY_DIR = ROOT / "demos" / "energies"
PREFIX_ENERGY = HERE / "data" / "prefix_labels.energy"
MISSING_ENERGY = HERE / "data" / "missing.energy"
EXPECTED_FILE = HERE / "expected.json"

WORKLOADS = ("roundtrip_sweep", "character_walk", "series_product", "cli_mix")
SIZES = ("full", "tiny")

MODULES = ("core", "families", "deg1", "deg2", "degk", "series",
           "characters", "classic", "cli")


class Checks:
    """Tally of checks attempted and failed, with the first few failures."""

    def __init__(self, expected=None):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.expected = expected or {}

    def fail(self, what):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok, what):
        if ok:
            self.attempted += 1
        else:
            self.fail(what)

    def count(self, key, value):
        """Compare a member or term count with the value recorded for it."""
        want = self.expected.get(key)
        self.check(want == value, "%s: count %r, recorded %r" % (key, value, want))


class Recorder(Checks):
    """Checks that store each count instead of comparing it."""

    def count(self, key, value):
        self.expected[key] = value


class Workload:
    def __init__(self, name, requests, inputs):
        self.name = name
        self.requests = requests  # [(label, fn(checks))]
        self.inputs = inputs  # JSON-able description of the generated inputs
        self.expected = {}  # counts recorded per request label

    def run_pass(self, checks, clock=None, tracer=None):
        """Run every request once; report each one's latency to ``clock``."""
        for label, fn in self.requests:
            span = tracer.span(label, request=True) if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                try:
                    fn(checks)
                except Exception as exc:  # the request's verdict is "failed"
                    checks.fail("%s: %s: %s" % (label, type(exc).__name__, exc))
                latency = time.perf_counter() - t0
            if clock is not None:
                clock.request_done(latency)


def load_expected(name, size):
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle).get(name, {}).get(size, {})


def import_package():
    return SimpleNamespace(**{
        mod: importlib.import_module("partition_forge." + mod) for mod in MODULES
    })


def build(name, seed, size="full"):
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % (name,))
    if size not in SIZES:
        raise ValueError("unknown size %r" % (size,))
    pf = import_package()
    workload = globals()["_" + name](pf, seed, size == "tiny")
    workload.expected = load_expected(name, size)
    return workload


# ---------------------------------------------------------------------------
# helpers independent of the package


def part_size(part, energy):
    if hasattr(part, "size"):
        return part.size
    if hasattr(part, "half"):
        return 2 * part.half + energy.values[part.left][part.right]
    cs = part.colors
    return len(cs) * part.base + sum(u * energy.values[cs[u - 1]][cs[u]]
                                     for u in range(1, len(cs)))


def part_colors(part):
    if hasattr(part, "color"):
        return (part.color,)
    if hasattr(part, "half"):
        return (part.left, part.right)
    return tuple(part.colors)


def size_and_word(pi, energy, ground):
    size = sum(part_size(p, energy) for p in pi)
    word = tuple(c for p in pi for c in part_colors(p) if c != ground)
    return size, word


def text_size_and_word(text, ground_label):
    """Size and non-ground letters of partition text with one-letter labels."""
    size, letters = 0, []
    for token in text.split():
        i = 1 if token[0] in "+-" else 0
        while token[i].isdigit():
            i += 1
        size += int(token[:i])
        letters += [ch for ch in token[i:] if ch != ground_label]
    return size, "".join(letters)


def univariate_product(factors, order):
    """Coefficients of a product of Pochhammer ladders with every color at 1."""
    c = [1] + [0] * order
    for f in factors:
        a = f.offset
        while a <= order:
            if f.reciprocal:  # 1 / (1 - q^a), a >= 1
                for i in range(a, order + 1):
                    c[i] += c[i - a]
            elif a == 0:  # 1 + sign
                c = [v * (1 + f.sign) for v in c]
            else:  # 1 + sign q^a
                for i in range(order, a - 1, -1):
                    c[i] += f.sign * c[i - a]
            a += f.modulus
    return c


def catalog_energies(pf):
    """Every minimal ground-compatible energy on at most three colors (37)."""
    out = []
    for n in range(1, 4):
        m = n - 1
        colors = pf.core.ColorSystem(tuple("ab"[:m]) + ("g",), m)
        for delta in ((0, 1) if m else (0,)):
            for block in product((0, 1), repeat=m * m):
                rows = [[0] * n for _ in range(n)]
                for i in range(m):
                    for j in range(m):
                        rows[i][j] = block[i * m + j]
                    rows[i][m] = 1 - delta
                    rows[m][i] = delta
                out.append((colors, pf.core.EnergyMatrix(tuple(map(tuple, rows)))))
    return out


def shipped_energies(pf):
    return {
        name: pf.core.load_energy(str(ENERGY_DIR / ("two_color_%s.energy" % name)))
        for name in ("strict", "mixed")
    }


# ---------------------------------------------------------------------------
# roundtrip_sweep: the bulk bijection oracle


def _roundtrip_sweep(pf, seed, tiny):
    budgets = {
        "catalog": (3, 3) if tiny else (7, 7),
        "strict": (4, 5) if tiny else (12, 13),
        "mixed": (3, 4) if tiny else (6, 7),
        "flatten": (4, 5) if tiny else (9, 12),
    }
    requests = []

    def sweep(label, tag, colors, energy, budget, module, there, back, degree=None):
        """Every member of one family through a map and back."""
        extra = () if degree is None else (degree,)

        def run(checks):
            found = pf.families.members(tag, energy, colors, budget, degree=degree)
            checks.count(label, len(found))
            fwd, inv = getattr(module, there), getattr(module, back)
            g = colors.ground
            for pi in found:
                image = fwd(pi, energy, colors, *extra)
                if (inv(image, energy, colors, *extra) == pi
                        and size_and_word(image, energy, g) == size_and_word(pi, energy, g)):
                    checks.attempted += 1
                else:
                    checks.fail("%s: %r" % (label, pi))
        return run

    budget = pf.families.Budget(*budgets["catalog"])
    for i, (colors, energy) in enumerate(catalog_energies(pf)):
        for tag, there, back in (("F1", "omega", "omega_inv"), ("R1", "omega_inv", "omega")):
            label = "catalog/%02d/%s" % (i, tag)
            requests.append((label, sweep(label, tag, colors, energy, budget,
                                          pf.deg1, there, back)))

    chain = (("F2", "split_flat2", "merge_flat1"), ("F1", "merge_flat1", "split_flat2"),
             ("R1", "strip_ground", "add_ground"), ("E+", "rmap", "rmap_inv"),
             ("R2", "rmap_inv", "rmap"))
    shipped = shipped_energies(pf)
    for name, (colors, energy) in shipped.items():
        budget = pf.families.Budget(*budgets[name])
        for tag, there, back in chain:
            label = "chain/%s/%s" % (name, tag)
            requests.append((label, sweep(label, tag, colors, energy, budget,
                                          pf.deg2, there, back)))

    colors, energy = shipped["strict"]
    budget = pf.families.Budget(*budgets["flatten"])
    for k in (2, 3):
        label = "flatten/k%d" % k
        requests.append((label, sweep(label, "Fk", colors, energy, budget,
                                      pf.degk, "flatten_k", "unflatten_k", degree=k)))
    return Workload("roundtrip_sweep", requests,
                    {"budgets": budgets, "requests": [label for label, _ in requests]})


# ---------------------------------------------------------------------------
# character_walk: the four shipped character configurations


# Bn1-Ln first: the three short checks after it then share one bracket of
# reference loops in run.HostClock instead of being scaled with Bn1-Ln's
CHARACTER_CONFIGS = (("Bn1-Ln", 3), ("A2n2", 2), ("Dn12-L0", 2), ("Dn12-Ln", 2))


def _character_walk(pf, seed, tiny):
    order = 4 if tiny else 6
    requests = []

    def verify(label, family, rank):
        def run(checks):
            report = pf.characters.verify_character(family, rank, order)
            checks.check(report["paths_agree"], label + ": enumeration routes disagree")
            checks.check(report["lhs_equals_rhs"], label + ": flat side != product side")
            # recorded term count and an independent univariate expansion of
            # the product side, which this computes a second time
            config = pf.characters.build_config(family, rank)
            rhs = pf.characters.character_rhs(config, order)
            checks.count(label, len(rhs.coeffs))
            checks.check(rhs.q_coefficients() == univariate_product(config.rhs_factors, order),
                         label + ": product side != univariate expansion")
        return run

    for family, rank in CHARACTER_CONFIGS:
        label = "character/%s-r%d-o%d" % (family, rank, order)
        requests.append((label, verify(label, family, rank)))
    return Workload("character_walk", requests,
                    {"order": order, "requests": [label for label, _ in requests]})


# ---------------------------------------------------------------------------
# series_product: product sides beyond the walks' reach, and ring laws


RANK4_PRODUCTS = (("Bn1-Ln", 9), ("Dn12-L0", 15), ("A2n2", 19))


def _series_product(pf, seed, tiny):
    requests = []

    def product_side(label, family, order):
        def run(checks):
            config = pf.characters.build_config(family, 4)
            rhs = pf.characters.character_rhs(config, order)
            checks.count(label, len(rhs.coeffs))
            checks.check(rhs.q_coefficients() == univariate_product(config.rhs_factors, order),
                         label + ": product side != univariate expansion")
        return run

    for family, order in RANK4_PRODUCTS:
        order = order // 3 if tiny else order
        label = "rhs/%s-r4-o%d" % (family, order)
        requests.append((label, product_side(label, family, order)))

    def named(label, name, order, m):
        def run(checks):
            report = pf.characters.verify_named_identity(name, order, m=m)
            checks.check(report["pass"], label + ": identity fails")
        return run

    order = 8 if tiny else 20
    for name, m in (("euler", None), ("glaisher", 2), ("glaisher", 3), ("glaisher", 4)):
        label = "identity/%s-m%s-o%d" % (name, m, order)
        requests.append((label, named(label, name, order, m)))

    # ring laws on seeded random series, one request per triple; every
    # series has 8 terms, so the seed changes the values, not the cost
    rng = random.Random(seed)
    series_cls = pf.series.TruncatedSeries
    triples = []

    def rand_series():
        entries = {}
        while len(entries) < 8:
            key = (rng.randint(0, 8), (rng.randint(-2, 3), rng.randint(-2, 3)))
            entries[key] = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        return entries

    def ring_laws(label, a, b, c):
        def run(checks):
            checks.check(a * b == b * a, label + ": a*b != b*a")
            checks.check((a * b) * c == a * (b * c), label + ": (a*b)*c != a*(b*c)")
            checks.check(a * (b + c) == a * b + a * c, label + ": a*(b+c) != a*b+a*c")
        return run

    for i in range(20 if tiny else 400):
        entries = (rand_series(), rand_series(), rand_series())
        triples.append([sorted([d, list(e), v] for (d, e), v in x.items()) for x in entries])
        a, b, c = (series_cls(8, 2, x) for x in entries)
        label = "ring/%03d" % i
        requests.append((label, ring_laws(label, a, b, c)))
    return Workload("series_product", requests,
                    {"requests": [label for label, _ in requests], "triples": triples})


# ---------------------------------------------------------------------------
# cli_mix: one closed-loop client making in-process cli.main calls


def call_cli(pf, argv):
    """Run cli.main in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pf.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Requests of each kind in one full-size pass (1000 in all, a pair counting
# two).  The costly kinds take their cost parameters from fixed lists, so the
# slowest one per cent of requests has the same make-up under every seed.
CLI_MIX = {
    "omega": 150,  # pairs
    "split2": 60,  # pairs
    "merge2": 60,  # pairs
    "flatten": 50,  # pairs
    "count": 100,
    "enumerate": 50,
    "verify-deg2": 20,
    "verify": 30,
    "series": 60,
    "malformed": 80,
    "prefix-label": 20,
}
DEG2_CELLS = ((1, 12), (2, 11), (2, 12), (3, 10), (3, 11), (4, 9), (4, 10))
IDENTITY_CELLS = (("euler", None, 20), ("glaisher", 2, 20), ("glaisher", 3, 20),
                  ("keith_xiong", 2, 10), ("keith_xiong", 3, 12),
                  ("glaisher_analogue", 3, 12), ("siladic_companion", None, 16))
PREFIX_LENGTHS = (18, 19, 20, 21)
COUNT_FAMILIES = ("F1", "R1", "F2", "E+", "O+", "R2")
COUNT_MAX_SIZE = 6
COUNT_MAX_WORD = 3


def _cli_mix(pf, seed, tiny):
    rng = random.Random(seed)
    scale = 20 if tiny else 1
    paths = {name: str(ENERGY_DIR / ("two_color_%s.energy" % name))
             for name in ("strict", "mixed")}
    shipped = shipped_energies(pf)
    Budget = pf.families.Budget
    pool_budget = Budget(5, 6) if tiny else Budget(9, 10)
    fmt = pf.core.format_partition

    def pool(name, tag, degree=None):
        colors, energy = shipped[name]
        found = pf.families.members(tag, energy, colors, pool_budget, degree=degree)
        return [fmt(pi, colors, energy) for pi in found]

    pools = {(name, tag): pool(name, tag)
             for name in shipped for tag in ("F1", "R1", "F2")}
    for name in shipped:
        for k in (2, 3):
            pools[(name, "F%d" % k)] = pool(name, "Fk", degree=k)

    # count answers by an independent route: one unfiltered walk per family,
    # bucketed by word and size (count_by_word walks with the word filter)
    counts = {}
    for name, (colors, energy) in shipped.items():
        families = COUNT_FAMILIES if name == "strict" else COUNT_FAMILIES[:-1]
        for tag in families:
            budget = Budget(COUNT_MAX_SIZE, COUNT_MAX_SIZE + COUNT_MAX_WORD + 1)
            for pi in pf.families.members(tag, energy, colors, budget):
                size, word = size_and_word(pi, energy, colors.ground)
                key = (name, tag, "".join(colors.label(c) for c in word), size)
                counts[key] = counts.get(key, 0) + 1

    requests = []  # (kind, argv, check, follow-up argv builder or None)

    def pair(kind, name, first, second, text, extra=()):
        argv1 = [first, "--energy", paths[name], *extra, "--in", text]
        requests.append((kind, argv1, text, lambda out: [
            second, "--energy", paths[name], *extra, "--in", out.strip()]))

    def n_of(kind):
        return max(1, CLI_MIX[kind] // scale)

    for _ in range(n_of("omega")):
        name = rng.choice(("strict", "mixed"))
        if rng.random() < 0.5:
            pair("omega", name, "omega", "omega-inv", rng.choice(pools[(name, "F1")]))
        else:
            pair("omega", name, "omega-inv", "omega", rng.choice(pools[(name, "R1")]))
    for _ in range(n_of("split2")):
        name = rng.choice(("strict", "mixed"))
        pair("split2", name, "split2", "merge2", rng.choice(pools[(name, "F2")]))
    for _ in range(n_of("merge2")):
        name = rng.choice(("strict", "mixed"))
        pair("merge2", name, "merge2", "split2", rng.choice(pools[(name, "F1")]))
    for _ in range(n_of("flatten")):
        name, k = rng.choice(("strict", "mixed")), rng.choice((2, 3))
        text = rng.choice(pools[(name, "F%d" % k)])
        argv1 = ["flatten", "--energy", paths[name], "--degree", str(k), "--in", text]
        requests.append(("flatten", argv1, text, lambda out, name=name, k=k: [
            "flatten", "--energy", paths[name], "--degree", str(k), "--invert",
            "--in", out.strip()]))
    for _ in range(n_of("count")):
        name = rng.choice(("strict", "mixed"))
        tag = rng.choice(COUNT_FAMILIES if name == "strict" else COUNT_FAMILIES[:-1])
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, COUNT_MAX_WORD)))
        size = rng.randint(0, COUNT_MAX_SIZE)
        requests.append(("count", ["count", "--family", tag, "--energy", paths[name],
                                   "--word", word, "--size", str(size)],
                         counts.get((name, tag, word, size), 0), None))
    for _ in range(n_of("enumerate")):
        name = rng.choice(("strict", "mixed"))
        tag = rng.choice(COUNT_FAMILIES[:-1])
        max_size = rng.randint(2, 5)
        colors, energy = shipped[name]
        want = len(pf.families.members(tag, energy, colors, Budget(max_size, max_size + 1)))
        requests.append(("enumerate", ["enumerate", "--family", tag, "--energy", paths[name],
                                       "--max-size", str(max_size)], (want, max_size), None))
    for i in range(n_of("verify-deg2")):
        length, max_size = DEG2_CELLS[i % len(DEG2_CELLS)]
        name = ("strict", "mixed")[i % 2]
        word = "".join(rng.choice("ab") for _ in range(length))
        requests.append(("verify-deg2", ["verify-deg2", "--energy", paths[name], "--word", word,
                                         "--max-size", str(max_size)], None, None))
    for i in range(n_of("verify")):
        name, m, order = IDENTITY_CELLS[i % len(IDENTITY_CELLS)]
        argv = ["verify", "--identity", name, "--order", str(order)]
        requests.append(("verify", argv + (["--m", str(m)] if m else []), None, None))
    for _ in range(n_of("series")):
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.4:
                factors.append({"offset": rng.randint(1, 3), "modulus": rng.randint(1, 3),
                                "reciprocal": True})
            else:
                factors.append({"sign": rng.choice((1, -1)), "offset": rng.randint(1, 3),
                                "modulus": rng.randint(1, 3)})
        order = rng.randint(10, 25)
        want = univariate_product(
            [pf.series.ProductFactor(f.get("sign", 1), (), f["offset"], f["modulus"],
                                     f.get("reciprocal", False)) for f in factors], order)
        requests.append(("series", ["series", "--factors", json.dumps(factors),
                                    "--order", str(order)], want, None))
    malformed = (
        lambda: ["omega", "--energy", paths["strict"],
                 "--in", "%dz 0c" % rng.randint(1, 9)],  # unknown color
        lambda: ["omega", "--energy", paths["mixed"],  # not a flat member
                 "--in", _bump_first(rng.choice(pools[("mixed", "F1")][1:]))],
        lambda: ["split2", "--energy", paths["strict"],  # wrong parity
                 "--in", "%dab 0cc" % (2 * rng.randint(1, 5))],
        lambda: ["omega", "--energy", str(MISSING_ENERGY), "--in", "0c"],  # no file
        lambda: ["count", "--family", "Q%d" % rng.randint(1, 9), "--energy", paths["strict"],
                 "--word", "a", "--size", "1"],  # argparse rejects the family
    )
    for i in range(n_of("malformed")):
        requests.append(("malformed", malformed[i % len(malformed)](), None, None))
    for i in range(n_of("prefix-label")):
        token = "1" + "a" * PREFIX_LENGTHS[i % len(PREFIX_LENGTHS)]
        requests.append(("prefix-label", ["omega", "--energy", str(PREFIX_ENERGY),
                                          "--in", token + " 0g"], None, None))
    rng.shuffle(requests)

    out = []
    for i, (kind, argv, want, follow) in enumerate(requests):
        out += _cli_requests(pf, "cli/%04d/%s" % (i, kind), kind, argv, want, follow)
    return Workload("cli_mix", out, {"requests": [[kind, argv] for kind, argv, _, _ in requests]})


def _bump_first(text):
    """Partition text with its first part one larger: no longer flat."""
    first, rest = text.split(" ", 1)
    i = len(first.rstrip("abc"))
    return "%d%s %s" % (int(first[:i]) + 1, first[i:], rest)


def _cli_requests(pf, label, kind, argv, want, follow):
    """A request's functions: one cli.main call, or a roundtrip pair of two."""
    if follow is not None:
        state = {}

        def forward(checks):
            state["out"] = None
            code, out, err = call_cli(pf, argv)
            state["out"] = out
            checks.check(code == 0 and out.count("\n") == 1,
                         "%s: exit %r, %r" % (label, code, err[-200:]))
            checks.check(text_size_and_word(out, "c") == text_size_and_word(want, "c"),
                         "%s: size or word changed: %r -> %r" % (label, want, out))

        def inverse(checks):
            code, out, err = call_cli(pf, follow(state["out"]))
            checks.check(code == 0 and out == want + "\n",
                         "%s: inverse gave %r (exit %r)" % (label, out, code))

        return [(label + "/fwd", forward), (label + "/inv", inverse)]

    def run(checks):
        code, out, err = call_cli(pf, argv)
        if kind in ("malformed", "prefix-label"):
            checks.check(code == 2 and out == "" and err.startswith(("error:", "usage:")),
                         "%s: expected exit 2, got %r %r" % (label, code, err[-200:]))
        elif kind == "count":
            checks.check(code == 0 and out == "%d\n" % want,
                         "%s: count %r, independent count %d" % (label, out, want))
        elif kind == "enumerate":
            lines = out.splitlines()
            checks.check(code == 0 and len(lines) == want[0] == len(set(lines))
                         and all(text_size_and_word(ln, "c")[0] <= want[1] for ln in lines),
                         "%s: %d lines, expected %d" % (label, len(lines), want[0]))
        elif kind in ("verify-deg2", "verify"):
            checks.check(code == 0 and out.endswith("verdict: pass\n"),
                         "%s: exit %r" % (label, code))
        elif kind == "series":
            checks.check(code == 0 and _parse_series(out, len(want) - 1) == want,
                         "%s: %r != %r" % (label, out, want))
        else:
            raise ValueError("unknown request kind %r" % (kind,))
    return [(label, run)]


def _parse_series(text, order):
    """Coefficients up to q^order of univariate series text like '1 + -2*q^3'."""
    coeffs = {}
    if text.strip() != "0":
        for chunk in text.strip().split(" + "):
            bits = chunk.split("*")
            coeffs[int(bits[1][2:]) if len(bits) > 1 else 0] = int(bits[0])
    return [coeffs.get(d, 0) for d in range(order + 1)]
