"""Outside-in tracer for partition_forge.

The tracer times calls into the package's public functions without
changing any file of the package: ``install`` replaces each listed
function, in every loaded ``partition_forge`` namespace that binds it,
with a timing wrapper, and ``uninstall`` puts the originals back.

Every wrapped call updates one ``Stat`` per metric name (calls, inclusive
seconds, self seconds, items produced, slowest call).  Calls of the
functions marked hot (the per-member maps, validators, parsers and the
series product) are not kept as spans of their own: they are aggregated
under their nearest enclosing span.  Every other call becomes a span with
an id, the id of its parent span and the id of the request it belongs to.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_CLOCK = time.perf_counter

_FAMILY_TAGS = {"F1": "F1", "R1": "R1", "F2": "F2", "R2": "R2",
                "E+": "E_plus", "O+": "O_plus", "Fk": "Fk"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _members_tag(args, kwargs):
    return "families.members." + _FAMILY_TAGS.get(_arg(args, kwargs, 0, "tag"), "other")


# (module, attribute, metric name, hot, items produced by one call, extra
# metric name).  The items count is what the per-layer ".out" style metrics
# report; the extra name splits a call into a second, finer Stat.
TARGETS = (
    ("core", "load_energy", "core.load_energy", True, None, None),
    ("core", "parse_partition", "core.parse_partition", True, None, None),
    ("core", "format_partition", "core.format_partition", True, None, None),
    ("families", "members", "families.members", False,
     lambda a, k, r: len(r), _members_tag),
    ("families", "flat_walk", "families.flat_walk", False, lambda a, k, r: len(r), None),
    ("families", "count_by_word", "families.count_by_word", False, lambda a, k, r: r, None),
    ("families", "validate_member", "families.validate_member", True, None, None),
    ("deg1", "omega", "deg1.omega", True, None, None),
    ("deg1", "omega_inv", "deg1.omega_inv", True, None, None),
    ("deg2", "split_flat2", "deg2.maps", True, None, None),
    ("deg2", "merge_flat1", "deg2.maps", True, None, None),
    ("deg2", "strip_ground", "deg2.maps", True, None, None),
    ("deg2", "add_ground", "deg2.maps", True, None, None),
    ("deg2", "rmap", "deg2.maps", True, None, None),
    ("deg2", "rmap_inv", "deg2.maps", True, None, None),
    ("deg2", "verify_flatreg2", "deg2.verify_flatreg2", False, None, None),
    ("degk", "flatten_k", "degk.flatten_k", True, None, None),
    ("degk", "unflatten_k", "degk.unflatten_k", True, None, None),
    ("series", "TruncatedSeries.__mul__", "series.mul", True,
     lambda a, k, r: len(r.coeffs), None),
    ("series", "TruncatedSeries.__rmul__", "series.mul", True,
     lambda a, k, r: len(r.coeffs), None),
    ("series", "pochhammer_expand", "series.pochhammer_expand", False, None, None),
    ("series", "gf_from_partitions", "series.gf_from_partitions", False,
     lambda a, k, r: len(_arg(a, k, 0, "partitions")), None),
    ("characters", "verify_character", "characters.verify_character", False, None, None),
    ("characters", "character_lhs", "characters.character_lhs", False, None, None),
    ("characters", "character_rhs", "characters.character_rhs", False, None, None),
    ("characters", "verify_named_identity", "characters.verify_named_identity",
     False, None, None),
    ("classic", "count", "classic.count", False, None, None),
    ("cli", "main", "cli.main", False, None, None),
)


class Stat:
    """Totals for one metric name over the calls since the last reset."""

    __slots__ = ("calls", "s", "self_s", "out", "child_out", "max_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.out = 0
        self.child_out = 0
        self.max_s = 0.0


class Tracer:
    """Installs timing wrappers and collects stats and spans in memory."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped = []
        self._frames = []  # [child seconds, child items] per open call
        self._open_spans = []  # span records still open, innermost last
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, name, attrs=None):
        parent = self._open_spans[-1] if self._open_spans else None
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else None,
            "name": name,
            "start": _CLOCK(),
            "end": None,
            "self_s": None,
            "agg": {},
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        self._open_spans.append(span)
        return span

    def _close(self, span, child_s):
        span["end"] = _CLOCK()
        span["self_s"] = span["end"] - span["start"] - child_s
        self._open_spans.pop()

    @contextmanager
    def span(self, name, request=False, **attrs):
        """A span opened by the benchmark itself, such as a pass or a request."""
        span = self._open(name, attrs)
        if request:
            span["request"] = span["id"]
        frame = [0.0, 0]
        self._frames.append(frame)
        try:
            yield span
        finally:
            self._frames.pop()
            self._close(span, frame[0])
            if self._frames:
                self._frames[-1][0] += span["end"] - span["start"]

    # -- wrapping ----------------------------------------------------------

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _wrap(self, fn, name, hot, items, split):
        tracer = self
        frames = self._frames
        open_spans = self._open_spans

        def traced(*args, **kwargs):
            span = None if hot else tracer._open(name)
            frame = [0.0, 0]
            frames.append(frame)
            t0 = _CLOCK()
            out = 0
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    out = items(args, kwargs, result)
                return result
            finally:
                dur = _CLOCK() - t0
                frames.pop()
                names = (name,) if split is None else (name, split(args, kwargs))
                for key in names:
                    stat = tracer._stat(key)
                    stat.calls += 1
                    stat.s += dur
                    stat.self_s += dur - frame[0]
                    stat.out += out
                    stat.child_out += frame[1]
                    if dur > stat.max_s:
                        stat.max_s = dur
                if frames:
                    frames[-1][0] += dur
                    frames[-1][1] += out
                if span is not None:
                    tracer._close(span, frame[0])
                elif open_spans:
                    agg = open_spans[-1]["agg"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target in every loaded partition_forge namespace."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "partition_forge" or key.startswith("partition_forge.")]
        self.dropped = []
        for module, attr, name, hot, items, split in TARGETS:
            owner = sys.modules.get("partition_forge." + module)
            owner_attr = attr
            if owner is not None and "." in attr:
                cls_name, owner_attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, owner_attr, None) if owner is not None else None
            if original is None:
                self.dropped.append("%s.%s: not found" % (module, attr))
                continue
            wrapper = self._wrap(original, name, hot, items, split)
            if "." in attr:
                self._patch(owner, owner_attr, original, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_stats(self):
        """Return the stats gathered since the last call and start afresh."""
        stats, self.stats = self.stats, {}
        return stats


def layer_metrics(stats):
    """The per-layer metrics of one traced pass, from its stats."""
    def get(name):
        return stats.get(name) or Stat()

    def per_call(stat, seconds, scale):
        return seconds / stat.calls * scale if stat.calls else 0.0

    out = {}
    members = get("families.members")
    out["families.members.calls"] = members.calls
    out["families.members.s"] = members.s
    out["families.members.out"] = members.out
    for tag in ("F1", "R1", "F2", "R2", "E_plus", "O_plus", "Fk"):
        stat = get("families.members." + tag)
        out["families.members.%s.s" % tag] = stat.s
        out["families.members.%s.out" % tag] = stat.out
    # only flat_walk is a traced child of members; the private walks of the
    # other families stay inside this self time
    out["families.members.self_s"] = members.self_s
    walk = get("families.flat_walk")
    out["families.flat_walk.s"] = walk.s
    out["families.flat_walk.out"] = walk.out
    cbw = get("families.count_by_word")
    out["families.count_by_word.calls"] = cbw.calls
    out["families.count_by_word.s"] = cbw.s
    out["families.count_by_word.yield"] = cbw.out / cbw.child_out if cbw.child_out else 0.0
    val = get("families.validate_member")
    out["families.validate_member.calls"] = val.calls
    out["families.validate_member.us_per_call"] = per_call(val, val.s, 1e6)
    for name in ("deg1.omega", "deg1.omega_inv"):
        stat = get(name)
        out[name + ".calls"] = stat.calls
        out[name + ".us_per_call"] = per_call(stat, stat.s, 1e6)
    vf = get("deg2.verify_flatreg2")
    out["deg2.verify_flatreg2.calls"] = vf.calls
    out["deg2.verify_flatreg2.s"] = vf.s
    maps = get("deg2.maps")
    out["deg2.maps.calls"] = maps.calls
    out["deg2.maps.self_us_per_call"] = per_call(maps, maps.self_s, 1e6)
    for name in ("degk.flatten_k", "degk.unflatten_k"):
        stat = get(name)
        out[name + ".us_per_call"] = per_call(stat, stat.s, 1e6)
    mul = get("series.mul")
    out["series.mul.calls"] = mul.calls
    out["series.mul.s"] = mul.s
    out["series.mul.terms_out"] = mul.out
    out["series.pochhammer_expand.s"] = get("series.pochhammer_expand").s
    gf = get("series.gf_from_partitions")
    out["series.gf_from_partitions.s"] = gf.s
    out["series.gf_from_partitions.partitions_in"] = gf.out
    for name in ("characters.character_lhs", "characters.character_rhs",
                 "characters.verify_named_identity"):
        out[name + ".s"] = get(name).s
    count = get("classic.count")
    out["classic.count.calls"] = count.calls
    out["classic.count.s"] = count.s
    for name in ("core.load_energy", "core.format_partition"):
        stat = get(name)
        out[name + ".us_per_call"] = per_call(stat, stat.s, 1e6)
    parse = get("core.parse_partition")
    out["core.parse_partition.calls"] = parse.calls
    out["core.parse_partition.s"] = parse.s
    out["core.parse_partition.max_ms"] = parse.max_s * 1e3
    main = get("cli.main")
    out["cli.main.calls"] = main.calls
    out["cli.main.self_ms_per_call"] = per_call(main, main.self_s, 1e3)
    return out


# unit of each per-layer metric, by the suffix of its name
def layer_unit(name):
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count", "out": "count", "terms_out": "count",
        "partitions_in": "count", "s": "s", "self_s": "s",
        "us_per_call": "us", "self_us_per_call": "us",
        "self_ms_per_call": "ms", "max_ms": "ms",
        "yield": "ratio", "overhead_frac": "ratio",
    }[suffix]
