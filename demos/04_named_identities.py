"""Run the named partition identities and print their count tables."""

from partition_forge.characters import verify_named_identity

for name, m, order in (
    ("euler", None, 12),
    ("glaisher", 3, 12),
    ("keith_xiong", 3, 12),
    ("glaisher_analogue", 3, 18),
    ("siladic_companion", None, 16),
):
    report = verify_named_identity(name, order, m=m)
    label = name if m is None else "%s(m=%d)" % (name, m)
    print("%s: %s" % (label, "pass" if report["pass"] else "FAIL"))
    keys = [k for k in report["rows"][0] if k not in ("n", "match")]
    print("  n  " + "  ".join("%16s" % k for k in keys))
    for row in report["rows"]:
        print("  %-3d" % row["n"] + "  ".join("%16d" % row[k] for k in keys))
    print()
