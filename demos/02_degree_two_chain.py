"""Count all six degree-two families on a grid and watch them agree.

Secondary parts are sums of two chained primary parts.  For every fixed
color word and total size, the flat and regular families at degree one and
two, together with the two half-line families of mixed partitions, are
equinumerous; four of the five links are explicit bijections in this
package and the fifth is verified by counting.
"""

from partition_forge import load_energy
from partition_forge.deg2 import flatreg2_table, merge_flat1, rmap, split_flat2
from partition_forge.families import Budget, members
from partition_forge.core import format_partition

colors, energy = load_energy("demos/energies/two_color_strict.energy")
a, b = colors.index("a"), colors.index("b")

print("word=ab, six families per size:")
print("n    F2  F1  R1   O   E  R2")
for row in flatreg2_table(energy, colors, (a, b), 10):
    counts = row["counts"]
    print("%-3d" % row["n"], " ".join("%3d" % counts[k] for k in ("F2", "F1", "R1", "O", "E", "R2")))

print()
print("one F2 member through the chain:")
pi2 = members("F2", energy, colors, Budget(9, 4, word=(a, b)))[-1]
pi1 = split_flat2(pi2, energy, colors)
print("  F2:", format_partition(pi2, colors, energy))
print("  F1:", format_partition(pi1, colors, energy))
print("  back:", "ok" if merge_flat1(pi1, energy, colors) == pi2 else "BROKEN")

print()
print("a mixed partition embeds into secondary regular parts:")
mixed = members("E+", energy, colors, Budget(8, 4, word=(a, b)))[-1]
print("  E :", format_partition(mixed, colors, energy))
print("  R2:", format_partition(rmap(mixed, energy, colors), colors, energy))
