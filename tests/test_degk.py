from collections import Counter

import pytest

from partition_forge.core import (
    DegreeK,
    Secondary,
    UsageError,
    color_word,
    epsilon2,
    parse_partition,
    part_size,
    partition_size,
)
from partition_forge.degk import (
    degree_flat_rel,
    epsilon_k,
    flatten_k,
    gamma_parts,
    unflatten_k,
)
from partition_forge.deg2 import split_flat2
from partition_forge.families import Budget, members

from helpers import strict_energy


def test_epsilon_k_degenerate_cases():
    colors, energy = strict_energy()
    for x in range(3):
        for y in range(3):
            assert epsilon_k(energy, 1, (x,), (y,)) == energy.e(x, y)
    for x in range(3):
        for y in range(3):
            for d in range(3):
                for dp in range(3):
                    assert epsilon_k(energy, 2, (x, y), (d, dp)) == epsilon2(
                        energy, x, y, d, dp
                    )


def test_epsilon_k_cube():
    colors, energy = strict_energy()
    a = colors.index("a")
    assert epsilon_k(energy, 3, (a, a, a), (a, a, a)) == 9


def test_epsilon_k_matches_size_difference():
    # consecutive flat degree-k parts differ in size by exactly the energy
    colors, energy = strict_energy()
    for k in (2, 3):
        for pi in members("Fk", energy, colors, Budget(8, 6), degree=k):
            for x, y in zip(pi, pi[1:]):
                diff = part_size(x, energy) - part_size(y, energy)
                assert diff == epsilon_k(energy, k, x.colors, y.colors)


def test_epsilon_k_length_mismatch():
    colors, energy = strict_energy()
    with pytest.raises(UsageError):
        epsilon_k(energy, 2, (0,), (0, 1))


def test_part_sums_and_chain():
    colors, energy = strict_energy()
    for k in (2, 3):
        for pi in members("Fk", energy, colors, Budget(8, 6), degree=k):
            for part in pi:
                gammas = gamma_parts(part, energy)
                assert sum(p.size for p in gammas) == part_size(part, energy)
                for hi, lo in zip(gammas, gammas[1:]):
                    assert hi.size - lo.size == energy.e(hi.color, lo.color)


def test_degree_flat_via_halves():
    colors, energy = strict_energy()
    k = 3
    for pi in members("Fk", energy, colors, Budget(7, 5), degree=k):
        for x, y in zip(pi, pi[1:]):
            expected = (
                gamma_parts(x, energy)[-1].size - gamma_parts(y, energy)[0].size
                == energy.e(x.colors[-1], y.colors[0])
            )
            assert degree_flat_rel(x, y, energy) == expected


def test_flatten_trivial():
    colors, energy = strict_energy()
    g = colors.ground
    assert flatten_k((DegreeK(0, (g, g, g)),), energy, colors, 3) == parse_partition(
        "0c", colors, energy
    )
    assert unflatten_k(parse_partition("0c", colors, energy), energy, colors, 3) == (
        DegreeK(0, (g, g, g)),
    )


def test_roundtrips():
    colors, energy = strict_energy()
    for k in (2, 3, 4):
        for pi in members("Fk", energy, colors, Budget(9, 8), degree=k):
            flat = flatten_k(pi, energy, colors, k)
            assert unflatten_k(flat, energy, colors, k) == pi
        for pi in members("F1", energy, colors, Budget(9, 8)):
            grouped = unflatten_k(pi, energy, colors, k)
            assert flatten_k(grouped, energy, colors, k) == pi


def test_counts_match_degree_one():
    colors, energy = strict_energy()
    f1 = Counter(
        (color_word(p, colors), partition_size(p, energy))
        for p in members("F1", energy, colors, Budget(9, 12))
    )
    for k in (2, 3, 4):
        fk = Counter(
            (color_word(p, colors), partition_size(p, energy))
            for p in members("Fk", energy, colors, Budget(9, 12), degree=k)
        )
        for key, cnt in f1.items():
            assert fk[key] == cnt, (k, key)
        for key, cnt in fk.items():
            assert f1[key] == cnt, (k, key)


def test_degree_two_matches_dedicated_splitter():
    colors, energy = strict_energy()
    for pi in members("F2", energy, colors, Budget(10, 11)):
        as_degree = tuple(
            DegreeK(p.half, (p.left, p.right)) if isinstance(p, Secondary) else p
            for p in pi
        )
        assert flatten_k(as_degree, energy, colors, 2) == split_flat2(pi, energy, colors)


def test_requires_idle_ground():
    from partition_forge.core import ColorSystem, EnergyMatrix

    colors = ColorSystem(("a", "g"), 1)
    weird = EnergyMatrix(((1, 1), (0, 1)))  # eps(ground, ground) != 0
    with pytest.raises(UsageError):
        flatten_k((DegreeK(0, (1, 1)),), weird, colors, 2)
