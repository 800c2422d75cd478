"""Colored-partition bijections, exhaustive family oracles, and an exact
truncated q-series engine for verifying flat/regular partition identities
and level-one character product formulas."""

from .core import (
    ColorSystem,
    DegreeK,
    EnergyMatrix,
    EnergyStructureError,
    InvalidPartitionError,
    Primary,
    Secondary,
    SizeTransform,
    UsageError,
    color_word,
    epsilon2,
    epsilon2_prime,
    epsilon_k,
    flat_sizes,
    format_partition,
    ground_delta,
    load_energy,
    parse_energy,
    parse_partition,
    part_size,
    partition_size,
    validate_energy,
)
from .families import Budget, count_by_word, members, validate_member
from .deg1 import decompose, omega, omega_inv, recompose
from .deg2 import (
    add_ground,
    flatreg2_table,
    merge_flat1,
    rmap,
    rmap_inv,
    split_flat2,
    strip_ground,
    verify_flatreg2,
)
from .degk import flatten_k, unflatten_k
from .series import ProductFactor, TruncatedSeries, gf_from_partitions, pochhammer_expand
from .characters import (
    CHARACTER_FAMILIES,
    IDENTITIES,
    build_config,
    character_lhs,
    character_rhs,
    verify_character,
    verify_named_identity,
)

__version__ = "0.1.0"
