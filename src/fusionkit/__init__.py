"""Exact combinatorics of sl(n) level-k fusion coefficients.

Lattice-path counting for Littlewood-Richardson and fusion coefficients,
the sign-reversing involutions behind them, and exhaustive verification
sweeps against a signed-sum oracle.
"""

from .coefficients import (
    UnsupportedShape,
    count_paths,
    fusion_expand,
    fusion_oracle,
    fusion_rule,
    fusion_tableaux,
    gepner_witten,
    lr_lattice,
    lr_paths,
    omega_terms,
    verify_restricted_path_identity,
)
from .involutions import (
    SignedTerm,
    canonical_violation,
    in_D1,
    in_D2,
    phi,
    phi1,
    phi2,
    psi,
)
from .partitions import (
    FusionContext,
    conjugate,
    format_partition,
    is_border,
    is_edge,
    is_restricted,
    normalize,
    parse_partition,
    quotient,
    rank_level_dual,
)
from .paths import (
    Box,
    LatticePath,
    PathTableau,
    boundary_shapes,
    diagonal_label,
    enumerate_paths,
    path_from_label_blocks,
    path_to_tableau,
)
from .words import BracketWord, fits, lower_f, raise_e, render, word_of, word_type
