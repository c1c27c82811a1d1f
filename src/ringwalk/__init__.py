"""Add-or-multiply random walks on finite rings with identity.

Construct a finite ring, pick a similarity-class-constant multiplication
distribution Q and a coin bias alpha, and study the walk that adds a
uniform element on heads and multiplies by a Q-sample on tails: its exact
transition matrices, its spectrum (numeric, from B's diagonal blocks, and
closed form for 2x2 matrix rings over odd prime fields), its exact
stationary distribution, and its total-variation mixing behaviour.
"""

from .chain import (
    ClassDistribution,
    TransitionMatrix,
    build_B,
    build_M,
    chain_matrix,
)
from .errors import RingwalkError
from .fields import GF, gf
from .gl2 import CharacterTable, character_table, conj_classes, irreps
from .mixing import (
    MixingCurve,
    SimulationResult,
    d_of_t,
    mixing_bound,
    simulate,
    tv_distance,
)
from .rings import (
    FiniteRing,
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from .spectrum import (
    EigenvalueMultiset,
    Gl2SpectrumReport,
    block_spectrum,
    eig_numeric,
    gl2_spectrum,
    is_multiplicity_free_nonunit,
)
from .stationary import (
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "ClassDistribution", "TransitionMatrix", "build_B", "build_M",
    "chain_matrix",
    "RingwalkError",
    "GF", "gf",
    "CharacterTable", "character_table", "conj_classes", "irreps",
    "MixingCurve", "SimulationResult", "d_of_t", "mixing_bound",
    "simulate", "tv_distance",
    "FiniteRing", "matrix_ring", "product_ring", "upper_triangular_ring",
    "zn_ring",
    "EigenvalueMultiset", "Gl2SpectrumReport", "block_spectrum",
    "eig_numeric", "gl2_spectrum",
    "is_multiplicity_free_nonunit",
    "stationary_gl2", "stationary_recursive", "stationary_solve",
    "stationary_uniform",
    "__version__",
]
