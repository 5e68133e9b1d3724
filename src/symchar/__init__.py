"""Symmetric supercharacters on (Z/nZ)^d.

Exact evaluation of the permutation-symmetrized exponential sums
sigma_X(y), their value sets in the complex plane, the identities those
sets satisfy (conjugation, translation, rotation, spikes), row reduction
of orbit matrices over Z/nZ with verifiable certificates, torus-map
sampling against hypocycloid envelopes, and deterministic bitmap
rendering.
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    HypothesisFailed,
    NotAUnit,
    NoUnitPivot,
    SymcharError,
    VerificationFailed,
)
from .evaluate import (
    dot_counts,
    image,
    permanent_oracle,
    supercharacter,
    union_image,
)
from .modring import CongruenceSolution, solve_bilinear_congruence
from .orbits import (
    OrbitRep,
    canonicalize,
    enumerate_orbits,
    orbit_count,
    orbit_size,
    stabilizer_order,
)
from .report import IdentityReport

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CongruenceSolution",
    "DimensionMismatch",
    "DimensionTooLarge",
    "HypothesisFailed",
    "IdentityReport",
    "NoUnitPivot",
    "NotAUnit",
    "OrbitRep",
    "SymcharError",
    "VerificationFailed",
    "canonicalize",
    "dot_counts",
    "enumerate_orbits",
    "image",
    "orbit_count",
    "orbit_size",
    "permanent_oracle",
    "solve_bilinear_congruence",
    "stabilizer_order",
    "supercharacter",
    "union_image",
    "__version__",
]
