"""Exact-arithmetic toolkit for Lefschetz properties of monomial complete
intersections over prime fields.

Three independent decision routes are provided and meant to be cross-checked
against each other: an exact rank oracle on multiplication matrices, closed
form base-p digit criteria, and syzygy-gap computations. Everything is pure
integer arithmetic; all values are immutable and safe to share.
"""

from .classifier import (
    base_p_digits,
    classify,
    han_delta,
    manhattan_check,
    step_violations,
)
from .graded_quotient import mult_matrix
from .lefschetz_oracle import (
    is_slp_oracle,
    is_wlp_oracle,
    kernel_witness,
    max_rank_in_every_degree,
)
from .prime_field import MatrixGFp, PrimeField, binomial_mod_p, rank
from .syzygy_gap import (
    RegionTag,
    SyzygyProfile,
    kernel_dimension,
    presentation_matrix,
    region,
    slp_via_delta,
    syzygy_profile,
)
from .verdict import KernelWitness, Verdict

__version__ = "0.1.0"

__all__ = [
    "KernelWitness",
    "MatrixGFp",
    "PrimeField",
    "RegionTag",
    "SyzygyProfile",
    "Verdict",
    "base_p_digits",
    "binomial_mod_p",
    "classify",
    "han_delta",
    "is_slp_oracle",
    "is_wlp_oracle",
    "kernel_dimension",
    "kernel_witness",
    "manhattan_check",
    "max_rank_in_every_degree",
    "mult_matrix",
    "presentation_matrix",
    "rank",
    "region",
    "slp_via_delta",
    "step_violations",
    "syzygy_profile",
    "__version__",
]
