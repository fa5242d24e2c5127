"""Bergman-space commutator summability on egg domains.

Computes monomial norms and commutator eigenvalues on generalized complex
ellipsoids, locates Schatten summability cut-offs empirically by lattice
shell summation, evaluates the closed-form threshold predictions, and
checks multi-index zeta series against their exact critical exponents.
"""

from .commutator import (
    CommutatorKind,
    CrossBetween,
    CrossWithin,
    SelfAdjoint,
    all_kinds,
    asymptotic_eigenvalue,
    eigenvalue,
    eigenvalue_bulk,
)
from .domain import (
    BlockSpec,
    DomainSpec,
    dimension,
    log_norm,
    log_norm_bulk,
    log_norm_omega1,
    mc_norm_oracle,
)
from .errors import BracketError, ResourceCapError, ValidationError
from .gammakit import (
    ExpansionKind,
    exact_ratio,
    expansion_value,
    log_gamma,
    log_gamma_ratio,
    log_gamma_second_difference,
    log_multibeta,
    verify_expansion,
)
from .summability import (
    SummationReport,
    ThresholdReport,
    Verdict,
    empirical_threshold,
    module_threshold,
    module_threshold_breakdown,
    predicted_threshold,
    shell_report,
    threshold_report,
)
from .zetalab import (
    AbsFactor,
    Family,
    GroupFactor,
    ZetaSeriesSpec,
    brute_shell_sums,
    critical_b,
    family_of,
    reduce_group,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "DomainSpec",
    "dimension",
    "log_norm",
    "log_norm_bulk",
    "log_norm_omega1",
    "mc_norm_oracle",
    "SelfAdjoint",
    "CrossWithin",
    "CrossBetween",
    "CommutatorKind",
    "all_kinds",
    "eigenvalue",
    "eigenvalue_bulk",
    "asymptotic_eigenvalue",
    "ExpansionKind",
    "log_gamma",
    "log_gamma_ratio",
    "log_gamma_second_difference",
    "log_multibeta",
    "exact_ratio",
    "expansion_value",
    "verify_expansion",
    "SummationReport",
    "ThresholdReport",
    "Verdict",
    "shell_report",
    "threshold_report",
    "empirical_threshold",
    "predicted_threshold",
    "module_threshold",
    "module_threshold_breakdown",
    "ZetaSeriesSpec",
    "GroupFactor",
    "AbsFactor",
    "Family",
    "critical_b",
    "family_of",
    "reduce_group",
    "brute_shell_sums",
    "ValidationError",
    "BracketError",
    "ResourceCapError",
    "__version__",
]
