"""Exact multidimensional continued fractions over the p-adic numbers.

Layers: padic (valuations, balanced digits, the Browkin truncation,
division, truncated arithmetic), numberfield (Q(theta) arithmetic, p-adic
roots via Newton polygon plus Hensel lifting, embeddings, exact linear
dependence), mcf (the convergent table, the determinant identity read off
its window, rescaling, finite evaluation, strong convergence),
jacobi_perron (the expansion algorithm, its Euclidean form, termination
and periodicity detection), and cli (the command-line front end).
"""

from .errors import (
    AmbiguousSelection,
    FieldMismatch,
    InsufficientPrecision,
    InternalMismatch,
    LiftingObstruction,
    NoRoot,
    PrecisionExhausted,
    VerificationFailed,
    ZeroDenominatorConvergent,
    ZeroIntermediate,
    ZeroWeight,
)
from .padic import (
    PLUS_INFINITY,
    BalancedDigits,
    PAdicApprox,
    balanced_digit_expansion,
    browkin_s,
    padic_divide,
    valuation,
)
from .numberfield import (
    AlgebraicNumber,
    NumberField,
    PAdicEmbedding,
    embed,
    padic_roots,
    rational_linear_dependence,
)
from .mcf import (
    MCF,
    ConditionReport,
    ConvergentsTable,
    StrongConvergenceSeq,
    check_convergence_conditions,
    convergents_of,
    dehomogenize,
    determinant_check,
    evaluate_finite,
    reconstruct_initial,
    rescale,
    strong_convergence_sequence,
)
from .jacobi_perron import (
    ExpansionResult,
    JPState,
    ReexpandReport,
    StepResult,
    euclid_expand,
    jp_expand,
    jp_step,
    lift_to_integer_tuple,
    reexpand_check,
    verify_termination_dependence,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "AmbiguousSelection",
    "BalancedDigits",
    "ConditionReport",
    "ConvergentsTable",
    "ExpansionResult",
    "FieldMismatch",
    "InsufficientPrecision",
    "InternalMismatch",
    "JPState",
    "LiftingObstruction",
    "MCF",
    "NoRoot",
    "NumberField",
    "PAdicApprox",
    "PAdicEmbedding",
    "PAPER_CASES",
    "PLUS_INFINITY",
    "PrecisionExhausted",
    "ReexpandReport",
    "StepResult",
    "StrongConvergenceSeq",
    "VerificationFailed",
    "ZeroDenominatorConvergent",
    "ZeroIntermediate",
    "ZeroWeight",
    "balanced_digit_expansion",
    "browkin_s",
    "check_convergence_conditions",
    "convergents_of",
    "dehomogenize",
    "determinant_check",
    "embed",
    "euclid_expand",
    "evaluate_finite",
    "jp_expand",
    "jp_step",
    "lift_to_integer_tuple",
    "padic_divide",
    "padic_roots",
    "rational_linear_dependence",
    "reconstruct_initial",
    "reexpand_check",
    "rescale",
    "run_paper_examples",
    "strong_convergence_sequence",
    "valuation",
    "verify_termination_dependence",
]


def __getattr__(name):
    """PAPER_CASES and run_paper_examples, imported on first use (PEP 562)."""
    if name in ("PAPER_CASES", "run_paper_examples"):
        from . import worked_examples
        return getattr(worked_examples, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
