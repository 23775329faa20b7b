"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all of them derive from SolverError so the CLI can map math-level
failures to exit codes in one place.
"""


class SolverError(Exception):
    """Base class for all math-level failures in this package."""


class ContractionFailure(SolverError):
    """Picard iteration could not be made contracting / did not converge."""


class BlowUp(SolverError):
    """ODE arc not solved out to the target: x left the admissible region,
    or the solve did not converge or failed its residual or seed checks."""


class DomainError(SolverError):
    """Input outside the mathematical domain of the operation."""


class NoRoot(SolverError):
    """Root bracketing or refinement failed (includes out-of-validity parameters)."""


class SignChange(SolverError):
    """A quantity required to have constant sign changed sign."""


class InconsistentScale(SolverError):
    """Scaled/unscaled parameter pair does not satisfy the scaling relation."""


class EvaluationError(SolverError):
    """Evaluation of a constructed object failed (out of domain, empty data, ...)."""
