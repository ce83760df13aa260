"""Exception types shared by every solver module.

All numerical failure modes raise a subclass of SolverError so callers can
distinguish "the algorithm could not deliver" from programming errors or bad
input (ValidationError).
"""


class ValidationError(ValueError):
    """Malformed input: bad shapes, broken row sums, negative rates, bad JSON."""


class SolverError(RuntimeError):
    """Base class for numerical failures."""


class SingularMatrix(SolverError):
    """A system is singular or too ill-conditioned to solve, or a rank pattern is wrong."""


class NoConvergence(SolverError):
    """An iteration hit its sweep cap before reaching tolerance."""


class Unstable(SolverError):
    """The chain is not positive recurrent, so tails do not exist."""


class Reducible(SolverError):
    """The model decouples (e.g. no upward flow) and has no proper tail structure."""


class StepUnstable(SolverError):
    """An ODE trajectory left the admissible region."""


class NearCritical(SolverError):
    """Drift indistinguishable from zero: recurrence class cannot be decided."""


class SizeLimit(SolverError):
    """A truncation would exceed the supported problem size."""
