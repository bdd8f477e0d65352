"""Exception hierarchy for solver and configuration failures.

Exit-code mapping used by the command line front end:
  ConfigError -> 1, DiagnosticFailure -> 2, NonConvergenceError -> 3,
  InfeasibleError -> 4.
"""


class CsvortexError(Exception):
    """Base class for all package errors."""


class ConfigError(CsvortexError):
    """Malformed or inconsistent run configuration / input files."""


class DomainError(CsvortexError):
    """Invalid grid domain or domain mismatch between fields."""


class NonFiniteFieldError(CsvortexError):
    """A kernel produced NaN/Inf; carries the offending node index."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class InfeasibleError(CsvortexError):
    """The necessary torus existence condition alpha*beta*|Omega| >= 8*pi*n fails."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class AdmissibilityError(CsvortexError):
    """A state violates the inequality constraints defining the admissible set."""

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class BoundaryTrappingError(CsvortexError):
    """Descent step length underflowed against the admissible-set boundary.

    Signature of the coupling alpha being below the multiplicity threshold.
    constraint names the inequality that rejected the last trial step.
    """

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class NonConvergenceError(CsvortexError):
    """Iteration budget exhausted; carries the last iterate and gradient norm."""

    def __init__(self, message, state=None, grad_norm=None):
        super().__init__(message)
        self.state = state
        self.grad_norm = grad_norm


class MountainPassCollapseError(CsvortexError):
    """No second solution: no vortices, or the saddle descent reached the first solution."""


class DiagnosticFailure(CsvortexError):
    """A verification check on a stored or computed solution failed."""

    def __init__(self, message, check=None):
        super().__init__(message)
        self.check = check
