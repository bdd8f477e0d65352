"""Exception hierarchy for solver and configuration failures.

Each class carries the exit code the command line returns for it and the
label it prints before the message; CsvortexError is only the base class.
"""


class CsvortexError(Exception):
    """Base class for all package errors."""
    exit_code, label = 1, "error"


class ConfigError(CsvortexError):
    """Malformed or inconsistent run configuration / input files."""
    exit_code, label = 1, "config error"


class DomainError(CsvortexError):
    """Invalid grid domain or domain mismatch between fields."""
    exit_code, label = 1, "config error"


class FieldFileError(DomainError):
    """A stored field that verify or decay-fit cannot read or use."""
    exit_code, label = 1, "error"


class NonFiniteFieldError(CsvortexError):
    """A kernel produced NaN/Inf; carries the offending node index."""
    exit_code, label = 3, "solver failure"

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class InfeasibleError(CsvortexError):
    """The necessary torus existence condition alpha*beta*|Omega| >= 8*pi*n fails."""
    exit_code, label = 4, "infeasible"

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class AdmissibilityError(CsvortexError):
    """A state violates the inequality constraints defining the admissible set."""
    exit_code, label = 3, "solver failure"

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class BoundaryTrappingError(CsvortexError):
    """Descent step length underflowed against the admissible-set boundary.

    Signature of the coupling alpha being below the multiplicity threshold.
    constraint names the inequality that rejected the last trial step.
    """
    exit_code, label = 3, "solver failure"

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class NonConvergenceError(CsvortexError):
    """Iteration budget exhausted; carries the last iterate and gradient norm."""
    exit_code, label = 3, "solver failure"

    def __init__(self, message, state=None, grad_norm=None):
        super().__init__(message)
        self.state = state
        self.grad_norm = grad_norm


class MountainPassCollapseError(CsvortexError):
    """No second solution: no vortices, or the saddle descent reached the first solution."""
    exit_code, label = 3, "solver failure"


class DiagnosticFailure(CsvortexError):
    """A verification check on a stored or computed solution failed."""
    exit_code, label = 2, "diagnostic failure"
