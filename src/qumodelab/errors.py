"""Exception types shared across the library.

Plain ``ValueError`` is raised for ordinary domain errors (bad mode index,
malformed input). The classes below mark the cases that callers may want to
catch separately.
"""


class ParamError(ValueError):
    """A parameter value that a library check refuses; ``name`` is the
    parameter's name, so that a caller can point at the input it came from."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(message)
        self.name = name


class ConvergenceError(RuntimeError):
    """A computation could not be certified converged at the requested
    truncation (e.g. eigenvalues still moving when the cutoff is raised)."""
