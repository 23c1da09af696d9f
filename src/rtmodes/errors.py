"""Exception types shared across the package, and :func:`storable`, which raises one."""

from contextlib import contextmanager


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """A requested value lies outside the image of an invertible map."""


class LayoutError(ValueError):
    """A vector does not conform to the expected degree-of-freedom layout."""


class ConfigurationError(ValueError):
    """A physical or run configuration is invalid."""


class VacuumError(ConfigurationError):
    """The hydrostatic profile would reach vacuum inside the slab.

    ``side`` is "lower" or "upper", naming the offending fluid domain.
    """

    def __init__(self, side, message):
        self.side = side
        super().__init__(message)


@contextmanager
def storable(what):
    """numpy's refusal to allocate in the block, as a ConfigurationError naming ``what``."""
    try:
        yield
    except (ValueError, MemoryError):
        raise ConfigurationError(f"{what}: more than can be stored") from None


class SolverError(RuntimeError):
    """An iterative solver failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
