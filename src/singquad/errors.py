"""Exception types shared across the package."""

__all__ = [
    "SingquadError",
    "SizeError",
    "InputError",
    "DomainError",
    "ProfileError",
    "ConfigError",
    "InsufficientDataError",
    "NumericError",
    "IntegrandError",
    "OracleError",
]


class SingquadError(Exception):
    """Base class for all package-specific errors."""


class SizeError(SingquadError, ValueError):
    """Rule, transform or cache size is invalid."""


class InputError(SingquadError, ValueError):
    """Malformed input values (non-finite samples, wrong shape)."""


class DomainError(SingquadError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class ProfileError(SingquadError, ValueError):
    """Singularity profile violates its invariants."""


class ConfigError(SingquadError, ValueError):
    """Invalid configuration (ladder too short, bad experiment setup)."""


class InsufficientDataError(SingquadError, ValueError):
    """Too few usable data points for a fit."""


class NumericError(SingquadError, RuntimeError):
    """A numeric procedure failed (non-convergence, invariant breach)."""


class IntegrandError(NumericError):
    """Integrand returned a non-finite value at ``node``."""

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node


class OracleError(NumericError):
    """Reference oracle failed to converge to the requested tolerance."""


def _size(n, minimum, error=SizeError, what="size must be an integer", even=False, got=None) -> int:
    """The one size rule: ``int(n)`` for a real, finite, integral n >= minimum (even if ``even``).

    Else raises ``error(f"{what} >= {minimum}, got {n!r}")``, showing ``got`` for n if given.
    """
    if type(n) is int and n >= minimum and not (even and n % 2):
        return n
    try:
        if n >= minimum and float(n).is_integer() and not (even and n % 2):
            return int(n)
    except (TypeError, ValueError):
        pass
    raise error(f"{what} >= {minimum}, got {n if got is None else got!r}")
