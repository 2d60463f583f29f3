"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """A mathematical precondition failed (e.g. an iterated log left (0, inf))."""


class RangeError(ValueError):
    """An index or query range fell outside a tabulated series."""


class ConfigError(ValueError):
    """Invalid model or simulation parameters."""


class ResourceError(RuntimeError):
    """A requested tabulation exceeds the configured memory budget."""


class ConvergenceWarning(RuntimeWarning):
    """``lmax return``: the bracket is wider than ``--tolerance``; only the CLI warns it."""
