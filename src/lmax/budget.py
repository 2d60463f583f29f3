"""The entry budget of every table, streamed or built.

One table of length n holds two float64 arrays of n+1 entries (about
320 MB at the default budget; ``series`` lists what else it allocates).
The budget bounds every table and can be changed only through the
environment variable ``LMAX_MAX_TABLE``.  Measured peak RSS: see the
README's *Table budget*.  This module imports no numpy, so a call that
only checks a depth against the budget does not load it.
"""

from __future__ import annotations

import os

from .errors import ConfigError, ResourceError

__all__ = ["DEFAULT_MAX_ENTRIES", "MAX_TABLE_ENV", "table_budget", "check_budget"]

DEFAULT_MAX_ENTRIES = 20_000_000
MAX_TABLE_ENV = "LMAX_MAX_TABLE"


def table_budget() -> tuple[int, str]:
    """The entry budget of every table, and where it comes from.

    Returns ``(int($LMAX_MAX_TABLE), "LMAX_MAX_TABLE")`` when the variable is
    set, else ``(DEFAULT_MAX_ENTRIES, "default")``.

    Raises:
        ConfigError: if ``LMAX_MAX_TABLE`` is not an integer >= 1.
    """
    env = os.environ.get(MAX_TABLE_ENV)
    if env is None:
        return DEFAULT_MAX_ENTRIES, "default"
    try:
        budget = int(env)
    except ValueError:
        budget = 0  # not an integer: refused below, with the same message
    if budget < 1:
        raise ConfigError(f"${MAX_TABLE_ENV} must be an integer >= 1, got {env!r}")
    return budget, MAX_TABLE_ENV


def check_budget(what: str, n: int) -> None:
    """Raise ``ResourceError`` if ``n`` entries, named ``what``, exceed ``table_budget()``."""
    limit = table_budget()[0]
    if n > limit:
        raise ResourceError(
            f"{what}={n} exceeds the table budget of {limit} entries "
            f"(set ${MAX_TABLE_ENV} to change it)"
        )
