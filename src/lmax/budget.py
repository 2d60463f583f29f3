"""The entry budget of every table, streamed or built, and the one check of a size.

One table of length n holds two float64 arrays of n+1 entries (about
320 MB at the default budget; ``series`` lists what else it allocates).
``check_count`` refuses a count that is not an integer at least as large
as its least value; ``SimConfig`` checks the simulator's counts with it.
``check_depth`` is that check followed by the budget's, for every size
that allocates: a table's depth, ``estimate_constant``'s samples, the
simulator's bins and blocks.  The budget can be changed only through
``$LMAX_MAX_TABLE``.  Measured peak RSS: see the README's *Table budget*.
This module imports no numpy, so a call that only checks a size does not load it.
"""

from __future__ import annotations

import operator
import os

from .errors import ConfigError, RangeError, ResourceError

__all__ = ["DEFAULT_MAX_ENTRIES", "MAX_TABLE_ENV", "table_budget", "check_count", "check_depth"]

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


def _integer(what: str, n) -> int:
    """``n`` as an int: a Python or numpy integer, never a float; else ``RangeError``."""
    try:
        return operator.index(n)
    except TypeError:
        raise RangeError(f"{what} must be an integer, got {n!r}") from None


def check_count(what: str, n, least: int = 1) -> int:
    """Count ``what`` as an int: RangeError unless an integer >= ``least``."""
    n = _integer(what, n)
    if n < least:
        raise RangeError(f"{what} must be >= {least}, got {n}")
    return n


def check_depth(what: str, n, least: int = 1) -> int:
    """Size ``what`` as an int: ``check_count``'s RangeError, or ResourceError past budget."""
    n = check_count(what, n, least)
    limit = table_budget()[0]
    if n > limit:
        raise ResourceError(f"{what}={n} exceeds the table budget of {limit} entries "
                            f"(set ${MAX_TABLE_ENV} to change it)")
    return n
