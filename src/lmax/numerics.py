"""Error-compensated summation helpers for long positive series.

Nothing in the package calls this module any more: ``max_pmf_table`` reads
its running mass off the prefix sums (see ``lmax.excursion``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_cumsum"]

_CHUNK = 65536


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of ``x`` with rounding error kept near one ulp of the total.

    Plain ``np.cumsum`` lets error grow linearly with length, which is too
    loose for 1e7-term tables checked at 1e-9 absolute.  Here each chunk is
    cumsum'd locally (error bounded by the chunk length) and chained onto a
    running offset maintained as a Kahan pair, with the chunk total taken
    from ``math.fsum`` so the offset itself is exactly rounded.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    offset = 0.0        # running sum of all previous chunks
    comp = 0.0          # Kahan compensation for the offset
    for start in range(0, x.size, _CHUNK):
        chunk = x[start : start + _CHUNK]
        np.cumsum(chunk, out=out[start : start + chunk.size])
        out[start : start + chunk.size] += offset
        # Kahan update of the offset with the exactly rounded chunk total.
        y = math.fsum(chunk) - comp
        t = offset + y
        comp = (t - offset) - y
        offset = t
    return out
