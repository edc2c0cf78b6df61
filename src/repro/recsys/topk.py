"""Deterministic top-``k`` selection shared by the serve-path rankers.

Both the similarity index (one row per catalog item, at publish time) and
the upskill recommender (one score vector per request) need the ``k``
largest entries of a float vector in a fixed order: value descending,
ties broken by ascending position.  A full ``lexsort``/``argsort`` of the
vector costs ``O(n log n)`` per call; :func:`top_k` partitions first, so
only the ``<= k`` survivors are sorted.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_k"]


def top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest ``values``, best first.

    Order is value descending, then position ascending, so the result
    equals ``np.lexsort((np.arange(n), -values))[:k]`` exactly (``-inf``
    entries included); ``k`` beyond ``n`` returns all ``n`` positions.
    ``values`` must be a 1-D array without NaN.
    """
    n = len(values)
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    # The k-th largest value splits the vector: everything strictly above
    # it is in, and the boundary ties fill the remaining slots in position
    # order (flatnonzero is ascending).
    kth = np.partition(values, n - k)[n - k]
    above = np.flatnonzero(values > kth)
    tied = np.flatnonzero(values == kth)[: k - len(above)]
    candidates = np.concatenate((above, tied))
    return candidates[np.lexsort((candidates, -values[candidates]))]
