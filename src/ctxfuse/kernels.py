"""Hot numeric kernel, in numpy.

The direction-cosine statistics behind the watch features, summed over
every pair of samples of a recording in O(n log n) with prefix sums
(tests/test_kernels.py checks them against an all-pairs oracle).
"""

import numpy as np


def _first_at_lag(times, edges):
    """``B[k, i]``: the first ``j > i`` with ``times[j] - times[i] >= edges[k]``, else ``n``.

    ``times`` must be sorted. The lag is the rounded difference, exactly as
    an all-pairs loop computes it; rounding is monotone, so the predicate is
    monotone in ``j`` and a bisection over ``(i, n]`` finds its first true
    index. Every row is bisected at once, about ``log2(n)`` passes.
    """
    n = times.shape[0]
    lo = np.broadcast_to(np.arange(1, n + 1), (edges.shape[0], n))
    hi = np.full_like(lo, n)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        at_lag = times[np.minimum(mid, n - 1)] - times >= edges[:, None]
        hi = np.where(active & at_lag, mid, hi)
        lo = np.where(active & ~at_lag, mid + 1, lo)
        active = lo < hi
    return lo


def pair_cosine_lag_stats(xyz, times, edges):
    """Sum and count of pairwise direction cosines, bucketed by time lag.

    Considers every unordered pair of samples; samples with zero magnitude
    have no direction and are skipped. Bucket ``k`` collects pairs whose
    absolute time lag falls in ``[edges[k], edges[k+1])``. ``times`` must be
    finite; ``edges`` increasing (the last may be ``inf``).

    With the samples sorted by time and ``P`` the prefix sums of their unit
    vectors, the pairs of sample ``i`` in bucket ``k`` are the ``j`` in
    ``[B_k(i), B_{k+1}(i))`` (see ``_first_at_lag``), so their cosine sum is
    ``u_i . (P[B_{k+1}(i)] - P[B_k(i)])``; counts use prefix sums of the
    valid-sample indicator the same way.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    xyz, times = xyz[order], times[order]

    norms = np.sqrt((xyz * xyz).sum(axis=1))
    valid = norms > 0.0
    unit = np.zeros_like(xyz)
    unit[valid] = xyz[valid] / norms[valid, None]
    prefix = np.concatenate([np.zeros((1, 3)), np.cumsum(unit, axis=0)])
    n_prefix = np.concatenate([[0], np.cumsum(valid, dtype=np.int64)])

    first = _first_at_lag(times, edges)
    lo, hi = first[:-1], first[1:]
    sums = (unit * (prefix[hi] - prefix[lo])).sum(axis=(1, 2))
    counts = (n_prefix[hi] - n_prefix[lo])[:, valid].sum(axis=1)
    return sums, counts
