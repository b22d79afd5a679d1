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
    monotone in ``j``. ``searchsorted`` of the rounded sum
    ``times[i] + edges[k]`` guesses the bound, which can miss it by a few
    rounding steps either way. The guess moves down while the sample before
    it is at the lag and up while it is not; samples with equal timestamps
    share the predicate, so each step jumps a whole run of them and the
    number of passes does not grow with the length of a run.
    """
    n = times.shape[0]
    k = edges.shape[0]
    owner = np.tile(np.arange(n), k)  # the i of each flat entry
    lag = np.repeat(edges, n)
    first = np.maximum(np.searchsorted(times, times + edges[:, None]).ravel(), owner + 1)
    run_start = np.searchsorted(times, times, side="left")
    run_end = np.searchsorted(times, times, side="right")

    moving = np.flatnonzero(first > owner + 1)
    while moving.size:
        before = first[moving] - 1
        at_lag = times[before] - times[owner[moving]] >= lag[moving]
        moving, before = moving[at_lag], before[at_lag]
        first[moving] = np.maximum(run_start[before], owner[moving] + 1)
        moving = moving[first[moving] > owner[moving] + 1]

    moving = np.flatnonzero(first < n)
    while moving.size:
        guess = first[moving]
        short = ~(times[guess] - times[owner[moving]] >= lag[moving])
        moving = moving[short]
        first[moving] = run_end[guess[short]]
        moving = moving[first[moving] < n]
    return first.reshape(k, n)


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
