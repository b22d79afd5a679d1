import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfuse.kernels import _first_at_lag, pair_cosine_lag_stats

EDGES = np.array([0.0, 0.5, 1.0, 5.0, 10.0, np.inf])


def _bisection_first_at_lag(times, edges):
    """``B[k, i]``: the first ``j > i`` with ``times[j] - times[i] >= edges[k]``,
    else ``n``, by bisecting every row over ``(i, n]`` at once (about
    ``log2(n)`` passes); the kernel's lag bounds before the searchsorted
    guess, kept as their oracle."""
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


def _all_pairs_oracle(xyz, times, edges):
    """The O(n^2) kernel: every unordered pair (i < j) in input order."""
    n = xyz.shape[0]
    n_buckets = len(edges) - 1
    norms = np.sqrt((xyz * xyz).sum(axis=1))
    valid = norms > 0.0

    iu, ju = np.triu_indices(n, k=1)
    keep = valid[iu] & valid[ju]
    iu, ju = iu[keep], ju[keep]

    lags = np.abs(times[ju] - times[iu])
    bucket = np.searchsorted(edges, lags, side="right") - 1
    in_range = (bucket >= 0) & (bucket < n_buckets) & (lags < edges[-1])
    iu, ju, bucket = iu[in_range], ju[in_range], bucket[in_range]

    cos = (xyz[iu] * xyz[ju]).sum(axis=1) / (norms[iu] * norms[ju])
    sums = np.zeros(n_buckets, dtype=np.float64)
    counts = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(sums, bucket, cos)
    np.add.at(counts, bucket, 1)
    return sums, counts


def _assert_matches_oracle(xyz, times, edges=EDGES):
    sums, counts = pair_cosine_lag_stats(xyz, times, edges)
    ref_sums, ref_counts = _all_pairs_oracle(xyz, times, edges)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, ref_counts)
    # the features are mean cosines: sums / counts agree within 1e-10
    assert np.all(np.abs(sums - ref_sums) <= 1e-10 * np.maximum(counts, 1))


def _with_zero_rows(rng, xyz, k):
    xyz = xyz.copy()
    xyz[rng.choice(xyz.shape[0], size=k, replace=False)] = 0.0
    return xyz


def test_pair_cosine_paths_agree():
    """The prefix-sum kernel agrees with the all-pairs oracle on random sorted times."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        xyz = rng.normal(size=(n, 3)) + rng.normal(size=3)
        times = np.sort(rng.uniform(0, 30, size=n))
        _assert_matches_oracle(xyz, times)


@pytest.mark.parametrize("n", [300, 1500])
def test_pair_cosine_grid_lags_on_edges(n):
    # a 25 Hz grid: many lags are 0.5, 1, 5 and 10 s up to rounding, and
    # the bucket boundary follows the rounded difference, not t[i] + edge
    rng = np.random.default_rng(n)
    times = np.arange(n) / 25.0
    xyz = rng.normal(size=(n, 3)) + [0.0, 0.0, 1.0]
    _assert_matches_oracle(xyz, times)
    _assert_matches_oracle(xyz, times + 1234.56)


def test_pair_cosine_tied_times():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        xyz = rng.normal(size=(n, 3))
        times = np.sort(np.round(rng.uniform(0, 20, size=n) * 2) / 2)  # 0.5 s ticks
        _assert_matches_oracle(xyz, times)
    xyz = rng.normal(size=(40, 3))
    _assert_matches_oracle(xyz, np.full(40, 3.25))


def test_pair_cosine_counts_all_pairs():
    xyz = np.tile([0.0, 0.0, 1.0], (5, 1))
    sums, counts = pair_cosine_lag_stats(xyz, np.zeros(5), np.array([0.0, 0.5, np.inf]))
    assert counts.tolist() == [10, 0]  # C(5, 2)
    assert np.isclose(sums[0], 10.0)


def test_pair_cosine_zero_norm_samples_skipped():
    rng = np.random.default_rng(3)
    for k in (1, 5, 59):
        n = 60
        xyz = _with_zero_rows(rng, rng.normal(size=(n, 3)), k)
        times = np.sort(rng.uniform(0, 15, size=n))
        _assert_matches_oracle(xyz, times)
    all_zero = pair_cosine_lag_stats(np.zeros((8, 3)), np.arange(8.0), EDGES)
    assert not all_zero[1].any() and not all_zero[0].any()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pair_cosine_tiny_inputs(n):
    xyz = np.arange(3.0 * n).reshape(n, 3) + 1.0
    times = np.arange(n) * 0.7
    sums, counts = pair_cosine_lag_stats(xyz, times, EDGES)
    assert sums.shape == counts.shape == (5,)
    assert counts.sum() == n * (n - 1) // 2
    _assert_matches_oracle(xyz, times)


def test_pair_cosine_unsorted_times():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 300))
        xyz = _with_zero_rows(rng, rng.normal(size=(n, 3)), 1)
        times = rng.uniform(0, 20, size=n)
        times[: n // 3] = np.round(times[: n // 3])  # some ties too
        _assert_matches_oracle(xyz, times)
    grid = np.arange(500) / 25.0
    xyz = rng.normal(size=(500, 3))
    _assert_matches_oracle(xyz, rng.permutation(grid))


def test_pair_cosine_finite_last_edge():
    rng = np.random.default_rng(5)
    times = np.arange(600) / 25.0
    xyz = rng.normal(size=(600, 3))
    for edges in ([0.0, 0.5, 1.0, 5.0, 10.0], [0.0, 0.04, 1.0], [0.2, 0.36, 3.0, 7.5]):
        _assert_matches_oracle(xyz, times, np.array(edges))


_OFFSETS = (0.0, 0.08, 1234.56, 1.7e6)


@st.composite
def _sorted_times(draw):
    shape = draw(st.sampled_from(("grid", "ticks", "runs")))
    if shape == "grid":  # lags land on the edges up to rounding
        n = draw(st.integers(0, 400))
        rate = draw(st.sampled_from((25.0, 40.0, 50.0, 100.0 / 3.0)))
        return np.arange(n) / rate + draw(st.sampled_from(_OFFSETS))
    if shape == "ticks":  # ties, at lags that are whole edges
        steps = np.sort(draw(st.lists(st.integers(0, 60), max_size=300)))
        return steps * draw(st.sampled_from((0.5, 0.25, 0.04))) + draw(st.sampled_from(_OFFSETS))
    # long runs of equal timestamps, some a rounded edge apart
    values = draw(st.lists(st.one_of(st.sampled_from((0.08, 0.58, 1.08, 0.56, 5.56, 0.5, 1.0)),
                                     st.floats(0.0, 30.0)), min_size=1, max_size=8, unique=True))
    lengths = draw(st.lists(st.integers(1, 300), min_size=len(values), max_size=len(values)))
    return np.repeat(np.sort(values), lengths)


_lag_edges = st.lists(st.sampled_from((0.0, 0.04, 0.2, 0.25, 0.5, 1.0, 5.0, 7.5, 10.0, np.inf)),
                      min_size=1, max_size=6, unique=True).map(lambda e: np.sort(np.array(e)))


@settings(max_examples=300, deadline=None)
@given(_sorted_times(), _lag_edges)
def test_lag_bounds_match_the_bisection_oracle(times, edges):
    assert np.array_equal(_first_at_lag(times, edges), _bisection_first_at_lag(times, edges))


@pytest.mark.parametrize("first, then, row, bound", [(0.08, 0.58, 1, 4001), (0.56, 5.56, 3, 1)],
                         ids=["guess-short", "guess-past"])
def test_lag_bounds_step_over_a_run_of_equal_timestamps(first, then, row, bound):
    # 0.08 + 0.5 rounds to 0.58, but 0.58 - 0.08 < 0.5: the first sample's
    # guess lands on a run of 4,000 samples that are all short of the lag.
    # 0.56 + 5 rounds past 5.56, but 5.56 - 0.56 >= 5: the guess lands past
    # a run of 4,000 samples that are all at the lag. A correction of one
    # index per pass would take 4,000 passes either way.
    lag = EDGES[row]
    assert (first + lag == then) != (then - first >= lag)
    times = np.concatenate([[first], np.full(4000, then)])
    bounds = _first_at_lag(times, EDGES)
    assert np.array_equal(bounds, _bisection_first_at_lag(times, EDGES))
    assert bounds[row, 0] == bound

    def best_of_five(bound):
        return min(timeit.repeat(lambda: bound(times, EDGES), number=1, repeat=5))

    assert best_of_five(_first_at_lag) <= 4.0 * best_of_five(_bisection_first_at_lag)
