import numpy as np
import pytest

from ctxfuse.kernels import pair_cosine_lag_stats

EDGES = np.array([0.0, 0.5, 1.0, 5.0, 10.0, np.inf])


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
