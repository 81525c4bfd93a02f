"""Unit tests for the k-means estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.kmeans import KMeans, intra_cluster_variance, sort_centers


# Reference: the row-major implementation the column-major kernel
# replaced, kept verbatim (methods turned into functions of the program)
# so the property below can require bit-identical output.


def _reference_icv(data, centers):
    data = np.asarray(data, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim == 1:
        centers = centers.reshape(1, -1)
    distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(distances.min(axis=1).mean())


def _reference_fit(program, data):
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    if data.shape[1] != program.num_features:
        raise ValueError(
            f"expected {program.num_features} features, got {data.shape[1]}"
        )
    best_centers = None
    best_icv = np.inf
    for restart in range(program.restarts):
        centers = _reference_lloyd(program, data, seed=program.seed + restart)
        icv = _reference_icv(data, centers)
        if icv < best_icv:
            best_icv = icv
            best_centers = centers
    return best_centers


def _reference_lloyd(program, data, seed):
    centers = program.initial_centers(data, seed=seed)
    for _ in range(program.iterations):
        previous = centers.copy()
        distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = distances.argmin(axis=1)
        for cluster in range(program.num_clusters):
            members = data[assignment == cluster]
            if members.shape[0] > 0:
                centers[cluster] = members.mean(axis=0)
        if program.tol > 0 and float(np.abs(centers - previous).max()) < program.tol:
            break
    return centers


def _assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _block(kind, n, d, seed):
    """Test data: Gaussian, integer-rounded (ties, empty clusters),
    sprinkled with -0.0, with an all -0.0 column, or with one inf."""
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 3.0, size=(n, d))
    if kind != "gaussian":
        data = np.round(data)
    if kind == "negative_zeros":
        data[rng.random((n, d)) < 0.3] = -0.0
    elif kind == "negative_zero_column":
        data[:, rng.integers(d)] = -0.0
    elif kind == "inf":
        data[rng.integers(n), rng.integers(d)] = np.inf
    return data


@pytest.fixture
def blobs(rng):
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    assignment = rng.integers(0, 3, size=600)
    return centers[assignment] + rng.normal(0, 0.4, size=(600, 2)), centers


class TestSortCenters:
    def test_sorts_by_first_coordinate(self):
        flat = np.array([5.0, 1.0, 0.0, 2.0, 3.0, 9.0])
        out = sort_centers(flat, num_clusters=3, num_features=2)
        assert out.tolist() == [0.0, 2.0, 3.0, 9.0, 5.0, 1.0]

    def test_stable_for_sorted_input(self):
        flat = np.array([0.0, 1.0, 5.0, 2.0])
        assert np.array_equal(sort_centers(flat, 2, 2), flat)


class TestIntraClusterVariance:
    def test_zero_for_exact_centers(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert intra_cluster_variance(data, data) == 0.0

    def test_nearest_center_assignment(self):
        data = np.array([[0.0], [10.0]])
        centers = np.array([[0.0], [10.0]])
        assert intra_cluster_variance(data, centers) == 0.0

    def test_single_center(self):
        data = np.array([[0.0], [2.0]])
        assert intra_cluster_variance(data, np.array([1.0])) == pytest.approx(1.0)


class TestKMeans:
    def test_recovers_blob_centers(self, blobs):
        data, truth = blobs
        program = KMeans(num_clusters=3, num_features=2, iterations=20)
        centers = program.fit(data)
        recovered = centers[np.argsort(centers[:, 0] + centers[:, 1])]
        expected = truth[np.argsort(truth[:, 0] + truth[:, 1])]
        assert np.allclose(recovered, expected, atol=0.5)

    def test_callable_output_is_sorted_flat_vector(self, blobs):
        data, _ = blobs
        program = KMeans(num_clusters=3, num_features=2)
        out = program(data)
        assert out.shape == (6,)
        firsts = out.reshape(3, 2)[:, 0]
        assert np.all(np.diff(firsts) >= 0)

    def test_output_dimension(self):
        assert KMeans(num_clusters=4, num_features=10).output_dimension == 40

    def test_deterministic_given_seed(self, blobs):
        data, _ = blobs
        a = KMeans(num_clusters=3, num_features=2, seed=1)(data)
        b = KMeans(num_clusters=3, num_features=2, seed=1)(data)
        assert np.array_equal(a, b)

    def test_early_stopping_limits_work(self, blobs):
        data, _ = blobs
        capped = KMeans(num_clusters=3, num_features=2, iterations=200, tol=1e-6)
        uncapped = KMeans(num_clusters=3, num_features=2, iterations=200, tol=0.0)
        # Same final centers whether or not we early-stop.
        assert np.allclose(capped(data), uncapped(data), atol=1e-4)

    def test_restarts_never_hurt_icv(self, blobs):
        data, _ = blobs
        single = KMeans(num_clusters=3, num_features=2, restarts=1, seed=3)
        multi = KMeans(num_clusters=3, num_features=2, restarts=8, seed=3)
        icv_single = intra_cluster_variance(data, single.fit(data))
        icv_multi = intra_cluster_variance(data, multi.fit(data))
        assert icv_multi <= icv_single + 1e-9

    def test_block_smaller_than_k_still_outputs_k_centers(self):
        program = KMeans(num_clusters=4, num_features=1)
        out = program(np.array([[1.0], [2.0]]))
        assert out.shape == (4,)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow
    def test_no_finite_restart_is_a_value_error(self):
        # Every squared distance to the +-1e200 rows overflows to inf, so
        # no restart reaches a finite ICV; fit used to return None and
        # __call__ then failed on ``None.ravel()``.
        data = [[1e200, 0], [-1e200, 1], [3, 2], [4, 1]]
        program = KMeans(2, 2, iterations=3)
        with pytest.raises(ValueError, match="finite intra-cluster variance"):
            program.fit(data)
        with pytest.raises(ValueError, match="finite intra-cluster variance"):
            program(data)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KMeans(num_clusters=2, num_features=3).fit(np.zeros((10, 2)))

    @pytest.mark.parametrize("kwargs", [
        {"num_clusters": 0, "num_features": 1},
        {"num_clusters": 1, "num_features": 0},
        {"num_clusters": 1, "num_features": 1, "iterations": 0},
        {"num_clusters": 1, "num_features": 1, "restarts": 0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KMeans(**kwargs)


class TestBitIdentity:
    """The column-major kernel releases the reference's exact bits."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17]),
        k=st.integers(1, 6),
        n=st.integers(1, 300),
        tol=st.sampled_from([0.0, 1e-7, 1e-3]),
        restarts=st.sampled_from([1, 2, 5, 40]),
        iterations=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(
            ["gaussian", "integers", "negative_zeros", "negative_zero_column", "inf"]
        ),
    )
    def test_matches_reference(self, d, k, n, tol, restarts, iterations, seed, kind):
        data = _block(kind, n, d, seed)
        program = KMeans(
            k, d, iterations=iterations, seed=seed, tol=tol, restarts=restarts
        )
        try:
            expected = _reference_fit(program, data)
        except Exception as exc:  # the new code must fail the same way
            with pytest.raises(type(exc)):
                program.fit(data)
            return
        if expected is None:
            # The reference returned None (every restart's ICV was
            # non-finite) and its __call__ then crashed; now both raise.
            with pytest.raises(ValueError, match="finite"):
                program.fit(data)
            with pytest.raises(ValueError, match="finite"):
                program(data)
            return
        _assert_same_bits(program.fit(data), expected)
        _assert_same_bits(program(data), sort_centers(expected.ravel(), k, d))
        centers = np.random.default_rng(seed + 1).normal(0.0, 3.0, size=(k, d))
        _assert_same_bits(
            intra_cluster_variance(data, centers), _reference_icv(data, centers)
        )
