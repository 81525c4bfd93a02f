"""The built-in regression and k-means batch forms, held to ``__call__``.

``run_blocks`` honours a batch form only for the platform's own
estimators, and only because each ``run_batch`` returns exactly the
stacked per-block outputs: ``run_batch(stack)`` must equal
``np.stack([program(block) for block in stack])`` bit for bit, with a
NaN row wherever ``__call__`` raises.  Through the executor the fused
path must then release the chamber path's outputs and success mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators import KMeans, LinearRegression, LogisticRegression
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.vectorized import run_blocks

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _stacked_calls(program, stacked):
    """``__call__`` on every block; a NaN row where it raises."""
    rows = []
    for block in stacked:
        try:
            rows.append(np.asarray(program(block), dtype=float).ravel())
        except (ValueError, np.linalg.LinAlgError):
            rows.append(np.full(program.output_dimension, np.nan))
    return np.stack(rows)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _kmeans_stack(kinds, n, d, seed):
    rng = np.random.default_rng(seed)
    stacked = rng.normal(0.0, 3.0, size=(len(kinds), n, d))
    for index, kind in enumerate(kinds):
        block = stacked[index]
        if kind == "integers":  # ties and empty clusters
            block[...] = np.round(block)
        elif kind == "inf":
            block[rng.integers(n), rng.integers(d)] = np.inf
        elif kind == "nan":
            block[rng.integers(n), rng.integers(d)] = np.nan
        elif kind == "negative_zeros":
            block[rng.random((n, d)) < 0.3] = -0.0
    return stacked


class TestKMeans:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @PROPERTY
    @given(
        d=st.sampled_from([1, 2, 5, 7, 8, 9, 12]),
        k=st.integers(1, 5),
        n=st.integers(1, 40),
        tol=st.sampled_from([0.0, 1e-7, 1e-2]),
        restarts=st.sampled_from([1, 2, 3, 7]),
        iterations=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        kinds=st.lists(
            st.sampled_from(["gaussian", "integers", "inf", "nan", "negative_zeros"]),
            min_size=1, max_size=6,
        ),
    )
    def test_batch_is_the_stacked_calls(
        self, d, k, n, tol, restarts, iterations, seed, kinds
    ):
        program = KMeans(k, d, iterations=iterations, seed=seed, tol=tol, restarts=restarts)
        stacked = _kmeans_stack(kinds, n, d, seed)
        _assert_same_bits(program.run_batch(stacked), _stacked_calls(program, stacked))

    def test_chunks_of_pairs_split_blocks_and_restarts(self, monkeypatch):
        # A chunk boundary inside one block's restarts must not change
        # which restart wins.
        import repro.estimators.kmeans as kmeans

        program = KMeans(3, 2, iterations=5, restarts=4, tol=1e-6)
        stacked = _kmeans_stack(["gaussian", "integers", "gaussian"], 30, 2, 5)
        expected = _stacked_calls(program, stacked)
        monkeypatch.setattr(kmeans, "STACK_ELEMENTS", 3 * 30 * 3)
        _assert_same_bits(program.run_batch(stacked), expected)

    def test_blocks_smaller_than_k(self):
        program = KMeans(5, 1, restarts=3)
        stacked = np.arange(6.0).reshape(3, 2, 1)
        _assert_same_bits(program.run_batch(stacked), _stacked_calls(program, stacked))


def _regression_stack(kinds, n, d, seed):
    """Features then a 0/1 label (also a regression target)."""
    rng = np.random.default_rng(seed)
    stacked = np.empty((len(kinds), n, d + 1))
    for index, kind in enumerate(kinds):
        features = rng.normal(0.0, 1.0, size=(n, d))
        if kind == "separable":  # converges in a few Newton steps
            labels = (features[:, 0] > 0).astype(float)
        elif kind == "singular":  # an exactly singular first Hessian
            features[:] = 2.0**20
            labels = (rng.random(n) < 0.5).astype(float)
        elif kind == "zero_column":  # singular Gram matrix without ridge
            features[:, 0] = 0.0
            labels = (rng.random(n) < 0.5).astype(float)
        elif kind == "nan":  # non-finite outputs
            features[rng.integers(n), rng.integers(d)] = np.nan
            labels = (rng.random(n) < 0.5).astype(float)
        else:
            chance = 1.0 / (1.0 + np.exp(-features.sum(axis=1)))
            labels = (rng.random(n) < chance).astype(float)
        stacked[index] = np.column_stack([features, labels])
    return stacked


KINDS = st.lists(
    st.sampled_from(["logistic", "separable", "singular", "zero_column", "nan"]),
    min_size=1, max_size=6,
)


class TestLogisticRegression:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @PROPERTY
    @given(
        d=st.integers(1, 5),
        n=st.sampled_from([16, 37, 64]),
        l2=st.sampled_from([1e-6, 0.1, 1.0]),
        iterations=st.integers(1, 25),
        seed=st.integers(0, 2**16),
        kinds=KINDS,
    )
    def test_batch_is_the_stacked_calls(self, d, n, l2, iterations, seed, kinds):
        program = LogisticRegression(d, l2=l2, iterations=iterations)
        stacked = _regression_stack(kinds, n, d, seed)
        _assert_same_bits(program.run_batch(stacked), _stacked_calls(program, stacked))

    def test_singular_hessian_stops_only_its_block(self):
        program = LogisticRegression(2, l2=1e-6)
        stacked = _regression_stack(["logistic", "singular", "separable"], 16, 2, 3)
        batch = program.run_batch(stacked)
        assert batch[1].tolist() == [0.0, 0.0, 0.0]  # stopped before any step
        assert np.abs(batch[[0, 2]]).min() > 0.0
        _assert_same_bits(batch, _stacked_calls(program, stacked))


class TestLinearRegression:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @PROPERTY
    @given(
        d=st.integers(1, 5),
        n=st.sampled_from([8, 37, 64]),
        ridge=st.sampled_from([0.0, 1e-6, 1.0]),
        seed=st.integers(0, 2**16),
        kinds=KINDS,
    )
    def test_batch_is_the_stacked_calls(self, d, n, ridge, seed, kinds):
        program = LinearRegression(d, ridge=ridge)
        stacked = _regression_stack(kinds, n, d, seed)
        _assert_same_bits(program.run_batch(stacked), _stacked_calls(program, stacked))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "program, stacked",
    [
        (
            KMeans(3, 2, iterations=4, restarts=2),
            _kmeans_stack(["gaussian", "inf", "integers", "nan"], 20, 2, 7),
        ),
        (
            LogisticRegression(2, l2=1e-6),
            _regression_stack(["logistic", "singular", "nan", "separable"], 16, 2, 7),
        ),
        (
            LinearRegression(2, ridge=0.0),
            _regression_stack(["logistic", "zero_column", "separable"], 16, 2, 7),
        ),
    ],
    ids=["kmeans", "logistic", "linear"],
)
def test_fused_path_releases_the_chamber_path(program, stacked):
    fallback = np.full(program.output_dimension, -1.0)
    chamber = InProcessChamber()
    fused, reason = run_blocks(
        chamber, program, stacked, program.output_dimension, fallback
    )
    assert reason is None  # the built-in batch form answered
    executions = [
        chamber.run_block(program, block, program.output_dimension, fallback)
        for block in stacked
    ]
    per_block = np.stack([execution.output for execution in executions])
    succeeded = np.array([execution.succeeded for execution in executions])
    assert not succeeded.all()  # the case really has a failing block
    _assert_same_bits(fused.outputs, per_block)
    assert np.array_equal(fused.succeeded, succeeded)
