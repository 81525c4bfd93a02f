"""Unit tests for block partitioning and resampling."""

import hashlib

import numpy as np
import pytest

from repro.core.blocks import BlockPlan, default_block_size
from repro.exceptions import GuptError


class TestDefaultBlockSize:
    def test_matches_n_to_the_0_6(self):
        assert default_block_size(10_000) == round(10_000**0.6)

    def test_at_least_one(self):
        assert default_block_size(1) == 1

    def test_invalid_rejected(self):
        with pytest.raises(GuptError):
            default_block_size(0)


class TestDisjointPartitioning:
    def test_default_block_count_near_n_to_the_0_4(self):
        plan = BlockPlan.draw(10_000, rng=0)
        assert plan.num_blocks == 10_000 // default_block_size(10_000)

    def test_blocks_are_disjoint(self):
        plan = BlockPlan.draw(100, block_size=10, rng=0)
        seen = np.concatenate(plan.blocks)
        assert len(seen) == len(set(seen.tolist()))

    def test_every_block_is_full(self):
        plan = BlockPlan.draw(103, block_size=10, rng=0)
        assert all(len(b) == 10 for b in plan.blocks)
        assert plan.num_blocks == 10  # remainder of 3 dropped

    def test_multiplicity_at_most_one(self):
        plan = BlockPlan.draw(100, block_size=7, rng=0)
        assert plan.record_multiplicity().max() <= 1

    def test_exact_cover_when_divisible(self):
        plan = BlockPlan.draw(100, block_size=10, rng=0)
        assert np.array_equal(plan.record_multiplicity(), np.ones(100, dtype=int))

    def test_block_size_one(self):
        plan = BlockPlan.draw(50, block_size=1, rng=0)
        assert plan.num_blocks == 50

    def test_block_size_equal_to_n(self):
        plan = BlockPlan.draw(50, block_size=50, rng=0)
        assert plan.num_blocks == 1

    def test_randomized_assignment(self):
        a = BlockPlan.draw(1000, block_size=100, rng=1)
        b = BlockPlan.draw(1000, block_size=100, rng=2)
        assert not all(
            np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks)
        )

    def test_seeded_reproducibility(self):
        a = BlockPlan.draw(100, block_size=10, rng=5)
        b = BlockPlan.draw(100, block_size=10, rng=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


class TestResampling:
    def test_block_count_scales_with_gamma(self):
        base = BlockPlan.draw(100, block_size=10, resampling_factor=1, rng=0)
        tripled = BlockPlan.draw(100, block_size=10, resampling_factor=3, rng=0)
        assert tripled.num_blocks == 3 * base.num_blocks

    def test_multiplicity_equals_gamma_when_divisible(self):
        plan = BlockPlan.draw(100, block_size=10, resampling_factor=4, rng=0)
        assert np.array_equal(plan.record_multiplicity(), np.full(100, 4))

    def test_multiplicity_bounded_by_gamma(self):
        plan = BlockPlan.draw(103, block_size=10, resampling_factor=4, rng=0)
        assert plan.record_multiplicity().max() <= 4

    def test_max_blocks_per_record_reports_gamma(self):
        plan = BlockPlan.draw(100, block_size=10, resampling_factor=5, rng=0)
        assert plan.max_blocks_per_record == 5

    def test_record_appears_at_most_once_per_block(self):
        plan = BlockPlan.draw(60, block_size=20, resampling_factor=3, rng=0)
        for block in plan.blocks:
            assert len(block) == len(set(block.tolist()))


class TestValidation:
    def test_zero_records_rejected(self):
        with pytest.raises(GuptError):
            BlockPlan.draw(0)

    def test_zero_block_size_rejected(self):
        with pytest.raises(GuptError):
            BlockPlan.draw(10, block_size=0)

    def test_oversized_block_rejected(self):
        with pytest.raises(GuptError):
            BlockPlan.draw(10, block_size=11)

    def test_zero_gamma_rejected(self):
        with pytest.raises(GuptError):
            BlockPlan.draw(10, block_size=2, resampling_factor=0)


class TestMaterialize:
    def test_row_slices(self):
        values = np.arange(20.0).reshape(10, 2)
        plan = BlockPlan.draw(10, block_size=5, rng=0)
        blocks = plan.materialize(values)
        assert len(blocks) == 2
        assert all(b.shape == (5, 2) for b in blocks)

    def test_rows_match_indices(self):
        values = np.arange(10.0).reshape(10, 1)
        plan = BlockPlan.draw(10, block_size=5, rng=0)
        for idx, block in zip(plan.blocks, plan.materialize(values)):
            assert np.array_equal(block[:, 0], values[idx, 0])


def plan_digest(matrix: np.ndarray) -> str:
    """sha256 of an index matrix as little-endian int64, row-major."""
    raw = np.ascontiguousarray(matrix, dtype="<i8").tobytes()
    return hashlib.sha256(raw).hexdigest()


def gather_inputs():
    """Values of every layout and dtype a plan may be stacked from."""
    rng = np.random.default_rng(41)
    return {
        "1d-float": rng.normal(size=120),
        "2d-float": rng.normal(size=(120, 3)),
        "fortran": np.asfortranarray(rng.normal(size=(120, 3))),
        "column-slice": rng.normal(size=(120, 6))[:, ::2],
        "row-slice": rng.normal(size=(240, 2))[::2],
        "int": rng.integers(-50, 50, size=(120, 2)),
    }


class TestIndexMatrix:
    """The matrix-native plan: one frozen index matrix, blocks are its rows.

    The digests were computed from the per-block-list implementation
    the matrix-native draw replaced; they pin that no plan bit moved.
    """

    @pytest.mark.parametrize(
        "n, beta, gamma, seed, shape, digest",
        [
            (500, 20, 3, 3, (75, 20),
             "ac9d94d715bedd48f5103c0b347ec904dc110f7948c59bafaf52cb89edf157bb"),
            (1000, 37, 1, 11, (27, 37),
             "37d4ef0be18cf60b57159b77c85f862e6f5e57b6b8cff44fb7f3d65c6307b10b"),
            (1000, 40, 3, 12345, (75, 40),
             "47e363d684f05aa488290240c2107870ba225dcb33ab909b0db08e4dd1385324"),
        ],
        ids=["n500-g3", "n1000-g1", "n1000-g3"],
    )
    def test_draw_matches_pinned_digest(self, n, beta, gamma, seed, shape, digest):
        plan = BlockPlan.draw(n, beta, gamma, rng=np.random.default_rng(seed))
        assert plan.index_matrix.shape == shape
        assert plan_digest(plan.index_matrix) == digest

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_blocks_are_read_only_rows_of_the_matrix(self, gamma):
        plan = BlockPlan.draw(100, block_size=10, resampling_factor=gamma, rng=5)
        matrix = plan.index_matrix
        assert not matrix.flags.writeable
        assert len(plan.blocks) == matrix.shape[0] == 10 * gamma
        for i, block in enumerate(plan.blocks):
            assert block.base is matrix
            assert np.shares_memory(block, matrix[i])
            assert np.array_equal(block, matrix[i])
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 0

    @pytest.mark.parametrize("gamma", [1, 3])
    @pytest.mark.parametrize("layout", sorted(gather_inputs()))
    def test_stack_equals_fancy_index_byte_for_byte(self, layout, gamma):
        values = gather_inputs()[layout]
        plan = BlockPlan.draw(120, block_size=12, resampling_factor=gamma, rng=9)
        stacked = plan.stack(values)
        expected = values[plan.index_matrix]
        assert stacked.dtype == expected.dtype
        assert stacked.shape == expected.shape
        assert stacked.tobytes() == expected.tobytes()
        assert stacked.strides == expected.strides

    @pytest.mark.parametrize("layout", sorted(gather_inputs()))
    def test_ragged_materialize_equals_fancy_index(self, layout):
        values = gather_inputs()[layout]
        blocks = (np.arange(0, 7), np.arange(10, 30, 2), np.array([5, 60, 119]))
        plan = BlockPlan(120, 7, 1, blocks=blocks)
        assert plan.index_matrix is None
        for idx, block in zip(blocks, plan.materialize(values)):
            assert block.tobytes() == values[idx].tobytes()
            assert block.shape == values[idx].shape
