"""Block partitioning and gamma-resampling for sample-and-aggregate.

Algorithm 1 of the paper partitions the dataset into ``l = n**0.4``
disjoint blocks (block size ``n**0.6``).  GUPT generalizes this in two
ways this module implements:

* an arbitrary block size ``beta`` (chosen by the optimizer of §4.3), and
* *resampling* (§4.2): each record is placed in ``gamma`` distinct blocks,
  giving ``l = gamma * n / beta`` blocks, which cuts partitioning variance
  without increasing the Laplace noise needed (Claim 1).

Resampling is realized as ``gamma`` independent rounds of disjoint
partitioning: round ``r`` shuffles the record indices and chops them into
full bins of size ``beta``.  Every record then appears in at most one bin
per round — i.e. in up to ``gamma`` blocks overall — exactly the
"gamma bins that are not full" process of §4.2.  When ``beta`` does not
divide ``n`` the per-round remainder (fewer than ``beta`` records) is
dropped from that round so that every block is exactly full; dropped
records differ per round, so in expectation every record still lands in
about ``gamma * floor(n/beta) * beta / n`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GuptError
from repro.mechanisms.rng import RandomSource, as_generator, spawn

#: Exponent of the default number of blocks in Algorithm 1 (l = n**0.4).
DEFAULT_NUM_BLOCKS_EXPONENT = 0.4


def default_block_size(num_records: int) -> int:
    """The paper's default block size ``n**0.6`` (at least 1)."""
    if num_records <= 0:
        raise GuptError("dataset must contain at least one record")
    return max(1, int(round(num_records ** (1.0 - DEFAULT_NUM_BLOCKS_EXPONENT))))


def blocks_per_round(num_records: int, block_size: int) -> int:
    """Full bins of ``block_size`` records per resampling round: ⌊n/β⌋.

    The single source of truth for per-round block counts: both
    :meth:`BlockPlan.draw` and the grouped (user-level) planner derive
    their geometry from this, so a consumer can never disagree with the
    plan it is calibrated against about how many blocks one round holds.
    The *total* block count of a drawn plan is ``gamma`` times this —
    always read it off ``plan.num_blocks`` rather than recomputing.
    """
    if num_records <= 0:
        raise GuptError("dataset must contain at least one record")
    if block_size <= 0:
        raise GuptError(f"block size must be positive, got {block_size}")
    return num_records // block_size


@dataclass(frozen=True)
class BlockPlan:
    """A concrete assignment of record indices to blocks.

    Attributes
    ----------
    num_records:
        Size n of the dataset the plan was drawn for.
    block_size:
        Records per block (beta).
    resampling_factor:
        gamma; 1 reproduces the disjoint partitioning of Algorithm 1.
    blocks:
        Tuple of integer index arrays, one per block, each of length
        ``block_size``.  Plans drawn by :meth:`draw` (and the sharded
        draws below) hold one read-only ``(l, block_size)`` index matrix
        and their blocks are its rows, so no per-block array is ever
        allocated or re-stacked.
    """

    num_records: int
    block_size: int
    resampling_factor: int
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    _matrix_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_blocks(self) -> int:
        """Number of blocks l."""
        return len(self.blocks)

    @property
    def max_blocks_per_record(self) -> int:
        """Upper bound on how many blocks one record can influence.

        This is what calibrates the aggregation sensitivity: a change to
        one record can move at most this many block outputs.
        """
        return self.resampling_factor

    @property
    def index_matrix(self) -> np.ndarray | None:
        """The ``(l, block_size)`` index matrix, or ``None`` when ragged.

        Plans drawn by :meth:`draw` always have uniform full blocks and
        carry their matrix from the draw; grouped (user-level) plans may
        not, in which case there is no rectangular view and callers fall
        back to per-block slicing.
        """
        matrix = self._matrix_cache
        if matrix is None:
            width = len(self.blocks[0]) if self.blocks else 0
            if not all(len(b) == width for b in self.blocks):
                return None
            matrix = np.vstack(self.blocks) if self.blocks else None
            object.__setattr__(self, "_matrix_cache", matrix)
        return matrix

    def stack(self, values: np.ndarray) -> np.ndarray | None:
        """All blocks as one ``(l, block_size, d)`` stacked array.

        A single ``np.take`` gather instead of ``l`` separate ones; the
        per-block rows of the result are zero-copy views into it, which
        is what the vectorized execution backend consumes directly.
        ``np.take(values, idx, axis=0)`` yields the same bytes as
        ``values[idx]`` but skips fancy indexing's generic machinery —
        several times faster on the row counts blocks are cut from.
        Returns ``None`` for ragged (grouped) plans.
        """
        matrix = self.index_matrix
        if matrix is None:
            return None
        values = np.asarray(values)
        flat = np.take(values, matrix.reshape(-1), axis=0)
        return flat.reshape(matrix.shape[0], matrix.shape[1], *values.shape[1:])

    def materialize(self, values: np.ndarray) -> list[np.ndarray]:
        """Row-slices of ``values`` for each block."""
        stacked = self.stack(values)
        if stacked is not None:
            return list(stacked)
        values = np.asarray(values)
        return [np.take(values, idx, axis=0) for idx in self.blocks]

    @staticmethod
    def _from_matrix(
        num_records: int,
        block_size: int,
        resampling_factor: int,
        matrix: np.ndarray,
    ) -> "BlockPlan":
        """A uniform plan whose blocks are the rows of ``matrix``.

        The matrix is frozen (``writeable = False``) and becomes the
        plan's :attr:`index_matrix` as is: blocks are zero-copy row
        views of it, so a gather reads the drawn indices directly and
        no caller can scribble on a plan's assignment.
        """
        matrix.flags.writeable = False
        plan = BlockPlan(
            num_records=num_records,
            block_size=block_size,
            resampling_factor=resampling_factor,
            blocks=tuple(matrix),
        )
        object.__setattr__(plan, "_matrix_cache", matrix)
        return plan

    @staticmethod
    def draw(
        num_records: int,
        block_size: int | None = None,
        resampling_factor: int = 1,
        rng: RandomSource = None,
    ) -> "BlockPlan":
        """Randomly draw a plan for a dataset of ``num_records`` rows.

        Parameters
        ----------
        num_records:
            Dataset size n.
        block_size:
            beta; defaults to the paper's ``n**0.6``.
        resampling_factor:
            gamma >= 1 rounds of disjoint partitioning.
        """
        if num_records <= 0:
            raise GuptError("dataset must contain at least one record")
        if block_size is None:
            block_size = default_block_size(num_records)
        block_size = int(block_size)
        if block_size <= 0:
            raise GuptError(f"block size must be positive, got {block_size}")
        if block_size > num_records:
            raise GuptError(
                f"block size {block_size} exceeds dataset size {num_records}"
            )
        resampling_factor = int(resampling_factor)
        if resampling_factor < 1:
            raise GuptError(
                f"resampling factor must be >= 1, got {resampling_factor}"
            )

        generator = as_generator(rng)
        shape = (blocks_per_round(num_records, block_size), block_size)
        # One reshape + in-place row-wise sort instead of a Python loop
        # over bins: identical indices to slicing bin-by-bin, an order of
        # magnitude faster at realistic block counts.  Rows are sorted
        # where they lie, so no round is copied to be sorted.
        if resampling_factor == 1:
            matrix = generator.permutation(num_records)
            # Truncates to the round's full bins in place: the matrix
            # keeps the permutation's buffer instead of copying it.
            matrix.resize(shape, refcheck=False)
        else:
            # The rounds fill one preallocated matrix in draw order.
            kept = shape[0] * block_size
            matrix = np.empty((resampling_factor * shape[0], block_size), np.intp)
            for rows in matrix.reshape(resampling_factor, *shape):
                rows[...] = generator.permutation(num_records)[:kept].reshape(shape)
        matrix.sort(axis=1)
        return BlockPlan._from_matrix(
            num_records, block_size, resampling_factor, matrix
        )

    @staticmethod
    def empty(
        num_records: int, block_size: int, resampling_factor: int
    ) -> "BlockPlan":
        """A plan with zero blocks (a shard too small to fill one block)."""
        return BlockPlan(
            num_records=num_records,
            block_size=block_size,
            resampling_factor=resampling_factor,
            blocks=(),
        )

    def record_multiplicity(self) -> np.ndarray:
        """How many blocks each record appears in (length n).

        Test hook for the resampling invariants: every entry is at most
        ``resampling_factor``, and when ``block_size`` divides
        ``num_records`` every entry equals it exactly.
        """
        if not self.blocks:
            return np.zeros(self.num_records, dtype=int)
        return np.bincount(
            np.concatenate(self.blocks), minlength=self.num_records
        ).astype(int)


# ----------------------------------------------------------------------
# Sharded plan protocol
# ----------------------------------------------------------------------
# Sample-and-aggregate composes across contiguous *shards* of a dataset:
# block outputs are iid clamped summaries, so a plan may be drawn as the
# concatenation of shard-local plans — each shard partitions only its own
# records — and executed anywhere (one process, or K shard nodes)
# without changing a single released bit.
#
# The protocol makes that invariance hold *by construction*:
#
# * the query consumes exactly one generator draw (the ``plan_seed``),
#   whether sharded or not — downstream noise draws are untouched;
# * shard ``s`` of ``S`` derives its private plan RNG from
#   ``spawn(plan_seed, S)[s]`` (numpy ``SeedSequence`` spawning), a pure
#   function of ``(plan_seed, S)`` — never of which process runs it;
# * shard boundaries are a pure function of ``(num_records, S)``
#   (:func:`shard_offsets`), and the combined plan orders blocks
#   shard-major, so concatenating per-shard partials in shard order
#   reproduces the single-process block order exactly.
#
# ``shards == 1`` is *defined* as the legacy protocol (the plan RNG is
# ``default_rng(plan_seed)`` directly, no spawning), so pre-sharding
# seeded releases are bit-stable.

def shard_offsets(num_records: int, shards: int) -> np.ndarray:
    """Contiguous, balanced shard boundaries: ``shards + 1`` offsets.

    Shard ``s`` owns rows ``[offsets[s], offsets[s + 1])``.  The first
    ``num_records % shards`` shards hold one extra record, so shard
    sizes differ by at most one and the decomposition is a pure function
    of ``(num_records, shards)``.
    """
    if num_records <= 0:
        raise GuptError("dataset must contain at least one record")
    if shards < 1:
        raise GuptError(f"shards must be >= 1, got {shards}")
    if shards > num_records:
        raise GuptError(
            f"{shards} shards infeasible for dataset of {num_records} records"
        )
    base, extra = divmod(num_records, shards)
    sizes = np.full(shards, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def shard_plan_rng(plan_seed: int, shards: int, shard: int) -> np.random.Generator:
    """The private plan generator of one shard: ``spawn(plan_seed, S)[s]``.

    Pure in ``(plan_seed, shards, shard)`` — the coordinator and a shard
    worker recomputing it independently draw identical plans.  The
    single-shard case *is* the legacy protocol (``default_rng(plan_seed)``
    with no spawn step), keeping pre-sharding seeded releases bit-stable.
    """
    if not 0 <= shard < shards:
        raise GuptError(f"shard {shard} out of range for {shards} shards")
    if shards == 1:
        return np.random.default_rng(int(plan_seed))
    return spawn(int(plan_seed), shards)[shard]


def shard_block_counts(
    num_records: int, block_size: int, resampling_factor: int, shards: int
) -> np.ndarray:
    """Blocks contributed by each shard: ``gamma * (n_s // beta)`` per shard.

    Public plan geometry (no record values involved): the coordinator
    uses it to pre-size the combined output matrix and validate shard
    partials, and tests use it to slice a combined stacked
    materialization back into per-shard views.
    """
    offsets = shard_offsets(num_records, shards)
    sizes = offsets[1:] - offsets[:-1]
    return (sizes // int(block_size)) * int(resampling_factor)


def draw_shard_local_plan(
    num_local_records: int,
    block_size: int,
    resampling_factor: int,
    plan_seed: int,
    shards: int,
    shard: int,
) -> BlockPlan:
    """Shard ``s``'s local plan, with indices relative to the shard.

    Exactly what a shard node draws over its own contiguous slice; the
    combined plan of :func:`draw_sharded_plan` is these local plans with
    the shard's base offset added.  A shard smaller than one block
    contributes an empty plan rather than failing the query.
    """
    if block_size > num_local_records:
        return BlockPlan.empty(num_local_records, block_size, resampling_factor)
    return BlockPlan.draw(
        num_records=num_local_records,
        block_size=block_size,
        resampling_factor=resampling_factor,
        rng=shard_plan_rng(plan_seed, shards, shard),
    )


def draw_sharded_plan(
    num_records: int,
    block_size: int | None = None,
    resampling_factor: int = 1,
    plan_seed: int = 0,
    shards: int = 1,
) -> BlockPlan:
    """The combined plan: shard-local plans concatenated shard-major.

    For ``shards == 1`` this *is* ``BlockPlan.draw`` under the legacy
    one-draw protocol.  For ``shards > 1`` each shard's blocks index only
    its own contiguous rows, so any executor owning those rows can
    materialize them without seeing the rest of the dataset.
    """
    if block_size is None:
        block_size = default_block_size(num_records)
    block_size = int(block_size)
    if shards == 1:
        return BlockPlan.draw(
            num_records=num_records,
            block_size=block_size,
            resampling_factor=resampling_factor,
            rng=np.random.default_rng(int(plan_seed)),
        )
    offsets = shard_offsets(num_records, shards)
    matrices: list[np.ndarray] = []
    for shard in range(shards):
        local = draw_shard_local_plan(
            int(offsets[shard + 1] - offsets[shard]),
            block_size,
            resampling_factor,
            plan_seed,
            shards,
            shard,
        )
        if local.num_blocks:
            matrices.append(local.index_matrix + offsets[shard])
    if not matrices:
        raise GuptError(
            f"block size {block_size} leaves no full block in any of "
            f"{shards} shards of {num_records} records"
        )
    return BlockPlan._from_matrix(
        num_records, block_size, int(resampling_factor), np.concatenate(matrices)
    )


@dataclass(frozen=True)
class ShardPlanSummary:
    """Plan geometry of a sharded execution, without the index arrays.

    The remote backend plans and materializes blocks on the shard
    nodes; the coordinator only ever needs the combined geometry (for
    aggregation sensitivity and release metadata), which this summary
    carries under the same attribute contract as :class:`BlockPlan`.
    """

    num_records: int
    block_size: int
    resampling_factor: int
    num_blocks: int
    shards: int

    @property
    def max_blocks_per_record(self) -> int:
        """Same calibration bound as :class:`BlockPlan`: gamma.

        Sharding cannot raise it — every record lives in exactly one
        shard and appears in at most gamma of that shard's blocks.
        """
        return self.resampling_factor
