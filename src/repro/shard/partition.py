"""Partitioning: which shard owns a row, and which shards a predicate needs.

Two strategies, chosen per table by :class:`~repro.core.config.ShardConfig`:

* :class:`HashPartitioner` — stable ``blake2b`` over the shard-key
  value's canonical record encoding. Placement is independent of Python
  hash randomization and of the process that computes it (coordinator
  and workers must agree forever), balances skewed keys well, and
  prunes *equality* predicates only — a hash destroys order, so a range
  predicate necessarily touches every shard.
* :class:`RangePartitioner` — ``shard_count - 1`` sorted upper
  boundaries; shard *i* owns values below boundary *i* and the last
  shard owns the tail. Prunes both equality and range predicates, at
  the cost of the operator choosing boundaries that match the data.

Pruning (:func:`prune_shards`) runs the planner's own sargability
analysis (:mod:`repro.sql.sargable`) over the top-level WHERE conjuncts
on the shard key, with ``?`` parameters resolved against the bound
values — so a prepared statement prunes per execution, not per plan. A
NULL or unbound value never prunes, and anything the analysis cannot
prove routes to every shard; pruning is a pure optimization and never
changes results (the differential suite runs with it forced off to
check exactly that).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Iterable, Optional

from repro.errors import ExecutionError, ShardRoutingError
from repro.sql.ast_nodes import Expr
from repro.sql.expressions import split_conjuncts
from repro.sql.params import bound, resolve_maybe
from repro.sql.sargable import conjunct_constraints, tightest
from repro.storage.record import RecordCodec

class HashPartitioner:
    """Stable hash placement over the canonical record encoding."""

    prunes_ranges = False

    def __init__(self, shard_count: int):
        self.shard_count = shard_count
        self._codec = RecordCodec()

    def shard_of(self, value: Any) -> int:
        digest = blake2b(
            self._codec.encode((value,)), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") % self.shard_count

    def shards_for_range(
        self, lo: Any, hi: Any, include_lo: bool, include_hi: bool
    ) -> set[int]:
        # a point range is an equality in disguise; anything wider is
        # unprunable under hashing
        if lo is not None and lo == hi and include_lo and include_hi:
            return {self.shard_of(lo)}
        return set(range(self.shard_count))


class RangePartitioner:
    """Boundary-list placement: shard ``i`` owns values < boundary ``i``."""

    prunes_ranges = True

    def __init__(self, shard_count: int, boundaries: Iterable[Any]):
        self.shard_count = shard_count
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) != shard_count - 1:
            raise ShardRoutingError(
                f"range partitioner needs {shard_count - 1} boundaries, "
                f"got {len(self.boundaries)}"
            )

    def shard_of(self, value: Any) -> int:
        if value is None:
            # NULL shard keys sort below every boundary: first shard
            return 0
        for i, boundary in enumerate(self.boundaries):
            if value < boundary:
                return i
        return self.shard_count - 1

    def shards_for_range(
        self, lo: Any, hi: Any, include_lo: bool, include_hi: bool
    ) -> set[int]:
        first = 0 if lo is None else self.shard_of(lo)
        last = self.shard_count - 1 if hi is None else self.shard_of(hi)
        return set(range(first, last + 1))


def partitioner_for(config, table_name: str):
    """Build the configured partitioner for one table."""
    boundaries = config.shard_ranges.get(
        table_name.lower(), config.shard_ranges.get(table_name)
    )
    if boundaries is not None:
        return RangePartitioner(config.shard_count, boundaries)
    return HashPartitioner(config.shard_count)


# ----------------------------------------------------------------------
# predicate pruning
# ----------------------------------------------------------------------
def prune_shards(
    where: Optional[Expr],
    shard_key: str,
    partitioner,
    params: tuple = (),
    binding: Optional[str] = None,
) -> set[int]:
    """Shards that can hold rows satisfying ``where``.

    Every usable constraint on the shard key intersects the candidate
    set; whatever the analysis cannot use is ignored (it only ever makes
    the true answer a subset of what is returned, which is the safe
    direction).
    """
    keyed = [
        con
        for conjunct in split_conjuncts(where)
        for con in conjunct_constraints(conjunct, binding)
        if con.column == shard_key
    ]
    candidates = set(range(partitioner.shard_count))
    bounds: list[tuple[str, Any]] = []
    try:
        with bound(params):
            for con in keyed:
                if con.op == "in":
                    values = {resolve_maybe(v) for v in con.value} - {None}
                    candidates &= {partitioner.shard_of(v) for v in values}
                    continue
                value = resolve_maybe(con.value)
                if value is None:
                    continue
                if con.op == "=":
                    candidates &= {partitioner.shard_of(value)}
                else:
                    bounds.append((con.op, value))
        if bounds:
            candidates &= partitioner.shards_for_range(*tightest(bounds))
    except (ExecutionError, TypeError):
        # an unbound parameter, or a value that does not compare with
        # the shard key, proves nothing; execution rejects it typed
        return set(range(partitioner.shard_count))
    return candidates
