"""Partitioner placement and predicate pruning (repro.shard.partition)."""

import pytest

from repro.core.config import ShardConfig
from repro.errors import ShardRoutingError
from repro.shard import HashPartitioner, RangePartitioner, partitioner_for
from repro.shard.partition import prune_shards
from repro.sql.parser import parse_statement


def where_of(sql: str):
    return parse_statement(sql).where


ALL4 = set(range(4))


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def test_hash_placement_is_stable_and_total():
    p = HashPartitioner(4)
    placements = {k: p.shard_of(k) for k in range(1000)}
    # deterministic across instances (blake2b over the record encoding,
    # never Python's randomized hash())
    q = HashPartitioner(4)
    assert all(q.shard_of(k) == s for k, s in placements.items())
    assert all(0 <= s < 4 for s in placements.values())
    # reasonable balance on a uniform key set
    per_shard = [list(placements.values()).count(i) for i in range(4)]
    assert min(per_shard) > 125  # perfect split is 250


def test_hash_placement_differs_by_type():
    p = HashPartitioner(8)
    # record encoding is typed: int 1 and string "1" may land anywhere,
    # but must each be stable
    assert p.shard_of(1) == p.shard_of(1)
    assert p.shard_of("1") == p.shard_of("1")


def test_range_placement_boundaries():
    p = RangePartitioner(3, (10, 20))
    assert [p.shard_of(v) for v in (-5, 0, 9)] == [0, 0, 0]
    assert [p.shard_of(v) for v in (10, 15, 19)] == [1, 1, 1]
    assert [p.shard_of(v) for v in (20, 21, 10**9)] == [2, 2, 2]
    assert p.shard_of(None) == 0  # NULLs sort low


def test_range_partitioner_boundary_count_enforced():
    with pytest.raises(ShardRoutingError):
        RangePartitioner(3, (10,))


def test_partitioner_for_selects_strategy():
    config = ShardConfig(shard_count=3, shard_ranges={"orders": (10, 20)})
    assert isinstance(partitioner_for(config, "orders"), RangePartitioner)
    assert isinstance(partitioner_for(config, "ORDERS"), RangePartitioner)
    assert isinstance(partitioner_for(config, "other"), HashPartitioner)


# ----------------------------------------------------------------------
# pruning: hash partitioner (equality only)
# ----------------------------------------------------------------------
def test_hash_prunes_equality():
    p = HashPartitioner(4)
    shards = prune_shards(where_of("SELECT * FROM t WHERE k = 7"), "k", p)
    assert shards == {p.shard_of(7)}


def test_hash_prunes_flipped_equality():
    p = HashPartitioner(4)
    shards = prune_shards(where_of("SELECT * FROM t WHERE 7 = k"), "k", p)
    assert shards == {p.shard_of(7)}


def test_hash_cannot_prune_ranges():
    p = HashPartitioner(4)
    assert prune_shards(where_of("SELECT * FROM t WHERE k > 7"), "k", p) == ALL4
    assert (
        prune_shards(
            where_of("SELECT * FROM t WHERE k BETWEEN 1 AND 3"), "k", p
        )
        == ALL4
    )


def test_hash_prunes_in_list():
    p = HashPartitioner(4)
    shards = prune_shards(
        where_of("SELECT * FROM t WHERE k IN (1, 2, 3)"), "k", p
    )
    assert shards == {p.shard_of(1), p.shard_of(2), p.shard_of(3)}
    # NOT IN proves nothing
    assert (
        prune_shards(where_of("SELECT * FROM t WHERE k NOT IN (1)"), "k", p)
        == ALL4
    )


def test_bound_parameters_prune_per_execution():
    p = HashPartitioner(4)
    where = where_of("SELECT * FROM t WHERE k = ?")
    assert prune_shards(where, "k", p, params=(7,)) == {p.shard_of(7)}
    assert prune_shards(where, "k", p, params=(8,)) == {p.shard_of(8)}
    # unbound parameter: no pruning, never an error
    assert prune_shards(where, "k", p, params=()) == ALL4


def test_conjuncts_intersect_and_non_key_is_ignored():
    p = HashPartitioner(4)
    where = where_of("SELECT * FROM t WHERE k = 7 AND v > 100")
    assert prune_shards(where, "k", p) == {p.shard_of(7)}
    # contradictory equalities intersect to the empty set
    where = where_of("SELECT * FROM t WHERE k = 1 AND k = 2")
    if p.shard_of(1) != p.shard_of(2):
        assert prune_shards(where, "k", p) == set()


def test_disjunction_blocks_pruning():
    p = HashPartitioner(4)
    where = where_of("SELECT * FROM t WHERE k = 1 OR v = 2")
    assert prune_shards(where, "k", p) == ALL4


def test_qualified_ref_respects_binding():
    p = HashPartitioner(4)
    where = where_of("SELECT * FROM t WHERE t.k = 7")
    assert prune_shards(where, "k", p, binding="t") == {p.shard_of(7)}
    assert prune_shards(where, "k", p, binding="u") == ALL4


def test_null_comparison_never_prunes():
    p = HashPartitioner(4)
    where = where_of("SELECT * FROM t WHERE k = ?")
    assert prune_shards(where, "k", p, params=(None,)) == ALL4


# ----------------------------------------------------------------------
# pruning: range partitioner (equality and ranges)
# ----------------------------------------------------------------------
def test_range_prunes_ranges():
    p = RangePartitioner(4, (10, 20, 30))
    assert prune_shards(
        where_of("SELECT * FROM t WHERE k >= 20"), "k", p
    ) == {2, 3}
    assert prune_shards(
        where_of("SELECT * FROM t WHERE k <= 9"), "k", p
    ) == {0}
    # an exclusive bound sitting exactly on a boundary keeps the
    # boundary's shard: pruning may over-approximate, never under
    assert prune_shards(
        where_of("SELECT * FROM t WHERE k < 10"), "k", p
    ) == {0, 1}
    assert prune_shards(
        where_of("SELECT * FROM t WHERE k BETWEEN 12 AND 25"), "k", p
    ) == {1, 2}
    assert prune_shards(
        where_of("SELECT * FROM t WHERE 20 <= k"), "k", p
    ) == {2, 3}


def test_range_prunes_closed_interval_from_conjuncts():
    p = RangePartitioner(4, (10, 20, 30))
    where = where_of("SELECT * FROM t WHERE k >= 12 AND k < 18")
    assert prune_shards(where, "k", p) == {1}


def test_incomparable_value_never_prunes():
    # 'x' does not order against integer boundaries: no pruning, and no
    # bare TypeError (the shards' scans raise the typed error)
    p = RangePartitioner(4, (10, 20, 30))
    for sql in (
        "SELECT * FROM t WHERE k = ?",
        "SELECT * FROM t WHERE k BETWEEN 12 AND ?",
    ):
        assert prune_shards(where_of(sql), "k", p, params=("x",)) == ALL4
