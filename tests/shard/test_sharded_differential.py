"""Differential fuzzing: sharded fleet vs single enclave vs SQLite.

One seeded ``random.Random`` drives data and query generation; every
query runs against the sharded fleet (at shard counts 1/2/4, pruning on
and off), a single-enclave VeriDB, and SQLite. The corpus is
INTEGER-only — float SUM is not associative, and partial-aggregate
merge reorders additions across shards, so integer columns are what
makes "byte-identical" a meaningful claim.

Comparisons: queries under a unique total ORDER BY must match the
single enclave *exactly* (order and all); everything else compares as
canonically sorted multisets. Every query also runs twice on the fleet
— the second execution rides the plan/statement caches and must not
change the answer. Each sweep ends with a fleet-wide epoch close.
"""

import random
import sqlite3

import pytest

from repro.core.config import ShardConfig, VeriDBConfig
from repro.core.database import VeriDB
from repro.obs.metrics import MetricsRegistry
from repro.shard import ShardedDatabase

SHARD_COUNTS = (1, 2, 4)

_DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
    "b INTEGER{chain})"
)


def _canon(rows):
    def key(row):
        return tuple((value is None, value) for value in row)

    return sorted(rows, key=key)


class ShardFuzzer:
    """Random queries in the dialect all three engines accept."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self):
        return self.rng.randrange(-5, 51)

    def predicate(self, depth=2):
        roll = self.rng.random()
        if depth > 0 and roll < 0.25:
            connective = self.rng.choice(["AND", "OR"])
            return (
                f"({self.predicate(depth - 1)} {connective} "
                f"{self.predicate(depth - 1)})"
            )
        col = self.rng.choice(["id", "a", "b"])
        if roll < 0.4:
            negated = "NOT " if self.rng.random() < 0.5 else ""
            return f"({col} IS {negated}NULL)"
        if roll < 0.55:
            items = ", ".join(
                str(self.literal()) for _ in range(self.rng.randrange(1, 5))
            )
            return f"({col} IN ({items}))"
        if roll < 0.7:
            lo = self.rng.randrange(0, 25)
            return f"({col} BETWEEN {lo} AND {lo + self.rng.randrange(0, 25)})"
        op = self.rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"({col} {op} {self.literal()})"

    def next_query(self):
        """Returns ``(sql, params, exact_order)``."""
        roll = self.rng.random()
        if roll < 0.2:
            # shard-key point query with a bound parameter: the pruning
            # path, re-resolved per execution
            return (
                "SELECT id, a, b FROM t WHERE id = ?",
                (self.rng.randrange(0, 40),),
                True,
            )
        if roll < 0.4:
            # grouped partial aggregates (the merge path)
            return (
                "SELECT a, COUNT(*), COUNT(b), SUM(b), MIN(b), MAX(b), "
                f"AVG(a) FROM t WHERE {self.predicate()} GROUP BY a",
                (),
                False,
            )
        if roll < 0.5:
            # global aggregate, possibly over zero rows on some shards
            return (
                "SELECT COUNT(*), SUM(a), MIN(a), MAX(b) FROM t "
                f"WHERE {self.predicate()}",
                (),
                False,
            )
        if roll < 0.65:
            direction = self.rng.choice(["ASC", "DESC"])
            limit = self.rng.randrange(0, 12)
            return (
                f"SELECT id, a FROM t WHERE {self.predicate()} "
                f"ORDER BY id {direction} LIMIT {limit}",
                (),
                True,  # id is unique: a total order, compare exactly
            )
        if roll < 0.75:
            return (
                f"SELECT DISTINCT a, b FROM t WHERE {self.predicate()}",
                (),
                False,
            )
        return (
            f"SELECT id, a, b FROM t WHERE {self.predicate()}",
            (),
            False,
        )


def _setup(rng, shard_count, prune):
    sharded = ShardedDatabase(
        ShardConfig(
            shard_count=shard_count,
            prune=prune,
            base=VeriDBConfig(key_seed=31),
        ),
        registry=MetricsRegistry(),
    )
    single = VeriDB(VeriDBConfig(key_seed=31))
    connection = sqlite3.connect(":memory:")
    for db in (sharded, single):
        db.sql(_DDL.format(chain=", CHAIN (a)"))
    connection.execute(_DDL.format(chain=""))
    for i in range(rng.randrange(10, 40)):
        row = (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(-5, 6),
        )
        sharded.table("t").insert(row)
        single.table("t").insert(row)
        connection.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    return sharded, single, connection


def _sweep(seed, shard_count, prune, queries=25, reseed_every=13):
    rng = random.Random(seed)
    fuzzer = ShardFuzzer(rng)
    sharded = single = connection = None
    try:
        for index in range(queries):
            if index % reseed_every == 0:
                if sharded is not None:
                    sharded.verify_now()
                    sharded.close()
                sharded, single, connection = _setup(rng, shard_count, prune)
            sql, params, exact = fuzzer.next_query()
            tag = (
                f"seed={seed} index={index} shards={shard_count} "
                f"prune={prune} sql={sql!r} params={params!r}"
            )
            fleet_rows = sharded.execute(sql, params=params or None).rows
            cached = sharded.execute(sql, params=params or None).rows
            single_rows = single.sql(sql, params=params or None).rows
            sqlite_rows = [
                tuple(r) for r in connection.execute(sql, params).fetchall()
            ]
            if exact:
                # unique total order: the fleet answer must be
                # byte-identical to the single enclave's
                assert list(fleet_rows) == list(single_rows), tag
                assert list(cached) == list(single_rows), tag
                assert list(single_rows) == sqlite_rows, tag
            else:
                assert len(fleet_rows) == len(sqlite_rows), tag
                assert _canon(fleet_rows) == _canon(single_rows), tag
                assert _canon(cached) == _canon(single_rows), tag
                assert _canon(single_rows) == _canon(sqlite_rows), tag
        sharded.verify_now()
        single.verify_now()
    finally:
        if sharded is not None:
            sharded.close()


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_fleet_matches_single_enclave_and_sqlite(shard_count):
    _sweep(seed=17 + shard_count, shard_count=shard_count, prune=True)


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_pruning_off_is_invisible(shard_count):
    """Pruning is a pure optimization: forced off, same corpus, same
    answers (the seed matches the pruned run above query for query)."""
    _sweep(seed=17 + shard_count, shard_count=shard_count, prune=False)


def test_param_range_under_range_partitioner():
    """A ``?`` range on a range-partitioned shard key: one prepared shape,
    pruned per binding with pruning on, never pruned with it off, and
    the same answer as the single enclave and SQLite either way."""
    bindings = (
        ((2, 5), {0}),
        ((12, 25), {1, 2}),
        ((5.5, 31), {0, 1, 2, 3}),
        ((28, 3), set()),  # reversed bounds: nothing to scan
        ((None, 10), {0, 1}),  # a NULL bound prunes nothing itself
    )
    sql = "SELECT id, a, b FROM t WHERE id BETWEEN ? AND ? ORDER BY id"
    rng = random.Random(5)
    rows = [(i, rng.randrange(0, 8), rng.randrange(-5, 6)) for i in range(40)]
    single = VeriDB(VeriDBConfig(key_seed=31))
    single.sql(_DDL.format(chain=", CHAIN (a)"))
    single.load_rows("t", rows)
    connection = sqlite3.connect(":memory:")
    connection.execute(_DDL.format(chain=""))
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    for prune in (True, False):
        with ShardedDatabase(
            ShardConfig(
                shard_count=4,
                prune=prune,
                shard_ranges={"t": (10, 20, 30)},
                base=VeriDBConfig(key_seed=31),
            ),
            registry=MetricsRegistry(),
        ) as fleet:
            fleet.sql(_DDL.format(chain=", CHAIN (a)"))
            fleet.load_rows("t", rows)
            statement = fleet.prepare(sql)
            for params, shards in bindings:
                pruned = fleet.obs.counter("shard.partitions_pruned")
                before = pruned.value
                got = statement.execute(params).rows
                expected = single.sql(sql, params=params).rows
                assert list(got) == list(expected), params
                assert list(expected) == [
                    tuple(r) for r in connection.execute(sql, params)
                ], params
                assert pruned.value - before == (
                    4 - len(shards) if prune else 0
                ), params
            fleet.verify_now()


@pytest.mark.slow
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize("prune", [True, False])
def test_fleet_deep_corpus(shard_count, prune):
    for seed in range(4):
        _sweep(seed, shard_count, prune, queries=80)
