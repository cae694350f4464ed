"""Differential testing against SQLite.

Hypothesis generates random tables and random queries from a dialect
subset both engines accept, runs them on VeriDB (over fully verified
storage) and on SQLite, and compares results. Divergence means a bug in
our parser, planner, operators or NULL handling.

The generated subset deliberately avoids known semantic differences:
no division (SQLite's ``/`` on integers truncates), no string ordering
edge cases beyond plain ASCII, LIMIT only under a unique total ORDER
BY. It does include NULL join keys and NULL items in ``[NOT] IN``
lists, and every join runs under each join hint the planner accepts
for it, at batch sizes 1, 7 and 256.
"""

import random
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.sql.executor import QueryEngine
from repro.storage.engine import StorageEngine

# ----------------------------------------------------------------------
# data generation
# ----------------------------------------------------------------------
_row = st.tuples(
    st.integers(0, 50),  # a
    st.one_of(st.none(), st.integers(-5, 5)),  # b (nullable)
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=2)),  # s (nullable)
)
_rows = st.lists(_row, max_size=25)

# ----------------------------------------------------------------------
# predicate generation (shared dialect)
# ----------------------------------------------------------------------
_comparison = st.builds(
    lambda col, op, lit: f"({col} {op} {lit})",
    st.sampled_from(["a", "b", "id"]),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(-5, 50),
)
_between = st.builds(
    lambda col, lo, hi: f"({col} BETWEEN {lo} AND {hi})",
    st.sampled_from(["a", "id"]),
    st.integers(0, 25),
    st.integers(10, 50),
)
def _sql_literal(value) -> str:
    return "NULL" if value is None else str(value)


_in_list = st.builds(
    lambda col, negated, items: (
        f"({col} {'NOT ' if negated else ''}IN "
        f"({', '.join(map(_sql_literal, items))}))"
    ),
    st.sampled_from(["a", "b"]),
    st.booleans(),
    st.lists(st.one_of(st.none(), st.integers(-5, 50)), min_size=1, max_size=4),
)
_is_null = st.builds(
    lambda col, negated: f"({col} IS {'NOT ' if negated else ''}NULL)",
    st.sampled_from(["b", "s"]),
    st.booleans(),
)
_atom = st.one_of(_comparison, _between, _in_list, _is_null)
_predicate = st.recursive(
    _atom,
    lambda inner: st.builds(
        lambda left, connective, right: f"({left} {connective} {right})",
        inner,
        st.sampled_from(["AND", "OR"]),
        inner,
    ),
    max_leaves=4,
)


def _run_both(rows, sql, params=None, storage_config=None):
    storage = StorageEngine(storage_config)
    engine = QueryEngine(Catalog(), storage)
    engine.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT, CHAIN (a))"
    )
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT)"
    )
    for i, (a, b, s) in enumerate(rows):
        engine.catalog.lookup("t").store.insert((i, a, b, s))
        connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (i, a, b, s))
    # run every query twice: the first execution populates the plan
    # cache, the second is served from it — both must agree with SQLite
    ours = engine.execute(sql, params=params).rows
    cached = engine.execute(sql, params=params).rows
    assert _canon(cached) == _canon(ours), "plan-cache hit changed rows"
    theirs = [
        tuple(r)
        for r in connection.execute(sql, params or ()).fetchall()
    ]
    storage.verify_now()
    return ours, theirs


def _canon(rows):
    def key(row):
        return tuple((value is None, value) for value in row)

    return sorted(rows, key=key)


def _approx_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, other in zip(_canon(ours), _canon(theirs)):
        assert len(mine) == len(other)
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                assert a == pytest.approx(b)
            else:
                assert a == b


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
#: two rows whose ``a`` is 1 and 2: ``a NOT IN (1, NULL)`` is FALSE for
#: the first and NULL (not TRUE) for the second
_IN_ROWS = [(1, None, None), (2, None, None)]


@settings(max_examples=60, deadline=None)
@given(rows=_rows, predicate=_predicate)
@example(_IN_ROWS, "(a NOT IN (1, NULL))")
def test_filtered_select_matches_sqlite(rows, predicate):
    sql = f"SELECT id, a, b, s FROM t WHERE {predicate}"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=40, deadline=None)
@given(rows=_rows, in_list=_in_list)
@example(_IN_ROWS, "(a IN (1, NULL))")
def test_in_list_value_matches_sqlite(rows, in_list):
    """``[NOT] IN`` as a value: TRUE, FALSE or NULL, row by row."""
    sql = f"SELECT id, {in_list} FROM t"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


#: equi-join shapes over ``l(x PK, k)`` and ``r(y PK, k)``, both ``k``
#: nullable; ``index_nl`` applies where the inner side's key is its PK
_JOIN_SHAPES = (
    ("SELECT l.x, r.y FROM l JOIN r ON l.k = r.k", False),
    ("SELECT l.x, r.y FROM l JOIN r ON l.k = r.k AND l.x < r.y", False),
    ("SELECT l.x, r.y FROM l LEFT JOIN r ON l.k = r.k", False),
    ("SELECT l.x, r.y FROM l LEFT JOIN r ON l.k = r.k AND r.y > 15", False),
    ("SELECT l.x, r.y FROM l JOIN r ON l.k = r.y", True),
    ("SELECT l.x, r.y FROM l JOIN r ON l.k = r.y WHERE r.k IS NOT NULL", True),
)
_JOIN_HINTS = (None, "hash", "merge", "nested_loop")

_join_rows = st.lists(
    st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(0, 4))),
    max_size=12,
    unique_by=lambda row: row[0],
)


@settings(max_examples=40, deadline=None)
@given(left=_join_rows, right=_join_rows, shape=st.sampled_from(_JOIN_SHAPES))
# NULL keys never match: not under hash or nested loops, inner or LEFT
@example([(1, 1), (2, None)], [(10, 1), (20, None)], _JOIN_SHAPES[0])
@example([(1, 1), (2, None)], [(10, 1), (20, None)], _JOIN_SHAPES[2])
def test_join_matches_sqlite(left, right, shape):
    """Every legal join hint, at every batch size, agrees with SQLite."""
    from repro.storage.config import StorageConfig

    sql, inner_pk = shape
    hints = _JOIN_HINTS + (("index_nl",) if inner_pk else ())
    connection = sqlite3.connect(":memory:")
    for ddl in ("CREATE TABLE l (x INTEGER PRIMARY KEY, k INTEGER)",
                "CREATE TABLE r (y INTEGER PRIMARY KEY, k INTEGER)"):
        connection.execute(ddl)
    connection.executemany("INSERT INTO l VALUES (?, ?)", left)
    connection.executemany("INSERT INTO r VALUES (?, ?)", right)
    theirs = [tuple(row) for row in connection.execute(sql).fetchall()]
    for batch_size in (1, 7, 256):
        storage = StorageEngine(StorageConfig(batch_size=batch_size))
        engine = QueryEngine(Catalog(), storage)
        engine.execute("CREATE TABLE l (x INTEGER PRIMARY KEY, k INTEGER)")
        engine.execute("CREATE TABLE r (y INTEGER PRIMARY KEY, k INTEGER)")
        for row in left:
            engine.catalog.lookup("l").store.insert(row)
        for row in right:
            engine.catalog.lookup("r").store.insert(row)
        for hint in hints:
            ours = engine.execute(sql, join_hint=hint).rows
            tag = f"batch_size={batch_size} hint={hint}"
            assert _canon(ours) == _canon(theirs), tag
        storage.verify_now()


@settings(max_examples=40, deadline=None)
@given(rows=_rows, predicate=_predicate)
def test_aggregates_match_sqlite(rows, predicate):
    sql = (
        "SELECT COUNT(*), COUNT(b), SUM(a), MIN(b), MAX(a), AVG(a) "
        f"FROM t WHERE {predicate}"
    )
    ours, theirs = _run_both(rows, sql)
    # empty-input aggregates: SQLite yields one row of NULLs for
    # SUM/MIN/MAX/AVG and 0 for COUNT — ours does the same
    _approx_equal(ours, theirs)


@settings(max_examples=40, deadline=None)
@given(rows=_rows)
def test_group_by_matches_sqlite(rows):
    sql = "SELECT a, COUNT(*), SUM(a), MIN(b) FROM t GROUP BY a"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=40, deadline=None)
@given(rows=_rows, limit=st.integers(0, 10), descending=st.booleans())
def test_order_limit_matches_sqlite(rows, limit, descending):
    direction = "DESC" if descending else "ASC"
    sql = f"SELECT id, a FROM t ORDER BY id {direction} LIMIT {limit}"
    ours, theirs = _run_both(rows, sql)
    assert list(ours) == theirs  # exact order: id is unique


@settings(max_examples=30, deadline=None)
@given(rows=_rows, predicate=_predicate)
def test_distinct_matches_sqlite(rows, predicate):
    sql = f"SELECT DISTINCT a, b FROM t WHERE {predicate}"
    ours, theirs = _run_both(rows, sql)
    _approx_equal(ours, theirs)


@settings(max_examples=30, deadline=None)
@given(rows=_rows)
def test_scalar_subquery_matches_sqlite(rows):
    sql = "SELECT id FROM t WHERE a >= (SELECT AVG(a) FROM t)"
    ours, theirs = _run_both(rows, sql)
    if not rows:
        # AVG over empty input is NULL; the comparison is never true
        assert ours == [] and theirs == []
        return
    _approx_equal(ours, theirs)


#: two-placeholder WHERE shapes; ``{col}`` is the primary-key chain
#: (id), the secondary chain (a) or an unchained column (b)
_PARAM_SHAPES = (
    "({col} {op} ?) OR (b = ?)",
    "{col} BETWEEN ? AND ?",
    "{col} > ? AND {col} <= ?",
    "{col} {op} ? AND {col} >= ?",
    # a literal and a `?` bound on the same side
    "{col} > 12 AND {col} >= ? AND {col} < ?",
    "{col} > ? AND {col} < ? AND {col} <= 30",
)

#: a NULL binding, an integer, or a float (half-integers land between
#: INTEGER keys and on them)
_param_value = st.one_of(
    st.none(),
    st.integers(-5, 50),
    st.integers(-10, 100).map(lambda twice: twice / 2),
)


#: a fixed table for the pinned range examples: a spans 0..49, id 0..24
_RANGE_ROWS = [(7 * i % 50, i % 11 - 5, None) for i in range(25)]


@settings(max_examples=60, deadline=None)
@given(
    rows=_rows,
    shape=st.sampled_from(_PARAM_SHAPES),
    col=st.sampled_from(["a", "b", "id"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    values=st.tuples(_param_value, _param_value),
)
# pinned range shapes: the tighter bound on a side is the literal, the
# ``?``, or the second ``?``; reversed, NULL and float bounds
@example(_RANGE_ROWS, _PARAM_SHAPES[4], "a", "=", (3, 40))
@example(_RANGE_ROWS, _PARAM_SHAPES[4], "id", "=", (20, 23))
@example(_RANGE_ROWS, _PARAM_SHAPES[5], "a", "=", (2.5, 40))
@example(_RANGE_ROWS, _PARAM_SHAPES[3], "a", ">", (7.5, 20))
@example(_RANGE_ROWS, _PARAM_SHAPES[3], "id", ">=", (15, 7.5))
@example(_RANGE_ROWS, _PARAM_SHAPES[1], "a", "=", (30, 10))
@example(_RANGE_ROWS, _PARAM_SHAPES[2], "id", "=", (None, 10))
@example(_RANGE_ROWS, _PARAM_SHAPES[2], "a", "=", (4.5, 20.5))
def test_parameterized_select_matches_sqlite(rows, shape, col, op, values):
    """Bound ``?`` parameters behave exactly like inlined literals.

    Both engines take the same placeholder syntax. Range shapes put the
    bounds on a chain scan that resolves them per execution, so they
    cover reversed bounds (drawn values fall either way round), NULL
    bindings (the scans' short-circuit) and float bounds on INTEGER
    chains — at every batch size with the record cache on and off.
    ``_run_both`` executes each shape twice: the second run is a
    plan-cache hit with the same binding.
    """
    from repro.storage.config import StorageConfig

    sql = f"SELECT id, a, b FROM t WHERE {shape.format(col=col, op=op)}"
    for batch_size in (1, 7, 256):
        for cache_bytes in (0, 1 << 20):
            config = StorageConfig(
                batch_size=batch_size, cache_bytes=cache_bytes
            )
            ours, theirs = _run_both(rows, sql, values, config)
            _approx_equal(ours, theirs)


# ----------------------------------------------------------------------
# seeded random-query fuzzer: joins, aggregates, NULLs, ORDER/LIMIT
#
# One seeded ``random.Random`` drives both data and query generation, so
# a failure reproduces from nothing but the printed (seed, index) pair.
# The CI corpus is bounded; the slow-marked variant runs a much larger
# sweep for opt-in deep runs (``pytest -m slow``).
# ----------------------------------------------------------------------
class QueryFuzzer:
    """Composes random two-table queries in the shared dialect subset.

    Each shape returns ``(sql, exact_order, hints)``: the join hints to
    run it under (``(None,)`` for single-table queries). Joins run under
    every hint the planner accepts for them; ``index_nl`` only applies
    to an equality on the inner table's primary key.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self):
        return self.rng.randrange(-5, 51)

    def predicate(self, cols, depth=2):
        roll = self.rng.random()
        if depth > 0 and roll < 0.3:
            connective = self.rng.choice(["AND", "OR"])
            left = self.predicate(cols, depth - 1)
            right = self.predicate(cols, depth - 1)
            return f"({left} {connective} {right})"
        col = self.rng.choice(cols)
        if roll < 0.45:
            return f"({col} IS {'NOT ' if self.rng.random() < 0.5 else ''}NULL)"
        if roll < 0.6:
            items = ", ".join(
                "NULL" if self.rng.random() < 0.2 else str(self.literal())
                for _ in range(self.rng.randrange(1, 5))
            )
            negated = "NOT " if self.rng.random() < 0.3 else ""
            return f"({col} {negated}IN ({items}))"
        op = self.rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"({col} {op} {self.literal()})"

    def single_table(self):
        where = self.predicate(["a", "b", "id"])
        return f"SELECT id, a, b FROM t WHERE {where}", False, (None,)

    def inner_join(self):
        # b is nullable on both sides; id is the inner table's PK
        key = self.rng.choice(["a", "id", "b"])
        where = self.predicate(["t.a", "t.b", "u.c", "u.id"])
        sql = (
            "SELECT t.id, u.id, t.a, u.c FROM t "
            f"JOIN u ON t.{key} = u.{key} "
            f"WHERE {where}"
        )
        hints = _JOIN_HINTS + (("index_nl",) if key == "id" else ())
        return sql, False, hints

    def left_join(self):
        key = self.rng.choice(["a", "b"])
        where = self.predicate(["t.a", "t.b"])
        sql = (
            f"SELECT t.id, u.c FROM t LEFT JOIN u ON t.{key} = u.{key} "
            f"WHERE {where}"
        )
        return sql, False, _JOIN_HINTS

    def join_aggregate(self):
        key = self.rng.choice(["a", "b"])
        sql = (
            "SELECT t.a, COUNT(*), COUNT(u.c), SUM(u.c), MIN(u.c), MAX(t.b) "
            f"FROM t LEFT JOIN u ON t.{key} = u.{key} GROUP BY t.a"
        )
        return sql, False, _JOIN_HINTS

    def order_limit(self):
        key = self.rng.choice(["a", "b"])
        direction = self.rng.choice(["ASC", "DESC"])
        limit = self.rng.randrange(0, 12)
        where = self.predicate(["t.a", "t.b", "u.c"])
        sql = (
            f"SELECT t.id, u.id FROM t JOIN u ON t.{key} = u.{key} "
            f"WHERE {where} "
            f"ORDER BY t.id {direction}, u.id {direction} LIMIT {limit}"
        )
        return sql, True, _JOIN_HINTS  # unique total order: compare exactly

    def aggregate_filter(self):
        where = self.predicate(["a", "b"])
        sql = (
            "SELECT COUNT(*), COUNT(b), SUM(b), MIN(a), MAX(b), AVG(a) "
            f"FROM t WHERE {where}"
        )
        return sql, False, (None,)

    def next_query(self):
        shape = self.rng.choice(
            [
                self.single_table,
                self.inner_join,
                self.left_join,
                self.join_aggregate,
                self.order_limit,
                self.aggregate_filter,
            ]
        )
        return shape()


def _fuzz_setup(rng, storage_configs):
    """One engine per config over the same random rows, plus SQLite."""
    engines = [
        QueryEngine(Catalog(), StorageEngine(config)) for config in storage_configs
    ]
    connection = sqlite3.connect(":memory:")
    ddl_t = (
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, s TEXT{chain})"
    )
    ddl_u = (
        "CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, "
        "b INTEGER, c INTEGER{chain})"
    )
    for engine in engines:
        engine.execute(ddl_t.format(chain=", CHAIN (a)"))
        engine.execute(ddl_u.format(chain=", CHAIN (a)"))
    connection.execute(ddl_t.format(chain=""))
    connection.execute(ddl_u.format(chain=""))
    t_rows = [
        (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(-5, 6),
            None if rng.random() < 0.3 else rng.choice(["x", "y", "zz"]),
        )
        for i in range(rng.randrange(5, 30))
    ]
    u_rows = [
        (
            i,
            rng.randrange(0, 8),
            None if rng.random() < 0.3 else rng.randrange(-5, 6),
            None if rng.random() < 0.3 else rng.randrange(0, 50),
        )
        for i in range(rng.randrange(0, 20))
    ]
    for table, rows in (("t", t_rows), ("u", u_rows)):
        for engine in engines:
            store = engine.catalog.lookup(table).store
            for row in rows:
                store.insert(row)
        connection.executemany(f"INSERT INTO {table} VALUES (?, ?, ?, ?)", rows)
    return engines, connection


def _fuzz_corpus(seed, queries, reseed_data_every=25, storage_configs=None):
    """Run ``queries`` random queries; divergence fails with a repro tag.

    Every query runs on one engine per storage config (default: batch
    sizes 1, 7 and 256), under each of its join hints, twice: the
    second execution is served from the plan cache and must return the
    same rows, so the whole corpus doubles as a cache-coherence sweep.
    """
    from repro.storage.config import StorageConfig

    if storage_configs is None:
        storage_configs = [StorageConfig(batch_size=n) for n in (1, 7, 256)]
    rng = random.Random(seed)
    fuzzer = QueryFuzzer(rng)
    engines = connection = None
    for index in range(queries):
        if index % reseed_data_every == 0:
            engines, connection = _fuzz_setup(rng, storage_configs)
        sql, exact_order, hints = fuzzer.next_query()
        theirs = [tuple(r) for r in connection.execute(sql).fetchall()]
        for engine in engines:
            for hint in hints:
                tag = (
                    f"seed={seed} index={index} hint={hint} "
                    f"batch_size={engine.storage.config.batch_size} sql={sql!r}"
                )
                ours = engine.execute(sql, join_hint=hint).rows
                cached = engine.execute(sql, join_hint=hint).rows
                if exact_order:
                    assert list(ours) == theirs, tag
                    assert list(cached) == theirs, tag
                else:
                    assert len(ours) == len(theirs), tag
                    assert _canon(ours) == _canon(theirs), tag
                    assert _canon(cached) == _canon(theirs), tag
    for engine in engines:
        engine.storage.verify_now()


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_fuzzer_ci_corpus(seed):
    _fuzz_corpus(seed, queries=60)


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("plan_cache_size", [0, 128])
def test_fuzzer_batch_and_cache_matrix(batch_size, plan_cache_size):
    """Batch granularity × cache-on/off never changes results.

    batch_size=1 degenerates the columnar pipeline to row-at-a-time;
    plan_cache_size=0 disables plan reuse entirely — every combination
    must agree with SQLite on the same corpus.
    """
    from repro.storage.config import StorageConfig

    config = StorageConfig(
        batch_size=batch_size, plan_cache_size=plan_cache_size
    )
    _fuzz_corpus(5, queries=30, storage_configs=[config])


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(8)))
def test_fuzzer_deep_corpus(seed):
    _fuzz_corpus(seed, queries=400)
