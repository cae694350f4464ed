"""``?`` placeholders end to end: parser, binding, auth, service.

Parameters flow from the lexer (ordinal ``?`` markers) through the
planner (sargable params — equalities and range bounds alike — are
absorbed into point lookups and chain range scans, which resolve them
per execution) to execution-time binding, and across the trust
boundary: the client MACs the bound values together with the SQL text,
so a host can substitute neither.
"""

import pytest

from repro.catalog.catalog import Catalog
from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.core.portal import AuthenticatedQuery
from repro.crypto.mac import MessageAuthenticator
from repro.errors import AuthenticationError, ExecutionError
from repro.obs import MetricsRegistry
from repro.sql.ast_nodes import Parameter
from repro.sql.executor import QueryEngine
from repro.sql.operators import (
    FilterOp,
    PointLookupOp,
    RangeScanOp,
    SeqScanOp,
)
from repro.sql.parser import parse_statement_with_params
from repro.sql.planner import Planner
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.record import RecordCodec


def make_engine():
    engine = QueryEngine(Catalog(), StorageEngine(registry=MetricsRegistry()))
    engine.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w TEXT)"
    )
    for i in range(20):
        engine.execute(f"INSERT INTO t VALUES ({i}, {i * 5}, 'w{i % 3}')")
    return engine


# ----------------------------------------------------------------------
# parser: ordinal placeholder counting
# ----------------------------------------------------------------------
def test_parser_counts_placeholders_in_order():
    stmt, count = parse_statement_with_params(
        "SELECT id FROM t WHERE v > ? AND w = ? OR id = ?"
    )
    assert count == 3

    markers = []

    def collect(expr):
        if isinstance(expr, Parameter):
            markers.append(expr.index)
        for attr in ("left", "right", "operand"):
            child = getattr(expr, attr, None)
            if child is not None:
                collect(child)

    collect(stmt.where)
    assert markers == [0, 1, 2]


def test_parser_zero_placeholders():
    stmt, count = parse_statement_with_params("SELECT id FROM t")
    assert count == 0


# ----------------------------------------------------------------------
# planner: params and access paths
# ----------------------------------------------------------------------
def test_pk_equality_param_plans_point_lookup():
    engine = make_engine()
    stmt, _ = parse_statement_with_params("SELECT * FROM t WHERE id = ?")
    plan = Planner(engine.catalog).plan_select(stmt, None)
    ops = list(plan.walk())
    assert any(isinstance(op, PointLookupOp) for op in ops)
    assert not any(isinstance(op, SeqScanOp) for op in ops)


def test_range_bound_params_become_scan_bounds():
    # `?` bounds ride the chain range scan as markers it resolves per
    # execution: no sequential scan, no residual copy of the bound
    engine = make_engine()
    for sql in (
        "SELECT * FROM t WHERE id > ?",
        "SELECT * FROM t WHERE id BETWEEN ? AND ?",
    ):
        stmt, count = parse_statement_with_params(sql)
        plan = Planner(engine.catalog).plan_select(stmt, None)
        ops = list(plan.walk())
        assert not any(isinstance(op, (SeqScanOp, FilterOp)) for op in ops)
        (scan,) = [op for op in ops if isinstance(op, RangeScanOp)]
        assert [con.value.index for con in scan.bounds] == list(range(count))
        assert all(isinstance(con.value, Parameter) for con in scan.bounds)
        assert "?1" in plan.explain()
    # and it evaluates correctly once bound
    rows = engine.execute("SELECT id FROM t WHERE id > ?", params=(16,)).rows
    assert [r[0] for r in rows] == [17, 18, 19]
    rows = engine.execute(
        "SELECT id FROM t WHERE id BETWEEN ? AND ?", params=(3, 6)
    ).rows
    assert [r[0] for r in rows] == [3, 4, 5, 6]


def test_param_range_reads_as_much_as_literal_range():
    """A `?`-bound range walks only its chain segment (Section 5.2)."""
    storage = StorageEngine(StorageConfig(cache_bytes=0))
    engine = QueryEngine(Catalog(), storage)
    engine.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
    table = engine.catalog.lookup("kv").store
    for i in range(2000):
        table.insert((i, i * 3))

    def reads(sql, params=None):
        before = storage.vmem.stats.verified_reads
        rows = engine.execute(sql, params=params).rows
        assert [r[0] for r in rows] == list(range(1000, 1020))
        return storage.vmem.stats.verified_reads - before

    literal = reads("SELECT id, v FROM kv WHERE id BETWEEN 1000 AND 1019")
    param_sql = "SELECT id, v FROM kv WHERE id BETWEEN ? AND ?"
    assert literal == 20
    assert reads(param_sql, (1000, 1019)) == literal
    assert reads(param_sql, (1000, 1019)) == literal  # plan-cache hit


def test_incomparable_key_param_is_a_typed_error():
    engine = make_engine()
    engine.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, v INTEGER, CHAIN (v))")
    for i in range(5):
        engine.execute(f"INSERT INTO c VALUES ({i}, {i * 10})")
    vmem = engine.storage.vmem
    for sql, params, ordinal, column in (
        ("SELECT v FROM t WHERE id = ?", ("x",), "?1", "id"),
        ("SELECT v FROM t WHERE id BETWEEN ? AND ?", (3, "x"), "?2", "id"),
        ("SELECT id FROM c WHERE v > ? AND v < ?", (b"x", 30), "?1", "v"),
    ):
        before = vmem.stats.verified_reads
        with pytest.raises(ExecutionError) as caught:
            engine.execute(sql, params=params)
        assert f"parameter {ordinal}" in str(caught.value)
        assert f"column {column}" in str(caught.value)
        # rejected before the index probe and any verified read
        assert vmem.stats.verified_reads == before
    # the residual-filter path raises the same class
    with pytest.raises(ExecutionError):
        engine.execute("SELECT id FROM t WHERE w > ?", params=(3,))
    with pytest.raises(ExecutionError):
        engine.execute("SELECT id FROM t WHERE w BETWEEN ? AND ?", params=(3, 4))
    # numeric cross-type keys keep their answers
    assert engine.execute(
        "SELECT id FROM t WHERE id BETWEEN ? AND ?", params=(2.5, 4.0)
    ).rows == [(3,), (4,)]
    assert engine.execute(
        "SELECT id FROM c WHERE v > ?", params=(15.5,)
    ).rows == [(2,), (3,), (4,)]
    assert engine.execute(
        "SELECT id FROM t WHERE id = ?", params=(True,)
    ).rows == [(1,)]


# ----------------------------------------------------------------------
# execution: binding in every statement position
# ----------------------------------------------------------------------
def test_params_in_where_positions():
    engine = make_engine()
    assert engine.execute(
        "SELECT v FROM t WHERE id = ?", params=(4,)
    ).rows == [(20,)]
    assert engine.execute(
        "SELECT id FROM t WHERE v > ? AND w = ?", params=(80, "w2")
    ).rows == [(17,)]
    rows = engine.execute(
        "SELECT id FROM t WHERE id BETWEEN ? AND ?", params=(3, 6)
    ).rows
    assert [r[0] for r in rows] == [3, 4, 5, 6]


def test_params_in_insert_update_delete():
    engine = make_engine()
    engine.execute(
        "INSERT INTO t VALUES (?, ?, ?)", params=(50, 123, "new")
    )
    assert engine.execute(
        "SELECT v, w FROM t WHERE id = 50"
    ).rows == [(123, "new")]
    engine.execute(
        "UPDATE t SET v = ?, w = ? WHERE id = ?", params=(7, "upd", 50)
    )
    assert engine.execute(
        "SELECT v, w FROM t WHERE id = 50"
    ).rows == [(7, "upd")]
    engine.execute("DELETE FROM t WHERE id = ?", params=(50,))
    assert engine.execute("SELECT v FROM t WHERE id = 50").rows == []


def test_params_in_select_expressions():
    engine = make_engine()
    assert engine.execute(
        "SELECT id, v + ? FROM t WHERE id = ?", params=(1000, 2)
    ).rows == [(2, 1010)]


def test_null_param_comparisons_match_nothing():
    engine = make_engine()
    # SQL three-valued logic: `= NULL` is never true, including for a
    # parameter bound to None — and including on the point-lookup path
    assert engine.execute(
        "SELECT id FROM t WHERE v = ?", params=(None,)
    ).rows == []
    assert engine.execute(
        "SELECT id FROM t WHERE id = ?", params=(None,)
    ).rows == []


def test_null_param_inserts_null():
    engine = make_engine()
    engine.execute("INSERT INTO t VALUES (?, ?, ?)", params=(60, None, None))
    assert engine.execute(
        "SELECT id FROM t WHERE v IS NULL"
    ).rows == [(60,)]


def test_same_shape_different_values_share_one_plan():
    engine = make_engine()
    results = [
        engine.execute("SELECT v FROM t WHERE id = ?", params=(i,)).rows
        for i in range(8)
    ]
    assert results == [[(i * 5,)] for i in range(8)]
    hits = engine.obs.counter("sql.plan_cache_hits").value
    assert hits == 7


def test_unbound_statement_with_placeholders_rejected():
    engine = make_engine()
    with pytest.raises(ExecutionError):
        engine.execute("SELECT v FROM t WHERE id = ?")


# ----------------------------------------------------------------------
# the trust boundary: params ride inside the query MAC
# ----------------------------------------------------------------------
def build_db():
    db = VeriDB(VeriDBConfig(key_seed=11))
    db.sql("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(10):
        db.sql(f"INSERT INTO kv VALUES ({i}, {i * 10})")
    return db


def test_client_round_trip_with_params():
    db = build_db()
    client = db.connect("alice")
    result = client.execute("SELECT v FROM kv WHERE k = ?", params=(3,))
    assert result.rows == ((30,),)
    assert result.verified
    # a second binding of the same shape is a fresh qid, fresh result
    assert client.execute(
        "SELECT v FROM kv WHERE k = ?", params=(7,)
    ).rows == ((70,),)


def test_host_cannot_substitute_params():
    """Swapping the bound values after MACing must fail authentication."""
    db = build_db()
    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    qid = bytes(16)
    sql = "SELECT v FROM kv WHERE k = ?"
    tag = mac.tag(qid, sql.encode("utf-8"), RecordCodec().encode((3,)))
    tampered = AuthenticatedQuery(
        qid=qid, sql=sql, mac=tag, params=(9,)
    )
    with pytest.raises(AuthenticationError):
        db.portal.submit(tampered)


def test_host_cannot_strip_params():
    """Dropping the bound values entirely must also fail: the MAC
    domain-separates a parameterless query from a parameterized one."""
    db = build_db()
    mac = MessageAuthenticator(db.enclave.keychain.mac_key)
    qid = bytes(16)
    sql = "SELECT v FROM kv WHERE k = 3"
    tag = mac.tag(qid, sql.encode("utf-8"), RecordCodec().encode((3,)))
    stripped = AuthenticatedQuery(qid=qid, sql=sql, mac=tag, params=None)
    with pytest.raises(AuthenticationError):
        db.portal.submit(stripped)


def test_service_layer_passes_params_through():
    from repro.obs import scoped_registry
    from repro.service import QueryService, ServiceConfig

    with scoped_registry(MetricsRegistry()) as reg:
        service = QueryService(
            build_db(), ServiceConfig(max_workers=2), registry=reg
        )
        try:
            client = service.connect(service.register_tenant("acme"))
            result = client.execute(
                "SELECT v FROM kv WHERE k = ?", params=(5,)
            )
            assert result.rows == ((50,),)
            assert result.verified
        finally:
            service.close()
