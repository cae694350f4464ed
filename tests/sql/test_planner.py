"""Unit tests for the planner: access paths, joins, aggregation rewrites."""

import pytest

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import PlanningError
from repro.sql.operators import (
    FilterOp,
    FusedScanFilterProjectOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PointLookupOp,
    RangeScanOp,
    SeqScanOp,
)
from repro.sql.parser import parse_statement
from repro.sql.planner import Planner
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


@pytest.fixture
def planner():
    catalog = Catalog()
    engine = StorageEngine()
    for name, columns, pk, chains in (
        (
            "orders",
            [
                Column("o_id", IntegerType()),
                Column("o_cust", IntegerType(), nullable=False),
                Column("o_total", IntegerType()),
            ],
            "o_id",
            ("o_cust",),
        ),
        (
            "customers",
            [
                Column("c_id", IntegerType()),
                Column("c_name", TextType()),
            ],
            "c_id",
            (),
        ),
    ):
        schema = Schema(columns=columns, primary_key=pk, chain_columns=chains)
        catalog.register(
            TableInfo(name, schema, VerifiableTable(name, schema, engine))
        )
    return Planner(catalog)


def plan(planner, sql, hint=None):
    return planner.plan_select(parse_statement(sql), hint)


def ops_of(root, cls):
    return [op for op in root.walk() if isinstance(op, cls)]


def test_pk_equality_uses_point_lookup(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_id = 5")
    assert ops_of(root, PointLookupOp)
    assert not ops_of(root, SeqScanOp)


def test_chained_range_uses_range_scan(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_cust BETWEEN 1 AND 9")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.column == "o_cust"
    assert scan.interval() == (1, 9, True, True)


def test_combined_bounds_tightest_wins(planner):
    root = plan(
        planner,
        "SELECT * FROM orders WHERE o_id >= 3 AND o_id > 4 AND o_id <= 20 "
        "AND o_id < 15",
    )
    (scan,) = ops_of(root, RangeScanOp)
    # every bound rides the scan; the tightest of each side wins
    assert len(scan.bounds) == 4
    assert scan.interval() == (4, 15, False, False)


def test_reversed_literal_comparison_is_sargable(planner):
    root = plan(planner, "SELECT * FROM orders WHERE 5 <= o_id")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.interval() == (5, None, True, True)


def test_unchained_predicate_residual_filter(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_total > 100")
    assert ops_of(root, SeqScanOp)
    # the residual predicate lands in the fused scan→filter pipeline
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    assert fused.predicates


def test_pk_equality_beats_secondary_equality(planner):
    root = plan(
        planner, "SELECT * FROM orders WHERE o_cust = 7 AND o_id = 3"
    )
    assert ops_of(root, PointLookupOp)


def test_secondary_equality_is_point_range(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_cust = 7")
    (scan,) = ops_of(root, RangeScanOp)
    assert scan.interval() == (7, 7, True, True)


def test_join_default_index_nl_on_pk(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust = c.c_id",
    )
    assert ops_of(root, IndexNestedLoopJoinOp)


def test_join_hints(planner):
    sql = "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust = c.c_id"
    assert ops_of(plan(planner, sql, "merge"), MergeJoinOp)
    assert ops_of(plan(planner, sql, "hash"), HashJoinOp)
    assert ops_of(plan(planner, sql, "nested_loop"), NestedLoopJoinOp)
    assert ops_of(plan(planner, sql, "index_nl"), IndexNestedLoopJoinOp)


def test_bad_hint_rejected(planner):
    with pytest.raises(PlanningError):
        plan(planner, "SELECT * FROM orders", "zigzag")


def test_index_nl_requires_pk_equality(planner):
    with pytest.raises(PlanningError):
        plan(
            planner,
            "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust > c.c_id",
            "index_nl",
        )


def test_non_equi_join_is_nested_loop(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c WHERE o.o_cust > c.c_id",
    )
    assert ops_of(root, NestedLoopJoinOp)


def test_single_table_predicates_pushed_below_join(planner):
    root = plan(
        planner,
        "SELECT o.o_id FROM orders o, customers c "
        "WHERE o.o_cust = c.c_id AND o.o_id BETWEEN 1 AND 5",
        "hash",
    )
    (join,) = ops_of(root, HashJoinOp)
    # the orders side under the join is a range scan, not a post-filter
    assert ops_of(join.children[0], RangeScanOp)


def test_duplicate_binding_rejected(planner):
    with pytest.raises(PlanningError):
        plan(planner, "SELECT * FROM orders o, customers o")


def test_aggregation_rewrite(planner):
    root = plan(
        planner,
        "SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust "
        "HAVING SUM(o_total) > 10 ORDER BY SUM(o_total) DESC",
    )
    (agg,) = ops_of(root, HashAggregateOp)
    assert len(agg.aggregates) == 1  # deduplicated across SELECT/HAVING/ORDER
    assert ops_of(root, FilterOp)  # HAVING became a filter above the agg


def test_group_by_constant_condition_stays_top(planner):
    root = plan(planner, "SELECT o_id FROM orders WHERE 1 = 1")
    # the constant predicate fuses with the projection over the scan
    (fused,) = ops_of(root, FusedScanFilterProjectOp)
    assert fused.predicates and fused.exprs is not None


def test_explain_mentions_access_path(planner):
    root = plan(planner, "SELECT * FROM orders WHERE o_id = 1")
    assert "IndexSearch" in root.explain()
