"""Unit tests for individual volcano operators."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Literal,
    OrderItem,
)
from repro.sql.batch import batched
from repro.sql.expressions import RowSchema
from repro.sql.operators import (
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    LimitOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOp,
    PointLookupOp,
    ProjectOp,
    RangeScanOp,
    SeqScanOp,
    SortOp,
)
from repro.sql.sargable import Constraint
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


class RowsOp(PhysicalOp):
    """Test double feeding fixed rows."""

    def __init__(self, bindings, rows):
        super().__init__(RowSchema(bindings), [])
        self._rows = rows

    def batches(self):
        return batched(self._rows, self.batch_size)


def make_table():
    schema = Schema(
        columns=[
            Column("id", IntegerType()),
            Column("v", IntegerType(), nullable=False),
            Column("s", TextType()),
        ],
        primary_key="id",
        chain_columns=("v",),
    )
    table = VerifiableTable("t", schema, StorageEngine())
    for i in range(1, 11):
        table.insert((i, i * 10, f"s{i}"))
    return table


# ----------------------------------------------------------------------
# leaf scans
# ----------------------------------------------------------------------
def test_seq_scan():
    op = SeqScanOp(make_table(), "t")
    rows = list(op.timed_rows())
    assert len(rows) == 10
    assert op.rows_out == 10
    assert op.is_scan
    assert "SeqScan" in op.describe()


def test_range_scan_bounds():
    table = make_table()
    at_most_50 = Constraint("v", "<=", 50)
    op = RangeScanOp(table, "t", "v", [Constraint("v", ">=", 30), at_most_50])
    assert [r[0] for r in op.timed_rows()] == [3, 4, 5]
    op = RangeScanOp(table, "t", "v", [Constraint("v", ">", 30), at_most_50])
    assert [r[0] for r in op.timed_rows()] == [4, 5]


def test_point_lookup_hit_and_miss():
    table = make_table()
    assert list(PointLookupOp(table, "t", 7).timed_rows()) == [(7, 70, "s7")]
    assert list(PointLookupOp(table, "t", 99).timed_rows()) == []


# ----------------------------------------------------------------------
# filter / project / sort / limit
# ----------------------------------------------------------------------
def test_filter():
    src = RowsOp([(None, "x")], [(1,), (2,), (3,)])
    op = FilterOp(src, BinaryOp(">", ColumnRef("x"), Literal(1)))
    assert list(op.timed_rows()) == [(2,), (3,)]


def test_project():
    src = RowsOp([(None, "a"), (None, "b")], [(1, 2), (3, 4)])
    op = ProjectOp(
        src,
        [BinaryOp("+", ColumnRef("a"), ColumnRef("b")), ColumnRef("a")],
        ["total", "a"],
    )
    assert list(op.timed_rows()) == [(3, 1), (7, 3)]
    assert op.output.names == ["total", "a"]


def test_sort_multi_key():
    src = RowsOp(
        [(None, "a"), (None, "b")], [(1, "z"), (2, "a"), (1, "a")]
    )
    op = SortOp(
        src,
        [
            OrderItem(ColumnRef("a"), ascending=True),
            OrderItem(ColumnRef("b"), ascending=False),
        ],
    )
    assert list(op.timed_rows()) == [(1, "z"), (1, "a"), (2, "a")]


def test_sort_nulls_first_ascending():
    src = RowsOp([(None, "a")], [(2,), (None,), (1,)])
    op = SortOp(src, [OrderItem(ColumnRef("a"))])
    assert list(op.timed_rows()) == [(None,), (1,), (2,)]


def test_limit():
    src = RowsOp([(None, "a")], [(i,) for i in range(10)])
    assert len(list(LimitOp(src, 3).timed_rows())) == 3
    assert list(LimitOp(RowsOp([(None, "a")], []), 3).timed_rows()) == []
    assert list(LimitOp(RowsOp([(None, "a")], [(1,)]), 0).timed_rows()) == []


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def _join_inputs():
    left = RowsOp(
        [("l", "k"), ("l", "x")], [(1, "a"), (2, "b"), (2, "bb"), (3, "c")]
    )
    right = RowsOp([("r", "k"), ("r", "y")], [(2, "B"), (3, "C"), (4, "D")])
    keys = ([ColumnRef("k", "l")], [ColumnRef("k", "r")])
    return left, right, keys


@pytest.mark.parametrize("cls", [NestedLoopJoinOp, MergeJoinOp, HashJoinOp])
def test_equi_joins_agree(cls):
    left, right, (lk, rk) = _join_inputs()
    op = cls(left, right, lk, rk, None)
    rows = sorted(op.timed_rows())
    assert rows == [
        (2, "b", 2, "B"),
        (2, "bb", 2, "B"),
        (3, "c", 3, "C"),
    ]


@pytest.mark.parametrize("cls", [NestedLoopJoinOp, MergeJoinOp, HashJoinOp])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_null_keys_never_match(cls, batch_size):
    # composite keys: a NULL in either component rules the row out
    left = RowsOp(
        [("l", "k"), ("l", "j"), ("l", "x")],
        [(1, 1, "a"), (None, 1, "b"), (2, None, "c"), (None, None, "d")],
    )
    right = RowsOp(
        [("r", "k"), ("r", "j"), ("r", "y")],
        [(1, 1, "A"), (None, 1, "B"), (2, None, "C"), (None, None, "D")],
    )
    keys = (
        [ColumnRef("k", "l"), ColumnRef("j", "l")],
        [ColumnRef("k", "r"), ColumnRef("j", "r")],
    )
    op = cls(left, right, *keys, None)
    for node in op.walk():
        node.batch_size = batch_size
    assert list(op.timed_rows()) == [(1, 1, "a", 1, 1, "A")]


@pytest.mark.parametrize("cls", [NestedLoopJoinOp, HashJoinOp])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_left_join_pads_null_keys(cls, batch_size):
    left = RowsOp([("l", "k"), ("l", "x")], [(1, "a"), (None, "b"), (3, "c")])
    right = RowsOp([("r", "k"), ("r", "y")], [(1, "A"), (None, "B"), (1, "AA")])
    residual = BinaryOp("!=", ColumnRef("y", "r"), Literal("AA"))
    op = cls(
        left, right, [ColumnRef("k", "l")], [ColumnRef("k", "r")], residual,
        left_outer=True,
    )
    for node in op.walk():
        node.batch_size = batch_size
    assert list(op.timed_rows()) == [
        (1, "a", 1, "A"),
        (None, "b", None, None),
        (3, "c", None, None),
    ]


def test_join_residual_predicate():
    left, right, (lk, rk) = _join_inputs()
    residual = BinaryOp("=", ColumnRef("x", "l"), Literal("b"))
    op = HashJoinOp(left, right, lk, rk, residual)
    assert list(op.timed_rows()) == [(2, "b", 2, "B")]


def test_cross_join():
    left = RowsOp([("l", "a")], [(1,), (2,)])
    right = RowsOp([("r", "b")], [(10,), (20,)])
    op = NestedLoopJoinOp(left, right, [], [], None)
    assert len(list(op.timed_rows())) == 4


def test_merge_join_requires_keys():
    left = RowsOp([("l", "a")], [(1,)])
    right = RowsOp([("r", "b")], [(1,)])
    op = MergeJoinOp(left, right, [], [], None)
    with pytest.raises(ValueError):
        list(op.timed_rows())


def test_index_nl_join():
    table = make_table()
    outer = RowsOp([("o", "ref")], [(3,), (99,), (5,), (None,)])
    op = IndexNestedLoopJoinOp(outer, table, "t", ColumnRef("ref", "o"), None)
    rows = list(op.timed_rows())
    assert rows == [(3, 3, 30, "s3"), (5, 5, 50, "s5")]
    assert op.internal_scan_seconds > 0


def test_duplicate_groups_merge_join():
    left = RowsOp([("l", "k")], [(1,), (1,), (1,)])
    right = RowsOp([("r", "k")], [(1,), (1,)])
    op = MergeJoinOp(
        left, right, [ColumnRef("k", "l")], [ColumnRef("k", "r")], None
    )
    assert len(list(op.timed_rows())) == 6


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_hash_aggregate_grouped():
    src = RowsOp(
        [(None, "g"), (None, "v")],
        [(1, 10), (2, 5), (1, 30), (2, None)],
    )
    op = HashAggregateOp(
        src,
        [ColumnRef("g")],
        [
            Aggregate("SUM", ColumnRef("v")),
            Aggregate("COUNT", None),
            Aggregate("COUNT", ColumnRef("v")),
            Aggregate("AVG", ColumnRef("v")),
            Aggregate("MIN", ColumnRef("v")),
            Aggregate("MAX", ColumnRef("v")),
        ],
        ["g", "s", "cstar", "cv", "avg", "mn", "mx"],
    )
    rows = {row[0]: row[1:] for row in op.timed_rows()}
    assert rows[1] == (40, 2, 2, 20.0, 10, 30)
    # NULL skipped by SUM/COUNT(v)/AVG but counted by COUNT(*)
    assert rows[2] == (5, 2, 1, 5.0, 5, 5)


def test_hash_aggregate_global_empty_input():
    src = RowsOp([(None, "v")], [])
    op = HashAggregateOp(
        src,
        [],
        [Aggregate("COUNT", None), Aggregate("SUM", ColumnRef("v"))],
        ["c", "s"],
    )
    assert list(op.timed_rows()) == [(0, None)]


def test_hash_aggregate_distinct():
    src = RowsOp([(None, "v")], [(1,), (1,), (2,)])
    op = HashAggregateOp(
        src,
        [],
        [
            Aggregate("COUNT", ColumnRef("v"), distinct=True),
            Aggregate("SUM", ColumnRef("v"), distinct=True),
        ],
        ["c", "s"],
    )
    assert list(op.timed_rows()) == [(2, 3)]


def test_aggregate_arity_check():
    src = RowsOp([(None, "v")], [])
    from repro.errors import PlanningError

    with pytest.raises(PlanningError):
        HashAggregateOp(src, [], [Aggregate("COUNT", None)], ["a", "b"])


# ----------------------------------------------------------------------
# timing / tree utilities
# ----------------------------------------------------------------------
def test_self_seconds_nesting():
    table = make_table()
    scan = SeqScanOp(table, "t")
    filter_op = FilterOp(scan, BinaryOp(">", ColumnRef("v"), Literal(0)))
    project = ProjectOp(filter_op, [ColumnRef("id")], ["id"])
    rows = list(project.timed_rows())
    assert len(rows) == 10
    total_self = sum(op.self_seconds for op in project.walk())
    assert total_self == pytest.approx(project.total_seconds, rel=0.2)
    assert scan.total_seconds <= filter_op.total_seconds <= project.total_seconds


def test_explain_tree():
    table = make_table()
    plan = FilterOp(
        SeqScanOp(table, "t"), BinaryOp(">", ColumnRef("v"), Literal(0))
    )
    text = plan.explain()
    assert "Filter" in text.splitlines()[0]
    assert "SeqScan" in text.splitlines()[1]
