"""Unit tests for expression compilation and NULL semantics.

The engine has one compiler, column-at-a-time over ColumnBatches;
single-row evaluation runs it over a one-row batch.
"""

import pytest

from repro.errors import PlanningError
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import (
    RowSchema,
    compile_expr,
    compile_predicate,
    find_aggregates,
    referenced_columns,
    split_conjuncts,
    substitute,
)

SCHEMA = RowSchema([("t", "a"), ("t", "b"), ("u", "a")])


def ev(expr, row=(1, 2, 3)):
    return compile_expr(expr, SCHEMA)(ColumnBatch.from_rows([row]))[0]


def row_fn(fn):
    """A compiled batch closure as a single-row function."""
    return lambda row: fn(ColumnBatch.from_rows([row]))[0]


def test_literal_and_column():
    assert ev(Literal(42)) == 42
    assert ev(ColumnRef("b")) == 2
    assert ev(ColumnRef("a", "t")) == 1
    assert ev(ColumnRef("a", "u")) == 3


def test_ambiguous_column():
    with pytest.raises(PlanningError):
        compile_expr(ColumnRef("a"), SCHEMA)


def test_unknown_column():
    with pytest.raises(PlanningError):
        compile_expr(ColumnRef("zz"), SCHEMA)


def test_arithmetic():
    assert ev(BinaryOp("+", ColumnRef("b"), Literal(5))) == 7
    assert ev(BinaryOp("*", ColumnRef("b"), ColumnRef("a", "u"))) == 6
    assert ev(BinaryOp("-", Literal(10), ColumnRef("b"))) == 8
    assert ev(BinaryOp("%", Literal(7), Literal(3))) == 1


def test_integer_division_stays_exact():
    assert ev(BinaryOp("/", Literal(6), Literal(3))) == 2
    assert isinstance(ev(BinaryOp("/", Literal(6), Literal(3))), int)
    assert ev(BinaryOp("/", Literal(7), Literal(2))) == 3.5


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ev(BinaryOp("/", Literal(1), Literal(0)))


def test_comparisons():
    assert ev(BinaryOp("<", ColumnRef("b"), Literal(5))) is True
    assert ev(BinaryOp(">=", ColumnRef("b"), Literal(5))) is False
    assert ev(BinaryOp("!=", ColumnRef("b"), Literal(2))) is False


def test_null_propagates():
    row = (None, None, 3)
    assert ev(BinaryOp("+", ColumnRef("a", "t"), Literal(1)), row) is None
    assert ev(BinaryOp("=", ColumnRef("a", "t"), Literal(1)), row) is None
    assert ev(UnaryOp("NEG", ColumnRef("a", "t")), row) is None


def test_three_valued_and_or():
    null = Literal(None)
    true, false = Literal(True), Literal(False)
    assert ev(BinaryOp("AND", null, false)) is False
    assert ev(BinaryOp("AND", null, true)) is None
    assert ev(BinaryOp("OR", null, true)) is True
    assert ev(BinaryOp("OR", null, false)) is None
    assert ev(UnaryOp("NOT", null)) is None


def test_predicate_null_is_false():
    pred = row_fn(
        compile_predicate(BinaryOp("=", ColumnRef("b"), Literal(None)), SCHEMA)
    )
    assert pred((1, 2, 3)) is False


def test_is_null():
    assert ev(IsNull(ColumnRef("a", "t")), (None, 2, 3)) is True
    assert ev(IsNull(ColumnRef("a", "t"), negated=True), (None, 2, 3)) is False


def test_in_list():
    expr = InList(ColumnRef("b"), (Literal(1), Literal(2)))
    assert ev(expr) is True
    assert ev(InList(ColumnRef("b"), (Literal(9),))) is False
    assert ev(InList(ColumnRef("b"), (Literal(9),), negated=True)) is True
    assert ev(InList(Literal(None), (Literal(1),))) is None


def test_in_list_with_null_item():
    # SQL IN: a miss against a list holding NULL is NULL, a hit is TRUE
    with_null = (Literal(1), Literal(None))
    assert ev(InList(ColumnRef("b"), with_null)) is None
    assert ev(InList(ColumnRef("b"), with_null, negated=True)) is None
    assert ev(InList(ColumnRef("a", "t"), with_null)) is True
    assert ev(InList(ColumnRef("a", "t"), with_null, negated=True)) is False


def test_in_list_column_at_a_time():
    # items may be columns: each row tests against its own item values
    expr = InList(ColumnRef("b"), (ColumnRef("a", "t"), Literal(7)))
    batch = ColumnBatch.from_rows([(2, 2, 0), (1, 7, 0), (1, 5, 0), (None, 5, 0)])
    assert compile_expr(expr, SCHEMA)(batch) == [True, True, False, None]


def test_between():
    assert ev(Between(ColumnRef("b"), Literal(1), Literal(3))) is True
    assert ev(Between(ColumnRef("b"), Literal(3), Literal(9))) is False
    assert ev(Between(ColumnRef("b"), Literal(3), Literal(9), negated=True)) is True


def test_like():
    schema = RowSchema([(None, "s")])
    fn = row_fn(compile_expr(Like(ColumnRef("s"), "ab%"), schema))
    assert fn(("abc",)) is True
    assert fn(("xabc",)) is False
    fn = row_fn(compile_expr(Like(ColumnRef("s"), "a_c"), schema))
    assert fn(("abc",)) is True
    assert fn(("abbc",)) is False
    fn = row_fn(compile_expr(Like(ColumnRef("s"), "50%"), schema))
    assert fn(("50 percent",)) is True


def test_like_escapes_regex_metachars():
    schema = RowSchema([(None, "s")])
    fn = row_fn(compile_expr(Like(ColumnRef("s"), "a.c"), schema))
    assert fn(("a.c",)) is True
    assert fn(("abc",)) is False


def test_aggregate_outside_grouping_rejected():
    with pytest.raises(PlanningError):
        compile_expr(Aggregate("SUM", ColumnRef("b")), SCHEMA)


def test_split_conjuncts():
    expr = BinaryOp(
        "AND",
        BinaryOp("AND", Literal(1), Literal(2)),
        Literal(3),
    )
    assert split_conjuncts(expr) == [Literal(1), Literal(2), Literal(3)]
    assert split_conjuncts(None) == []


def test_referenced_columns():
    expr = BinaryOp(
        "+", ColumnRef("a", "t"), Between(ColumnRef("b"), Literal(1), Literal(2))
    )
    assert referenced_columns(expr) == {ColumnRef("a", "t"), ColumnRef("b")}


def test_find_aggregates():
    expr = BinaryOp(
        "/", Aggregate("SUM", ColumnRef("b")), Aggregate("COUNT", None)
    )
    assert find_aggregates(expr) == [
        Aggregate("SUM", ColumnRef("b")),
        Aggregate("COUNT", None),
    ]


def test_substitute():
    agg = Aggregate("SUM", ColumnRef("b"))
    expr = BinaryOp(">", agg, Literal(10))
    rewritten = substitute(expr, {agg: ColumnRef("__a0")})
    assert rewritten == BinaryOp(">", ColumnRef("__a0"), Literal(10))
