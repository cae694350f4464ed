"""Grouping and aggregation."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PlanningError
from repro.sql.ast_nodes import Aggregate, Expr
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import RowSchema, compile_expr
from repro.sql.operators.base import PhysicalOp


class _AggState:
    """Accumulator for one aggregate function over one group."""

    __slots__ = ("func", "distinct", "count", "total", "best", "seen")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.best: Any = None
        self.seen: set | None = set() if distinct else None

    def feed(self, value: Any) -> None:
        if self.func == "COUNT" and value is _STAR:
            self.count += 1
            return
        if value is None:
            return  # SQL aggregates skip NULLs
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "MIN":
            self.best = value if self.best is None else min(self.best, value)
        elif self.func == "MAX":
            self.best = value if self.best is None else max(self.best, value)

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return None if self.count == 0 else self.total / self.count
        return self.best


class _Star:
    def __repr__(self):
        return "*"


_STAR = _Star()


class HashAggregateOp(PhysicalOp):
    """Hash aggregation over group-by expressions.

    Output row = group-key values followed by aggregate results, with the
    synthetic names supplied by the planner (which rewrites aggregate
    references above this operator into column refs). Group-key and
    argument expressions are evaluated vectorized over each input batch;
    the accumulators then consume the resulting columns row-wise.
    """

    def __init__(
        self,
        child: PhysicalOp,
        group_exprs: list[Expr],
        aggregates: list[Aggregate],
        output_names: list[str],
    ):
        if len(output_names) != len(group_exprs) + len(aggregates):
            raise PlanningError("aggregate output arity mismatch")
        super().__init__(
            RowSchema([(None, name) for name in output_names]), [child]
        )
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self._key_fns = [compile_expr(e, child.output) for e in group_exprs]
        self._argument_fns = [
            compile_expr(agg.argument, child.output)
            if agg.argument is not None
            else None
            for agg in aggregates
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        groups: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        for batch in self.children[0].timed_batches():
            # column-at-a-time: group keys and aggregate arguments are
            # evaluated as whole columns, then accumulated row-wise
            key_columns = [fn(batch) for fn in self._key_fns]
            arg_columns = [
                None if fn is None else fn(batch) for fn in self._argument_fns
            ]
            for i in range(len(batch)):
                key = tuple(column[i] for column in key_columns)
                states = groups.get(key)
                if states is None:
                    states = [
                        _AggState(agg.func, agg.distinct)
                        for agg in self.aggregates
                    ]
                    groups[key] = states
                    order.append(key)
                for state, column in zip(states, arg_columns):
                    state.feed(_STAR if column is None else column[i])
        if not groups and not self.group_exprs:
            # global aggregate over an empty input still yields one row
            states = [_AggState(agg.func, agg.distinct) for agg in self.aggregates]
            yield ColumnBatch.from_rows([tuple(state.result() for state in states)])
            return
        output = [
            key + tuple(state.result() for state in groups[key]) for key in order
        ]
        yield from batched(output, self.batch_size)

    def describe(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"HashAggregate(by={self.group_exprs!r}, aggs=[{aggs}])"
