"""Leaf operators: the secure access methods (Section 5.2).

These are the only operators that touch untrusted memory. Every row
they emit has passed the storage layer's evidence checks (point proofs
and range-scan chain verification), so the operators above can trust
their inputs unconditionally.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import RowSchema
from repro.sql.operators.base import PhysicalOp
from repro.sql.ast_nodes import Parameter
from repro.sql.params import resolve_maybe
from repro.sql.sargable import Constraint, tightest


def table_schema(table, binding: str) -> RowSchema:
    return RowSchema([(binding, name) for name in table.schema.column_names])


class SeqScanOp(PhysicalOp):
    """Full verified sequential scan (a (⊥, ⊤) range scan, Example 5.4)."""

    is_scan = True

    def __init__(self, table, binding: str):
        super().__init__(table_schema(table, binding), [])
        self.table = table
        self.binding = binding
        # the primary chain yields rows in primary-key order
        self.ordering = [(binding, table.schema.primary_key, True)]

    def batches(self) -> Iterator[ColumnBatch]:
        # the storage layer fetches chain records through the batched
        # verified-read path at the same granularity the engine consumes
        rows = self.table.seq_scan(batch_size=self.batch_size)
        return batched(rows, self.batch_size, tuple(self.ordering))

    def describe(self) -> str:
        return f"SeqScan({self.table.name} as {self.binding})"


class RangeScanOp(PhysicalOp):
    """Verified range scan over a chained column (Section 5.2).

    ``bounds`` are the sargable constraints the planner assigned to the
    column, literals and ``?`` placeholders alike, any number per side.
    Every execution resolves them and walks the ``(key, nKey)`` chain
    from the tightest lower bound to the tightest upper one, so one
    cached plan serves every binding and the cost follows the result.
    """

    is_scan = True

    def __init__(self, table, binding: str, column: str, bounds: Sequence[Constraint]):
        super().__init__(table_schema(table, binding), [])
        self.table = table
        self.binding = binding
        self.column = column
        self._column_type = table.schema.column(column).type
        self.bounds = tuple(bounds)
        # a chain scan walks its (key, nKey) chain: rows come back
        # ordered by the chained column (ties broken by primary key)
        self.ordering = [(binding, column, True)]
        if column != table.schema.primary_key:
            self.ordering.append((binding, table.schema.primary_key, True))

    def interval(self) -> Optional[tuple[Any, Any, bool, bool]]:
        """``(lo, hi, include_lo, include_hi)`` under the active binding.

        None when a bound is NULL: a comparison with NULL matches no
        row (SQL semantics), so the scan is empty.
        """
        resolved = [
            (con.op, _resolve_key(con.value, self.column, self._column_type))
            for con in self.bounds
        ]
        if any(value is None for _, value in resolved):
            return None
        return tightest(resolved)

    def batches(self) -> Iterator[ColumnBatch]:
        interval = self.interval()
        if interval is None:
            return iter(())
        rows = self.table.scan(
            self.column, *interval, batch_size=self.batch_size
        )
        return batched(rows, self.batch_size, tuple(self.ordering))

    def describe(self) -> str:
        bounds = " AND ".join(f"{c.column} {c.op} {c.value!r}" for c in self.bounds)
        return f"RangeScan({self.table.name} as {self.binding}, {bounds})"


class PointLookupOp(PhysicalOp):
    """Verified primary-key index search (at most one row)."""

    is_scan = True

    def __init__(self, table, binding: str, key: Any):
        super().__init__(table_schema(table, binding), [])
        self.table = table
        self.binding = binding
        self.key = key
        self._key_type = table.schema.column(table.schema.primary_key).type

    def batches(self) -> Iterator[ColumnBatch]:
        key = _resolve_key(self.key, self.table.schema.primary_key, self._key_type)
        if key is None:
            # either a NULL-bound parameter or a literal NULL key:
            # `pk = NULL` matches no row, and the verified get() path
            # must never be asked to prove a NULL key
            return
        row, _proof = self.table.get(key)
        if row is not None:
            yield ColumnBatch.from_rows([row])

    def describe(self) -> str:
        return (
            f"IndexSearch({self.table.name} as {self.binding}, "
            f"{self.table.schema.primary_key} = {self.key!r})"
        )


#: one value of each orderable column type: a key that does not compare
#: with it does not compare with the column's stored keys either
_ORDER_PROBES = {
    "INTEGER": 0, "DECIMAL": 0, "FLOAT": 0.0, "BOOLEAN": False,
    "TEXT": "", "DATE": datetime.date.min,
}


def _resolve_key(source: Any, column: str, column_type) -> Any:
    """The value of a plan's literal or ``?`` key under the binding.

    A value that cannot be compared with the column is rejected here,
    before any index probe: the untrusted index would otherwise fail
    mid-probe with a bare TypeError.
    """
    value = resolve_maybe(source)
    probe = _ORDER_PROBES.get(column_type.name)
    if value is None or probe is None:
        return value
    try:
        value < probe
    except TypeError:
        what = (
            f"parameter {source!r} bound to {value!r}"
            if isinstance(source, Parameter)
            else f"value {value!r}"
        )
        raise ExecutionError(
            f"{what} cannot be compared with column {column} ({column_type.name})"
        ) from None
    return value
