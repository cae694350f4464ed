"""Ordering operators."""

from __future__ import annotations

import functools
import heapq
from operator import itemgetter
from typing import Iterator

from repro.sql.ast_nodes import ColumnRef, OrderItem
from repro.sql.batch import ColumnBatch, batched
from repro.sql.expressions import compile_expr
from repro.sql.operators.base import PhysicalOp

_key_of = itemgetter(0)
_row_of = itemgetter(1)


class SortOp(PhysicalOp):
    """Materialize and sort the input by the ORDER BY items.

    NULLs sort first on ascending keys (a documented convention). The
    sort keys are evaluated column-at-a-time per input batch and each
    row travels as ``(key, row)``, so no expression is evaluated per
    row afterwards. Mixed ascending/descending items sort by multi-pass
    stable sorting in memory; otherwise — when a spill manager is
    attached and the input exceeds the enclave budget — an external
    merge sort keeps its runs in the verifiable storage (Section 5.4).
    """

    def __init__(
        self,
        child: PhysicalOp,
        items: list[OrderItem],
        spill=None,
    ):
        super().__init__(child.output, [child])
        self.items = items
        self.spill = spill
        self._key_fns = [compile_expr(item.expr, child.output) for item in items]
        self.ordering = [
            (item.expr.qualifier, item.expr.name, item.ascending)
            for item in items
            if isinstance(item.expr, ColumnRef)
        ]

    def batches(self) -> Iterator[ColumnBatch]:
        keyed = _keyed_rows(self.children[0].timed_batches(), self._key_fns)
        ascending = {item.ascending for item in self.items}
        if self.spill is not None and len(ascending) == 1:
            from repro.sql.spill import external_sort

            keyed = external_sort(
                keyed, _key_of, self.spill, reverse=not ascending.pop()
            )
        else:
            keyed = list(keyed)
            # last key first: stable sorts compose right-to-left
            for position in reversed(range(len(self.items))):
                keyed.sort(
                    key=lambda entry: entry[0][position],
                    reverse=not self.items[position].ascending,
                )
        return batched(map(_row_of, keyed), self.batch_size, tuple(self.ordering))

    def describe(self) -> str:
        parts = [
            f"{item.expr!r} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        ]
        return f"Sort({', '.join(parts)})"


class TopNOp(PhysicalOp):
    """Fused ORDER BY + LIMIT: keep only the top N rows via a heap.

    O(n log N) time and O(N) space instead of materializing and sorting
    the whole input — the planner substitutes this for Sort+Limit, which
    also keeps the intermediate state inside any enclave budget without
    spilling.
    """

    def __init__(self, child: PhysicalOp, items: list[OrderItem], limit: int):
        super().__init__(child.output, [child])
        self.items = items
        self.limit = limit
        self._key_fns = [compile_expr(item.expr, child.output) for item in items]
        self._directions = [item.ascending for item in items]

    def batches(self) -> Iterator[ColumnBatch]:
        if self.limit <= 0:
            return iter(())
        directions = self._directions
        top = heapq.nsmallest(
            self.limit,
            _keyed_rows(self.children[0].timed_batches(), self._key_fns),
            key=lambda entry: _DirectedKey(entry[0], directions),
        )
        return batched(list(map(_row_of, top)), self.batch_size)

    def describe(self) -> str:
        parts = [
            f"{item.expr!r} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        ]
        return f"TopN({self.limit}, by {', '.join(parts)})"


def _keyed_rows(batches, key_fns) -> Iterator[tuple]:
    """``(key, row)`` per input row, keys evaluated once per batch.

    A key is one ``_null_key`` component per ORDER BY item: plain tuples
    of ints, SQL values and None, so a keyed row spills through the
    record codec and ``heapq.merge`` compares keys without evaluating
    anything.
    """
    for batch in batches:
        columns = [[_null_key(v) for v in fn(batch)] for fn in key_fns]
        yield from zip(zip(*columns), batch.rows)


@functools.total_ordering
class _DirectedKey:
    """Composite sort key honouring per-component ASC/DESC directions."""

    __slots__ = ("values", "directions")

    def __init__(self, values: tuple, directions: list[bool]):
        self.values = values
        self.directions = directions

    def __eq__(self, other):
        return self.values == other.values

    def __lt__(self, other):
        for mine, theirs, ascending in zip(
            self.values, other.values, self.directions
        ):
            if mine == theirs:
                continue
            return mine < theirs if ascending else mine > theirs
        return False


def _null_key(value):
    # NULL sorts first: (0, None) never reaches a comparison of None
    # with a value, because the flags already differ
    return (0, None) if value is None else (1, value)
