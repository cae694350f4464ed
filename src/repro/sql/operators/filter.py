"""Selection operator."""

from __future__ import annotations

from typing import Iterator

from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import compile_predicate
from repro.sql.operators.base import PhysicalOp


class FilterOp(PhysicalOp):
    """Emit input rows satisfying a predicate (NULL counts as false).

    Columnar: the predicate evaluates column-at-a-time into a keep-mask
    and the batch compacts itself in its authoritative representation —
    a batch where everything survives is passed through untouched.
    """

    def __init__(self, child: PhysicalOp, predicate: Expr):
        super().__init__(child.output, [child])
        self.predicate = predicate
        self._predicate_fn = compile_predicate(predicate, child.output)
        self.ordering = list(child.ordering)  # selection preserves order

    def batches(self) -> Iterator[ColumnBatch]:
        fn = self._predicate_fn
        for batch in self.children[0].timed_batches():
            mask = fn(batch)
            if all(mask):
                yield batch
                continue
            kept = batch.take_mask(mask)
            if kept:
                yield kept

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"
