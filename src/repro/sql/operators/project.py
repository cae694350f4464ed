"""Projection operator."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import RowSchema, compile_expr
from repro.sql.operators.base import PhysicalOp


class ProjectOp(PhysicalOp):
    """Compute output columns from each input row.

    Columnar: each output expression is evaluated over the whole input
    batch, producing one column list; the columns *stay* columnar — the
    emitted batch is column-backed, and row tuples are materialized only
    once at a row-major boundary (executor result assembly, spill, a
    row-wise consumer such as a join build side).
    """

    def __init__(
        self,
        child: PhysicalOp,
        exprs: list[Expr],
        names: list[str],
        qualifiers: Optional[list[Optional[str]]] = None,
    ):
        if qualifiers is None:
            qualifiers = [None] * len(names)
        super().__init__(
            RowSchema(list(zip(qualifiers, names))),
            [child],
        )
        self.exprs = exprs
        self._expr_fns = [compile_expr(e, child.output) for e in exprs]

    def batches(self) -> Iterator[ColumnBatch]:
        fns = self._expr_fns
        for batch in self.children[0].timed_batches():
            if not fns:
                yield ColumnBatch([], len(batch))
                continue
            yield ColumnBatch([fn(batch) for fn in fns], len(batch))

    def describe(self) -> str:
        return f"Project({', '.join(self.output.names)})"
