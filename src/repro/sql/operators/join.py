"""Join operators.

The paper's evaluation exercises two plans for TPC-H Q19 — MergeJoin and
NestedLoopJoin with a materialized inner (Section 6.3) — and Example 5.4
runs a Join whose inner side is pulled through IndexSearch. All three are
here, plus a hash join the optimizer may pick for equi-joins without a
usable inner index.

Join conditions are split by the planner into equi-key pairs
(left-expr = right-expr) plus a residual predicate evaluated on the
combined row. All joins consume and emit :class:`ColumnBatch` streams
and work column-at-a-time: key expressions are evaluated once per input
batch, and the residual once per batch of candidate pairs. Pairing
itself is row-wise — each operator produces, per left row, the right
rows whose keys match — and rows that must wait (a merge-join group, a
spilled nested-loop inner) carry their evaluated key with them.

An equi-key tuple containing NULL never matches (``NULL = NULL`` is
not true): such rows are left out of hash tables, merge inputs and
nested-loop inners, and under LEFT JOIN a left row with a NULL key is
NULL-padded.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.obs import timed_call
from repro.sql.ast_nodes import Expr
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import compile_expr, compile_predicate
from repro.sql.operators.base import PhysicalOp
from repro.sql.operators.scan import table_schema

_key_of = itemgetter(0)


def _key_tuples(key_fns, batch: ColumnBatch) -> list[tuple]:
    """The batch's equi-key tuples, one per row (``()`` without keys)."""
    if not key_fns:
        return [()] * batch.length
    return list(zip(*[fn(batch) for fn in key_fns]))


class _Pairing:
    """Residual filtering and output batching shared by every join.

    A join feeds :meth:`batches` ``(left_row, right_rows)`` pairs — the
    right rows whose keys match, in output order. Candidate pairs
    accumulate until about ``batch_size`` of them are pending; the
    residual then runs once over all of them as one batch, and a left
    row none of whose pairs survive is NULL-padded under LEFT JOIN.
    """

    def __init__(self, residual: Optional[Expr], output, left_outer: bool, width: int):
        self._residual_fn = (
            compile_predicate(residual, output) if residual is not None else None
        )
        self.left_outer = left_outer
        self._null_right = (None,) * width

    def batches(
        self,
        matches: Iterable[tuple[tuple, Iterable[tuple]]],
        batch_size: int,
    ) -> Iterator[ColumnBatch]:
        pending: list[tuple[tuple, list[tuple]]] = []
        count = 0
        for left_row, right_rows in matches:
            combined = [left_row + right_row for right_row in right_rows]
            if not combined and not self.left_outer:
                continue
            pending.append((left_row, combined))
            count += len(combined) or 1
            if count >= batch_size:
                out = self._finish(pending)
                if out:
                    yield ColumnBatch.from_rows(out)
                pending, count = [], 0
        if pending:
            out = self._finish(pending)
            if out:
                yield ColumnBatch.from_rows(out)

    def _finish(self, pending: list[tuple[tuple, list[tuple]]]) -> list[tuple]:
        keep = None
        if self._residual_fn is not None:
            candidates = [row for _, combined in pending for row in combined]
            if candidates:
                keep = iter(self._residual_fn(ColumnBatch.from_rows(candidates)))
        out: list[tuple] = []
        for left_row, combined in pending:
            if keep is not None:
                combined = [row for row in combined if next(keep)]
            if combined:
                out.extend(combined)
            elif self.left_outer:
                out.append(left_row + self._null_right)
        return out


class _JoinBase(PhysicalOp):
    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        left_keys: list[Expr],
        right_keys: list[Expr],
        residual: Optional[Expr],
        spill=None,
        left_outer: bool = False,
    ):
        super().__init__(left.output.concat(right.output), [left, right])
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.spill = spill
        self.left_outer = left_outer
        self._left_key_fns = [compile_expr(e, left.output) for e in left_keys]
        self._right_key_fns = [compile_expr(e, right.output) for e in right_keys]
        self._pairing = _Pairing(residual, self.output, left_outer, len(right.output))

    def _keyed(self, side: int) -> Iterator[tuple[tuple, tuple]]:
        """``(key, row)`` per input row of one side, keys evaluated per batch."""
        key_fns = self._right_key_fns if side else self._left_key_fns
        for batch in self.children[side].timed_batches():
            yield from zip(_key_tuples(key_fns, batch), batch.rows)


class NestedLoopJoinOp(_JoinBase):
    """Nested loops with a materialized inner (right) side.

    With no equi-keys this is a general theta join; with keys, each
    inner row is materialized with its evaluated key, so a probe only
    compares key tuples. With a spill manager, the materialized inner
    overflows into the verifiable storage when it exceeds the enclave
    budget — the paper's Q19 plan "materializes the Select result on the
    inner loop" and Section 5.4 proposes exactly this storage reuse for
    oversized intermediate state.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        buffer = None if self.spill is None else self.spill.buffer("nl-inner")
        inner = [] if buffer is None else buffer
        try:
            # the inner is kept keyed; a NULL in a key never matches
            for key, row in self._keyed(1):
                if None not in key:
                    inner.append((key, row))
            yield from self._pairing.batches(self._probe(inner), self.batch_size)
        finally:
            if buffer is not None:
                buffer.close()

    def _probe(self, inner) -> Iterator[tuple[tuple, list[tuple]]]:
        for key, left_row in self._keyed(0):
            if None in key:
                yield left_row, []
            else:
                yield left_row, [row for k, row in inner if k == key]

    def describe(self) -> str:
        return f"NestedLoopJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class MergeJoinOp(_JoinBase):
    """Sort-merge join on the equi-key columns.

    Sorts both inputs (the "larger intermediate state" the paper notes
    for the merge plan of Q19) — externally through spill runs when a
    spill manager is attached — then merges group-wise, handling
    duplicate keys on both sides. Each row is sorted and grouped as
    ``(key, row)``, its key evaluated once with its input batch.
    """

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("MergeJoin requires equi-join keys")
        return self._pairing.batches(self._merge(), self.batch_size)

    def _merge(self) -> Iterator[tuple[tuple, list[tuple]]]:
        left_groups = itertools.groupby(self._sorted_side(0), key=_key_of)
        right_groups = itertools.groupby(self._sorted_side(1), key=_key_of)
        left_entry = next(left_groups, None)
        right_entry = next(right_groups, None)
        while left_entry is not None and right_entry is not None:
            lkey, left_group = left_entry
            rkey, right_group = right_entry
            if lkey < rkey:
                left_entry = next(left_groups, None)
            elif lkey > rkey:
                right_entry = next(right_groups, None)
            else:
                right_rows = [row for _, row in right_group]
                for _, left_row in left_group:
                    yield left_row, right_rows
                left_entry = next(left_groups, None)
                right_entry = next(right_groups, None)

    def _sorted_side(self, side: int) -> Iterator[tuple[tuple, tuple]]:
        # rows with NULL join keys can never match; dropping them before
        # the sort also keeps the sort keys totally ordered
        source = (entry for entry in self._keyed(side) if None not in entry[0])
        if self.spill is not None:
            from repro.sql.spill import external_sort

            return external_sort(source, _key_of, self.spill)
        return iter(sorted(source, key=_key_of))

    def describe(self) -> str:
        return f"MergeJoin(keys={list(zip(self.left_keys, self.right_keys))})"


class HashJoinOp(_JoinBase):
    """Classic build/probe hash join on the equi-keys (build = right)."""

    def batches(self) -> Iterator[ColumnBatch]:
        if not self.left_keys:
            raise ValueError("HashJoin requires equi-join keys")
        build: dict[tuple, list[tuple]] = {}
        for key, row in self._keyed(1):
            if None not in key:
                build.setdefault(key, []).append(row)
        probes = (
            (left_row, () if None in key else build.get(key, ()))
            for key, left_row in self._keyed(0)
        )
        return self._pairing.batches(probes, self.batch_size)

    def describe(self) -> str:
        outer = ", left-outer" if self.left_outer else ""
        return (
            f"HashJoin(keys={list(zip(self.left_keys, self.right_keys))}"
            f"{outer})"
        )


class IndexNestedLoopJoinOp(PhysicalOp):
    """Join pulling inner rows through verified IndexSearch (Example 5.4).

    The inner side must be a base table whose primary key equals the
    outer join key. Each inner lookup is a verified point access; its
    time is tracked separately so benchmarks can attribute it to scan
    work. Outer keys are evaluated once per outer batch.
    """

    def __init__(
        self,
        left: PhysicalOp,
        inner_table,
        inner_binding: str,
        left_key: Expr,
        residual: Optional[Expr],
    ):
        inner_schema = table_schema(inner_table, inner_binding)
        super().__init__(left.output.concat(inner_schema), [left])
        self.inner_table = inner_table
        self.inner_binding = inner_binding
        self.left_key = left_key
        self.residual = residual
        self._left_key_fn = compile_expr(left_key, left.output)
        self._pairing = _Pairing(residual, self.output, False, len(inner_schema))

    is_scan = False  # inner lookups are charged to internal_scan_seconds

    def batches(self) -> Iterator[ColumnBatch]:
        return self._pairing.batches(self._lookups(), self.batch_size)

    def _lookups(self) -> Iterator[tuple[tuple, tuple]]:
        for batch in self.children[0].timed_batches():
            for key, left_row in zip(self._left_key_fn(batch), batch.rows):
                if key is None:
                    continue
                (inner_row, _proof), elapsed = timed_call(self.inner_table.get, key)
                self.internal_scan_seconds += elapsed
                if inner_row is not None:
                    yield left_row, (inner_row,)

    def describe(self) -> str:
        return (
            f"IndexNLJoin(inner={self.inner_table.name} as "
            f"{self.inner_binding}, key={self.left_key!r})"
        )
