"""ColumnBatch: the columnar unit of vectorized data flow.

The engine executes batch-at-a-time: every :class:`PhysicalOp` produces
:class:`ColumnBatch` objects instead of single tuples, amortizing
per-pull overhead (generator frames, timing laps, verified-memory
crossings) over ``StorageConfig.batch_size`` rows. It is the engine's
one batch type, and the one input of the expression compiler
(:func:`repro.sql.expressions.compile_expr`).

A batch is *dual-backed*. It is authoritative in whichever
representation it was built from and derives the other lazily, caching
the result:

* **row-backed** — built by :func:`ColumnBatch.from_rows` or
  :func:`batched` (scans at the storage boundary, and the row producers
  above them: joins, sorts, aggregation output). Columns are derived
  per-column on first access, so a predicate touching two of ten
  columns never pays for the other eight.
* **column-backed** — built directly from per-column lists (projection
  and the fused scan→filter→project pipeline). Row tuples are
  materialized exactly once, at a row-major boundary: spill
  (:meth:`to_rows`), executor result assembly, or a row consumer such
  as a join build side, a sort run or a DML write.

Each column also exposes a validity bitmap (:meth:`validity`): an int
whose bit *j* is set iff row *j* of that column is non-NULL, which is
what the vectorized ``IS NULL`` evaluator and NULL-skipping consumers
read instead of testing every cell.

The batch size fallback for directly-constructed operators is a
re-export of :data:`repro.storage.config.DEFAULT_BATCH_SIZE` — one
constant, shared with ``StorageConfig.batch_size``, so the two cannot
drift (plans built through the Planner are stamped with the config
value).
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Iterator

from repro.storage.config import DEFAULT_BATCH_SIZE

__all__ = ["DEFAULT_BATCH_SIZE", "ColumnBatch", "batched"]

#: pack NULL-free all-int / all-float derived columns into ``array``
#: typecode ``q``/``d`` storage (8 bytes per cell instead of a pointer
#: to a boxed object). Module-level so tests and ablations can flip it.
PACK_NUMERIC = True


def _packed(values: list) -> list | array:
    """``values`` as a typed array when eligible, unchanged otherwise.

    Eligible means non-empty, NULL-free and type-homogeneous int or
    float — checked with exact ``type`` so bools (an int subclass) and
    int/float mixes keep object semantics. Out-of-range ints (beyond
    64-bit) fall back to the list form.
    """
    if not values:
        return values
    first = type(values[0])
    if first is int:
        typecode = "q"
    elif first is float:
        typecode = "d"
    else:
        return values
    for value in values:
        if type(value) is not first:
            return values
    try:
        return array(typecode, values)
    except (OverflowError, TypeError, ValueError):
        return values


class ColumnBatch:
    """A slice of an operator's output: columns, cardinality, ordering."""

    __slots__ = ("length", "ordering", "_rows", "_columns", "_width", "_validity")

    def __init__(self, columns: list[list], length: int, ordering: tuple = ()):
        """Column-backed constructor: per-column value lists."""
        #: columnar payload (list of per-column lists); None entries in a
        #: row-backed batch mean "not derived yet"
        self._columns = columns
        self._rows: list[tuple] | None = None
        self.length = length
        self._width = len(columns)
        self._validity: dict[int, int] = {}
        #: the (qualifier, column, ascending) triples this batch's rows
        #: are known to satisfy — same contract as ``PhysicalOp.ordering``
        self.ordering = ordering

    @classmethod
    def from_rows(cls, rows: list[tuple], ordering: tuple = ()) -> "ColumnBatch":
        """Row-backed constructor: existing row tuples, columns lazy."""
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows
        batch.length = len(rows)
        batch._width = len(rows[0]) if rows else 0
        batch._validity = {}
        batch.ordering = ordering
        return batch

    # ------------------------------------------------------------------
    # representation accessors
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self._width

    @property
    def rows(self) -> list[tuple]:
        """Row-major view; transposed from columns on first access."""
        if self._rows is None:
            self._rows = (
                list(zip(*self._columns))
                if self._columns
                else [()] * self.length
            )
        return self._rows

    def to_rows(self) -> list[tuple]:
        """One-shot row materialization for row-major boundaries.

        This is the sanctioned crossing point into row-tuple land —
        spill buffers, executor result assembly, verified-write paths —
        and it is idempotent: the transpose happens at most once per
        batch no matter how many consumers ask.
        """
        return self.rows

    def column(self, position: int) -> list:
        """One column's values; derived (and cached) if row-backed."""
        if self._columns is None:
            self._columns = [None] * self._width
        values = self._columns[position]
        if values is None:
            rows = self._rows
            values = [row[position] for row in rows]
            if PACK_NUMERIC:
                values = _packed(values)
            self._columns[position] = values
        return values

    @property
    def columns(self) -> list[list]:
        """All columns, deriving any that are still lazy."""
        if self._columns is None or any(c is None for c in self._columns):
            for position in range(self._width):
                self.column(position)
        return self._columns

    def validity(self, position: int) -> int:
        """Validity bitmap for one column: bit j set iff row j non-NULL."""
        cached = self._validity.get(position)
        if cached is None:
            cached = 0
            for j, value in enumerate(self.column(position)):
                if value is not None:
                    cached |= 1 << j
            self._validity[position] = cached
        return cached

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def take_mask(self, mask: list) -> "ColumnBatch":
        """Compact the batch to the rows whose mask entry is True.

        Compaction happens in the authoritative representation: a
        row-backed batch compacts its existing tuple references (no new
        tuples are built), a column-backed batch compacts each column.
        """
        if self._rows is not None:
            kept = [row for row, keep in zip(self._rows, mask) if keep]
            return ColumnBatch.from_rows(kept, self.ordering)
        columns = [
            [value for value, keep in zip(column, mask) if keep]
            for column in self._columns
        ]
        length = len(columns[0]) if columns else sum(map(bool, mask))
        return ColumnBatch(columns, length, self.ordering)

    def slice(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows, sliced in the authoritative form."""
        if count >= self.length:
            return self
        if self._rows is not None:
            return ColumnBatch.from_rows(self._rows[:count], self.ordering)
        return ColumnBatch(
            [column[:count] for column in self._columns], count, self.ordering
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:
        backing = "rows" if self._rows is not None else "columns"
        return f"ColumnBatch({self.length} rows, {self._width} cols, {backing})"


def batched(
    rows: Iterable[tuple], batch_size: int, ordering: tuple = ()
) -> Iterator[ColumnBatch]:
    """Chunk an iterable of rows into row-backed batches."""
    if isinstance(rows, list):
        for i in range(0, len(rows), batch_size):
            yield ColumnBatch.from_rows(rows[i : i + batch_size], ordering)
        return
    iterator = iter(rows)
    while True:
        chunk = list(itertools.islice(iterator, batch_size))
        if not chunk:
            return
        yield ColumnBatch.from_rows(chunk, ordering)
