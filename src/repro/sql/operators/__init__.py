"""Physical (volcano-model) operators.

Operators produce :class:`~repro.sql.batch.ColumnBatch` streams through
``batches()`` and are pulled through one driver,
:meth:`PhysicalOp.timed_batches`; every expression they evaluate is
compiled once, column-at-a-time, by :mod:`repro.sql.expressions`. The
leaf operators are the secure access methods of Section 5.2 and carry
the verification; the rest are ordinary relational operators that run
inside the enclave and are trusted given verified inputs (Section 5.4).
Every operator tracks its own wall-clock time so the TPC-H benchmark can
split execution cost into scan nodes vs other nodes exactly like
Figure 12.
"""

from repro.sql.operators.aggregate import HashAggregateOp
from repro.sql.operators.base import PhysicalOp
from repro.sql.operators.distinct import DistinctOp
from repro.sql.operators.filter import FilterOp
from repro.sql.operators.fused import FusedScanFilterProjectOp
from repro.sql.operators.join import (
    HashJoinOp,
    IndexNestedLoopJoinOp,
    MergeJoinOp,
    NestedLoopJoinOp,
)
from repro.sql.operators.limit import LimitOp
from repro.sql.operators.project import ProjectOp
from repro.sql.operators.scan import PointLookupOp, RangeScanOp, SeqScanOp
from repro.sql.operators.sort import SortOp, TopNOp

__all__ = [
    "DistinctOp",
    "FilterOp",
    "FusedScanFilterProjectOp",
    "HashAggregateOp",
    "HashJoinOp",
    "IndexNestedLoopJoinOp",
    "LimitOp",
    "MergeJoinOp",
    "NestedLoopJoinOp",
    "PhysicalOp",
    "PointLookupOp",
    "ProjectOp",
    "RangeScanOp",
    "SeqScanOp",
    "SortOp",
    "TopNOp",
]
