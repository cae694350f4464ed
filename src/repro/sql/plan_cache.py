"""Schema-versioned plan cache for prepared and repeated statements.

Parsing and planning dominate the enclave cost of small point queries;
a workload of repeated statement *shapes* (the norm under prepared
statements) pays it once. The cache maps ``(normalized SQL, join hint)``
to a :class:`CacheEntry` holding the parsed statement and — for
statements whose plan is reusable — a pristine physical-plan template
instantiated per execution via :meth:`PhysicalOp.fresh`.

Safety rules:

* every entry is stamped with the catalog's ``schema_version`` at plan
  time; a lookup whose stamp no longer matches discards the entry
  (counted as an invalidation) and replans — a cached plan can never
  run against a changed schema or hold a dropped table's store handle;
* statements containing subqueries are **uncacheable**: the planner
  folds uncorrelated subqueries into literals at plan time, so a cached
  template would freeze data-dependent results;
* parameters never make a plan entry stale — sargable ``?`` bounds are
  planned as :class:`~repro.sql.ast_nodes.Parameter` placeholders the
  scans resolve per execution, so one template serves every binding.

The cache itself is a bounded LRU (``StorageConfig.plan_cache_size``
shapes; 0 disables caching) guarded by one lock; entries are immutable
after insertion, so concurrent sessions share them freely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.sql.ast_nodes import (
    Delete,
    ExistsSubquery,
    Explain,
    Expr,
    Insert,
    InSubquery,
    ScalarSubquery,
    Select,
    Statement,
    Update,
)
from repro.sql.operators.base import PhysicalOp

#: key type: (normalized SQL, join hint)
CacheKey = tuple[str, Optional[str]]


def normalize_sql(sql: str) -> str:
    """Canonical cache-key text for a statement.

    Whitespace runs collapse to single spaces so trivially reformatted
    statements share an entry — except when the statement contains a
    string literal (whitespace inside quotes is significant), where only
    the surrounding whitespace is stripped.
    """
    if "'" in sql:
        return sql.strip()
    return " ".join(sql.split())


def statement_has_subqueries(stmt: Statement) -> bool:
    """Whether any expression in the statement nests a subquery."""
    if isinstance(stmt, Select):
        return _select_has_subqueries(stmt)
    if isinstance(stmt, Explain):
        return _select_has_subqueries(stmt.select)
    if isinstance(stmt, Insert):
        if stmt.select is not None and _select_has_subqueries(stmt.select):
            return True
        return any(
            _expr_has_subquery(expr) for row in stmt.rows for expr in row
        )
    if isinstance(stmt, Update):
        if any(_expr_has_subquery(e) for _, e in stmt.assignments):
            return True
        return stmt.where is not None and _expr_has_subquery(stmt.where)
    if isinstance(stmt, Delete):
        return stmt.where is not None and _expr_has_subquery(stmt.where)
    return False


def _select_has_subqueries(stmt: Select) -> bool:
    exprs: list[Expr] = [item.expr for item in stmt.items]
    exprs.extend(j.condition for j in stmt.joins if j.condition is not None)
    if stmt.where is not None:
        exprs.append(stmt.where)
    exprs.extend(stmt.group_by)
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(item.expr for item in stmt.order_by)
    return any(_expr_has_subquery(expr) for expr in exprs)


def _expr_has_subquery(expr: Expr) -> bool:
    if isinstance(expr, (ScalarSubquery, InSubquery, ExistsSubquery)):
        return True
    for attr in ("left", "right", "operand", "low", "high", "argument"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr) and _expr_has_subquery(child):
            return True
    for item in getattr(expr, "items", ()) or ():
        if isinstance(item, Expr) and _expr_has_subquery(item):
            return True
    return False


@dataclass(frozen=True)
class CacheEntry:
    """One prepared statement shape (immutable once built)."""

    sql: str  # normalized statement text (key part, for introspection)
    stmt: Statement
    param_count: int
    join_hint: Optional[str]
    #: catalog.schema_version the templates were planned under
    schema_version: int
    #: False → never stored (subqueries, DDL, transaction control)
    cacheable: bool
    #: pristine SELECT plan; executions run a ``.fresh()`` clone
    select_template: Optional[PhysicalOp] = None
    #: pristine filtered-scan plan for UPDATE/DELETE row matching
    filter_template: Optional[PhysicalOp] = None
    #: tenant whose query built this entry (None: admin/untenanted).
    #: Entries are *shared* across tenants — plans contain no tenant
    #: data, only statement shape — and a hit from a different tenant
    #: counts ``sql.plan_cache_cross_tenant_hits``, making the sharing
    #: win observable per deployment.
    tenant: Optional[str] = None


class PlanCache:
    """Bounded, thread-safe LRU of :class:`CacheEntry` by cache key."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        if self.capacity <= 0 or not entry.cacheable:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: CacheKey) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
