"""Statement execution.

:class:`QueryEngine` is the enclave-resident engine of Figure 2: it
compiles (plans) statements and drives the volcano operators. DML and
DDL act directly on the verifiable tables through the catalog.

Statement text submitted as a string flows through the schema-versioned
plan cache (:mod:`repro.sql.plan_cache`): repeated statement shapes —
including every :class:`PreparedStatement` execution — skip the lexer,
parser and planner entirely, running a fresh clone of the cached plan
template with the ``?`` parameters bound for the duration of the
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.catalog import Catalog, TableInfo
from repro.catalog.schema import Column, Schema
from repro.catalog.types import type_from_name
from repro.errors import ExecutionError, PlanningError
from repro.obs import default_registry
from repro.sql.ast_nodes import (
    CreateTable,
    Delete,
    DropTable,
    Explain,
    Insert,
    Select,
    Statement,
    Update,
)
from repro.sql.batch import ColumnBatch
from repro.sql.expressions import RowSchema, compile_expr
from repro.sql.operators import FusedScanFilterProjectOp
from repro.sql.operators.base import PhysicalOp
from repro.sql.params import bound as bound_params
from repro.sql.parser import parse_statement, parse_statement_with_params
from repro.sql.plan_cache import (
    CacheEntry,
    PlanCache,
    normalize_sql,
    statement_has_subqueries,
)
from repro.sql.planner import Planner
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


@dataclass
class ExecutionResult:
    """Rows plus execution metadata for one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    plan: Optional[PhysicalOp] = None

    # ------------------------------------------------------------------
    # Figure 12 instrumentation: scan-node vs other-node self time
    # ------------------------------------------------------------------
    def scan_seconds(self) -> float:
        if self.plan is None:
            return 0.0
        total = 0.0
        for op in self.plan.walk():
            if op.is_scan:
                total += op.self_seconds
            total += op.internal_scan_seconds
        return total

    def other_seconds(self) -> float:
        if self.plan is None:
            return 0.0
        total = 0.0
        for op in self.plan.walk():
            if not op.is_scan:
                total += op.self_seconds - op.internal_scan_seconds
        return max(0.0, total)

    def total_seconds(self) -> float:
        return 0.0 if self.plan is None else self.plan.total_seconds

    def explain(self) -> str:
        return "" if self.plan is None else self.plan.explain()


class QueryEngine:
    """Parses, plans and executes SQL against a catalog of tables."""

    def __init__(self, catalog: Catalog, storage: StorageEngine, epc=None):
        self.catalog = catalog
        self.storage = storage
        self.obs = storage.obs if storage is not None else default_registry()
        self._meter = epc.meter if epc is not None else None
        self._ctr_statements = self.obs.counter("sql.statements")
        self._ctr_cache_hits = self.obs.counter("sql.plan_cache_hits")
        self._ctr_cache_misses = self.obs.counter("sql.plan_cache_misses")
        self._ctr_cache_invalidations = self.obs.counter(
            "sql.plan_cache_invalidations"
        )
        self._ctr_cross_tenant_hits = self.obs.counter(
            "sql.plan_cache_cross_tenant_hits"
        )
        self._ctr_parsed = self.obs.counter("sql.statements_parsed")
        self._ctr_planned = self.obs.counter("sql.statements_planned")
        self._ctr_fused_batches = self.obs.counter("sql.fused_pipeline_batches")
        self.plan_cache = PlanCache(
            storage.config.plan_cache_size if storage is not None else 0
        )
        spill = None
        if storage.config.spill_threshold_rows is not None:
            from repro.sql.spill import SpillManager

            spill = SpillManager(
                storage, storage.config.spill_threshold_rows, epc=epc
            )
        self.spill = spill
        self.planner = Planner(
            catalog,
            subquery_executor=lambda select: self._run_select(select, None).rows,
            spill=spill,
            batch_size=storage.config.batch_size if storage is not None else None,
            cache_bytes=storage.config.cache_bytes if storage is not None else None,
            cache_policy=storage.config.cache_policy if storage is not None else None,
        )

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def statement_entry(
        self,
        sql: str,
        join_hint: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> CacheEntry:
        """Resolve statement text to a (possibly cached) entry.

        This is the single hit/miss accounting point: a valid cached
        entry counts one ``sql.plan_cache_hits``; building an entry for
        a query/DML statement counts one ``sql.plan_cache_misses``
        (control statements — EXPLAIN, transaction control, DDL — are
        never cached and count neither). A cached entry whose schema
        version no longer matches the catalog is discarded (one
        ``sql.plan_cache_invalidations``) and rebuilt.
        """
        key = (normalize_sql(sql), join_hint)
        entry = self.plan_cache.get(key)
        if entry is not None:
            if entry.schema_version == self.catalog.schema_version:
                self._ctr_cache_hits.inc()
                # one cache serves every tenant (plans carry statement
                # shape, never tenant data); count the shared hits
                if (
                    tenant is not None
                    and entry.tenant is not None
                    and entry.tenant != tenant
                ):
                    self._ctr_cross_tenant_hits.inc()
                return entry
            self._ctr_cache_invalidations.inc()
            self.plan_cache.invalidate(key)
        entry = self._build_entry(key[0], sql, join_hint, tenant)
        if isinstance(entry.stmt, (Select, Insert, Update, Delete)):
            self._ctr_cache_misses.inc()
        self.plan_cache.put(key, entry)  # no-op unless entry.cacheable
        return entry

    def _build_entry(
        self,
        normalized: str,
        sql: str,
        join_hint: Optional[str],
        tenant: Optional[str] = None,
    ) -> CacheEntry:
        # the version is read *before* parse/plan: a concurrent DDL can
        # only make the stamp too old (entry discarded on next lookup),
        # never newer than the catalog state the plan was built against
        version = self.catalog.schema_version
        stmt, param_count = parse_statement_with_params(sql)
        self._ctr_parsed.inc()
        cacheable = isinstance(
            stmt, (Select, Insert, Update, Delete)
        ) and not statement_has_subqueries(stmt)
        select_template = filter_template = None
        if cacheable and isinstance(stmt, Select):
            select_template = self.planner.plan_select(stmt, join_hint)
            self._ctr_planned.inc()
        elif cacheable and isinstance(stmt, (Update, Delete)):
            filter_template = self.planner.plan_table_filter(
                stmt.table, stmt.where
            )
            self._ctr_planned.inc()
        return CacheEntry(
            sql=normalized,
            stmt=stmt,
            param_count=param_count,
            join_hint=join_hint,
            schema_version=version,
            cacheable=cacheable,
            select_template=select_template,
            filter_template=filter_template,
            tenant=tenant,
        )

    def prepare(
        self, sql: str, join_hint: Optional[str] = None
    ) -> "PreparedStatement":
        """Parse and plan once; execute many times with bound values."""
        return PreparedStatement(self, sql, join_hint)

    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str | Statement,
        join_hint: Optional[str] = None,
        undo: Optional[list] = None,
        params: Optional[tuple] = None,
        tenant: Optional[str] = None,
    ) -> ExecutionResult:
        """Run one statement.

        ``undo`` (used by :class:`~repro.sql.session.Session`) collects
        one inverse callable per applied row change, appended in apply
        order, so a transaction can roll back by replaying it reversed.
        ``params`` binds the statement's ``?`` placeholders in order.
        ``tenant`` attributes plan-cache accounting (cross-tenant hit
        counting) to the submitting tenant; execution is identical.
        Statement text goes through the plan cache; a pre-parsed
        ``Statement`` bypasses it.
        """
        if isinstance(sql, str):
            entry = self.statement_entry(sql, join_hint, tenant=tenant)
            return self.execute_prepared(
                entry,
                () if params is None else tuple(params),
                join_hint=join_hint,
                undo=undo,
            )
        stmt = sql
        values = () if params is None else tuple(params)

        def run() -> ExecutionResult:
            with bound_params(values):
                return self._dispatch(stmt, join_hint, undo)

        return self._metered(run)

    def execute_prepared(
        self,
        entry: CacheEntry,
        params: tuple = (),
        join_hint: Optional[str] = None,
        undo: Optional[list] = None,
    ) -> ExecutionResult:
        """Run a resolved statement entry with ``params`` bound.

        The caller has already gone through :meth:`statement_entry`
        (which did the hit/miss accounting); no re-parsing or cache
        counting happens here.
        """
        values = tuple(params)
        if len(values) != entry.param_count:
            raise ExecutionError(
                f"statement has {entry.param_count} parameter(s); "
                f"{len(values)} value(s) bound"
            )

        def run() -> ExecutionResult:
            with bound_params(values):
                return self._dispatch_entry(entry, join_hint, undo)

        return self._metered(run)

    def _metered(self, run) -> ExecutionResult:
        """Per-statement metrics envelope shared by every execute path."""
        if not self.obs.enabled:
            return run()
        self._ctr_statements.inc()
        cycles_before = (
            self._meter.snapshot()["cycles"] if self._meter is not None else None
        )
        with self.obs.span("sql.execute_seconds"):
            result = run()
        if cycles_before is not None:
            self.obs.histogram("sgx.cycles_per_query").observe(
                self._meter.snapshot()["cycles"] - cycles_before
            )
        self._record_plan_metrics(result)
        return result

    def _dispatch_entry(
        self,
        entry: CacheEntry,
        join_hint: Optional[str],
        undo: Optional[list],
    ) -> ExecutionResult:
        stmt = entry.stmt
        if isinstance(stmt, Select) and entry.select_template is not None:
            return self._run_plan(entry.select_template.fresh())
        if isinstance(stmt, Update) and entry.filter_template is not None:
            return self._run_update(
                stmt, undo, plan=entry.filter_template.fresh()
            )
        if isinstance(stmt, Delete) and entry.filter_template is not None:
            return self._run_delete(
                stmt, undo, plan=entry.filter_template.fresh()
            )
        return self._dispatch(stmt, join_hint, undo)

    def _dispatch(
        self,
        stmt: Statement,
        join_hint: Optional[str],
        undo: Optional[list],
    ) -> ExecutionResult:
        if isinstance(stmt, (Select, Update, Delete, Explain)):
            self._ctr_planned.inc()
        if isinstance(stmt, Explain):
            plan = self.planner.plan_select(stmt.select, join_hint)
            rows = [(line,) for line in plan.explain().splitlines()]
            return ExecutionResult(
                columns=["plan"], rows=rows, rowcount=len(rows)
            )
        if isinstance(stmt, Select):
            return self._run_select(stmt, join_hint)
        if isinstance(stmt, Insert):
            return self._run_insert(stmt, undo)
        if isinstance(stmt, Update):
            return self._run_update(stmt, undo)
        if isinstance(stmt, Delete):
            return self._run_delete(stmt, undo)
        if isinstance(stmt, CreateTable):
            return self._run_create(stmt)
        if isinstance(stmt, DropTable):
            return self._run_drop(stmt)
        raise ExecutionError(f"unsupported statement {type(stmt).__name__}")

    def _record_plan_metrics(self, result: ExecutionResult) -> None:
        """Fold a drained plan's per-node self times into the registry.

        One latency histogram per operator class
        (``sql.op.<Name>.self_seconds``) plus the scan/other split the
        Figure 12 analysis uses.
        """
        if result.plan is None:
            return
        total_batches = 0
        for op in result.plan.walk():
            self.obs.histogram(
                f"sql.op.{type(op).__name__}.self_seconds"
            ).observe(op.self_seconds)
            total_batches += op.batches_out
            if op.batches_out:
                self.obs.histogram("sql.batch_size").observe(
                    op.rows_out / op.batches_out
                )
            if isinstance(op, FusedScanFilterProjectOp) and op.batches_out:
                self._ctr_fused_batches.inc(op.batches_out)
        self.obs.histogram("sql.batches_per_query").observe(total_batches)
        self.obs.histogram("sql.scan_seconds").observe(result.scan_seconds())
        self.obs.histogram("sql.other_seconds").observe(result.other_seconds())

    def plan(self, sql: str, join_hint: Optional[str] = None) -> PhysicalOp:
        """Compile without executing (EXPLAIN support)."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, Select):
            raise PlanningError("plan() only supports SELECT statements")
        return self.planner.plan_select(stmt, join_hint)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _run_select(self, stmt: Select, join_hint: Optional[str]) -> ExecutionResult:
        return self._run_plan(self.planner.plan_select(stmt, join_hint))

    def _run_plan(self, plan: PhysicalOp) -> ExecutionResult:
        # result assembly is a row-major boundary: each (possibly
        # column-backed) batch materializes its row tuples exactly once
        rows: list[tuple] = []
        for batch in plan.timed_batches():
            rows.extend(batch.to_rows())
        return ExecutionResult(
            columns=plan.output.names, rows=rows, rowcount=len(rows), plan=plan
        )

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _run_insert(
        self, stmt: Insert, undo: Optional[list] = None
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        schema = info.schema
        if stmt.select is not None:
            source_rows = self._run_select(stmt.select, None).rows
        else:
            # constants evaluate over a one-row, zero-column batch
            empty, one_row = RowSchema([]), ColumnBatch([], 1)
            source_rows = [
                tuple(compile_expr(e, empty)(one_row)[0] for e in value_exprs)
                for value_exprs in stmt.rows
            ]
        pk_index = schema.primary_key_index
        count = 0
        for values in source_rows:
            if stmt.columns:
                if len(values) != len(stmt.columns):
                    raise ExecutionError(
                        "INSERT column list and source arity differ"
                    )
                row = schema.row_from_dict(dict(zip(stmt.columns, values)))
            else:
                row = schema.validate_row(values)
            info.store.insert(row)
            if undo is not None:
                undo.append(
                    lambda store=info.store, pk=row[pk_index]: store.delete(pk)
                )
            count += 1
        return ExecutionResult(rowcount=count)

    def _run_update(
        self,
        stmt: Update,
        undo: Optional[list] = None,
        plan: Optional[PhysicalOp] = None,
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        schema = info.schema
        if plan is None:
            plan = self.planner.plan_table_filter(stmt.table, stmt.where)
        # drain the whole plan before the first write: a chain scan must
        # never revisit rows this statement has just rewritten
        matching = list(plan.timed_batches())
        columns = [column for column, _ in stmt.assignments]
        assign_fns = [compile_expr(expr, plan.output) for _, expr in stmt.assignments]
        pk_index = schema.primary_key_index
        count = 0
        for batch in matching:
            assigned = zip(*[fn(batch) for fn in assign_fns])
            for row, values in zip(batch.rows, assigned):
                updates = dict(zip(columns, values))
                if info.store.update(row[pk_index], updates):
                    if undo is not None:
                        new_pk = updates.get(schema.primary_key, row[pk_index])

                        def restore(store=info.store, new_pk=new_pk, old=row):
                            store.delete(new_pk)
                            store.insert(old)

                        undo.append(restore)
                    count += 1
        return ExecutionResult(rowcount=count)

    def _run_delete(
        self,
        stmt: Delete,
        undo: Optional[list] = None,
        plan: Optional[PhysicalOp] = None,
    ) -> ExecutionResult:
        info = self.catalog.lookup(stmt.table)
        if plan is None:
            plan = self.planner.plan_table_filter(stmt.table, stmt.where)
        pk_index = info.schema.primary_key_index
        matching = list(plan.timed_rows())
        count = 0
        for row in matching:
            if info.store.delete(row[pk_index]):
                if undo is not None:
                    undo.append(
                        lambda store=info.store, old=row: store.insert(old)
                    )
                count += 1
        return ExecutionResult(rowcount=count)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _run_create(self, stmt: CreateTable) -> ExecutionResult:
        if stmt.primary_key is None:
            raise PlanningError(
                f"table {stmt.name!r} needs a PRIMARY KEY (the chain-0 key)"
            )
        columns = [
            Column(
                definition.name,
                type_from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in stmt.columns
        ]
        schema = Schema(
            columns=columns,
            primary_key=stmt.primary_key,
            chain_columns=tuple(stmt.chain_columns),
        )
        store = VerifiableTable(stmt.name, schema, self.storage)
        self.catalog.register(TableInfo(stmt.name, schema, store))
        return ExecutionResult()

    def _run_drop(self, stmt: DropTable) -> ExecutionResult:
        info = self.catalog.drop(stmt.name)
        info.store.destroy()
        return ExecutionResult()


class PreparedStatement:
    """A statement parsed and planned once, executed many times.

    ``execute(params)`` binds the statement's ``?`` placeholders in
    order. Each execution revalidates the cached entry against the
    catalog's schema version, so a DDL between executions transparently
    replans instead of running a stale plan; when the entry is still
    valid the execution is a pure plan-cache hit (no lexing, parsing or
    planning).

    ``executor`` (used by :meth:`~repro.sql.session.Session.prepare`)
    reroutes execution through a wrapper — e.g. a transactional session
    that must take its table locks — and receives the resolved entry
    plus the bound values.
    """

    def __init__(
        self,
        engine: QueryEngine,
        sql: str,
        join_hint: Optional[str] = None,
        executor=None,
    ):
        self._engine = engine
        self.sql = sql
        self.join_hint = join_hint
        self._executor = executor
        entry = engine.statement_entry(sql, join_hint)
        self.param_count = entry.param_count

    def execute(self, params: tuple = ()) -> ExecutionResult:
        entry = self._engine.statement_entry(self.sql, self.join_hint)
        values = tuple(params)
        if self._executor is not None:
            return self._executor(entry, values)
        return self._engine.execute_prepared(
            entry, values, join_hint=self.join_hint
        )
