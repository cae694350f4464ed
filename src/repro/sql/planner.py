"""Query planning and optimization (runs inside the enclave, Section 3.3).

Pipeline for SELECT:

1. bind tables, pool the WHERE and JOIN-ON conjuncts;
2. choose an access path per table from the sargable constraints
   (:mod:`repro.sql.sargable`) — verified point lookup for a
   primary-key equality, verified range scan when a chained column has
   bounds (literal or ``?``, merged by the scan at execution time),
   verified sequential scan otherwise — with residual conjuncts as
   filters;
3. build a left-deep join tree in FROM order, picking the join
   algorithm (index-nested-loop through the inner table's primary key,
   hash, merge, or plain nested loops); callers may force one with
   ``join_hint`` — the Figure 12 experiment compares Q19 under
   ``merge`` vs ``nested_loop``;
4. plan grouping/aggregation by rewriting aggregate expressions into
   references over the aggregate operator's output;
5. HAVING, projection, ORDER BY, LIMIT on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.catalog.catalog import Catalog
from repro.errors import PlanningError
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    ExistsSubquery,
    Expr,
    InSet,
    InSubquery,
    IsNull,
    InList,
    Like,
    Literal,
    OrderItem,
    ScalarSubquery,
    Select,
    UnaryOp,
)
from repro.sql.expressions import (
    find_aggregates,
    referenced_columns,
    split_conjuncts,
    substitute,
)
from repro.sql.operators import (
    DistinctOp,
    FilterOp,
    FusedScanFilterProjectOp,
    HashAggregateOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    LimitOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOp,
    PointLookupOp,
    ProjectOp,
    RangeScanOp,
    SeqScanOp,
    SortOp,
    TopNOp,
)
from repro.sql.sargable import Constraint, conjunct_constraints

JOIN_HINTS = ("merge", "nested_loop", "hash", "index_nl")


@dataclass
class _Binding:
    name: str  # alias or table name
    info: Any  # TableInfo


class Planner:
    def __init__(
        self,
        catalog: Catalog,
        subquery_executor=None,
        spill=None,
        batch_size: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        cache_policy: Optional[str] = None,
    ):
        self.catalog = catalog
        #: callable(Select) -> list[tuple]; installed by the QueryEngine.
        #: Uncorrelated subqueries are executed (through the same verified
        #: pipeline) at planning time and folded into the outer plan.
        self.subquery_executor = subquery_executor
        #: optional SpillManager: materializing operators overflow their
        #: intermediate state into verifiable storage (Section 5.4)
        self.spill = spill
        #: rows per ColumnBatch on every stamped plan node; 1 degenerates to
        #: row-at-a-time execution. None keeps each operator's class
        #: default (DEFAULT_BATCH_SIZE).
        self.batch_size = batch_size
        #: record-cache budget/policy active beneath the plan, stamped
        #: onto every node so EXPLAIN output shows the cache regime the
        #: plan will execute under. None keeps the class defaults.
        self.cache_bytes = cache_bytes
        self.cache_policy = cache_policy

    def _stamp(self, plan: PhysicalOp) -> PhysicalOp:
        """Propagate execution-wide knobs to every plan node."""
        if (
            self.batch_size is not None
            or self.cache_bytes is not None
            or self.cache_policy is not None
        ):
            for op in plan.walk():
                if self.batch_size is not None:
                    op.batch_size = self.batch_size
                if self.cache_bytes is not None:
                    op.cache_bytes = self.cache_bytes
                if self.cache_policy is not None:
                    op.cache_policy = self.cache_policy
        return plan

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def plan_select(
        self, stmt: Select, join_hint: Optional[str] = None
    ) -> PhysicalOp:
        if join_hint is not None and join_hint not in JOIN_HINTS:
            raise PlanningError(
                f"unknown join hint {join_hint!r}; use one of {JOIN_HINTS}"
            )
        stmt = self._resolve_statement_subqueries(stmt)
        bindings = self._bind_tables(stmt)
        # WHERE conjuncts and *inner*-join ON conjuncts form one pool and
        # may be pushed freely; a LEFT JOIN's ON condition stays with its
        # join (pushing it, or pulling WHERE predicates into it, changes
        # which rows get NULL-extended).
        conjuncts = list(split_conjuncts(stmt.where))
        outer_conditions: dict[str, Optional[Expr]] = {}
        for join in stmt.joins:
            if join.outer:
                outer_conditions[join.table.binding] = join.condition
            else:
                conjuncts.extend(split_conjuncts(join.condition))

        # classify conjuncts by the set of bindings they touch
        remaining: list[tuple[Expr, frozenset[str]]] = []
        for conjunct in conjuncts:
            touched = self._bindings_of(conjunct, bindings)
            remaining.append((conjunct, touched))

        plan: Optional[PhysicalOp] = None
        joined: set[str] = set()
        for position, binding in enumerate(bindings):
            if binding.name in outer_conditions:
                if plan is None:
                    raise PlanningError(
                        "LEFT JOIN needs a left-hand input"
                    )
                # WHERE conjuncts touching this binding stay in the pool
                # and apply above the join (post-NULL-extension semantics)
                plan = self._plan_outer_join(
                    plan, binding, outer_conditions[binding.name], joined
                )
                joined.add(binding.name)
                continue
            local = [
                c for c, refs in remaining if refs == frozenset({binding.name})
            ]
            remaining = [
                (c, refs)
                for c, refs in remaining
                if refs != frozenset({binding.name})
            ]
            if plan is None:
                plan = self._access_path(binding, local)
                joined.add(binding.name)
                continue
            # conjuncts that become applicable once this binding joins
            applicable = [
                c
                for c, refs in remaining
                if refs and refs <= joined | {binding.name} and binding.name in refs
            ]
            remaining = [
                (c, refs) for c, refs in remaining if c not in applicable
            ]
            plan = self._plan_join(
                plan, binding, local, applicable, join_hint, joined
            )
            joined.add(binding.name)
        assert plan is not None

        # anything left (e.g. constant predicates) applies on top
        for conjunct, _ in remaining:
            plan = FilterOp(plan, conjunct)

        plan, agg_output_map = self._plan_aggregation(plan, stmt)
        plan = self._plan_projection_order_limit(plan, stmt, agg_output_map)
        plan = self._fuse_pipelines(plan)
        return self._stamp(plan)

    # ------------------------------------------------------------------
    # pipeline fusion (single-pass columnar scan→filter→project)
    # ------------------------------------------------------------------
    def _fuse_pipelines(self, plan: PhysicalOp) -> PhysicalOp:
        """Collapse Project/Filter chains over a base-table scan.

        ``Project(Filter*(scan))``, ``Filter+(scan)`` and
        ``Project(scan)`` — where the scan is a SeqScan or RangeScan —
        become one :class:`FusedScanFilterProjectOp` that filters and
        projects each scan batch in a single columnar pass. The scan
        itself stays a child node (verified reads and Figure-12 scan
        attribution are unchanged); point lookups return at most one
        row, so fusing over them buys nothing and they are left alone.
        The rewrite runs after all order/limit decisions, so the
        interesting-order bookkeeping those decisions used is already
        settled.
        """
        exprs = names = qualifiers = None
        node = plan
        if isinstance(plan, ProjectOp):
            exprs = plan.exprs
            qualifiers = [q for q, _ in plan.output.bindings]
            names = [n for _, n in plan.output.bindings]
            node = plan.children[0]
        predicates: list[Expr] = []
        while isinstance(node, FilterOp):
            predicates.append(node.predicate)
            node = node.children[0]
        if isinstance(node, (SeqScanOp, RangeScanOp)) and (
            predicates or exprs is not None
        ):
            predicates.reverse()
            return FusedScanFilterProjectOp(
                node, predicates, exprs, names, qualifiers
            )
        plan.children = [
            self._fuse_pipelines(child) for child in plan.children
        ]
        return plan

    # ------------------------------------------------------------------
    # uncorrelated subqueries (resolved at plan time)
    # ------------------------------------------------------------------
    def _resolve_statement_subqueries(self, stmt: Select) -> Select:
        """Fold every subquery in the statement into literal values.

        Correlated subqueries are not supported: the inner SELECT is
        planned in its own scope, so a reference to an outer column
        surfaces as an unknown-column planning error.
        """
        from dataclasses import replace
        from repro.sql.ast_nodes import SelectItem

        def fix(expr):
            return None if expr is None else self.resolve_subqueries(expr)

        return replace(
            stmt,
            items=[SelectItem(fix(i.expr), i.alias) for i in stmt.items],
            joins=[
                type(j)(j.table, fix(j.condition), j.outer) for j in stmt.joins
            ],
            where=fix(stmt.where),
            group_by=[fix(e) for e in stmt.group_by],
            having=fix(stmt.having),
            order_by=[
                OrderItem(fix(item.expr), item.ascending)
                for item in stmt.order_by
            ],
        )

    def resolve_subqueries(self, expr: Expr) -> Expr:
        """Rewrite subquery nodes into literals / materialized sets."""
        if isinstance(expr, ScalarSubquery):
            rows = self._execute_subquery(expr.select)
            if rows and len(rows[0]) != 1:
                raise PlanningError("scalar subquery must return one column")
            if len(rows) > 1:
                raise PlanningError(
                    f"scalar subquery returned {len(rows)} rows"
                )
            return Literal(rows[0][0] if rows else None)
        if isinstance(expr, InSubquery):
            rows = self._execute_subquery(expr.select)
            if rows and len(rows[0]) != 1:
                raise PlanningError("IN subquery must return one column")
            values = {row[0] for row in rows}
            had_null = None in values
            values.discard(None)
            return InSet(
                self.resolve_subqueries(expr.operand),
                frozenset(values),
                had_null,
                expr.negated,
            )
        if isinstance(expr, ExistsSubquery):
            rows = self._execute_subquery(expr.select)
            exists = bool(rows)
            return Literal((not exists) if expr.negated else exists)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self.resolve_subqueries(expr.left),
                self.resolve_subqueries(expr.right),
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.resolve_subqueries(expr.operand))
        if isinstance(expr, IsNull):
            return IsNull(self.resolve_subqueries(expr.operand), expr.negated)
        if isinstance(expr, InList):
            return InList(
                self.resolve_subqueries(expr.operand),
                tuple(self.resolve_subqueries(item) for item in expr.items),
                expr.negated,
            )
        if isinstance(expr, Between):
            return Between(
                self.resolve_subqueries(expr.operand),
                self.resolve_subqueries(expr.low),
                self.resolve_subqueries(expr.high),
                expr.negated,
            )
        if isinstance(expr, Like):
            return Like(
                self.resolve_subqueries(expr.operand), expr.pattern, expr.negated
            )
        if isinstance(expr, Aggregate) and expr.argument is not None:
            return Aggregate(
                expr.func, self.resolve_subqueries(expr.argument), expr.distinct
            )
        return expr

    def _execute_subquery(self, select: Select) -> list[tuple]:
        if self.subquery_executor is None:
            raise PlanningError(
                "this planner has no subquery executor; nested queries "
                "require planning through the QueryEngine"
            )
        return self.subquery_executor(select)

    # ------------------------------------------------------------------
    # table binding & column ownership
    # ------------------------------------------------------------------
    def _bind_tables(self, stmt: Select) -> list[_Binding]:
        refs = list(stmt.tables) + [join.table for join in stmt.joins]
        bindings: list[_Binding] = []
        seen: set[str] = set()
        for ref in refs:
            name = ref.binding
            if name in seen:
                raise PlanningError(f"duplicate table binding {name!r}")
            seen.add(name)
            bindings.append(_Binding(name, self.catalog.lookup(ref.name)))
        return bindings

    def _bindings_of(
        self, expr: Expr, bindings: list[_Binding]
    ) -> frozenset[str]:
        touched: set[str] = set()
        for ref in referenced_columns(expr):
            touched.add(self._owner(ref, bindings))
        return frozenset(touched)

    @staticmethod
    def _owner(ref: ColumnRef, bindings: list[_Binding]) -> str:
        if ref.qualifier is not None:
            for binding in bindings:
                if binding.name == ref.qualifier:
                    if not binding.info.schema.has_column(ref.name):
                        raise PlanningError(f"unknown column {ref!r}")
                    return binding.name
            raise PlanningError(f"unknown table qualifier {ref.qualifier!r}")
        owners = [
            b.name for b in bindings if b.info.schema.has_column(ref.name)
        ]
        if not owners:
            raise PlanningError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise PlanningError(f"ambiguous column {ref.name!r}")
        return owners[0]

    # ------------------------------------------------------------------
    # access-path selection
    # ------------------------------------------------------------------
    def _access_path(
        self, binding: _Binding, conjuncts: list[Expr]
    ) -> PhysicalOp:
        table = binding.info.store
        schema = binding.info.schema
        # sargable conjuncts (with their constraints) by chained column
        by_column: dict[str, list[tuple[Expr, list[Constraint]]]] = {}
        for conjunct in conjuncts:
            found = conjunct_constraints(conjunct)
            if found and found[0].op != "in":
                column = found[0].column
                if schema.chain_id(column) is not None:
                    by_column.setdefault(column, []).append((conjunct, found))
        column = self._choose_column(schema, by_column)
        plan: PhysicalOp
        absorbed: list[Expr] = []
        if column is None:
            plan = SeqScanOp(table, binding.name)
        else:
            on_column = by_column[column]
            equality = next(((c, f[0]) for c, f in on_column if f[0].op == "="), None)
            if equality is not None:
                # Use one equality for the access path; every OTHER
                # constraint on this column (further equalities, bounds)
                # stays a residual filter — absorbing them here would
                # silently drop contradictions like ``a = 1 AND a = 0``.
                conjunct, con = equality
                absorbed = [conjunct]
                if column == schema.primary_key:
                    plan = PointLookupOp(table, binding.name, con.value)
                else:
                    plan = RangeScanOp(table, binding.name, column, [con])
            else:
                # every bound, literal or ``?``, rides the scan, which
                # merges them per execution (tightest of each side)
                absorbed = [c for c, _ in on_column]
                bounds = [con for _, found in on_column for con in found]
                plan = RangeScanOp(table, binding.name, column, bounds)
        # everything else, including constraints on other columns,
        # stays an ordinary filter
        for conjunct in conjuncts:
            if not any(conjunct is a for a in absorbed):
                plan = FilterOp(plan, conjunct)
        return plan

    @staticmethod
    def _choose_column(schema, by_column: dict) -> Optional[str]:
        """Pick the most selective constrained chained column."""

        def score(column: str) -> int:
            ops = {con.op for _, found in by_column[column] for con in found}
            if "=" in ops:
                return 4 if column == schema.primary_key else 3
            if ops & {">", ">="} and ops & {"<", "<="}:
                return 2
            return 1

        return max(by_column, key=score, default=None)

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _plan_join(
        self,
        left: PhysicalOp,
        binding: _Binding,
        local: list[Expr],
        applicable: list[Expr],
        join_hint: Optional[str],
        joined: set[str],
    ) -> PhysicalOp:
        # split the applicable conjuncts into equi-key pairs and residual
        left_keys: list[Expr] = []
        right_keys: list[Expr] = []
        residual: list[Expr] = []
        for conjunct in applicable:
            pair = self._equi_pair(conjunct, binding, joined)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        residual_expr = _and_all(residual)

        hint = join_hint
        if hint == "index_nl" or (
            hint is None
            and len(right_keys) == 1
            and isinstance(right_keys[0], ColumnRef)
            and right_keys[0].name == binding.info.schema.primary_key
        ):
            if (
                len(right_keys) == 1
                and isinstance(right_keys[0], ColumnRef)
                and right_keys[0].name == binding.info.schema.primary_key
            ):
                inner_residual = _and_all(local + residual)
                return IndexNestedLoopJoinOp(
                    left,
                    binding.info.store,
                    binding.name,
                    left_keys[0],
                    inner_residual,
                )
            if hint == "index_nl":
                raise PlanningError(
                    "index_nl join requires a single equality on the inner "
                    "table's primary key"
                )
        right = self._access_path(binding, local)
        if not left_keys:
            return NestedLoopJoinOp(
                left, right, [], [], residual_expr, spill=self.spill
            )
        if hint == "merge":
            return MergeJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                spill=self.spill,
            )
        if hint == "nested_loop":
            return NestedLoopJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                spill=self.spill,
            )
        return HashJoinOp(left, right, left_keys, right_keys, residual_expr)

    def _plan_outer_join(
        self,
        left: PhysicalOp,
        binding: _Binding,
        condition: Optional[Expr],
        joined: set[str],
    ) -> PhysicalOp:
        """LEFT OUTER JOIN: the ON condition decides matching only.

        Right-side-only ON conjuncts are pushed into the right input
        (legal: they restrict which right rows can match); everything
        else — including left-side-only conjuncts — participates in the
        per-pair match test, never filtering left rows outright.
        """
        conjuncts = split_conjuncts(condition)
        right_local: list[Expr] = []
        match_conjuncts: list[Expr] = []
        for conjunct in conjuncts:
            try:
                refs = self._bindings_of(conjunct, [binding])
                only_right = refs == frozenset({binding.name})
            except PlanningError:
                only_right = False  # touches columns outside this binding
            if only_right:
                right_local.append(conjunct)
            else:
                match_conjuncts.append(conjunct)
        right = self._access_path(binding, right_local)
        left_keys: list[Expr] = []
        right_keys: list[Expr] = []
        residual: list[Expr] = []
        for conjunct in match_conjuncts:
            pair = self._equi_pair(conjunct, binding, joined)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        residual_expr = _and_all(residual)
        if left_keys:
            return HashJoinOp(
                left, right, left_keys, right_keys, residual_expr,
                left_outer=True,
            )
        return NestedLoopJoinOp(
            left, right, [], [], residual_expr,
            spill=self.spill, left_outer=True,
        )

    def _equi_pair(self, conjunct: Expr, binding: _Binding, joined: set[str]):
        """Return (left_expr, right_expr) for an equi-join conjunct."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        sides = [conjunct.left, conjunct.right]
        side_bindings = []
        for side in sides:
            refs = referenced_columns(side)
            if not refs:
                return None
            owners = set()
            for ref in refs:
                if ref.qualifier is not None:
                    owners.add(ref.qualifier)
                else:
                    return None  # unqualified in joins: keep as residual
            side_bindings.append(owners)
        left_side, right_side = side_bindings
        if left_side <= joined and right_side == {binding.name}:
            return sides[0], sides[1]
        if right_side <= joined and left_side == {binding.name}:
            return sides[1], sides[0]
        return None

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _plan_aggregation(self, plan: PhysicalOp, stmt: Select):
        """Insert a HashAggregate if the query is grouped/aggregated.

        Returns (plan, mapping) where mapping rewrites the original
        expressions (group keys and aggregate calls) into column
        references over the aggregate output; mapping is None when the
        query is not aggregated.
        """
        aggregates: list[Aggregate] = []
        for item in stmt.items:
            aggregates.extend(find_aggregates(item.expr))
        if stmt.having is not None:
            aggregates.extend(find_aggregates(stmt.having))
        for item in stmt.order_by:
            aggregates.extend(find_aggregates(item.expr))
        if not aggregates and not stmt.group_by:
            return plan, None
        if stmt.star:
            raise PlanningError("SELECT * is not valid in a grouped query")
        # deduplicate aggregates structurally
        unique_aggs: list[Aggregate] = []
        for agg in aggregates:
            if agg not in unique_aggs:
                unique_aggs.append(agg)
        group_exprs = list(stmt.group_by)
        names = [f"__g{i}" for i in range(len(group_exprs))] + [
            f"__a{i}" for i in range(len(unique_aggs))
        ]
        plan = HashAggregateOp(plan, group_exprs, unique_aggs, names)
        mapping: dict[Expr, Expr] = {}
        for i, expr in enumerate(group_exprs):
            mapping[expr] = ColumnRef(f"__g{i}")
        for i, agg in enumerate(unique_aggs):
            mapping[agg] = ColumnRef(f"__a{i}")
        if stmt.having is not None:
            plan = FilterOp(plan, substitute(stmt.having, mapping))
        return plan, mapping

    # ------------------------------------------------------------------
    # projection / order / limit
    # ------------------------------------------------------------------
    def _plan_projection_order_limit(
        self,
        plan: PhysicalOp,
        stmt: Select,
        agg_map: Optional[dict[Expr, Expr]],
    ) -> PhysicalOp:
        order_items = list(stmt.order_by)
        if stmt.star:
            if stmt.distinct:
                plan = DistinctOp(plan)
            if order_items and self._order_satisfied(plan, order_items):
                order_items = []  # the chain scan already emits this order
            if order_items and stmt.limit is not None:
                return TopNOp(plan, order_items, stmt.limit)
            if order_items:
                plan = SortOp(plan, order_items, spill=self.spill)
            if stmt.limit is not None:
                plan = LimitOp(plan, stmt.limit)
            return plan

        exprs: list[Expr] = []
        names: list[str] = []
        for i, item in enumerate(stmt.items):
            expr = item.expr
            if agg_map is not None:
                expr = substitute(expr, agg_map)
            exprs.append(expr)
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(f"col{i}")

        # ORDER BY may reference select aliases or pre-projection columns;
        # all keys must sort together, so alias references are expanded to
        # their select expressions and the whole sort runs below the
        # projection.
        sort_items: list[OrderItem] = []
        for item in order_items:
            expr = item.expr
            if (
                isinstance(expr, ColumnRef)
                and expr.qualifier is None
                and expr.name in names
            ):
                expr = exprs[names.index(expr.name)]
            elif agg_map is not None:
                expr = substitute(expr, agg_map)
            sort_items.append(OrderItem(expr, item.ascending))
        # a chain scan may already deliver the requested order
        if sort_items and self._order_satisfied(plan, sort_items):
            sort_items = []
        # ORDER BY + LIMIT without DISTINCT fuses into a Top-N heap
        # (DISTINCT must deduplicate before the limit applies, which
        # breaks the fusion).
        if sort_items and stmt.limit is not None and not stmt.distinct:
            plan = TopNOp(plan, sort_items, stmt.limit)
            return ProjectOp(plan, exprs, names)
        if sort_items:
            plan = SortOp(plan, sort_items, spill=self.spill)
        plan = ProjectOp(plan, exprs, names)
        if stmt.distinct:
            plan = DistinctOp(plan)
        if stmt.limit is not None:
            plan = LimitOp(plan, stmt.limit)
        return plan

    @staticmethod
    def _order_satisfied(plan: PhysicalOp, sort_items: list[OrderItem]) -> bool:
        """Whether the plan's interesting order already covers the sort.

        Chain scans emit rows in key order; if the requested ORDER BY is
        a prefix-match of that order (same columns, same directions),
        the sort is redundant and is elided.
        """
        if len(sort_items) > len(plan.ordering):
            return False
        for item, (qualifier, name, ascending) in zip(
            sort_items, plan.ordering
        ):
            if not isinstance(item.expr, ColumnRef):
                return False
            if item.ascending != ascending:
                return False
            try:
                wanted = plan.output.resolve(item.expr)
                provided = plan.output.resolve(ColumnRef(name, qualifier))
            except PlanningError:
                return False
            if wanted != provided:
                return False
        return True

    # ------------------------------------------------------------------
    # helper reused by DML: plan a filtered scan of one table
    # ------------------------------------------------------------------
    def plan_table_filter(self, table_name: str, where: Optional[Expr]) -> PhysicalOp:
        info = self.catalog.lookup(table_name)
        binding = _Binding(info.name, info)
        if where is not None:
            where = self.resolve_subqueries(where)
        conjuncts = split_conjuncts(where)
        for conjunct in conjuncts:
            self._bindings_of(conjunct, [binding])  # validates columns
        plan = self._fuse_pipelines(self._access_path(binding, conjuncts))
        return self._stamp(plan)


def _and_all(conjuncts: list[Expr]) -> Optional[Expr]:
    expr: Optional[Expr] = None
    for conjunct in conjuncts:
        expr = conjunct if expr is None else BinaryOp("AND", expr, conjunct)
    return expr
