"""Expression compilation and evaluation.

Expressions are compiled once per plan into Python closures over
:class:`~repro.sql.batch.ColumnBatch` objects, with columns resolved to
positions against a :class:`RowSchema`; each closure returns one value
per row of the batch. NULL follows (lightweight) three-valued logic:
comparisons and arithmetic involving NULL yield NULL, ``AND``/``OR``/
``NOT`` combine unknowns the SQL way, ``IN`` misses against a list
holding NULL are NULL, and filters treat a NULL predicate result as
not-satisfied.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Optional

from repro.errors import ExecutionError, PlanningError
from repro.sql import params as _params
from repro.sql.ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    ExistsSubquery,
    Expr,
    InList,
    InSet,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Parameter,
    ScalarSubquery,
    UnaryOp,
)

class RowSchema:
    """The (qualifier, name) bindings of a row pipeline's positions."""

    def __init__(self, bindings: list[tuple[Optional[str], str]]):
        self.bindings = list(bindings)

    def resolve(self, ref: ColumnRef) -> int:
        """Position of a column reference; ambiguity and misses raise."""
        matches = [
            i
            for i, (qualifier, name) in enumerate(self.bindings)
            if name == ref.name
            and (ref.qualifier is None or ref.qualifier == qualifier)
        ]
        if not matches:
            raise PlanningError(f"unknown column {ref!r}")
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column {ref!r}")
        return matches[0]

    def concat(self, other: "RowSchema") -> "RowSchema":
        return RowSchema(self.bindings + other.bindings)

    @property
    def names(self) -> list[str]:
        return [name for _, name in self.bindings]

    def __len__(self) -> int:
        return len(self.bindings)

    def __repr__(self) -> str:
        return f"RowSchema({self.bindings})"


# ----------------------------------------------------------------------
# three-valued helpers
# ----------------------------------------------------------------------
def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _not3(a):
    return None if a is None else (not a)


def _null_guard(fn):
    def wrapped(a, b):
        if a is None or b is None:
            return None
        try:
            return fn(a, b)
        except TypeError:
            # e.g. 'x' < 3: the typed error the scans raise for a key
            # of the wrong type, not a bare TypeError
            raise ExecutionError(f"cannot compare {a!r} with {b!r}") from None

    return wrapped


def _between(value, lo, hi, negated: bool):
    if value is None or lo is None or hi is None:
        return None
    try:
        hit = lo <= value <= hi
    except TypeError:
        raise ExecutionError(
            f"cannot compare {value!r} with BETWEEN {lo!r} AND {hi!r}"
        ) from None
    return (not hit) if negated else hit


_ARITH = {
    "+": _null_guard(operator.add),
    "-": _null_guard(operator.sub),
    "*": _null_guard(operator.mul),
    "%": _null_guard(operator.mod),
}
_COMPARE = {
    "=": _null_guard(operator.eq),
    "!=": _null_guard(operator.ne),
    "<": _null_guard(operator.lt),
    "<=": _null_guard(operator.le),
    ">": _null_guard(operator.gt),
    ">=": _null_guard(operator.ge),
}


def _divide(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ZeroDivisionError("division by zero in SQL expression")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) into an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


# ----------------------------------------------------------------------
# compilation (column-at-a-time)
# ----------------------------------------------------------------------
#: a batch evaluator: ColumnBatch → list of one value per row
BatchFn = Callable[[Any], list]


def compile_expr(expr: Expr, schema: RowSchema) -> BatchFn:
    """Compile an expression to a batch → values closure.

    Evaluators are *column-at-a-time*: a column reference returns the
    batch's column list without copying (derived lazily for row-backed
    batches, so only referenced columns are ever materialized), and
    every combinator maps the scalar three-valued helpers over whole
    column lists — one closure dispatch per batch per node instead of
    one per row per node. This is the engine's only expression
    compiler: consumers that need a single value evaluate over a
    one-row batch (``ColumnBatch([], 1)`` for constants).
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.length
    if isinstance(expr, Parameter):
        index = expr.index
        return lambda batch: [_params.resolve(index)] * batch.length
    if isinstance(expr, ColumnRef):
        position = schema.resolve(expr)
        return lambda batch: batch.column(position)
    if isinstance(expr, BinaryOp):
        lf = compile_expr(expr.left, schema)
        rf = compile_expr(expr.right, schema)
        if expr.op == "AND":
            return lambda batch: [
                _and3(a, b) for a, b in zip(lf(batch), rf(batch))
            ]
        if expr.op == "OR":
            return lambda batch: [
                _or3(a, b) for a, b in zip(lf(batch), rf(batch))
            ]
        if expr.op == "/":
            return lambda batch: [
                _divide(a, b) for a, b in zip(lf(batch), rf(batch))
            ]
        fn = _ARITH.get(expr.op) or _COMPARE.get(expr.op)
        if fn is None:
            raise PlanningError(f"unsupported operator {expr.op!r}")
        return lambda batch: [fn(a, b) for a, b in zip(lf(batch), rf(batch))]
    if isinstance(expr, UnaryOp):
        inner = compile_expr(expr.operand, schema)
        if expr.op == "NOT":
            return lambda batch: [_not3(v) for v in inner(batch)]
        if expr.op == "NEG":
            return lambda batch: [None if v is None else -v for v in inner(batch)]
        raise PlanningError(f"unsupported unary operator {expr.op!r}")
    if isinstance(expr, IsNull):
        if isinstance(expr.operand, ColumnRef):
            # read the column's validity bitmap instead of testing cells
            position = schema.resolve(expr.operand)
            if expr.negated:
                return lambda batch: _validity_mask(batch, position, True)
            return lambda batch: _validity_mask(batch, position, False)
        inner = compile_expr(expr.operand, schema)
        if expr.negated:
            return lambda batch: [v is not None for v in inner(batch)]
        return lambda batch: [v is None for v in inner(batch)]
    if isinstance(expr, Between):
        inner = compile_expr(expr.operand, schema)
        low = compile_expr(expr.low, schema)
        high = compile_expr(expr.high, schema)
        negated = expr.negated

        def evaluate_between(batch):
            values, lows, highs = inner(batch), low(batch), high(batch)
            try:
                return [
                    None
                    if value is None or lo is None or hi is None
                    else ((not (lo <= value <= hi)) if negated else lo <= value <= hi)
                    for value, lo, hi in zip(values, lows, highs)
                ]
            except TypeError:
                # re-evaluate value by value to name the culprit
                for value, lo, hi in zip(values, lows, highs):
                    _between(value, lo, hi, negated)
                raise

        return evaluate_between
    if isinstance(expr, Like):
        inner = compile_expr(expr.operand, schema)
        regex_match = like_to_regex(expr.pattern).match
        negated = expr.negated

        def evaluate_like(batch):
            return [
                None
                if value is None
                else (
                    (regex_match(value) is None)
                    if negated
                    else (regex_match(value) is not None)
                )
                for value in inner(batch)
            ]

        return evaluate_like
    if isinstance(expr, InSet):
        inner = compile_expr(expr.operand, schema)
        values = expr.values
        had_null = expr.had_null
        negated = expr.negated

        def evaluate_in_set(batch):
            out = []
            for value in inner(batch):
                if value is None:
                    out.append(None)
                    continue
                hit = value in values
                if not hit and had_null:
                    out.append(None)  # miss against a NULL-bearing set
                    continue
                out.append((not hit) if negated else hit)
            return out

        return evaluate_in_set
    if isinstance(expr, InList):
        inner = compile_expr(expr.operand, schema)
        item_fns = [compile_expr(item, schema) for item in expr.items]
        negated = expr.negated

        def evaluate_in_list(batch):
            out = []
            # one tuple of item values per row (items may be columns)
            for value, items in zip(
                inner(batch), zip(*[fn(batch) for fn in item_fns])
            ):
                if value is None:
                    out.append(None)
                    continue
                hit = value in items
                if not hit and None in items:
                    out.append(None)  # miss against a NULL-bearing list
                    continue
                out.append((not hit) if negated else hit)
            return out

        return evaluate_in_list
    if isinstance(expr, (ScalarSubquery, InSubquery, ExistsSubquery)):
        raise PlanningError(
            "subqueries must be resolved by the planner before compilation "
            "(standalone expression compilation does not execute SQL)"
        )
    if isinstance(expr, Aggregate):
        raise PlanningError(
            f"aggregate {expr!r} is only valid in SELECT or HAVING of a "
            f"grouped query"
        )
    raise PlanningError(f"cannot compile expression {expr!r}")


def _validity_mask(batch, position: int, negated: bool) -> list:
    """IS [NOT] NULL of one column, decoded from its validity bitmap."""
    bits = batch.validity(position)
    if negated:  # IS NOT NULL: bit set ⇒ non-NULL ⇒ True
        return [bool(bits >> j & 1) for j in range(batch.length)]
    return [not (bits >> j & 1) for j in range(batch.length)]


def compile_predicate(expr: Expr, schema: RowSchema) -> BatchFn:
    """Batch predicate: a keep-mask where NULL counts as not-satisfied."""
    fn = compile_expr(expr, schema)
    return lambda batch: [value is True for value in fn(batch)]


# ----------------------------------------------------------------------
# AST utilities shared with the planner
# ----------------------------------------------------------------------
def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def referenced_columns(expr: Expr) -> set[ColumnRef]:
    """All column references occurring in an expression."""
    refs: set[ColumnRef] = set()

    def walk(node):
        if isinstance(node, ColumnRef):
            refs.add(node)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Like):
            walk(node.operand)
        elif isinstance(node, Aggregate):
            if node.argument is not None:
                walk(node.argument)
        elif isinstance(node, (InSubquery, InSet)):
            # subquery bodies are uncorrelated: only the operand refers
            # to the outer row
            walk(node.operand)

    walk(expr)
    return refs


def find_aggregates(expr: Expr) -> list[Aggregate]:
    """All aggregate calls in an expression, in discovery order."""
    found: list[Aggregate] = []

    def walk(node):
        if isinstance(node, Aggregate):
            found.append(node)
            return  # aggregates do not nest
        if isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Like):
            walk(node.operand)
        elif isinstance(node, (InSubquery, InSet)):
            walk(node.operand)

    walk(expr)
    return found


def substitute(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Structurally replace subexpressions (used to rewrite aggregates)."""
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, IsNull):
        return IsNull(substitute(expr.operand, mapping), expr.negated)
    if isinstance(expr, InList):
        return InList(
            substitute(expr.operand, mapping),
            tuple(substitute(item, mapping) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, Between):
        return Between(
            substitute(expr.operand, mapping),
            substitute(expr.low, mapping),
            substitute(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, Like):
        return Like(substitute(expr.operand, mapping), expr.pattern, expr.negated)
    if isinstance(expr, InSet):
        return InSet(
            substitute(expr.operand, mapping),
            expr.values,
            expr.had_null,
            expr.negated,
        )
    return expr
