"""Sargability: the constraints a WHERE clause places on single columns.

One analysis serves the planner (a chained column's constraints become
a point lookup or range scan) and the shard pruner
(:func:`repro.shard.partition.prune_shards`). Only top-level conjuncts
of the shapes ``col <op> value`` (either operand order), ``col BETWEEN
value AND value`` and ``col IN (value, ...)`` count; anything else
stays a residual filter. A value is a literal or a ``?``'s
:class:`Parameter` node, so one analysis serves every binding: each
execution resolves the values and merges the bounds (:func:`tightest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    Literal,
    Parameter,
)

_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: marks an operand that is neither a literal nor a ``?`` placeholder
_NOT_A_VALUE = object()


@dataclass(frozen=True)
class Constraint:
    """``column <op> value``; for ``op == "in"`` the value is a tuple."""

    column: str
    op: str  # = < <= > >= in
    value: Any  # a literal or a Parameter (a tuple of them for "in")


def _value(expr: Expr) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Parameter):
        return expr
    return _NOT_A_VALUE


def conjunct_constraints(expr: Expr, binding: str | None = None) -> list[Constraint]:
    """The constraints one top-level conjunct ``expr`` places on one column.

    A qualified column reference counts only when its qualifier names
    ``binding`` (any qualifier passes when ``binding`` is None). The
    result is empty for a conjunct the analysis cannot use.
    """

    def column(e: Expr) -> str | None:
        if isinstance(e, ColumnRef) and (
            e.qualifier is None or binding is None or e.qualifier == binding
        ):
            return e.name
        return None

    if isinstance(expr, BinaryOp):
        op, left, right = expr.op, expr.left, expr.right
        if column(left) is None:
            left, right, op = right, left, _FLIP.get(op)
        name, value = column(left), _value(right)
        if name is None or op not in _FLIP or value is _NOT_A_VALUE:
            return []
        return [Constraint(name, op, value)]
    if isinstance(expr, Between) and not expr.negated:
        name = column(expr.operand)
        low, high = _value(expr.low), _value(expr.high)
        if name is None or _NOT_A_VALUE in (low, high):
            return []
        return [Constraint(name, ">=", low), Constraint(name, "<=", high)]
    if isinstance(expr, InList) and not expr.negated:
        name = column(expr.operand)
        values = tuple(_value(item) for item in expr.items)
        if name is None or _NOT_A_VALUE in values:
            return []
        return [Constraint(name, "in", values)]
    return []


def tightest(bounds: Iterable[tuple[str, Any]]) -> tuple[Any, Any, bool, bool]:
    """Merge resolved ``(op, value)`` bounds into one interval.

    Returns ``(lo, hi, include_lo, include_hi)``, the argument order of
    the verified scan and of the partitioners; a side with no bound is
    ``None``. ``=`` bounds both sides. The values must not be NULL
    (``None`` marks an open side): callers decide what a NULL means.
    """
    lo = hi = None
    include_lo = include_hi = True
    for op, value in bounds:
        if op in ("=", ">", ">="):
            inclusive = op != ">"
            if lo is None or value > lo or (value == lo and not inclusive):
                lo, include_lo = value, inclusive
        if op in ("=", "<", "<="):
            inclusive = op != "<"
            if hi is None or value < hi or (value == hi and not inclusive):
                hi, include_hi = value, inclusive
    return lo, hi, include_lo, include_hi
