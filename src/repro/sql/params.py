"""Runtime binding of ``?`` placeholders.

A prepared statement's compiled closures and cached physical plan are
shared across executions and threads, so parameter *values* can never
live on the plan itself. Instead each execution binds its values into a
:class:`contextvars.ContextVar` for exactly the duration of the
statement (:func:`bound`), and everything compiled from a
:class:`~repro.sql.ast_nodes.Parameter` node resolves through
:func:`resolve` when it actually runs. Context variables are
per-thread (and per-async-task), so two sessions executing the same
cached plan concurrently each see their own values.

Where a parameter is sargable — the key of a point lookup, a bound of
a range scan — the plan keeps its :class:`Parameter` node as the value,
and the scan operators resolve it at ``batches()`` time, inside the
execution's binding scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.sql.ast_nodes import Parameter

_ACTIVE: ContextVar[tuple | None] = ContextVar("sql_params", default=None)


def resolve(index: int) -> Any:
    """The value bound for placeholder ``index`` in this execution."""
    values = _ACTIVE.get()
    if values is None or index >= len(values):
        raise ExecutionError(
            f"statement references parameter ?{index + 1} but only "
            f"{0 if values is None else len(values)} value(s) are bound — "
            "execute it through a prepared statement with params"
        )
    return values[index]


def resolve_maybe(value: Any) -> Any:
    """Pass literals through; resolve :class:`Parameter` placeholders."""
    if isinstance(value, Parameter):
        return resolve(value.index)
    return value


@contextmanager
def bound(values: Sequence[Any] | None):
    """Bind ``values`` as the active parameters for the enclosed scope."""
    token = _ACTIVE.set(tuple(values) if values is not None else None)
    try:
        yield
    finally:
        _ACTIVE.reset(token)
