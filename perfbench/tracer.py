"""Outside-in span recorder for the traced run.

:meth:`Tracer.install` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent) per call. It
runs before the system is built, because construction captures some of
them: ``VeriDB.__init__`` registers the bound ``portal.submit`` as the
ECall and ``connect()`` closes over it. Functions other modules import
by name (``digest_result``, ``parse_statement_with_params``, the shard
envelope helpers) are patched in each importing module's namespace.
Nothing in the program changes; :meth:`Tracer.uninstall` restores it.

A span's self time is its duration minus the part its child spans
cover. Children on another thread (the shard scatter pool) attach to
the client thread's innermost open span, and their intervals are merged
before subtraction, so parallel children are not counted twice.

Every call is folded into per-(op kind, span name) totals. The spans
themselves are kept in memory for the first :data:`SAMPLE_OPS` ops of
each kind (one GROUP BY alone makes ~10^5 spans) and written out by
:meth:`Tracer.dump` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

#: ops per kind whose spans are kept in full for the dump
SAMPLE_OPS = 5
#: hard cap on kept spans
SPAN_CAP = 100_000

#: (module, owner, attribute, span name); owner None = module function
SPANS = [
    ("repro.core.client", "VeriDBClient", "execute", "core.client"),
    ("repro.core.portal", "QueryPortal", "submit", "core.portal"),
    ("repro.core.portal", None, "digest_result", "core.portal.digest"),
    ("repro.core.client", None, "digest_result", "core.portal.digest"),
    ("repro.crypto.mac", "MessageAuthenticator", "tag", "crypto.mac"),
    ("repro.crypto.mac", "MessageAuthenticator", "verify", "crypto.mac"),
    ("repro.crypto.prf", "PRF", "cell", "crypto.prf"),
    ("repro.sql.executor", "QueryEngine", "statement_entry", "sql.plan_cache"),
    ("repro.sql.executor", None, "parse_statement_with_params", "sql.parse"),
    ("repro.sql.parser", None, "parse_statement_with_params", "sql.parse"),
    ("repro.sql.operators.base", "PhysicalOp", "fresh", "sql.clone"),
    ("repro.storage.record", "RecordCodec", "decode", "storage.record.decode"),
    ("repro.storage.record", "RecordCodec", "encode", "storage.record.encode"),
    ("repro.storage.table_store", "VerifiableTable", "get", "storage.table_store"),
    ("repro.storage.table_store", "VerifiableTable", "scan", "storage.table_store"),
    ("repro.storage.table_store", "VerifiableTable", "insert", "storage.table_store"),
    ("repro.storage.table_store", "VerifiableTable", "update", "storage.table_store"),
    ("repro.storage.table_store", "VerifiableTable", "delete", "storage.table_store"),
    ("repro.memory.verified", "VerifiedMemory", "read", "memory.verified"),
    ("repro.memory.verified", "VerifiedMemory", "read_many", "memory.verified"),
    ("repro.memory.verified", "VerifiedMemory", "write", "memory.verified"),
    ("repro.memory.verified", "VerifiedMemory", "alloc", "memory.verified"),
    ("repro.memory.verified", "VerifiedMemory", "free", "memory.verified"),
    ("repro.memory.verifier", "Verifier", "run_pass", "memory.verifier"),
    ("repro.shard.transport", "_BaseShardLink", "call", "shard.link"),
    ("repro.shard.worker", "ShardWorker", "handle", "shard.worker"),
    ("repro.shard.transport", None, "seal_request", "shard.envelope"),
    ("repro.shard.worker", None, "open_request", "shard.envelope"),
    ("repro.shard.worker", None, "seal_reply", "shard.envelope"),
    ("repro.shard.envelope", "ReplyVerifier", "open", "shard.envelope"),
    ("repro.shard.router", "ScatterRouter", "plan_select", "shard.route"),
    ("repro.shard.plan", "ShardGatherOp", "batches", "shard.gather"),
]
#: calls counted but not timed
COUNTS = [
    ("repro.crypto.sethash", "SetHash", "add", "crypto.sethash_add"),
    ("repro.obs.metrics", "MetricsRegistry", "counter", "obs.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "histogram", "obs.lookup"),
]
#: WAL appends; an append that leaves nothing pending synced a full group
WAL_APPENDS = ("append_insert", "append_update", "append_delete")
#: engine entry points whose ExecutionResult plans are walked
ENGINE = [
    ("repro.sql.executor", "QueryEngine", "execute"),
    ("repro.sql.executor", "QueryEngine", "execute_prepared"),
    ("repro.shard.sharded", "ShardedDatabase", "execute"),
]
#: coordinator operators that stand for shard round trips, not SQL work
SHARD_OPS = ("ShardGatherOp", "ShardFragmentOp")

CALLS, INCL, SELF = 0, 1, 2


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Span and count recorder; inert until :meth:`start`."""

    def __init__(self):
        self._state_counts = None
        self.active = False
        self._keep = False
        self.kind = None
        self.op = -1
        self._local = threading.local()
        self._main: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list = []
        self._plans: list = []
        self._before: dict = {}
        #: (kind, span name) -> [calls, inclusive s, self s]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        #: (kind, counter name) -> summed value
        self.values = defaultdict(float)
        self.ops = defaultdict(int)
        self.rows_returned = defaultdict(int)
        self.spans: list = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module, owner, attr, name in SPANS:
            self._patch(module, owner, attr, lambda fn, n=name: self._span(n, fn))
        for module, owner, attr, name in COUNTS:
            self._patch(module, owner, attr, lambda fn, n=name: self._count(n, fn))
        for module, owner, attr in ENGINE:
            self._patch(module, owner, attr, self._engine)
        self._patch(
            "repro.memory.cache", "RecordCache", "lookup",
            lambda fn: self._span("memory.cache", fn, after=self._cache_one),
        )
        self._patch(
            "repro.memory.cache", "RecordCache", "lookup_many",
            lambda fn: self._span("memory.cache", fn, after=self._cache_many),
        )
        for attr in WAL_APPENDS:
            self._patch(
                "repro.wal.log", "WriteAheadLog", attr,
                lambda fn: self._span("wal.append", fn, after=self._wal_append),
            )
        self._patch(
            "repro.wal.log", "WriteAheadLog", "commit",
            lambda fn: self._span(
                "wal.commit", fn,
                before=lambda args: args[0].pending_records > 0,
                after=self._wal_commit,
            ),
        )

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, module, owner, attr, make) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            original = target.__dict__[attr]
        else:
            original = getattr(target, attr)
        setattr(target, attr, functools.wraps(original)(make(original)))
        self._patches.append((target, attr, original))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent, foreign = stack[-1], False
            else:
                main = tracer._main
                parent = main[-1] if main and main is not stack else None
                foreign = parent is not None
            token = before(args) if before is not None else None
            frame = [name, 0.0, 0.0, [], next(tracer._ids)]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end, parent, foreign, stack)
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _close(self, frame, end, parent, foreign, stack) -> None:
        name, start, child, intervals, span_id = frame
        duration = end - start
        if intervals:
            child += _union(intervals)
        if parent is not None:
            if foreign:
                parent[3].append((start, end))
            else:
                parent[2] += duration
        outermost = not any(f[0] == name for f in stack)
        with self._lock:
            acc = self.totals[(self.kind, name)]
            acc[CALLS] += 1
            if outermost:
                acc[INCL] += duration
            acc[SELF] += duration - child
            if self._keep and len(self.spans) < SPAN_CAP:
                parent_id = parent[4] if parent is not None else 0
                self.spans.append(
                    (self.op, self.kind, span_id, parent_id, name, start, end)
                )

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer._add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _engine(self, fn):
        tracer = self
        timed = self._span("sql.engine", fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            if tracer.active and getattr(result, "plan", None) is not None:
                tracer._plans.append(result.plan)
            return result

        return wrapper

    def _add(self, name, amount) -> None:
        with self._lock:
            self.values[(self.kind, name)] += amount

    def _cache_one(self, _args, result, _token) -> None:
        self._add("cache.lookups", 1)
        self._add("cache.hits", result is not None)

    def _cache_many(self, _args, result, _token) -> None:
        self._add("cache.lookups", len(result))
        self._add("cache.hits", sum(1 for r in result if r is not None))

    def _wal_commit(self, _args, _result, had_pending) -> None:
        self._add("wal.syncs", int(had_pending))

    def _wal_append(self, args, _result, _token) -> None:
        self._add("wal.syncs", int(args[0].pending_records == 0))

    # ------------------------------------------------------------------
    # op boundaries (called by the driver on the client thread)
    # ------------------------------------------------------------------
    def start(self, state_counts) -> None:
        """Start recording; ``state_counts()`` returns the summed
        program counters read around every op."""
        self._state_counts = state_counts
        self._main = self._local.stack = []
        self.active = True

    def stop(self) -> None:
        self.active = False

    def begin(self, kind: str, op: int) -> None:
        if not self.active:
            return
        self.kind, self.op = kind, op
        self._keep = self.ops[kind] < SAMPLE_OPS
        self._plans = []
        self._before = self._state_counts()

    def end(self, rows_returned: int) -> None:
        if not self.active:
            return
        after = self._state_counts()
        kind = self.kind
        self.ops[kind] += 1
        self.rows_returned[kind] += rows_returned
        for key, value in after.items():
            self.values[(kind, key)] += value - self._before[key]
        seen = set()
        for plan in self._plans:
            if id(plan) in seen:
                continue
            seen.add(id(plan))
            for node in plan.walk():
                cls = type(node).__name__
                if cls in SHARD_OPS:
                    continue
                self.values[(kind, f"op.{cls}")] += node.self_seconds
                self.values[(kind, "op.self")] += node.self_seconds
                if node.is_scan:
                    self.values[(kind, "op.examined")] += node.rows_out
        self._plans = []

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write kept spans and per-kind totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for op, kind, span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": op, "kind": kind, "span": span_id,
                            "parent": parent, "name": name,
                            "start": start, "end": end,
                        }
                    )
                    + "\n"
                )
            for (kind, name), (calls, incl, self_s) in sorted(self.totals.items()):
                out.write(
                    json.dumps(
                        {
                            "total": name, "kind": kind, "calls": calls,
                            "inclusive_s": incl, "self_s": self_s,
                            "ops": self.ops[kind],
                        }
                    )
                    + "\n"
                )
