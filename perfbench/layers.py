"""Per-layer metrics of the traced run, named ``<kind>.<layer>.<quantity>``.

Each quantity is per op of its kind. ``_us``/``_ms`` quantities are the
inclusive time of the named call; ``self_us`` is the layer's own time
with its child spans taken out. A kind lists only the layers that do
work for it; on a workload that does not run a kind its metrics read 0.
``epoch`` is the ``verify_now()`` epoch close that ends each timed cycle.
"""

from __future__ import annotations

from tracer import CALLS, INCL, SELF

_POINT = [
    "core.client.self_us",
    "core.portal.self_us",
    "core.portal.digest_us",
    "crypto.mac_calls",
    "crypto.mac_us",
    "crypto.prf_calls",
    "crypto.prf_us",
    "sql.plan_cache.us",
    "sql.plan_cache.hit_ratio",
    "sql.plan_cache.clone_us",
    "storage.record.decodes",
    "storage.record.decode_us",
    "storage.table_store.self_us",
    "memory.verified.cells_read",
    "memory.verified.self_us",
    "memory.cache.hit_ratio",
    "sgx.ecalls",
    "sgx.cycles",
    "shard.requests",
    "shard.round_trip_us",
    "shard.wire_us",
    "obs.instrument_lookups",
]
_SCAN = [
    "sql.operators.self_us",
    "sql.operators.rows_examined_per_row",
    "crypto.prf_calls",
    "crypto.prf_us",
    "storage.record.decodes",
    "storage.record.decode_us",
    "storage.table_store.calls",
    "storage.table_store.self_us",
    "memory.verified.cells_read",
    "memory.verified.self_us",
    "memory.cache.lookups",
    "memory.cache.hit_ratio",
    "sgx.cycles",
    "shard.requests",
    "shard.round_trip_us",
    "shard.worker_us",
    "shard.merge_us",
]


def _ops(*classes: str) -> list[str]:
    return [f"sql.operators.{cls}.self_us" for cls in classes]


KINDS = {
    "read": _POINT
    + [
        "sql.operators.self_us",
        "shard.envelope_us",
        "shard.route_us",
    ],
    "write": _POINT
    + [
        "storage.record.encodes",
        "storage.record.encode_us",
        "memory.verified.cells_written",
        "crypto.sethash_adds",
        "wal.commit_us",
        "wal.syncs",
        "wal.append_us",
        "wal.bytes_per_user_byte",
        "shard.envelope_us",
    ],
    "agg": _SCAN + _ops("SeqScanOp", "HashAggregateOp"),
    "range": _SCAN + _ops("SeqScanOp", "FusedScanFilterProjectOp"),
    "epoch": ["memory.verifier.pass_ms", "memory.verifier.cells_scanned"],
}

#: every per-layer metric name, in BENCHMARK.json order
NAMES = [f"{kind}.{q}" for kind, quantities in KINDS.items() for q in quantities]
NAMES.append("trace.overhead_ratio")


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its suffix."""
    if name.endswith(("_us", ".us")):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_row", "_per_user_byte")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer, wal_bytes_per_user_byte: float, overhead_ratio: float) -> dict:
    """Every name in :data:`NAMES`, from a finished traced run."""
    out = {}
    for name in NAMES[:-1]:
        kind, quantity = name.split(".", 1)
        n = tracer.ops.get(kind, 0)
        out[name] = (
            _quantity(tracer, kind, quantity, n, wal_bytes_per_user_byte)
            if n
            else 0.0
        )
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def _quantity(tracer, kind, quantity, n, wal_ratio) -> float:
    def total(span, field):
        return tracer.totals[(kind, span)][field]

    def value(key):
        return tracer.values[(kind, key)]

    us = lambda seconds: seconds / n * 1e6  # noqa: E731
    per_op = lambda count: count / n  # noqa: E731
    if quantity.startswith("sql.operators.") and quantity.endswith("Op.self_us"):
        return us(value("op." + quantity.split(".")[2]))
    table = {
        "core.client.self_us": lambda: us(total("core.client", SELF)),
        "core.portal.self_us": lambda: us(total("core.portal", SELF)),
        "core.portal.digest_us": lambda: us(total("core.portal.digest", INCL)),
        "crypto.mac_calls": lambda: per_op(total("crypto.mac", CALLS)),
        "crypto.mac_us": lambda: us(total("crypto.mac", INCL)),
        "crypto.prf_calls": lambda: per_op(total("crypto.prf", CALLS)),
        "crypto.prf_us": lambda: us(total("crypto.prf", INCL)),
        "crypto.sethash_adds": lambda: per_op(value("crypto.sethash_add")),
        "sql.plan_cache.us": lambda: us(total("sql.plan_cache", INCL)),
        "sql.plan_cache.hit_ratio": lambda: 1.0
        - _ratio(total("sql.parse", CALLS), total("sql.plan_cache", CALLS))
        if total("sql.plan_cache", CALLS)
        else 0.0,
        "sql.plan_cache.clone_us": lambda: us(total("sql.clone", INCL)),
        "sql.operators.self_us": lambda: us(value("op.self")),
        "sql.operators.rows_examined_per_row": lambda: _ratio(
            value("op.examined"), tracer.rows_returned[kind]
        ),
        "storage.record.decodes": lambda: per_op(total("storage.record.decode", CALLS)),
        "storage.record.decode_us": lambda: us(total("storage.record.decode", INCL)),
        "storage.record.encodes": lambda: per_op(total("storage.record.encode", CALLS)),
        "storage.record.encode_us": lambda: us(total("storage.record.encode", INCL)),
        "storage.table_store.calls": lambda: per_op(total("storage.table_store", CALLS)),
        "storage.table_store.self_us": lambda: us(total("storage.table_store", SELF)),
        "memory.verified.cells_read": lambda: per_op(value("verified_reads")),
        "memory.verified.cells_written": lambda: per_op(value("verified_writes")),
        "memory.verified.self_us": lambda: us(total("memory.verified", SELF)),
        "memory.cache.lookups": lambda: per_op(value("cache.lookups")),
        "memory.cache.hit_ratio": lambda: _ratio(
            value("cache.hits"), value("cache.lookups")
        ),
        "memory.verifier.pass_ms": lambda: us(total("memory.verifier", INCL)) / 1e3,
        "memory.verifier.cells_scanned": lambda: per_op(value("verifier_cells_scanned")),
        "wal.commit_us": lambda: us(total("wal.commit", INCL)),
        "wal.syncs": lambda: per_op(value("wal.syncs")),
        "wal.append_us": lambda: us(total("wal.append", INCL)),
        "wal.bytes_per_user_byte": lambda: wal_ratio,
        "sgx.ecalls": lambda: per_op(value("ecalls")),
        "sgx.cycles": lambda: per_op(value("cycles")),
        "shard.requests": lambda: per_op(total("shard.link", CALLS)),
        "shard.round_trip_us": lambda: us(total("shard.link", INCL)),
        "shard.worker_us": lambda: us(total("shard.worker", INCL)),
        "shard.wire_us": lambda: us(
            total("shard.link", INCL) - total("shard.worker", INCL)
        ),
        "shard.envelope_us": lambda: us(total("shard.envelope", INCL)),
        "shard.route_us": lambda: us(total("shard.route", INCL)),
        "shard.merge_us": lambda: us(total("shard.gather", SELF)),
        "obs.instrument_lookups": lambda: per_op(value("obs.lookup")),
    }
    return float(table[quantity]())
