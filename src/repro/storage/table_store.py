"""The verifiable table: storage operations plus secure access methods.

:class:`VerifiableTable` implements Algorithm 3's interface (Get /
Insert / Delete / Update, plus Register via page creation and Move via
relocation) over the heap, and the access methods of Section 5.2 on top:

* point lookup by primary key, returning a single-record presence or
  absence proof;
* verified range scans over any chained column, checking Figure 5's
  three conditions (left boundary, right boundary, contiguous key
  chain);
* sequential scan as a full-chain range scan.

All structural operations serialize on a per-table lock; cell-level
integrity is independently protected by the write-read consistent
memory, and the deferred-compaction hook cooperates with the verifier's
page scans (Section 4.3).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable

from repro.catalog.schema import Schema
from repro.catalog.types import BOTTOM, TOP
from repro.errors import IntegrityError, ProofError, StorageError
from repro.faults import default_fault_plane, sites as fault_sites
from repro.storage.compaction import CompactionPolicy
from repro.storage.locking import POINT_READ_RETRIES, ThreadSafeIndex
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapFile, RecordId
from repro.storage.keychain import (
    ChainLayout,
    PointProof,
    RangeProof,
    StoredRecord,
)
from repro.storage.record import RecordCodec


@dataclass
class TableStats:
    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    point_lookups: int = 0
    range_scans: int = 0
    proofs_checked: int = 0
    records_moved: int = 0
    extra: dict = field(default_factory=dict)


class VerifiableTable:
    """One relational table in the verifiable page-structured storage."""

    def __init__(self, name: str, schema: Schema, engine: StorageEngine):
        self.name = name
        self.schema = schema
        self.engine = engine
        self.layout = ChainLayout(schema)
        self.codec = RecordCodec()
        self.stats = TableStats()
        self.obs = engine.obs
        self.faults = default_fault_plane()
        #: write-ahead log, attached by Catalog.register when the
        #: database is durable; None (the default) for standalone and
        #: spill/temporary tables, whose writes must stay off the log
        self.wal = None
        self._ctr_point_retries = self.obs.counter("storage.point_read_retries")
        self._ctr_moves = self.obs.counter("storage.records_moved")
        self._hist_splice = self.obs.histogram("storage.chain_splice_seconds")
        self._lock = threading.RLock()
        self._row_count = 0
        self._compaction = CompactionPolicy(self, engine.config)
        self.heap = HeapFile(engine, on_scan=self._compaction.on_page_scan)
        #: One untrusted B+-tree per chain, mapping chain key -> RecordId.
        #: Thread-safe: point reads consult them without the table lock.
        self.indexes = [ThreadSafeIndex() for _ in self.layout.chains]
        for chain_id in range(self.layout.n_chains):
            sentinel = self.layout.sentinel(chain_id, TOP)
            rid = self.heap.insert(self._encode(sentinel))
            self.indexes[chain_id].insert(BOTTOM, rid)

    # ------------------------------------------------------------------
    # write interface
    # ------------------------------------------------------------------
    def insert(self, row: Iterable[Any]) -> RecordId:
        """Insert a row, splicing it into every key chain."""
        if not self.obs.enabled:
            return self._insert(row)
        start = perf_counter()
        try:
            return self._insert(row)
        finally:
            self._hist_splice.observe(perf_counter() - start)

    def _insert(self, row: Iterable[Any]) -> RecordId:
        # Injection site: the splice is interrupted before any chain or
        # heap mutation — no partial splice can exist, an identical
        # retry of the insert is safe.
        self.faults.check(fault_sites.SPLICE_INTERRUPTION)
        row = self.schema.validate_row(row)
        with self._lock:
            pk = row[self.layout.pk_index]
            if self.indexes[0].search(pk) is not None:
                raise StorageError(
                    f"duplicate primary key {pk!r} in table {self.name!r}"
                )
            # Phase 1: read each chain's predecessor to learn our successor.
            chain_keys = [
                self.layout.chain_key(c, row)
                for c in range(self.layout.n_chains)
            ]
            nexts = []
            for chain_id, ckey in enumerate(chain_keys):
                pred_stored = self._predecessor(chain_id, ckey)[1]
                nk = pred_stored.next_key(chain_id)
                if not nk > ckey:
                    raise ProofError(
                        f"chain {chain_id} predecessor nKey {nk!r} does not "
                        f"bound new key {ckey!r}"
                    )
                nexts.append(nk)
            # Phase 2: store the new record.
            stored = self.layout.stored_from_row(row, nexts)
            rid = self.heap.insert(self._encode(stored))
            # Phase 3: point each predecessor's nKey at us (re-resolving the
            # predecessor each time: an earlier nKey write may have moved it).
            for chain_id, ckey in enumerate(chain_keys):
                pred_rid, pred_stored = self._predecessor(chain_id, ckey)
                pred_stored.chain_nexts[chain_id] = ckey
                self._write_stored(pred_rid, pred_stored)
            for chain_id, ckey in enumerate(chain_keys):
                self.indexes[chain_id].insert(ckey, rid)
            self._row_count += 1
            self.stats.inserts += 1
            # logged inside the table lock, after the splice committed:
            # log order equals apply order, so replay reproduces state
            if self.wal is not None:
                self.wal.append_insert(self.name, row)
            return rid

    def delete(self, pk: Any) -> bool:
        """Delete by primary key; False (with absence proof) if missing."""
        # Injection site: mirror of the insert interruption — fires
        # before the unlink touches anything.
        self.faults.check(fault_sites.SPLICE_INTERRUPTION)
        with self._lock:
            rid, stored, proof = self._locate_pk(pk)
            proof.check()
            self.stats.proofs_checked += 1
            if rid is None:
                return False
            # Unlink from every chain: predecessor inherits our nKey.
            for chain_id in range(self.layout.n_chains):
                ckey = stored.key(chain_id)
                pred_rid, pred_stored = self._strict_predecessor(chain_id, ckey)
                if pred_stored.next_key(chain_id) != ckey:
                    raise ProofError(
                        f"chain {chain_id} corrupt at delete: predecessor "
                        f"nKey {pred_stored.next_key(chain_id)!r} != {ckey!r}"
                    )
                pred_stored.chain_nexts[chain_id] = stored.next_key(chain_id)
                self._write_stored(pred_rid, pred_stored)
            self.heap.delete(rid)
            for chain_id in range(self.layout.n_chains):
                self.indexes[chain_id].delete(stored.key(chain_id))
            self._row_count -= 1
            self.stats.deletes += 1
            # the full old row rides in the record: replay and the log's
            # content digest both need the removed element, not just pk
            if self.wal is not None:
                self.wal.append_delete(
                    self.name, self.layout.row_from_stored(stored)
                )
            return True

    def update(self, pk: Any, updates: dict) -> bool:
        """Update columns of the row keyed ``pk``; False if missing.

        Chain-key columns may change; that is executed as delete+insert
        (the key chains must be re-spliced). Pure data updates rewrite
        the record, in place when it fits, else via a protected Move.
        """
        unknown = set(updates) - set(self.schema.column_names)
        if unknown:
            raise StorageError(f"unknown columns in update: {sorted(unknown)}")
        with self._lock:
            rid, stored, proof = self._locate_pk(pk)
            proof.check()
            self.stats.proofs_checked += 1
            if rid is None:
                return False
            row = self.layout.row_from_stored(stored)
            new_row = list(row)
            for name, value in updates.items():
                new_row[self.schema.column_index(name)] = value
            new_row = self.schema.validate_row(new_row)
            chains_changed = any(
                new_row[self.schema.column_index(col)]
                != row[self.schema.column_index(col)]
                for col in self.layout.chains
            )
            if chains_changed:
                # delegates to delete+insert, which log themselves — an
                # UPDATE record here would double-count the row
                self.delete(pk)
                self.insert(new_row)
            else:
                new_stored = StoredRecord(
                    stored.sentinel_of,
                    stored.chain_keys,
                    stored.chain_nexts,
                    tuple(new_row[i] for i in self.layout.data_column_indexes),
                )
                self._write_stored(rid, new_stored)
                if self.wal is not None:
                    self.wal.append_update(self.name, row, new_row)
            self.stats.updates += 1
            return True

    # ------------------------------------------------------------------
    # read interface (secure access methods, Section 5.2)
    # ------------------------------------------------------------------
    def get(self, pk: Any) -> tuple[tuple | None, PointProof]:
        """Point lookup by primary key with a one-record proof.

        Lock-free: a verified cell read is atomic, so the record itself
        is always consistent; a concurrent chain splice can transiently
        fail the evidence check, which is retried a bounded number of
        times (an honest race resolves immediately, a real attack keeps
        failing and the final failure propagates).
        """
        attempts = 0
        while True:
            try:
                rid, stored, proof = self._locate_pk(pk)
                proof.check()
                break
            except (IntegrityError, StorageError):
                # IntegrityError: a mid-splice chain failed the evidence
                # check; StorageError: the index answer went stale (the
                # record moved or its slot was freed) between lookup and
                # read. Both resolve once the in-flight mutation finishes.
                attempts += 1
                self._ctr_point_retries.inc()
                if attempts >= POINT_READ_RETRIES:
                    raise
                # Wait out any in-flight splice: taking and releasing the
                # table lock guarantees the next attempt sees a chain that
                # is consistent as of some complete mutation.
                with self._lock:
                    pass
        self.stats.point_lookups += 1
        self.stats.proofs_checked += 1
        row = self.layout.row_from_stored(stored) if rid is not None else None
        return row, proof

    def scan(
        self,
        column: str | None = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        batch_size: int | None = None,
    ) -> list[tuple]:
        """Verified range scan; returns the matching rows."""
        rows, _ = self.scan_with_proof(
            column, lo, hi, include_lo, include_hi, batch_size
        )
        return rows

    def scan_with_proof(
        self,
        column: str | None = None,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = True,
        batch_size: int | None = None,
    ) -> tuple[list[tuple], RangeProof]:
        """Verified range scan returning rows plus the checked evidence.

        ``batch_size`` controls how many chain records are fetched per
        batched verified read (default: ``StorageConfig.batch_size``);
        the adjacency proof itself is checked record by record either
        way, so the evidence is identical at every batch size.
        """
        column = column or self.schema.primary_key
        chain_id = self.schema.chain_id(column)
        if chain_id is None:
            raise StorageError(
                f"column {column!r} has no key chain; scan the primary key "
                f"and filter, or declare it in Schema.chain_columns"
            )
        if batch_size is None:
            batch_size = self.engine.config.batch_size
        with self._lock:
            result = self._scan_chain(
                chain_id, lo, hi, include_lo, include_hi, batch_size
            )
        self.stats.range_scans += 1
        self.stats.proofs_checked += 1
        return result

    def seq_scan(self, batch_size: int | None = None) -> list[tuple]:
        """Full verified sequential scan (range (⊥, ⊤) on the primary key)."""
        return self.scan(batch_size=batch_size)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._row_count

    def page_count(self) -> int:
        return self.heap.page_count()

    def destroy(self) -> None:
        """Release the table: retire all pages from verification."""
        with self._lock:
            if self.engine.verification_enabled:
                for page in self.heap.pages():
                    self.engine.vmem.deregister_page(page.page_id)
            self.indexes = [ThreadSafeIndex() for _ in self.layout.chains]
            self._row_count = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _encode(self, stored: StoredRecord) -> bytes:
        return self.codec.encode(self.layout.to_tuple(stored))

    def _read_stored(self, rid: RecordId) -> StoredRecord:
        return self.layout.from_tuple(self.codec.decode(self.heap.read(rid)))

    def _read_stored_many(
        self, rids: list[RecordId], admit: bool = True
    ) -> list[StoredRecord]:
        decode = self.codec.decode
        from_tuple = self.layout.from_tuple
        return [
            from_tuple(decode(p))
            for p in self.heap.read_many(rids, admit=admit)
        ]

    def _write_stored(self, rid: RecordId, stored: StoredRecord) -> RecordId:
        """Rewrite a record; relocates (Move) when it no longer fits."""
        payload = self._encode(stored)
        if self.heap.fits_in_place(rid, len(payload)):
            self.heap.write(rid, payload)
            return rid
        self.heap.delete(rid)
        new_rid = self.heap.insert(payload)
        self.stats.records_moved += 1
        self._ctr_moves.inc()
        for chain_id in range(self.layout.n_chains):
            key = stored.key(chain_id)
            if key is not None:
                self.indexes[chain_id].insert(key, new_rid)
        return new_rid

    def _predecessor(self, chain_id: int, ckey: Any) -> tuple[RecordId, StoredRecord]:
        """Largest chain record with key <= ``ckey`` (validated)."""
        hit = self.indexes[chain_id].search_le(ckey)
        return self._validated_pred(chain_id, ckey, hit, allow_equal=False)

    def _strict_predecessor(
        self, chain_id: int, ckey: Any
    ) -> tuple[RecordId, StoredRecord]:
        hit = self.indexes[chain_id].search_lt(ckey)
        return self._validated_pred(chain_id, ckey, hit, allow_equal=False)

    def _validated_pred(self, chain_id, ckey, hit, allow_equal):
        if hit is None:
            raise ProofError(
                f"untrusted index lost the chain-{chain_id} sentinel"
            )
        _, rid = hit
        stored = self._read_stored(rid)
        key = stored.key(chain_id)
        if key is None:
            raise ProofError(
                f"index returned a record outside chain {chain_id}"
            )
        if not (key < ckey or (allow_equal and key == ckey)):
            raise ProofError(
                f"index returned non-predecessor {key!r} for target {ckey!r}"
            )
        return rid, stored

    def _locate_pk(
        self, pk: Any
    ) -> tuple[RecordId | None, StoredRecord, PointProof]:
        """Index search of Section 5.2: one record proves hit or miss."""
        hit = self.indexes[0].search_le(pk)
        if hit is None:
            raise ProofError("untrusted index lost the primary-key sentinel")
        _, rid = hit
        stored = self._read_stored(rid)
        key = stored.key(0)
        if key is None:
            raise ProofError("index returned a record outside the primary chain")
        found = key == pk
        proof = PointProof(pk, key, stored.next_key(0), found)
        return (rid if found else None), stored, proof

    def _scan_chain(
        self, chain_id: int, lo, hi, include_lo, include_hi, batch_size: int = 1
    ) -> tuple[list[tuple], RangeProof]:
        layout = self.layout
        index = self.indexes[chain_id]
        # The chain-key bound the scan must *cover* on each side.
        if lo is None:
            lo_bound = BOTTOM
        elif include_lo:
            lo_bound = layout.low_bound(chain_id, lo)
        else:
            lo_bound = layout.high_bound(chain_id, lo)
        if hi is None:
            hi_bound = TOP
        elif include_hi:
            hi_bound = layout.high_bound(chain_id, hi)
        else:
            hi_bound = layout.low_bound(chain_id, hi)
        proof = RangeProof(
            low=lo_bound, high=hi_bound, right_inclusive=include_hi
        )
        seed = index.search_le(lo_bound)
        if seed is None:
            raise ProofError(f"untrusted index lost the chain-{chain_id} sentinel")
        # Unbounded full-table sweeps bypass cache admission so one large
        # sequential scan cannot evict the hot working set (scan
        # resistance); bounded range reads still warm the cache.
        admit = not (lo_bound is BOTTOM and hi_bound is TOP)
        rows: list[tuple] = []
        expected: Any = None
        finished = False
        # Records are fetched ``batch_size`` at a time through the
        # batched verified-read path. Chunk membership uses only the
        # *untrusted* index keys as a prefetch hint (read no further
        # once the index claims the bound is passed); termination and
        # omission detection still rest exclusively on the trusted
        # nKey chain below, so a lying index cannot truncate a scan.
        # Asking the index for nothing past the bound (but always for the
        # seed) keeps the hint's cost proportional to the result.
        hint_hi = None if hi_bound is TOP else max(seed[0], hi_bound)
        item_iter = iter(index.items(lo=seed[0], hi=hint_hi))
        first = True
        drained = False
        while not finished and not drained:
            rids: list[RecordId] = []
            while len(rids) < batch_size:
                nxt = next(item_iter, None)
                if nxt is None:
                    drained = True
                    break
                ikey, rid = nxt
                if not first and self._past_bound(ikey, hi_bound, include_hi):
                    drained = True
                    break
                first = False
                rids.append(rid)
            if not rids:
                break
            for stored in self._read_stored_many(rids, admit=admit):
                key = stored.key(chain_id)
                if key is None:
                    raise ProofError(
                        f"index returned a record outside chain {chain_id}"
                    )
                if expected is None:
                    proof.first_key = key
                    proof.check_left()  # condition 1
                else:
                    proof.check_link(expected, key)  # condition 3
                proof.records_read += 1
                if not stored.is_sentinel and self._emit(
                    layout.chain_value(chain_id, key), lo, hi, include_lo, include_hi
                ):
                    rows.append(layout.row_from_stored(stored))
                next_key = stored.next_key(chain_id)
                proof.last_next_key = next_key
                expected = next_key
                if next_key is TOP or self._past_bound(
                    next_key, hi_bound, include_hi
                ):
                    finished = True
                    break
        if not finished and expected is not TOP:
            raise ProofError(
                f"untrusted index omitted chain-{chain_id} records: chain "
                f"expects successor {expected!r}"
            )
        proof.check_right()  # condition 2
        return rows, proof

    @staticmethod
    def _past_bound(next_key: Any, hi_bound: Any, include_hi: bool) -> bool:
        if include_hi:
            return next_key > hi_bound
        return next_key >= hi_bound

    @staticmethod
    def _emit(value, lo, hi, include_lo, include_hi) -> bool:
        if lo is not None and (value < lo or (not include_lo and value == lo)):
            return False
        if hi is not None and (value > hi or (not include_hi and value == hi)):
            return False
        return True
