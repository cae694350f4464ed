"""Storage-layer configuration knobs.

These map one-to-one onto the paper's evaluated configurations:

* ``verify_metadata`` — Figure 9's "RSWS incl. metadata" (True) vs
  "RSWS" (False, the Section 4.3 metadata-exclusion optimization).
* ``verification`` — False gives Figure 9's "Baseline" (no RS/WS
  maintenance at all).
* ``compaction`` — "eager" relocates records at delete time (the default
  page design the paper starts from), "deferred" delays reclamation and
  folds it into the verification scan, "none" never reclaims.
* ``rsws_partitions`` — the RSWS count swept in Figure 13.
* ``verifier_mode`` — "full" (Algorithm 2) or "touched" (the
  touched-page-tracking optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: the single source of truth for the engine's batch size. Both
#: ``StorageConfig.batch_size`` (planner-stamped plans) and
#: ``repro.sql.batch.DEFAULT_BATCH_SIZE`` (directly-constructed
#: operators) derive from this constant, so the two can never drift.
DEFAULT_BATCH_SIZE = 256

#: default capacity of the engine's plan cache (distinct statement
#: shapes retained); see ``StorageConfig.plan_cache_size``
DEFAULT_PLAN_CACHE_SIZE = 128


@dataclass
class StorageConfig:
    page_size: int = 8192
    verify_metadata: bool = False
    verification: bool = True
    compaction: str = "deferred"
    compact_threshold: float = 0.25
    rsws_partitions: int = 16
    verifier_mode: str = "full"
    #: pages per touched-tracking bit (Section 4.3 suggests e.g. 16 to
    #: shrink the enclave-resident bitmap for very large memories)
    touched_group_size: int = 1
    #: when set, operators spill intermediate state beyond this many
    #: rows into temporary verifiable tables instead of holding it in
    #: enclave memory (the Section 5.4 future-work direction); None
    #: keeps all intermediate state in the enclave
    spill_threshold_rows: int | None = None
    #: rows per :class:`~repro.sql.batch.ColumnBatch` pulled through the
    #: operator tree, and cells per batched verified read beneath it.
    #: 1 degenerates to the original row-at-a-time execution; the
    #: default is the winner of ``benchmarks/test_ablation_batch_size``
    batch_size: int = DEFAULT_BATCH_SIZE
    #: statement shapes kept in the engine's bounded LRU plan cache
    #: (normalized SQL + join hint → parsed statement and, for cacheable
    #: statements, a physical plan template validated against the
    #: catalog's schema version). 0 disables plan caching entirely.
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: bytes of trusted in-enclave record cache
    #: (:class:`~repro.memory.cache.RecordCache`); 0 disables caching.
    #: Residency is accounted against the EPC, so budgets beyond the
    #: enclave's protected memory thrash instead of helping — see
    #: ``benchmarks/test_ablation_cache.py``
    cache_bytes: int = 0
    #: admission/eviction policy of the record cache: "lru" (default),
    #: "clock" (second-chance ring) or "2q" (scan-resistant two-queue)
    cache_policy: str = "lru"

    def __post_init__(self):
        if self.page_size < 512:
            raise ConfigurationError("page_size must be at least 512 bytes")
        if self.compaction not in ("eager", "deferred", "none"):
            raise ConfigurationError(f"unknown compaction mode {self.compaction!r}")
        if self.verifier_mode not in ("full", "touched"):
            raise ConfigurationError(f"unknown verifier mode {self.verifier_mode!r}")
        if not 0.0 <= self.compact_threshold <= 1.0:
            raise ConfigurationError("compact_threshold must be in [0, 1]")
        if self.rsws_partitions < 1:
            raise ConfigurationError("rsws_partitions must be >= 1")
        if self.touched_group_size < 1:
            raise ConfigurationError("touched_group_size must be >= 1")
        if self.spill_threshold_rows is not None and self.spill_threshold_rows < 1:
            raise ConfigurationError("spill_threshold_rows must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.plan_cache_size < 0:
            raise ConfigurationError("plan_cache_size must be >= 0")
        if self.cache_bytes < 0:
            raise ConfigurationError("cache_bytes must be >= 0")
        if self.cache_policy not in ("lru", "clock", "2q"):
            raise ConfigurationError(
                f"unknown cache policy {self.cache_policy!r}; "
                "pick one of ('lru', 'clock', '2q')"
            )
