"""The one configuration every workload runs, and how each is set up.

``VeriDBConfig`` with a fixed key seed, a fresh WAL directory, group
commit at its default of 64 records with one OS flush per sync and no
fsync, and a 1 MiB LRU record cache; everything else stays at its
default. The 4-shard fleet uses the same config as its ``base``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro import VeriDB, VeriDBConfig
from repro.core.config import ShardConfig
from repro.shard import ShardedDatabase
from repro.storage.config import StorageConfig

import inputs

KEY_SEED = 20210620
CACHE_BYTES = 1 << 20
SHARDS = 4


def veridb_config(wal_dir: str) -> VeriDBConfig:
    return VeriDBConfig(
        key_seed=KEY_SEED,
        wal_dir=wal_dir,
        wal_group_commit=64,
        wal_fsync=False,
        storage=StorageConfig(cache_bytes=CACHE_BYTES, cache_policy="lru"),
    )


@dataclass
class System:
    """One built and loaded system plus its attested client."""

    db: object
    client: object
    wal_dir: str
    #: the single-enclave databases that hold rows (the workers of a fleet)
    enclaves: list = field(default_factory=list)

    def close(self) -> None:
        if isinstance(self.db, ShardedDatabase):
            self.db.close()
        for enclave in self.enclaves:
            if enclave.wal is not None:
                enclave.wal.close()

    # -- exact counts from always-on program state ---------------------
    def counts(self, wal: bool = True) -> dict[str, int]:
        """Summed program counters of every enclave, coordinator included.

        ``wal`` adds the byte size of the WAL directory (a directory walk,
        too slow to read around every traced op).
        """
        out = dict.fromkeys(
            (
                "verified_reads",
                "verified_writes",
                "prf_calls",
                "ecalls",
                "cycles",
                "verifier_passes",
                "verifier_cells_scanned",
            ),
            0,
        )
        meters = [self.db.enclave.meter]
        meters += [e.enclave.meter for e in self.enclaves if e is not self.db]
        for meter in meters:
            snap = meter.snapshot()
            out["ecalls"] += snap["ecalls"]
            out["cycles"] += snap["cycles"]
        for enclave in self.enclaves:
            vmem = enclave.storage.vmem
            out["verified_reads"] += vmem.stats.verified_reads
            out["verified_writes"] += vmem.stats.verified_writes
            out["prf_calls"] += vmem.prf.calls
            verifier = enclave.storage.verifier
            out["verifier_passes"] += verifier.stats.passes_completed
            out["verifier_cells_scanned"] += verifier.stats.cells_scanned
        if wal:
            out["wal_bytes"] = directory_bytes(self.wal_dir)
        return out


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def build(workload: str, work_dir: str, rows) -> System:
    """Construct, attest, create and load one system for ``workload``.

    ``rows`` is the initial ``kv`` row list.
    """
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=work_dir)
    config = veridb_config(wal_dir)
    if workload == "oltp_4shard":
        db = ShardedDatabase(
            ShardConfig(shard_count=SHARDS, transport="inproc", base=config)
        )
        enclaves = [link.worker.db for link in db.links]
    else:
        db = VeriDB(config)
        enclaves = [db]
    client = db.connect()
    system = System(db=db, client=client, wal_dir=wal_dir, enclaves=enclaves)
    client.execute(inputs.KV_CREATE)
    db.load_rows("kv", rows)
    return system
