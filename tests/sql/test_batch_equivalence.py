"""Batched execution is a pure performance change, not a semantic one.

The vectorized engine (ColumnBatch pulls through the operator tree) must
produce bit-identical results at every batch size — batch size 1
degenerates to the original row-at-a-time execution, so it is the
reference. Two properties are checked over the seeded fuzzer corpus:

1. differential correctness vs SQLite holds at each batch size, and
2. the per-query result streams (and a digest over them) are identical
   across batch sizes {1, 7, 1024}, with a clean verification pass at
   the end of each run.
"""

import hashlib
import random

import pytest

from repro.storage.config import StorageConfig
from tests.sql.test_sqlite_differential import (
    QueryFuzzer,
    _canon,
    _fuzz_corpus,
    _fuzz_setup,
)

BATCH_SIZES = [1, 7, 1024]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_fuzzer_corpus_matches_sqlite_at_batch_size(batch_size):
    _fuzz_corpus(
        seed=17,
        queries=40,
        storage_configs=[StorageConfig(batch_size=batch_size)],
    )


def _run_corpus(batch_size, seed, queries=40, reseed_data_every=20):
    """Replay the seeded corpus at one batch size; return per-query rows.

    The same seed drives data and query generation, so every batch size
    sees the same tables and the same statements; each join runs under
    every join hint it accepts.
    """
    rng = random.Random(seed)
    fuzzer = QueryFuzzer(rng)
    engine = None
    results = []
    for index in range(queries):
        if index % reseed_data_every == 0:
            (engine,), _connection = _fuzz_setup(
                rng, [StorageConfig(batch_size=batch_size)]
            )
        sql, exact_order, hints = fuzzer.next_query()
        for hint in hints:
            rows = engine.execute(sql, join_hint=hint).rows
            results.append(list(rows) if exact_order else _canon(rows))
    engine.storage.verify_now()  # the batched read path left a clean RS/WS state
    return results


def _digest(results):
    payload = repr(results).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("seed", [17, 53])
def test_batch_sizes_agree_exactly(seed):
    reference = _run_corpus(1, seed)  # batch 1 == seed row-at-a-time
    reference_digest = _digest(reference)
    for batch_size in BATCH_SIZES[1:]:
        results = _run_corpus(batch_size, seed)
        for index, (expected, got) in enumerate(zip(reference, results)):
            assert expected == got, (
                f"batch_size={batch_size} seed={seed} query #{index} "
                "diverged from row-at-a-time execution"
            )
        assert _digest(results) == reference_digest
