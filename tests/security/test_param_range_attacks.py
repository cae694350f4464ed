"""Completeness attacks on ``?``-bound range scans, end to end.

A prepared ``BETWEEN ? AND ?`` resolves its bounds at execution time
and walks the ``(key, nKey)`` chain from there, so its evidence path is
the same ``scan_with_proof`` predecessor and adjacency checks a literal
range gets — but reached through bindings, the plan cache and (for the
attested client) the portal. Each lying-index attack of
``tests/storage/test_storage_attacks.py`` is staged under a cached,
honestly-executed statement; the next binding must surface the
:class:`ProofError` to the caller, at batch sizes 1 and 256 with the
record cache off and on.
"""

import pytest

from repro.core.config import VeriDBConfig
from repro.core.database import VeriDB
from repro.errors import ProofError
from repro.storage.config import StorageConfig

SQL = "SELECT id, note FROM t WHERE id BETWEEN ? AND ?"


def omit_range_record(index):
    index.delete(20)  # hide one record from the scan


def fabricate_range_record(index):
    index.insert(22, index.search(25))  # duplicate rid under a fake key


def truncate_tail(index):
    for pk in (35, 40, 45):
        index.delete(pk)


#: attack -> the binding whose scan crosses the lie
ATTACKS = {
    omit_range_record: (10, 30),
    fabricate_range_record: (20, 30),
    truncate_tail: (30, 45),
}


def build_db(batch_size, cache_bytes):
    db = VeriDB(
        VeriDBConfig(
            storage=StorageConfig(
                batch_size=batch_size, cache_bytes=cache_bytes
            ),
            key_seed=13,
        )
    )
    db.sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, count INTEGER, note TEXT, "
        "CHAIN (count))"
    )
    for pk in range(0, 50, 5):  # keys 0,5,...,45
        db.sql(f"INSERT INTO t VALUES ({pk}, {pk * 2}, 'note{pk}')")
    db.verify_now()
    return db


def engine_runner(db):
    statement = db.prepare(SQL)
    return lambda params: statement.execute(params).rows


def client_runner(db):
    client = db.connect()
    return lambda params: client.execute(SQL, params=params).rows


@pytest.mark.parametrize("attack", list(ATTACKS), ids=lambda a: a.__name__)
@pytest.mark.parametrize(
    "runner", [engine_runner, client_runner], ids=["engine", "client"]
)
@pytest.mark.parametrize("batch_size", [1, 256])
@pytest.mark.parametrize("cache_bytes", [0, 1 << 20], ids=["nocache", "cache"])
def test_lying_index_caught_on_param_range(
    attack, runner, batch_size, cache_bytes
):
    db = build_db(batch_size, cache_bytes)
    run = runner(db)
    # honest first: the shape is planned, cached and answers correctly
    assert [row[0] for row in run((0, 45))] == list(range(0, 50, 5))
    attack(db.table("t").indexes[0])
    with pytest.raises(ProofError):
        run(ATTACKS[attack])
