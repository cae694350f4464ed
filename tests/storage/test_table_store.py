"""Integration tests for VerifiableTable: CRUD + secure access methods."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.catalog.types import IntegerType, TextType
from repro.errors import CatalogError, StorageError
from repro.storage.config import StorageConfig
from repro.storage.engine import StorageEngine
from repro.storage.table_store import VerifiableTable


def make_table(chain_columns=("count",), **config_kwargs):
    schema = Schema(
        columns=[
            Column("id", IntegerType()),
            Column("count", IntegerType()),
            Column("note", TextType()),
        ],
        primary_key="id",
        chain_columns=chain_columns,
    )
    engine = StorageEngine(StorageConfig(**config_kwargs))
    return VerifiableTable("quote", schema, engine), engine


@pytest.fixture
def table():
    return make_table()[0]


def test_insert_get(table):
    table.insert((1, 100, "first"))
    row, proof = table.get(1)
    assert row == (1, 100, "first")
    assert proof.found


def test_absence_proof(table):
    table.insert((1, 100, "a"))
    table.insert((5, 200, "b"))
    row, proof = table.get(3)
    assert row is None
    assert not proof.found
    assert proof.key == 1
    assert proof.next_key == 5


def test_absence_below_min_and_above_max(table):
    table.insert((10, 1, "x"))
    row, proof = table.get(5)
    assert row is None  # evidence: sentinel ⟨⊥, 10⟩
    row, proof = table.get(99)
    assert row is None  # evidence: ⟨10, ⊤⟩ (Example 4.3)


def test_empty_table_lookup(table):
    row, proof = table.get(1)
    assert row is None


def test_duplicate_pk_rejected(table):
    table.insert((1, 100, "a"))
    with pytest.raises(StorageError):
        table.insert((1, 200, "b"))


def test_delete(table):
    table.insert((1, 100, "a"))
    table.insert((2, 200, "b"))
    assert table.delete(1)
    assert not table.delete(1)
    row, _ = table.get(1)
    assert row is None
    assert table.row_count == 1


def test_delete_relinks_chain(table):
    for pk in (1, 2, 3):
        table.insert((pk, pk * 10, "r"))
    table.delete(2)
    row, proof = table.get(2)
    assert row is None
    assert proof.key == 1 and proof.next_key == 3


def test_update_data_fields(table):
    table.insert((1, 100, "old"))
    assert table.update(1, {"note": "new"})
    row, _ = table.get(1)
    assert row == (1, 100, "new")
    assert table.row_count == 1


def test_update_missing_returns_false(table):
    assert not table.update(42, {"note": "x"})


def test_update_chain_column_resplices(table):
    table.insert((1, 100, "a"))
    table.insert((2, 300, "b"))
    assert table.update(1, {"count": 200})
    assert table.scan("count", lo=150, hi=250) == [(1, 200, "a")]


def test_update_unknown_column(table):
    table.insert((1, 100, "a"))
    with pytest.raises(StorageError):
        table.update(1, {"ghost": 1})


def test_update_primary_key(table):
    table.insert((1, 100, "a"))
    assert table.update(1, {"id": 9})
    assert table.get(1)[0] is None
    assert table.get(9)[0] == (9, 100, "a")


def test_range_scan_primary(table):
    for pk in range(10):
        table.insert((pk, pk, "r"))
    assert [r[0] for r in table.scan(lo=3, hi=6)] == [3, 4, 5, 6]
    assert [r[0] for r in table.scan(lo=3, hi=6, include_lo=False)] == [4, 5, 6]
    assert [r[0] for r in table.scan(lo=3, hi=6, include_hi=False)] == [3, 4, 5]


def test_range_scan_unbounded(table):
    for pk in (5, 1, 9):
        table.insert((pk, pk, "r"))
    assert [r[0] for r in table.seq_scan()] == [1, 5, 9]
    assert [r[0] for r in table.scan(lo=5)] == [5, 9]
    assert [r[0] for r in table.scan(hi=5)] == [1, 5]


def test_range_scan_empty_result_is_proven(table):
    table.insert((1, 1, "a"))
    table.insert((10, 10, "b"))
    rows, proof = table.scan_with_proof(lo=3, hi=7)
    assert rows == []
    assert proof.records_read >= 1  # boundary evidence was still read


def test_range_scan_asks_the_index_for_its_range_only(table):
    # the untrusted index is a prefetch hint: a range scan must not
    # snapshot the index tail past its bound, or its cost would grow
    # with the table instead of the result (reversed bounds included)
    for pk in range(200):
        table.insert((pk, pk, "r"))
    index = table.indexes[0]
    served = []
    real_items = index.items

    def recording_items(*args, **kwargs):
        served.append(real_items(*args, **kwargs))
        return served[-1]

    index.items = recording_items
    for lo, hi, expected in ((10, 14, [10, 11, 12, 13, 14]), (30, 20, [])):
        served.clear()
        assert [r[0] for r in table.scan(lo=lo, hi=hi)] == expected
        assert sum(map(len, served)) <= len(expected) + 2


def test_secondary_chain_scan(table):
    table.insert((1, 100, "a"))
    table.insert((2, 100, "b"))  # duplicate secondary value
    table.insert((3, 500, "c"))
    table.insert((4, 600, "d"))
    rows = table.scan("count", lo=100, hi=500)
    assert [r[0] for r in rows] == [1, 2, 3]


def test_secondary_point_via_range(table):
    table.insert((1, 100, "a"))
    table.insert((2, 100, "b"))
    rows = table.scan("count", lo=100, hi=100)
    assert [r[0] for r in rows] == [1, 2]


def test_scan_on_unchained_column_rejected(table):
    with pytest.raises(StorageError):
        table.scan("note", lo="a", hi="z")


def test_chained_column_rejects_null():
    table, _ = make_table()
    with pytest.raises(CatalogError):
        table.insert((1, None, "a"))


def test_scan_proof_contents(table):
    for pk in range(1, 8):
        table.insert((pk, pk, "r"))
    rows, proof = table.scan_with_proof(lo=2, hi=5)
    assert proof.first_key <= 2
    assert proof.last_next_key > 5
    assert proof.links_checked >= len(rows) - 1


def test_interleaved_workload_and_verification():
    table, engine = make_table()
    for pk in range(50):
        table.insert((pk, pk % 5, f"note{pk}"))
    engine.verify_now()
    for pk in range(0, 50, 3):
        table.delete(pk)
    for pk in range(0, 50, 3):
        table.insert((pk, pk % 7, "reborn"))
    table.update(1, {"note": "x" * 200})  # likely relocation
    engine.verify_now()
    assert table.row_count == 50
    assert len(table.seq_scan()) == 50


def test_metadata_config_changes_rsws_volume():
    plain, engine_plain = make_table(verify_metadata=False)
    strict, engine_strict = make_table(verify_metadata=True)
    for pk in range(20):
        plain.insert((pk, pk, "r"))
        strict.insert((pk, pk, "r"))
    assert (
        engine_strict.vmem.rsws.total_operations()
        > engine_plain.vmem.rsws.total_operations()
    )


def test_baseline_mode_no_verification_cost():
    table, engine = make_table(verification=False)
    for pk in range(10):
        table.insert((pk, pk, "r"))
    assert engine.vmem.rsws.total_operations() == 0
    assert [r[0] for r in table.seq_scan()] == list(range(10))


def test_row_count_and_page_count(table):
    assert table.row_count == 0
    for pk in range(5):
        table.insert((pk, pk, "r"))
    assert table.row_count == 5
    assert table.page_count() >= 1


def test_many_rows_cross_page_chains():
    table, engine = make_table()
    n = 500
    for pk in range(n):
        table.insert((pk, n - pk, "payload-" + "x" * (pk % 37)))
    assert table.page_count() > 1
    assert [r[0] for r in table.scan(lo=100, hi=110)] == list(range(100, 111))
    # secondary chain is the reverse ordering
    rows = table.scan("count", lo=1, hi=10)
    assert sorted(r[1] for r in rows) == list(range(1, 11))
    engine.verify_now()
