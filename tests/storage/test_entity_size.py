"""The entity size is computed once, at construction, and never drifts.

``Entity.size`` is read for every row a query returns and on every
write's capacity delta, so it is cached when the (immutable) entity is
built.  These tests hold the cached figure to the formula
(:func:`~repro.storage.table.entity.entity_size`) on every way an entity
is made, and hold account usage and query charges to an independent
recount through that formula.
"""

import pytest

from repro.pipeline.registry import OPERATIONS, OpCall
from repro.storage import (
    BatchError,
    BatchOperation,
    ManualClock,
    StorageAccountState,
    SyntheticContent,
)
from repro.storage.table.entity import Entity, entity_size

_BAG = {"Name": "widget", "Count": 3, "Ratio": 0.5, "Ok": True,
        "Blob": b"\x00" * 17, "Big": SyntheticContent(300, seed=1)}


def _formula(e: Entity) -> int:
    return entity_size(e.partition_key, e.row_key, e.properties())


def _recount(account: StorageAccountState) -> int:
    """Stored table bytes through the formula, not the cached sizes."""
    return sum(_formula(e)
               for table in account.tables.tables.values()
               for pk in table.partitions()
               for e in table.query_partition(pk))


@pytest.fixture
def account():
    return StorageAccountState("sizeaccount", ManualClock())


@pytest.fixture
def table(account):
    return account.tables.create_table("Sizes")


def test_cached_size_matches_formula_for_every_derivation(table):
    inserted = table.insert("p", "r", _BAG)
    replaced = inserted.replaced_with({"Only": "this"}, etag="e1",
                                      timestamp=1.0)
    merged = inserted.merged_with({"Name": "longer name", "New": 7},
                                  etag="e2", timestamp=2.0)
    projected = merged.project(["Name", "Big", "Absent"])
    for e in (inserted, replaced, merged, projected):
        assert e.size == _formula(e)
    assert projected.size < merged.size


def test_usage_tracks_formula_across_writes_and_rollback(account, table):
    table.insert("p", "a", _BAG)
    table.insert("p", "b", {"Data": b"y" * 50})
    assert account.bytes_used == _recount(account)
    table.update("p", "a", {"Data": b"z" * 10})
    assert account.bytes_used == _recount(account)
    table.merge("p", "b", {"Extra": "more text"})
    table.insert_or_merge("p", "c", {"X": 1})
    table.insert_or_replace("p", "c", {"X": "one"})
    assert account.bytes_used == _recount(account)
    table.delete("p", "a")
    assert account.bytes_used == _recount(account)
    used = account.bytes_used
    with pytest.raises(BatchError):
        table.execute_batch([
            BatchOperation("insert", "p", "d", {"Data": b"w" * 500}),
            BatchOperation("merge", "p", "b", {"More": 2.0}),
            BatchOperation("insert", "p", "c", {}),  # conflict: rolls back
        ])
    assert account.bytes_used == used == _recount(account)
    table.delete("p", "b")
    table.delete("p", "c")
    assert account.bytes_used == 0 == account.recompute_usage()


def test_query_partition_charges_the_formula_bytes(account, table):
    for i in range(5):
        table.insert("p", f"r{i}", {"Data": b"q" * (10 * i), "I": i})
    table.insert("other", "r", {"Data": b"ignored"})
    call = OpCall(account, None, account.clock.now, lambda: None)
    body = OPERATIONS["table"]["query_partition"].body(call, "Sizes", "p")
    descriptor = next(body)
    want = sum(_formula(e) for e in table.query_partition("p"))
    assert descriptor.nbytes == want
    assert descriptor.units == 5
    selected = OPERATIONS["table"]["query_partition"].body(
        call, "Sizes", "p", select=["I"])
    assert next(selected).nbytes == sum(
        _formula(e) for e in table.query_partition("p", select=["I"]))
