"""Cross-cutting integration tests.

* **Backend equivalence**: the simulator and the emulator share the data
  plane, so the same randomized operation sequence must leave identical
  state behind on both.
* **End-to-end determinism**: full benchmark runs are reproducible
  bit-for-bit given the same seed.
"""

import numpy as np
import pytest

from repro.emulator import EmulatorAccount
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.storage import KB, ManualClock


def random_op_sequence(seed, n_ops=120):
    """A deterministic mixed workload over all three services."""
    rng = np.random.default_rng(seed)
    ops = []
    rows = []
    for i in range(n_ops):
        kind = rng.choice(["blob_put", "page_put", "q_put", "q_getdel",
                           "t_insert", "t_update", "t_delete"])
        ops.append((str(kind), i, int(rng.integers(1, 8))))
    return ops


def apply_ops_sim(ops):
    env = Environment()
    account = SimStorageAccount(env, seed=0)

    def driver():
        blob = account.blob_client()
        queue = account.queue_client()
        table = account.table_client()
        yield from blob.create_container("cont")
        yield from blob.create_page_blob("cont", "pb", 64 * KB)
        yield from queue.create_queue("que")
        yield from table.create_table("Tab")
        inserted = set()
        for kind, i, size in ops:
            payload = bytes([i % 256]) * (size * 64)
            if kind == "blob_put":
                yield from blob.put_block("cont", "bb", f"b{i:04d}", payload)
                yield from blob.put_block_list("cont", "bb", [f"b{i:04d}"],
                                               merge=True)
            elif kind == "page_put":
                offset = (i * 512) % (64 * KB - 512)
                offset -= offset % 512
                yield from blob.put_page("cont", "pb", offset, payload[:512].ljust(512, b"\0"))
            elif kind == "q_put":
                yield from queue.put_message("que", payload)
            elif kind == "q_getdel":
                m = yield from queue.get_message("que", visibility_timeout=3600)
                if m is not None:
                    yield from queue.delete_message("que", m.message_id,
                                                    m.pop_receipt)
            elif kind == "t_insert":
                rk = f"r{i:04d}"
                yield from table.insert("Tab", "p", rk, {"Data": payload})
                inserted.add(rk)
            elif kind == "t_update" and inserted:
                rk = sorted(inserted)[0]
                yield from table.update("Tab", "p", rk, {"Data": payload})
            elif kind == "t_delete" and inserted:
                rk = sorted(inserted)[-1]
                yield from table.delete("Tab", "p", rk)
                inserted.discard(rk)

    env.process(driver())
    env.run()
    return account.state


def apply_ops_emulator(ops):
    account = EmulatorAccount(clock=ManualClock())
    blob = account.blob_client()
    queue = account.queue_client()
    table = account.table_client()
    blob.create_container("cont")
    blob.create_page_blob("cont", "pb", 64 * KB)
    queue.create_queue("que")
    table.create_table("Tab")
    inserted = set()
    for kind, i, size in ops:
        payload = bytes([i % 256]) * (size * 64)
        if kind == "blob_put":
            blob.put_block("cont", "bb", f"b{i:04d}", payload)
            blob.put_block_list("cont", "bb", [f"b{i:04d}"], merge=True)
        elif kind == "page_put":
            offset = (i * 512) % (64 * KB - 512)
            offset -= offset % 512
            blob.put_page("cont", "pb", offset, payload[:512].ljust(512, b"\0"))
        elif kind == "q_put":
            queue.put_message("que", payload)
        elif kind == "q_getdel":
            m = queue.get_message("que", visibility_timeout=3600)
            if m is not None:
                queue.delete_message("que", m.message_id, m.pop_receipt)
        elif kind == "t_insert":
            rk = f"r{i:04d}"
            table.insert("Tab", "p", rk, {"Data": payload})
            inserted.add(rk)
        elif kind == "t_update" and inserted:
            rk = sorted(inserted)[0]
            table.update("Tab", "p", rk, {"Data": payload})
        elif kind == "t_delete" and inserted:
            rk = sorted(inserted)[-1]
            table.delete("Tab", "p", rk)
            inserted.discard(rk)
    return account.state


def state_fingerprint(state):
    """A comparable digest of data-plane state (content, not timing)."""
    cont = state.blobs.get_container("cont")
    blob_part = {}
    for name in cont.list_blobs():
        b = cont.get_blob(name)
        if hasattr(b, "download"):
            blob_part[name] = b.download().to_bytes()
        else:
            blob_part[name] = b.read_all().to_bytes()
    queue = state.queues.get_queue("que")
    queue_part = sorted(m.content.to_bytes() for m in queue.messages())
    table = state.tables.get_table("Tab")
    table_part = {
        (e.partition_key, e.row_key): e.properties()["Data"]
        for pk in table.partitions()
        for e in table.query_partition(pk)
    }
    return blob_part, queue_part, table_part


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sim_and_emulator_reach_identical_state(seed):
    ops = random_op_sequence(seed)
    sim_state = apply_ops_sim(ops)
    emu_state = apply_ops_emulator(ops)
    assert state_fingerprint(sim_state) == state_fingerprint(emu_state)


def test_full_benchmark_run_deterministic():
    from repro.core import (RunConfig, SeparateQueueBenchConfig, run_bench,
                            separate_queue_bench_body)

    cfg = SeparateQueueBenchConfig(total_messages=40,
                                   message_sizes=(4 * KB,))

    def fingerprint():
        result = run_bench(lambda: separate_queue_bench_body(cfg),
                           RunConfig(workers=3, seed=123))
        return [(r.name, r.worker_id, r.start, r.end, r.ops, r.nbytes)
                for r in sorted(result.records,
                                key=lambda x: (x.name, x.worker_id))]

    assert fingerprint() == fingerprint()


def test_different_seeds_differ():
    from repro.core import (RunConfig, SeparateQueueBenchConfig, run_bench,
                            separate_queue_bench_body, phase_name, OP_PUT)

    cfg = SeparateQueueBenchConfig(total_messages=40,
                                   message_sizes=(4 * KB,))

    def total_time(seed):
        result = run_bench(lambda: separate_queue_bench_body(cfg),
                           RunConfig(workers=3, seed=seed))
        return result.phase(phase_name(OP_PUT, 4 * KB)).mean_worker_time

    assert total_time(1) != total_time(2)
