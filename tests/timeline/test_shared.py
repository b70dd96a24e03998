"""Shared-memory packed schedules: layout, lifecycle, nbytes accounting."""

import pickle
import sys
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np
import pytest

from repro.timeline import PackedSchedules, SharedPackedSchedules
from repro.timeline.intervals import IntervalSet


def _schedules():
    return {
        0: IntervalSet([(10.0, 100.0), (200.0, 400.0)]),
        1: IntervalSet([(5.0, 50.0)]),
        2: IntervalSet([]),
        3: IntervalSet([(0.0, 86400.0)]),
    }


@pytest.fixture
def shared():
    packed = SharedPackedSchedules.from_schedules(_schedules())
    yield packed
    packed.close()


class TestNbytesAccounting:
    def test_reports_all_owned_buffers(self):
        # Regression: nbytes used to exclude the user-id container and
        # the row index, understating what a per-worker copy holds.
        packed = PackedSchedules.from_schedules(_schedules())
        arrays = (
            packed.starts.nbytes + packed.ends.nbytes + packed.offsets.nbytes
        )
        users_bytes = sys.getsizeof(packed.users) + sum(
            sys.getsizeof(u) for u in packed.users
        )
        assert packed.nbytes == arrays + users_bytes
        # Building the lazy row index grows the accounted footprint.
        packed.row_index(0)
        assert packed.nbytes == arrays + users_bytes + sys.getsizeof(
            packed._index
        )

    def test_ndarray_users_counted(self, shared):
        arrays = (
            shared.starts.nbytes + shared.ends.nbytes + shared.offsets.nbytes
        )
        assert shared.nbytes == arrays + shared.users.nbytes


class TestSharedEquivalence:
    def test_same_values_as_heap_packing(self, shared):
        packed = PackedSchedules.from_schedules(_schedules())
        assert np.array_equal(shared.starts, packed.starts)
        assert np.array_equal(shared.ends, packed.ends)
        assert np.array_equal(shared.offsets, packed.offsets)
        assert [int(u) for u in shared.users] == list(packed.users)
        for user in (0, 1, 2, 3, 99):
            for got, want in zip(
                shared.row_slice(user), packed.row_slice(user)
            ):
                assert np.array_equal(got, want)
        assert shared.row_index(3) == packed.row_index(3)
        assert shared.row_index(99) == -1

    def test_rejects_non_integer_users(self):
        packed = PackedSchedules.from_schedules(
            {"alice": IntervalSet([(0.0, 10.0)])}
        )
        with pytest.raises(TypeError):
            SharedPackedSchedules.from_packed(packed)


class TestLifecycle:
    def test_pickle_attaches_same_block(self, shared):
        clone = pickle.loads(pickle.dumps(shared))
        try:
            assert clone.owner is False
            assert clone.shared_name == shared.shared_name
            assert np.array_equal(clone.starts, shared.starts)
        finally:
            clone.close()

    def test_worker_process_attaches(self, shared):
        ctx = get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(
            target=_child_sum, args=(pickle.dumps(shared), queue)
        )
        proc.start()
        total = queue.get(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert total == float(shared.starts.sum() + shared.ends.sum())

    def test_owner_close_unlinks(self):
        packed = SharedPackedSchedules.from_schedules(_schedules())
        name = packed.shared_name
        packed.close()
        packed.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_attachment_close_keeps_block(self, shared):
        clone = pickle.loads(pickle.dumps(shared))
        clone.close()
        # The owner's block must survive an attachment's close.
        probe = shared_memory.SharedMemory(name=shared.shared_name)
        resource_tracker.unregister(probe._name, "shared_memory")
        probe.close()


def _child_sum(blob, queue):
    obj = pickle.loads(blob)
    try:
        queue.put(float(obj.starts.sum() + obj.ends.sum()))
    finally:
        obj.close()
