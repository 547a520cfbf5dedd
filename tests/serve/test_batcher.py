"""Micro-batcher flush semantics and bounded-queue backpressure."""

import math

import pytest

from repro.errors import ServingError
from repro.serve import BatchPolicy, MicroBatcher
from repro.serve.loop import ServeNode
from repro.serve.requests import InferenceRequest


def request(i, arrival):
    return InferenceRequest(request_id=i, vertex=i, arrival=arrival)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ServingError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ServingError):
            BatchPolicy(max_wait=-1.0)

    # ``nan`` and fractions pass a bare ``< 1`` / ``< 0`` test; with
    # ``max_batch_size=2.5`` ``take`` later dies on ``range(2.5)``.
    @pytest.mark.parametrize("field, value", [
        ("max_wait", math.nan), ("max_batch_size", 2.5),
        ("max_batch_size", math.nan)],
        ids=["nan-wait", "fractional-size", "nan-size"])
    def test_nan_or_fractional_knob_rejected(self, field, value):
        with pytest.raises(ServingError, match=field):
            BatchPolicy(**{field: value})

    def test_describe(self):
        assert BatchPolicy(32, 0.002).describe() == "b32/w2ms"


class TestFlushSemantics:
    """When a queue is ready is decided in one place,
    ``ServeNode.next_dispatch_time``; a node needs no executor to
    answer it."""

    def test_not_ready_while_waiting(self):
        node = ServeNode(None, BatchPolicy(4, max_wait=1.0))
        assert node.next_dispatch_time(False) is None    # empty queue
        node.submit(request(0, arrival=0.0))
        assert node.next_dispatch_time(False) == 1.0

    def test_max_size_flush(self):
        node = ServeNode(None, BatchPolicy(4, max_wait=100.0))
        for i in range(4):
            node.submit(request(i, arrival=0.0))
        # Full batch flushes immediately, long before the deadline.
        assert node.next_dispatch_time(False) == 0.0
        batch = node.batcher.take()
        assert [r.request_id for r in batch] == [0, 1, 2, 3]
        assert node.queue_depth == 0

    def test_max_wait_timeout_flush(self):
        node = ServeNode(None, BatchPolicy(64, max_wait=0.010))
        node.submit(request(0, arrival=1.0))
        node.submit(request(1, arrival=1.005))
        assert node.batcher.oldest_deadline() == pytest.approx(1.010)
        assert node.next_dispatch_time(False) == pytest.approx(1.010)
        node.free_at = 1.5              # busy past the deadline
        assert node.next_dispatch_time(False) == 1.5
        assert len(node.batcher.take()) == 2   # partial batch

    def test_draining_flushes_partial_batch(self):
        node = ServeNode(None, BatchPolicy(64, max_wait=100.0))
        node.submit(request(0, arrival=0.0))
        assert node.next_dispatch_time(False) == 100.0
        assert node.next_dispatch_time(True) == 0.0
        node.draining = True            # scale-down: this node alone
        assert node.next_dispatch_time(False) == 0.0

    def test_take_caps_at_batch_size(self):
        batcher = MicroBatcher(BatchPolicy(3, max_wait=0.0))
        for i in range(5):
            batcher.submit(request(i, arrival=0.0))
        assert [r.request_id for r in batcher.take()] == [0, 1, 2]
        assert [r.request_id for r in batcher.take()] == [3, 4]

    def test_take_empty_raises(self):
        with pytest.raises(ServingError):
            MicroBatcher().take()


class TestBackpressure:
    def test_overflow_is_rejected(self):
        batcher = MicroBatcher(BatchPolicy(8, 1.0), max_queue=2)
        assert batcher.submit(request(0, 0.0)) is True
        assert batcher.submit(request(1, 0.0)) is True
        assert batcher.submit(request(2, 0.0)) is False
        # The rejected request did not corrupt the queue.
        assert len(batcher) == 2
        assert batcher.depth_stats() == (2, 1 + 2, 2)   # admitted 2
        assert batcher.rejected == 1

    def test_take_frees_capacity(self):
        batcher = MicroBatcher(BatchPolicy(2, 0.0), max_queue=2)
        batcher.submit(request(0, 0.0))
        batcher.submit(request(1, 0.0))
        batcher.take()
        assert batcher.submit(request(2, 0.0))
        assert len(batcher) == 1

    def test_invalid_max_queue(self):
        with pytest.raises(ServingError):
            MicroBatcher(max_queue=0)

    # A NaN bound fails every ``depth >= max_queue``: the queue would
    # be silently unbounded.
    @pytest.mark.parametrize("bound", [math.nan, 2.5],
                             ids=["nan", "fractional"])
    def test_nan_or_fractional_max_queue_rejected(self, bound):
        with pytest.raises(ServingError, match="max_queue"):
            MicroBatcher(max_queue=bound)
