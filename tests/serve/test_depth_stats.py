"""The settled queue-depth statistics against an eager list.

A node used to append the depth every admitted request left behind to a
``queue_depths`` list, and the report took that list's mean and max.
The node now keeps three integers (admissions, depth sum, depth max)
and settles them when its queue shrinks
(:meth:`~repro.serve.batcher.MicroBatcher.depth_stats`).  Generated
sequences of submits (some rejected at the bound), takes, cancels (hits
and misses) and drains run on two nodes beside the eager list: one node
is read after every step, the other only at generated reads and at the
end, so the settle folds single admissions on the first and runs of
them on the second.  Both must report the eager list's fields, bit for
bit, at every read.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchPolicy
from repro.serve.loop import ServeNode
from repro.serve.metrics import depth_fields
from repro.serve.requests import InferenceRequest

OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(1, 3)),
    st.just(("take",)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.just(("drain",)),
    st.just(("read",))), max_size=60)


class EagerDepths:
    """The parent's semantics: a queue and one list entry per
    admission, the depth it left."""

    def __init__(self, max_queue, batch_size):
        self.max_queue, self.batch_size = max_queue, batch_size
        self.queue = deque()
        self.depths = []
        self.rejected = 0

    def submit(self, request_id):
        if self.max_queue is not None \
                and len(self.queue) >= self.max_queue:
            self.rejected += 1
            return False
        self.queue.append(request_id)
        self.depths.append(len(self.queue))
        return True

    def take(self):
        size = min(self.batch_size, len(self.queue))
        return [self.queue.popleft() for _ in range(size)]

    def cancel(self, request_id):
        if request_id in self.queue:
            self.queue.remove(request_id)
            return True
        return False

    def drain(self):
        drained = list(self.queue)
        self.queue.clear()
        return drained

    def fields(self, copies=1):
        depths = self.depths * copies
        if not depths:
            return {"queue_depth_mean": 0.0, "queue_depth_max": 0.0}
        return {"queue_depth_mean": sum(depths) / len(depths),
                "queue_depth_max": float(max(depths))}


def ids(requests):
    return [r.request_id for r in requests]


def check(node, eager):
    depths = eager.depths
    assert node.depth_stats() == (len(depths), sum(depths),
                                  max(depths, default=0))
    got = depth_fields([node])
    assert got == eager.fields()
    assert all(type(value) is float for value in got.values())


@pytest.mark.parametrize("max_queue", [1, 3, None])
@settings(max_examples=150, deadline=None)
@given(ops=OPS, batch_size=st.integers(1, 4))
def test_settled_statistics_match_the_eager_list(max_queue, batch_size,
                                                 ops):
    policy = BatchPolicy(batch_size, max_wait=1.0)
    eager = EagerDepths(max_queue, batch_size)
    every_step = ServeNode(None, policy, max_queue=max_queue)
    on_read = ServeNode(None, policy, max_queue=max_queue)
    nodes = (every_step, on_read)
    next_id = 0
    for op in ops:
        if op[0] == "submit":
            for _ in range(op[1]):
                request = InferenceRequest(next_id, 0, 0.0)
                want = eager.submit(next_id)
                assert [n.submit(request) for n in nodes] == [want] * 2
                next_id += 1
        elif op[0] == "take":
            if eager.queue:
                want = eager.take()
                assert [ids(n.take()) for n in nodes] == [want] * 2
        elif op[0] == "cancel":
            want = eager.cancel(op[1])
            assert [n.cancel(op[1]) for n in nodes] == [want] * 2
        elif op[0] == "drain":
            want = eager.drain()
            assert [ids(n.drain()) for n in nodes] == [want] * 2
        else:
            check(on_read, eager)
        check(every_step, eager)
        assert [len(n) for n in nodes] == [len(eager.queue)] * 2
        assert [n.rejected for n in nodes] == [eager.rejected] * 2
    check(on_read, eager)
    # The run report pools its replicas' integers.
    assert depth_fields(nodes) == eager.fields(copies=2)


def test_a_zero_traffic_node_reports_zero_depths():
    node = ServeNode(None, BatchPolicy(4, 1.0), max_queue=2)
    assert node.depth_stats() == (0, 0, 0)
    assert depth_fields([node]) == {"queue_depth_mean": 0.0,
                                    "queue_depth_max": 0.0}
