"""Property-based locks on the fetch target queue.

The FTQ's two safety properties (the decoupled frontend's correctness
hangs on them):

* the queue never runs past an unresolved redirect — once
  ``mark_unresolved`` is called, every push is refused until a squash;
* ``squash`` drains the queue completely and clears the unresolved
  mark, in one step.

A model-based random-ops test checks the FIFO against a plain list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import FetchTargetQueue, FTQEntry

DEPTH = 4

_ops = st.lists(st.sampled_from(["push", "pop", "mark", "squash"]),
                max_size=120)


def _entry(i):
    return FTQEntry(pc=0x400 + i * 4, pred_next_pc=0x404 + i * 4)


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_fifo_matches_model_and_respects_gate(ops):
    ftq = FetchTargetQueue(DEPTH)
    model = []
    unresolved = False
    for i, op in enumerate(ops):
        if op == "push":
            e = _entry(i)
            ok = ftq.push(e)
            should = not unresolved and len(model) < DEPTH
            assert ok == should, \
                "push accepted past an unresolved redirect / full queue"
            if should:
                model.append(e)
        elif op == "pop":
            expected = model.pop(0) if model else None
            assert ftq.pop() is expected
        elif op == "mark":
            ftq.mark_unresolved()
            unresolved = True
        else:
            killed = ftq.squash()
            assert killed == len(model)
            model.clear()
            unresolved = False
        # continuous invariants
        assert len(ftq) == len(model)
        assert ftq.occupancy <= DEPTH
        assert ftq.unresolved == unresolved
        assert ftq.empty == (not model)
        assert ftq.full == (len(model) >= DEPTH)
        assert ftq.head() is (model[0] if model else None)


@given(n_pushes=st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_squash_drains_and_clears_unresolved(n_pushes):
    ftq = FetchTargetQueue(DEPTH)
    pushed = sum(ftq.push(_entry(i)) for i in range(n_pushes))
    ftq.mark_unresolved()
    assert not ftq.push(_entry(99)), "queue ran past unresolved redirect"
    assert ftq.squash() == pushed
    assert ftq.empty and not ftq.unresolved
    assert ftq.push(_entry(100)), "squash did not reopen the queue"


def test_pop_is_fifo():
    ftq = FetchTargetQueue(DEPTH)
    entries = [_entry(i) for i in range(3)]
    for e in entries:
        assert ftq.push(e)
    assert [ftq.pop() for _ in range(4)] == entries + [None]


def test_rejects_bad_depth():
    with pytest.raises(ValueError):
        FetchTargetQueue(0)
