"""The tracer: fans events out to sinks; builders for common setups."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.telemetry.events import RETIRE, TraceEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import JsonlTraceSink, RingBufferSink


class Tracer:
    """Distributes every emitted event to each attached sink.

    A simulator built with ``trace=tracer`` stores ``tracer.emit`` as
    its ``_emit`` and calls it from emit sites guarded by ``if emit is
    not None``; built without one, each site costs a None check, and
    the in-order machine's compiled loop, which an untraced run takes,
    has no sites at all.
    """

    def __init__(self, *sinks) -> None:
        self.sinks: List = list(sinks)

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Flush/close every sink that supports it (JSONL writers)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def find_sink(self, cls) -> Optional[object]:
        for sink in self.sinks:
            if isinstance(sink, cls):
                return sink
        return None

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The first attached metrics registry, if any."""
        return self.find_sink(MetricsRegistry)


def make_tracer(ring_capacity: Optional[int] = None,
                jsonl_path: Optional[str] = None,
                jsonl_max_bytes: int = 64 * 1024 * 1024,
                with_ring: bool = False,
                with_metrics: bool = True) -> Tracer:
    """Convenience constructor for the usual sink combinations."""
    tracer = Tracer()
    if with_metrics:
        tracer.add_sink(MetricsRegistry())
    if with_ring or ring_capacity is not None:
        tracer.add_sink(RingBufferSink(ring_capacity))
    if jsonl_path is not None:
        tracer.add_sink(JsonlTraceSink(jsonl_path, jsonl_max_bytes))
    return tracer


def retire_observer(tracer: Tracer,
                    chain: Optional[Callable[[int, object, int], None]]
                    = None) -> Callable[[int, object, int], None]:
    """An observer for :meth:`FunctionalSimulator.run` emitting ``retire``
    events — the functional simulator's light telemetry hook.

    The functional model has no clock, so ``cycle`` carries the retire
    index (== ``seq``).  ``chain`` composes with an existing observer.
    """
    emit = tracer.emit
    state = [0]

    def observe(pc: int, instr, next_pc: int) -> None:
        seq = state[0]
        state[0] = seq + 1
        emit(TraceEvent(seq, RETIRE, pc, seq, {"next": next_pc}))
        if chain is not None:
            chain(pc, instr, next_pc)

    return observe
