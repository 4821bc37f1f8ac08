"""Event sinks: in-memory ring buffer and bounded JSONL trace files.

A *sink* is anything with an ``emit(event)`` method (and optionally
``close()``).  The :class:`~repro.telemetry.tracer.Tracer` fans every
event out to its sinks; the :class:`~repro.telemetry.metrics.
MetricsRegistry` is itself a sink.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Iterator, List, Optional

from repro.telemetry.events import TRUNCATED, TraceEvent


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    ``capacity=None`` keeps everything — convenient for tests and for
    rendering a pipeview of a short run; bound it for long simulations.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0          # total seen, including evicted

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.emitted += 1

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def evicted(self) -> int:
        return self.emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlTraceSink:
    """Streams events to a JSON-lines file with a hard size bound.

    Once ``max_bytes`` of event lines have been written the sink stops
    recording (the simulation itself is unaffected) and counts what it
    dropped; :meth:`close` then appends one ``truncated`` sentinel event
    so readers can tell a bounded trace from a complete one.  The bound
    is what makes ``--trace-out`` safe on multi-million-cycle runs.
    """

    def __init__(self, path: str, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path = path
        self.max_bytes = max_bytes
        self.written = 0          # events recorded
        self.bytes_written = 0
        self.dropped = 0          # events lost to the size bound
        self._fh: Optional[IO[str]] = open(path, "w")

    def emit(self, event: TraceEvent) -> None:
        fh = self._fh
        if fh is None:
            raise ValueError("emit() on a closed JsonlTraceSink")
        if self.bytes_written >= self.max_bytes:
            self.dropped += 1
            return
        line = event.to_json()
        fh.write(line)
        fh.write("\n")
        self.written += 1
        self.bytes_written += len(line) + 1

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def close(self) -> None:
        fh = self._fh
        if fh is None:
            return
        if self.dropped:
            marker = TraceEvent(0, TRUNCATED,
                                data={"dropped": self.dropped,
                                      "max_bytes": self.max_bytes})
            fh.write(marker.to_json())
            fh.write("\n")
        fh.close()
        self._fh = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` objects.

    The ``truncated`` sentinel (if any) is returned too — callers that
    care about completeness check ``events[-1].kind``; the renderers
    simply ignore kinds they do not know.
    """
    events: List[TraceEvent] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events
