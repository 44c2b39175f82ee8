"""Discrete-event queue.

A small priority-queue event scheduler.  The streaming simulator itself is
interval-driven; the queue orders the finer-grained events inside an
interval.  It has two users: the RAN controller's event bus
(:class:`repro.net.controller.RanController`) and the placement manager's
reprovision events (:class:`repro.placement.manager.PlacementManager`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


@dataclass(order=True)
class Event:
    """A scheduled event; ordering is by time, then insertion order."""

    time_s: float
    sequence: int = field(compare=True)
    name: str = field(default="", compare=False)
    callback: Optional[Callable[[], Any]] = field(default=None, compare=False)
    payload: Any = field(default=None, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def fire(self) -> Any:
        """Run the callback (no-op for cancelled or callback-less events)."""
        if self.cancelled or self.callback is None:
            return None
        return self.callback()


class EventQueue:
    """Priority queue of events ordered by time."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now_s = 0.0

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    @property
    def now_s(self) -> float:
        return self._now_s

    def schedule(
        self,
        time_s: float,
        name: str = "",
        callback: Optional[Callable[[], Any]] = None,
        payload: Any = None,
    ) -> Event:
        """Schedule an event; times in the past raise."""
        if time_s < self._now_s:
            raise ValueError(f"cannot schedule event at {time_s} before current time {self._now_s}")
        event = Event(
            time_s=float(time_s),
            sequence=next(self._counter),
            name=name,
            callback=callback,
            payload=payload,
        )
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay_s: float, **kwargs) -> Event:
        """Schedule relative to the current time."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        return self.schedule(self._now_s + delay_s, **kwargs)

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    def peek(self) -> Optional[Event]:
        """Next pending event without removing it (skips cancelled events)."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next event, advancing the queue's clock."""
        event = self.peek()
        if event is None:
            return None
        heapq.heappop(self._heap)
        self._now_s = event.time_s
        return event

    def run_until(self, time_s: float) -> List[Tuple[Event, Any]]:
        """Fire every event scheduled up to and including ``time_s``.

        Returns the list of ``(event, callback_result)`` pairs in firing
        order; the queue's clock ends at ``time_s``.
        """
        if time_s < self._now_s:
            raise ValueError("cannot run backwards")
        fired: List[Tuple[Event, Any]] = []
        while True:
            event = self.peek()
            if event is None or event.time_s > time_s:
                break
            heapq.heappop(self._heap)
            self._now_s = event.time_s
            fired.append((event, event.fire()))
        self._now_s = time_s
        return fired
