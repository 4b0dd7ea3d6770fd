"""Open-loop load generation with due-time accounting.

Requests are sent on a fixed schedule whatever the program's state, and each
request is timed from when it was *due*, not from when the generator got
round to sending it.  So a generator that stalls (a blocking call, a
starved event loop) charges the delay to every request due during the
stall, instead of hiding it by sending late and starting the clock late.
The generator's own lateness is kept too (:attr:`RequestTiming.lag`) so a
run whose schedule slipped can be recognised.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence


@dataclass
class RequestTiming:
    """Clock readings of one open-loop request."""

    index: int
    due: float
    sent: float | None = None
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def lag(self) -> float:
        """How late the request was sent."""
        return self.sent - self.due

    @property
    def ttft(self) -> float:
        """Due time to first token."""
        return self.token_times[0] - self.due

    def gaps(self) -> list[float]:
        """Gaps between consecutive tokens."""
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]


async def open_loop(
    offsets: Sequence[float],
    consume: Callable[[RequestTiming], Awaitable[None]],
    *,
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    on_send: Callable[[RequestTiming], None] | None = None,
    first: int = 0,
) -> list[RequestTiming]:
    """Start ``consume(timing)`` for request ``first + i`` at
    ``start + offsets[i]``.

    ``consume`` stamps ``timing.sent`` when it submits and appends token
    arrival times; every timing's ``due`` is the schedule, so lateness of
    the generator is charged to the requests it delayed.  Returns the
    timings once every request has finished.
    """
    start = clock()
    timings: list[RequestTiming] = []
    tasks: list[asyncio.Task] = []
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        timing = RequestTiming(index=first + i, due=due)
        timings.append(timing)
        if on_send is not None:
            on_send(timing)
        tasks.append(asyncio.ensure_future(consume(timing)))
    await asyncio.gather(*tasks)
    return timings
