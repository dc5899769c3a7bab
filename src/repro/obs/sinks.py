"""One event path for every recorder: the :class:`Sink` protocol and
:func:`observe`, which installs sinks for the networks, ARQ wrappers and
serving drivers a block creates.  :func:`observer` joins them into the one
object those call, or ``None``, so an unobserved run runs no event code."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Sink", "observe", "installed", "observer", "reads_messages"]


class Sink:
    """The event protocol; every callback does nothing."""

    def on_execution(self, phase: str | None) -> None:
        """A network execution starts."""

    def on_execution_end(self, rounds: int | None) -> None:
        """It ended after ``rounds`` real rounds (``None``: it died)."""

    def on_post(self, sender: Any, outbox: Any, in_flight: dict) -> None:
        """``sender`` posts ``outbox`` into this round's ``in_flight``."""

    def on_round(self, round_no: int, messages: int, words: int, max_edge_words: int) -> None:
        """One real round was recorded on the ledger."""

    def on_charge(self, charge: Any) -> None:
        """The ledger appended ``charge`` (ledger observers only)."""

    def on_event(self, node: Any, kind: str, round_no: int | None = None, **detail: Any) -> None:
        """A point event on ``node``'s lane."""


def _fan(name: str):
    def call(self, *args: Any, **detail: Any) -> None:
        for sink in self.sinks:
            getattr(sink, name)(*args, **detail)
    return call


class _FanOut(Sink):
    """Several sinks as one: each callback reaches each, in order."""

    def __init__(self, sinks: tuple[Sink, ...]) -> None:
        self.sinks = sinks

    on_execution, on_execution_end, on_post, on_round, on_charge, on_event = map(_fan, (
        "on_execution", "on_execution_end", "on_post", "on_round", "on_charge", "on_event"))


def reads_messages(sink: Sink) -> bool:
    """Whether ``sink``, or a sink it joins, overrides :meth:`Sink.on_post`."""
    return any(type(s).on_post is not Sink.on_post for s in getattr(sink, "sinks", (sink,)))


_installed: tuple[Sink, ...] = ()


def installed() -> tuple[Sink, ...]:
    """The sinks :func:`observe` installed."""
    return _installed


def observer(first: Sink | None = None) -> Sink | None:
    """``first`` and the installed sinks as one sink, or ``None``."""
    sinks = _installed if first is None else (first, *_installed)
    return _FanOut(sinks) if len(sinks) > 1 else (sinks[0] if sinks else None)


@contextmanager
def observe(*sinks: Sink | None) -> Iterator[None]:
    """Install exactly ``sinks`` (``None`` skipped) for the block."""
    global _installed
    previous, _installed = _installed, tuple(s for s in sinks if s is not None)
    try:
        yield
    finally:
        _installed = previous
