"""Node programs: the per-node half of the CONGEST model.

A :class:`NodeProgram` is instantiated once per vertex and driven by
:class:`repro.congest.network.CongestNetwork`.  Per synchronous round the
program receives the messages its neighbors sent in the previous round
and returns the messages to send this round (at most one per incident
edge, each at most ``B`` bits — the network enforces the bound).

Scheduling contract
-------------------

The simulator's round loop has two poll policies with identical CONGEST
semantics (same round numbers, same messages, same metrics):

* the *dense* reference policy calls :meth:`on_round` on **every** node
  every round — wall-clock cost Θ(n) per round;
* the *event* policy (the default) wakes a node only when its inbox is
  non-empty or it asked to be woken — wall-clock cost proportional to
  actual work.

A program opts into event-driven scheduling by setting the class
attribute ``event_driven = True``.  Doing so is a promise: **calling
``on_round`` with an empty inbox (when the node did not request a
wakeup) would be a no-op** — it would return no messages and change no
state.  Programs that genuinely need to observe silent rounds (e.g. to
count rounds locally) keep ``self.needs_wakeup`` set to ``True`` while
they do; the loop then wakes them every round, messages or not,
exactly as the dense policy would.  Round numbers are global loop
state, so a node sleeping through rounds still sees the true
``round_no`` on its next wakeup — round-number semantics never depend
on the policy.

Unported programs (``event_driven = False``, the default) are polled
every round under both policies, so existing programs keep working
unchanged.
"""

from __future__ import annotations

from typing import Any

from ..planar.graph import NodeId

__all__ = ["NodeProgram"]


class NodeProgram:
    """Base class for per-node CONGEST programs.

    Subclasses implement :meth:`on_round` and typically set ``self.done``
    once their local output is fixed.  An execution terminates when every
    program reports ``done`` *and* no messages are in flight (quiescence),
    so round counts are emergent rather than asserted.

    See the module docstring for the event-driven scheduling contract
    (``event_driven`` / ``needs_wakeup``).
    """

    #: Class-level opt-in to event-driven scheduling: ``True`` promises
    #: that ``on_round`` with an empty inbox (and no wakeup request) is a
    #: no-op, so the scheduler may skip the call entirely.
    event_driven: bool = False

    def __init__(self, node_id: NodeId, neighbors: list[NodeId]) -> None:
        self.node_id = node_id
        self.neighbors = list(neighbors)
        self.done = False
        #: While ``True``, the event-driven scheduler wakes this node
        #: every round even with an empty inbox (dense-poll semantics).
        self.needs_wakeup = False

    def on_start(self) -> dict[NodeId, Any]:
        """Messages to send in round 1 (before anything is received)."""
        return {}

    def on_round(self, round_no: int, inbox: dict[NodeId, Any]) -> dict[NodeId, Any]:
        """Handle round ``round_no``'s inbox; return this round's outbox.

        ``inbox`` maps sender -> payload for each message received.  The
        returned dict maps receiver (a neighbor) -> payload.
        """
        raise NotImplementedError

    def result(self) -> Any:
        """The program's local output after termination."""
        return None
