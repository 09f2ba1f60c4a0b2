"""Per-robot finite-state machine and the in-process handoff message bus."""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from typing import NamedTuple

from .errors import IllegalTransition
from .geometry import Point


class RobotState(str, Enum):
    IDLE = "Idle"
    NAVIGATE = "Navigate"
    PICKUP = "Pickup"
    RELAY = "Relay"
    DELIVER = "Deliver"


class MessageKind(str, Enum):
    HANDOFF_READY = "HandoffReady"
    HANDOFF_ACK = "HandoffAck"
    TASK_COMPLETE = "TaskComplete"


class LedStatus(str, Enum):
    GREEN = "green"  # carrying the item
    BLUE = "blue"  # waiting at a transfer point
    OFF = "off"


_MESSAGE_LED = {
    MessageKind.HANDOFF_READY: LedStatus.BLUE,
    MessageKind.HANDOFF_ACK: LedStatus.GREEN,
    MessageKind.TASK_COMPLETE: LedStatus.OFF,
}


class HandoffMessage(NamedTuple):
    kind: MessageKind
    task_id: str
    from_id: int
    to_id: int
    at: Point
    tick: int

    @property
    def status_led(self) -> LedStatus:
        """The sender's LED as it sends: blue at a handoff, green once it holds the item."""
        return _MESSAGE_LED[self.kind]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "task_id": self.task_id,
            "from": self.from_id,
            "to": self.to_id,
            "at": [self.at.x, self.at.y],
            "tick": self.tick,
            "status_led": self.status_led.value,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class EventKind(str, Enum):
    ASSIGN_SEGMENT = "AssignSegment"
    ARRIVED_WAYPOINT = "ArrivedWaypoint"  # at the leg's start or end
    PICKUP_DONE = "PickupDone"
    MESSAGE_RECEIVED = "MessageReceived"
    DROP_DONE = "DropDone"


class FsmEvent(NamedTuple):
    kind: EventKind
    tick: int
    at: Point | None = None  # MessageReceived: where the receiver stands
    message: HandoffMessage | None = None  # MessageReceived payload


class RobotFsm(NamedTuple):
    """One robot's protocol state, and the facts of its relay leg that the
    transitions read: whether the leg starts at the pickup, where it ends
    (the outgoing transfer point, or the drop) and the robot it hands the
    item to there. A robot without a leg end is a bystander."""

    robot_id: int
    state: RobotState = RobotState.IDLE
    carrying: str | None = None
    task_id: str = ""
    item: str = ""
    picks_up: bool = False
    leg_end: Point | None = None
    peer_next: int | None = None  # robot we hand the item to; None: we deliver it


_S, _E, _M = RobotState, EventKind, MessageKind

# (state, event, holds the item, cue) -> (next state, holds it after, message
# to send). The cue is the received message's kind for MessageReceived, and
# for ArrivedWaypoint whether the robot is at a task end: `picks_up` without
# the item, `peer_next is None` with it.
_TABLE: dict[tuple, tuple[RobotState, bool, MessageKind | None]] = {
    (_S.IDLE, _E.ASSIGN_SEGMENT, False, None): (_S.NAVIGATE, False, None),
    (_S.NAVIGATE, _E.ARRIVED_WAYPOINT, False, True): (_S.PICKUP, False, None),
    (_S.NAVIGATE, _E.ARRIVED_WAYPOINT, False, False): (_S.RELAY, False, None),
    (_S.NAVIGATE, _E.ARRIVED_WAYPOINT, True, True): (_S.DELIVER, True, None),
    (_S.NAVIGATE, _E.ARRIVED_WAYPOINT, True, False): (_S.RELAY, True, _M.HANDOFF_READY),
    (_S.PICKUP, _E.PICKUP_DONE, False, None): (_S.NAVIGATE, True, None),
    (_S.RELAY, _E.MESSAGE_RECEIVED, True, _M.HANDOFF_ACK): (_S.IDLE, False, None),
    (_S.RELAY, _E.MESSAGE_RECEIVED, False, _M.HANDOFF_READY): (_S.NAVIGATE, True, _M.HANDOFF_ACK),
    (_S.DELIVER, _E.DROP_DONE, True, None): (_S.IDLE, False, _M.TASK_COMPLETE),
}


def fsm_step(fsm: RobotFsm, event: FsmEvent) -> tuple[RobotFsm, list[HandoffMessage]]:
    """Apply one event to the FSM; returns the successor and emitted messages.

    An event whose key is not in `_TABLE`, or any event for a bystander, is
    a protocol bug and raises IllegalTransition. RELAY is the state on both
    sides of a handoff: the sender waits there with the item for HandoffAck,
    the receiver without it for HandoffReady.
    """
    kind = event.kind
    holds = fsm.carrying is not None
    msg = event.message
    if kind is EventKind.MESSAGE_RECEIVED:
        cue = msg.kind if msg is not None else None
    elif kind is EventKind.ARRIVED_WAYPOINT:
        cue = fsm.peer_next is None if holds else fsm.picks_up
    else:
        cue = None
    row = _TABLE.get((fsm.state, kind, holds, cue))
    if row is None or fsm.leg_end is None:
        seen = cue.value if isinstance(cue, MessageKind) else kind.value
        raise IllegalTransition(
            f"robot {fsm.robot_id}: no transition for {seen} in state "
            f"{fsm.state.value} carrying {fsm.carrying!r}"
        )
    state, holds, send = row
    nxt = RobotFsm(fsm.robot_id, state, fsm.item if holds else None, *fsm[3:])
    if send is None:
        return nxt, []
    if send is MessageKind.HANDOFF_ACK:  # to the Ready's sender, where we stand
        to, at = msg.from_id, event.at if event.at is not None else msg.at
    else:
        to = fsm.peer_next if send is MessageKind.HANDOFF_READY else fsm.robot_id
        at = fsm.leg_end
    return nxt, [HandoffMessage(send, fsm.task_id, fsm.robot_id, to, at, event.tick)]


class MessageBus:
    """Reliable FIFO bus with an optional fixed delivery delay in ticks."""

    __slots__ = ("delay", "_queues", "log")

    def __init__(self, delay: int = 0) -> None:
        self.delay = delay
        self._queues: dict[int, deque[tuple[int, HandoffMessage]]] = {}
        self.log: list[HandoffMessage] = []

    def send(self, message: HandoffMessage) -> None:
        q = self._queues.setdefault(message.to_id, deque())
        q.append((message.tick + self.delay, message))
        self.log.append(message)

    def pending(self) -> bool:
        """Whether a sent message is still undelivered."""
        return any(self._queues.values())

    def poll(self, robot_id: int, tick: int) -> list[HandoffMessage]:
        """Deliverable messages for robot_id, FIFO, each exactly once."""
        q = self._queues.get(robot_id)
        if not q:
            return []
        out: list[HandoffMessage] = []
        while q and q[0][0] <= tick:
            out.append(q.popleft()[1])
        return out
