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

    @property
    def status_led(self) -> LedStatus:
        if self.state is RobotState.RELAY:
            return LedStatus.BLUE
        return LedStatus.GREEN if self.carrying is not None else LedStatus.OFF


def _moved(fsm: RobotFsm, state: RobotState, carrying: str | None) -> RobotFsm:
    """fsm in `state`, holding `carrying`; every field after `carrying` unchanged."""
    return RobotFsm(fsm.robot_id, state, carrying, *fsm[3:])


def fsm_step(fsm: RobotFsm, event: FsmEvent) -> tuple[RobotFsm, list[HandoffMessage]]:
    """Apply one event to the FSM; returns the successor and emitted messages.

    An event not covered by the transition table is a protocol bug and
    raises IllegalTransition. RELAY is the state on both sides of a handoff:
    the sender waits there with the item for HandoffAck, the receiver
    without it for HandoffReady.
    """
    k = event.kind
    s = fsm.state
    carrying = fsm.carrying is not None

    if k == EventKind.ASSIGN_SEGMENT:
        if s is not RobotState.IDLE or fsm.leg_end is None:
            raise IllegalTransition(f"AssignSegment in state {s} for robot {fsm.robot_id}")
        return _moved(fsm, RobotState.NAVIGATE, fsm.carrying), []

    if k == EventKind.ARRIVED_WAYPOINT:
        if s is not RobotState.NAVIGATE:
            raise IllegalTransition(f"ArrivedWaypoint in state {s}")
        if not carrying:  # at the pickup, or at the incoming transfer to wait
            state = RobotState.PICKUP if fsm.picks_up else RobotState.RELAY
            return _moved(fsm, state, fsm.carrying), []
        if fsm.peer_next is None:
            return _moved(fsm, RobotState.DELIVER, fsm.carrying), []
        ready = HandoffMessage(
            kind=MessageKind.HANDOFF_READY,
            task_id=fsm.task_id,
            from_id=fsm.robot_id,
            to_id=fsm.peer_next,
            at=fsm.leg_end,
            tick=event.tick,
        )
        return _moved(fsm, RobotState.RELAY, fsm.carrying), [ready]

    if k == EventKind.PICKUP_DONE:
        if s is not RobotState.PICKUP:
            raise IllegalTransition(f"PickupDone in state {s}")
        return _moved(fsm, RobotState.NAVIGATE, fsm.item), []

    if k == EventKind.MESSAGE_RECEIVED:
        msg = event.message
        if msg is None:
            raise IllegalTransition("MessageReceived without a message")
        if s is RobotState.RELAY and msg.kind is MessageKind.HANDOFF_ACK and carrying:
            return _moved(fsm, RobotState.IDLE, None), []
        if s is RobotState.RELAY and msg.kind is MessageKind.HANDOFF_READY and not carrying:
            ack = HandoffMessage(
                kind=MessageKind.HANDOFF_ACK,
                task_id=fsm.task_id,
                from_id=fsm.robot_id,
                to_id=msg.from_id,
                at=event.at if event.at is not None else msg.at,
                tick=event.tick,
            )
            return _moved(fsm, RobotState.NAVIGATE, fsm.item), [ack]
        raise IllegalTransition(f"{msg.kind} in state {s} with carrying={fsm.carrying!r}")

    if k == EventKind.DROP_DONE:
        if s is not RobotState.DELIVER:
            raise IllegalTransition(f"DropDone in state {s}")
        done = HandoffMessage(
            kind=MessageKind.TASK_COMPLETE,
            task_id=fsm.task_id,
            from_id=fsm.robot_id,
            to_id=fsm.robot_id,
            at=fsm.leg_end,
            tick=event.tick,
        )
        return _moved(fsm, RobotState.IDLE, None), [done]

    raise IllegalTransition(f"unhandled event kind {k}")


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
