import itertools
from pathlib import Path

import pytest

from relaysim import coordination
from relaysim.coordination import (
    _TABLE,
    EventKind,
    FsmEvent,
    HandoffMessage,
    LedStatus,
    MessageBus,
    MessageKind,
    RobotFsm,
    RobotState,
    fsm_step,
)
from relaysim.errors import IllegalTransition
from relaysim.geometry import Point

TRANSFER = Point(10.0, 10.0)
DROP = Point(17.5, 2.5)
ITEM = "glass of water"
README = Path(__file__).resolve().parents[1] / "README.md"


def initiator_fsm(**overrides):
    base = dict(
        robot_id=1,
        task_id="t1",
        item="glass of water",
        picks_up=True,
        leg_end=TRANSFER,
        peer_next=2,
    )
    base.update(overrides)
    return RobotFsm(**base)


def final_fsm(**overrides):
    base = dict(
        robot_id=2,
        task_id="t1",
        item="glass of water",
        leg_end=DROP,
    )
    base.update(overrides)
    return RobotFsm(**base)


def arrived(tick):
    return FsmEvent(EventKind.ARRIVED_WAYPOINT, tick=tick)


def received(msg, tick=9, at=None):
    return FsmEvent(EventKind.MESSAGE_RECEIVED, tick=tick, at=at, message=msg)


class TestFsmStep:
    def test_assign_segment_starts_navigation(self):
        fsm = initiator_fsm()
        nxt, out = fsm_step(fsm, FsmEvent(EventKind.ASSIGN_SEGMENT, tick=0))
        assert nxt.state is RobotState.NAVIGATE
        assert out == []

    def test_arrival_at_pickup_enters_pickup(self):
        fsm = initiator_fsm(state=RobotState.NAVIGATE)
        nxt, out = fsm_step(fsm, arrived(3))
        assert nxt.state is RobotState.PICKUP
        assert out == []

    def test_pickup_done_turns_led_green(self):
        fsm = initiator_fsm(state=RobotState.PICKUP)
        nxt, out = fsm_step(fsm, FsmEvent(EventKind.PICKUP_DONE, tick=4))
        assert nxt.state is RobotState.NAVIGATE
        assert nxt.carrying == "glass of water"
        assert out == []

    def test_carrier_at_transfer_emits_handoff_ready(self):
        fsm = initiator_fsm(state=RobotState.NAVIGATE, carrying="glass of water")
        nxt, out = fsm_step(fsm, arrived(9))
        assert nxt.state is RobotState.RELAY
        assert nxt.carrying == "glass of water"
        assert len(out) == 1
        msg = out[0]
        assert msg.kind is MessageKind.HANDOFF_READY
        assert (msg.from_id, msg.to_id) == (1, 2)
        assert msg.at == TRANSFER
        assert msg.tick == 9
        assert msg.status_led is LedStatus.BLUE

    def test_receiver_at_incoming_transfer_enters_relay(self):
        fsm = final_fsm(state=RobotState.NAVIGATE)
        nxt, out = fsm_step(fsm, arrived(7))
        assert nxt.state is RobotState.RELAY
        assert nxt.carrying is None
        assert out == []

    def test_receiver_acks_and_takes_item(self):
        fsm = final_fsm(state=RobotState.RELAY)
        ready = HandoffMessage(MessageKind.HANDOFF_READY, "t1", 1, 2, TRANSFER, 9)
        nxt, out = fsm_step(fsm, received(ready, at=Point(10.5, 9.5)))
        assert nxt.carrying == "glass of water"
        assert nxt.state is RobotState.NAVIGATE
        assert len(out) == 1
        ack = out[0]
        assert ack.kind is MessageKind.HANDOFF_ACK
        assert (ack.from_id, ack.to_id) == (2, 1)
        assert ack.at == Point(10.5, 9.5)  # where the receiver stands
        assert ack.status_led is LedStatus.GREEN
        # without a position the ack is placed at the sender's transfer point
        _, out = fsm_step(fsm, received(ready))
        assert out[0].at == TRANSFER

    def test_ack_releases_sender(self):
        fsm = initiator_fsm(state=RobotState.RELAY, carrying="glass of water")
        ack = HandoffMessage(MessageKind.HANDOFF_ACK, "t1", 2, 1, TRANSFER, 9)
        nxt, out = fsm_step(fsm, received(ack))
        assert nxt.state is RobotState.IDLE
        assert nxt.carrying is None
        assert out == []

    def test_arrival_at_drop_then_drop_done_completes(self):
        fsm = final_fsm(state=RobotState.NAVIGATE, carrying="glass of water")
        mid, out = fsm_step(fsm, arrived(20))
        assert mid.state is RobotState.DELIVER
        assert out == []
        nxt, out = fsm_step(mid, FsmEvent(EventKind.DROP_DONE, tick=21))
        assert nxt.state is RobotState.IDLE
        assert nxt.carrying is None
        assert len(out) == 1
        assert out[0].kind is MessageKind.TASK_COMPLETE
        assert out[0].at == DROP
        assert out[0].status_led is LedStatus.OFF

    def test_solo_robot_goes_pickup_then_drop(self):
        fsm = initiator_fsm(leg_end=DROP, peer_next=None)
        fsm, _ = fsm_step(fsm, FsmEvent(EventKind.ASSIGN_SEGMENT, tick=0))
        fsm, _ = fsm_step(fsm, arrived(1))
        fsm, _ = fsm_step(fsm, FsmEvent(EventKind.PICKUP_DONE, tick=1))
        fsm, out = fsm_step(fsm, arrived(5))
        assert fsm.state is RobotState.DELIVER
        assert out == []

    @pytest.mark.parametrize(
        "state,event",
        [
            (RobotState.NAVIGATE, FsmEvent(EventKind.ASSIGN_SEGMENT, 0)),
            (RobotState.IDLE, FsmEvent(EventKind.ARRIVED_WAYPOINT, 0)),
            (RobotState.IDLE, FsmEvent(EventKind.PICKUP_DONE, 0)),
            (RobotState.NAVIGATE, FsmEvent(EventKind.DROP_DONE, 0)),
            (RobotState.IDLE, FsmEvent(EventKind.MESSAGE_RECEIVED, 0)),
            (RobotState.RELAY, FsmEvent(EventKind.ARRIVED_WAYPOINT, 0)),
        ],
    )
    def test_off_table_events_raise(self, state, event):
        fsm = initiator_fsm(state=state)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, event)

    def test_bystander_never_assigned(self):
        fsm = RobotFsm(robot_id=7)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, FsmEvent(EventKind.ASSIGN_SEGMENT, 0))


def _msg(kind, frm, to, tick):
    return HandoffMessage(kind, "t1", frm, to, Point(0, 0), tick)


class TestMessageBus:
    def test_zero_delay_immediate(self):
        bus = MessageBus(delay=0)
        bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, 5))
        assert [m.kind for m in bus.poll(2, 5)] == [MessageKind.HANDOFF_READY]

    def test_exactly_once(self):
        bus = MessageBus(delay=0)
        bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, 5))
        assert len(bus.poll(2, 5)) == 1
        assert bus.poll(2, 5) == []
        assert bus.poll(2, 99) == []

    def test_delay_holds_message(self):
        bus = MessageBus(delay=2)
        bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, 5))
        assert bus.poll(2, 5) == []
        assert bus.poll(2, 6) == []
        assert len(bus.poll(2, 7)) == 1

    def test_fifo_per_recipient(self):
        bus = MessageBus(delay=0)
        bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, 1))
        bus.send(_msg(MessageKind.HANDOFF_ACK, 3, 2, 1))
        kinds = [m.kind for m in bus.poll(2, 1)]
        assert kinds == [MessageKind.HANDOFF_READY, MessageKind.HANDOFF_ACK]

    def test_recipients_isolated(self):
        bus = MessageBus(delay=0)
        bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, 0))
        assert bus.poll(3, 0) == []
        assert len(bus.poll(2, 0)) == 1

    def test_log_records_every_send(self):
        bus = MessageBus(delay=3)
        for t in range(4):
            bus.send(_msg(MessageKind.HANDOFF_READY, 1, 2, t))
        assert len(bus.log) == 4
        assert [m.tick for m in bus.log] == [0, 1, 2, 3]


def test_message_json_line_is_stable():
    msg = _msg(MessageKind.HANDOFF_READY, 1, 2, 5)
    assert msg.to_json_line() == msg.to_json_line()
    assert '"kind": "HandoffReady"' in msg.to_json_line()



# --- the transition table ----------------------------------------------------

# the cues each event kind can give: whether an arrival is at a task end, the
# received message's kind (None when the event carries no message), else None
CUES = {
    EventKind.ARRIVED_WAYPOINT: (False, True),
    EventKind.MESSAGE_RECEIVED: (None, *MessageKind),
}
KEYS = [
    (state, kind, holds, cue)
    for state, kind, holds in itertools.product(RobotState, EventKind, (False, True))
    for cue in CUES.get(kind, (None,))
]


def key_id(key):
    return "-".join(str(getattr(part, "value", part)) for part in key)


def key_input(state, kind, holds, cue):
    """An FSM and an event that `fsm_step` looks up under this key."""
    at_end = cue is True
    fsm = RobotFsm(
        robot_id=1,
        state=state,
        carrying=ITEM if holds else None,
        task_id="t1",
        item=ITEM,
        picks_up=at_end and not holds,
        leg_end=TRANSFER,
        peer_next=None if at_end and holds else 2,
    )
    msg = HandoffMessage(cue, "t1", 2, 1, TRANSFER, 0) if isinstance(cue, MessageKind) else None
    return fsm, FsmEvent(kind, 0, None, msg)


class TestTable:
    def test_every_key_can_be_built_from_an_event(self):
        assert len(_TABLE) == 9
        assert set(_TABLE) <= set(KEYS)

    @pytest.mark.parametrize("key", KEYS, ids=key_id)
    def test_each_key_follows_its_row_or_raises(self, key):
        fsm, event = key_input(*key)
        if key not in _TABLE:
            with pytest.raises(IllegalTransition):
                fsm_step(fsm, event)
            return
        state, holds, send = _TABLE[key]
        nxt, out = fsm_step(fsm, event)
        assert nxt == fsm._replace(state=state, carrying=ITEM if holds else None)
        assert [m.kind for m in out] == ([] if send is None else [send])
        with pytest.raises(IllegalTransition):  # a bystander takes no event
            fsm_step(fsm._replace(leg_end=None), event)

    @pytest.mark.parametrize(
        "fsm,event,text",
        [
            (final_fsm(state=RobotState.NAVIGATE),
             received(HandoffMessage(MessageKind.HANDOFF_ACK, "t1", 1, 2, TRANSFER, 0)),
             "robot 2: no transition for HandoffAck in state Navigate carrying None"),
            (initiator_fsm(state=RobotState.RELAY, carrying=ITEM),
             received(HandoffMessage(MessageKind.HANDOFF_READY, "t1", 3, 1, TRANSFER, 0)),
             "robot 1: no transition for HandoffReady in state Relay carrying 'glass of water'"),
            (initiator_fsm(), FsmEvent(EventKind.PICKUP_DONE, 0),
             "robot 1: no transition for PickupDone in state Idle carrying None"),
            (RobotFsm(robot_id=7), FsmEvent(EventKind.ASSIGN_SEGMENT, 0),
             "robot 7: no transition for AssignSegment in state Idle carrying None"),
        ],
    )
    def test_illegal_transition_text(self, fsm, event, text):
        with pytest.raises(IllegalTransition) as err:
            fsm_step(fsm, event)
        assert str(err.value) == text

    def test_readme_prints_the_table(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        head = next(i for i, ln in enumerate(lines) if ln.strip().startswith("| state | event |"))
        rows = []
        for ln in itertools.takewhile(lambda ln: ln.strip().startswith("|"), lines[head + 2:]):
            rows.append([c.strip() for c in ln.strip().strip("|").split("|")])
        flag = {"yes": True, "no": False}
        at_end = {"at task end": True, "elsewhere": False}

        def message(cell):
            return None if cell == "–" else MessageKind(cell)

        printed = [
            ((RobotState(s), EventKind(k), flag[h], at_end[c] if c in at_end else message(c)),
             (RobotState(n), flag[ha], message(m)))
            for s, k, h, c, n, ha, m in rows
        ]
        assert printed == list(_TABLE.items())


# --- the handoff protocol, checked exhaustively -------------------------------
#
# Every interleaving of arrivals, message deliveries and ticks, for a chain of
# robots 0..n-1 driven through the real `fsm_step` and `MessageBus`. A robot's
# position is abstracted to "on its stop or not": a NAVIGATE robot may arrive at
# any tick, the next event included, which is `simulate`'s arrival at once. As
# in `simulate`, the pickup and the drop follow their arrival at once, a message
# is delivered only to a RELAY robot, and the tick advances only when no due
# message can be delivered. States that differ only by the absolute tick are one.

FOLLOW_UP = {RobotState.PICKUP: EventKind.PICKUP_DONE, RobotState.DELIVER: EventKind.DROP_DONE}


def chain_fsms(n):
    return [
        RobotFsm(
            robot_id=j,
            task_id="t1",
            item=ITEM,
            picks_up=j == 0,
            leg_end=Point(float(j + 1), 0.0),
            peer_next=j + 1 if j + 1 < n else None,
        )
        for j in range(n)
    ]


def settle(fsm, event, bus, fired):
    """`simulate`'s step: apply `event`, then the pickup or drop that follows."""
    while True:
        nxt, msgs = fsm_step(fsm, event)
        fired.add((fsm.state, event.kind, fsm.carrying is not None,
                   nxt.state, nxt.carrying is not None, *(m.kind for m in msgs)))
        for m in msgs:
            bus.send(m)
        fsm = nxt
        if fsm.state not in FOLLOW_UP:
            return fsm
        event = FsmEvent(FOLLOW_UP[fsm.state], event.tick)


def check_invariants(fsms, log):
    sent = [(m.kind, m.from_id, m.to_id) for m in log]
    assert len(set(sent)) == len(sent)
    for i, (kind, frm, to) in enumerate(sent):
        if kind is MessageKind.HANDOFF_ACK:
            assert (MessageKind.HANDOFF_READY, to, frm) in sent[:i]
    # a sender keeps the item until its Ack arrives; it is released once the
    # Ack is sent, as the receiver took the item on the Ready
    released = {to for kind, _, to in sent if kind is MessageKind.HANDOFF_ACK}
    holders = [f.robot_id for f in fsms if f.carrying is not None and f.robot_id not in released]
    # nobody holds the item before the pickup and after the drop
    before_pickup = not log and fsms[0].carrying is None
    delivered = bool(log) and log[-1].kind is MessageKind.TASK_COMPLETE
    assert len(holders) == (0 if before_pickup or delivered else 1)
    assert all(f.carrying in (None, ITEM) for f in fsms)


def explore(n, delay, fired):
    """Check every reachable state of an n-robot chain; returns (states, finals).
    The check goes on after the TaskComplete that ends `simulate`'s trial, so
    that an Ack still in flight then reaches its sender."""
    bus = MessageBus(delay)
    fsms = tuple(settle(f, FsmEvent(EventKind.ASSIGN_SEGMENT, 0), bus, fired) for f in chain_fsms(n))
    stack = [(0, fsms, tuple(bus.log), tuple(bus.log))]  # tick, FSMs, log, undelivered
    seen = set()
    finals = 0
    while stack:
        tick, fsms, log, pending = node = stack.pop()
        key = (
            tuple((f.state, f.carrying is not None) for f in fsms),
            tuple((m.kind, m.from_id, m.to_id) for m in log),
            tuple((m.kind, m.to_id, max(m.tick + delay - tick, 0)) for m in pending),
        )
        if key in seen:
            continue
        seen.add(key)
        check_invariants(fsms, log)
        arrive = [f.robot_id for f in fsms if f.state is RobotState.NAVIGATE]
        deliver = sorted({
            m.to_id for m in pending
            if m.tick + delay <= tick and fsms[m.to_id].state is RobotState.RELAY
        })
        nexts = []
        for rid in arrive + deliver:
            # a fresh bus with this state's undelivered messages and log
            bus = MessageBus(delay)
            for m in pending:
                bus.send(m)
            bus.log = list(log)
            polled = []
            fsm = fsms[rid]
            if rid in deliver:
                polled = bus.poll(rid, tick)
                for m in polled:
                    fsm = settle(fsm, FsmEvent(EventKind.MESSAGE_RECEIVED, tick, None, m), bus, fired)
            else:
                fsm = settle(fsm, FsmEvent(EventKind.ARRIVED_WAYPOINT, tick), bus, fired)
            left = tuple(m for m in pending if not any(m is p for p in polled))
            nexts.append((tick, fsms[:rid] + (fsm,) + fsms[rid + 1:], tuple(bus.log),
                          left + tuple(bus.log[len(log):])))
        if not deliver and (arrive or any(m.tick + delay > tick for m in pending)):
            nexts.append((tick + 1, *node[1:]))
        if not nexts:  # a state without an enabled event must be final
            assert all(f.state is RobotState.IDLE and f.carrying is None for f in fsms), key
            assert [m.kind for m in log].count(MessageKind.TASK_COMPLETE) == 1
            assert log[-1].kind is MessageKind.TASK_COMPLETE
            assert pending == log[-1:]  # every Ready and Ack was delivered
            finals += 1
        stack.extend(nexts)
    assert finals
    return len(seen), finals


CHAINS = list(itertools.product(range(1, 6), range(4)))  # (robots, message delay)


@pytest.mark.parametrize("n,delay", CHAINS)
def test_protocol_is_safe_and_completes(n, delay):
    explore(n, delay, set())


def test_every_row_fires():
    fired = set()
    for n, delay in CHAINS:
        explore(n, delay, fired)
    rows = {(s, k, h, ns, nh, *([] if m is None else [m])) for (s, k, h, _), (ns, nh, m) in _TABLE.items()}
    assert fired == rows


@pytest.mark.parametrize("key", list(_TABLE), ids=key_id)
def test_no_row_is_dead(key, monkeypatch):
    monkeypatch.delitem(coordination._TABLE, key)
    with pytest.raises(IllegalTransition):
        for n, delay in CHAINS:
            explore(n, delay, set())
