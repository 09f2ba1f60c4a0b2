import pytest

from relaysim.coordination import (
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
        assert nxt.status_led is LedStatus.OFF
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
        assert nxt.status_led is LedStatus.GREEN
        assert out == []

    def test_carrier_at_transfer_emits_handoff_ready(self):
        fsm = initiator_fsm(state=RobotState.NAVIGATE, carrying="glass of water")
        nxt, out = fsm_step(fsm, arrived(9))
        assert nxt.state is RobotState.RELAY
        assert nxt.status_led is LedStatus.BLUE
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
        assert nxt.status_led is LedStatus.BLUE
        assert out == []

    def test_receiver_acks_and_takes_item(self):
        fsm = final_fsm(state=RobotState.RELAY)
        ready = HandoffMessage(MessageKind.HANDOFF_READY, "t1", 1, 2, TRANSFER, 9)
        nxt, out = fsm_step(fsm, received(ready, at=Point(10.5, 9.5)))
        assert nxt.carrying == "glass of water"
        assert nxt.status_led is LedStatus.GREEN
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
        assert fsm.status_led is LedStatus.BLUE
        ack = HandoffMessage(MessageKind.HANDOFF_ACK, "t1", 2, 1, TRANSFER, 9)
        nxt, out = fsm_step(fsm, received(ack))
        assert nxt.state is RobotState.IDLE
        assert nxt.carrying is None
        assert nxt.status_led is LedStatus.OFF
        assert out == []

    def test_arrival_at_drop_then_drop_done_completes(self):
        fsm = final_fsm(state=RobotState.NAVIGATE, carrying="glass of water")
        mid, out = fsm_step(fsm, arrived(20))
        assert mid.state is RobotState.DELIVER
        assert mid.status_led is LedStatus.GREEN
        assert out == []
        nxt, out = fsm_step(mid, FsmEvent(EventKind.DROP_DONE, tick=21))
        assert nxt.state is RobotState.IDLE
        assert nxt.carrying is None
        assert nxt.status_led is LedStatus.OFF
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

    def test_ack_in_navigate_is_illegal(self):
        fsm = final_fsm(state=RobotState.NAVIGATE)
        ack = HandoffMessage(MessageKind.HANDOFF_ACK, "t1", 1, 2, Point(0, 0), 0)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, received(ack, tick=0))

    def test_ready_to_receiver_still_navigating_is_illegal(self):
        fsm = final_fsm(state=RobotState.NAVIGATE)
        ready = HandoffMessage(MessageKind.HANDOFF_READY, "t1", 1, 2, TRANSFER, 0)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, received(ready, tick=0))

    def test_relay_takes_ready_only_without_the_item(self):
        fsm = initiator_fsm(state=RobotState.RELAY, carrying="glass of water")
        ready = HandoffMessage(MessageKind.HANDOFF_READY, "t1", 3, 1, TRANSFER, 0)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, received(ready, tick=0))

    def test_relay_takes_ack_only_with_the_item(self):
        fsm = final_fsm(state=RobotState.RELAY)
        ack = HandoffMessage(MessageKind.HANDOFF_ACK, "t1", 1, 2, TRANSFER, 0)
        with pytest.raises(IllegalTransition):
            fsm_step(fsm, received(ack, tick=0))


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

