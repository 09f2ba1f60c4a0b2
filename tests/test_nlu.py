import http.client
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.errors import (
    EndpointUnreachable,
    MalformedResponse,
    PointOutsideWorkspace,
    SameZone,
    UnknownZone,
    UnparsableCommand,
)
from relaysim.geometry import Point, Workspace
from relaysim.nlu import InterpreterConfig, TaskSpec, interpret_external, parse_command, validate_task


class TestParseCommand:
    def test_paper_style_command(self, five_zone_map):
        task = parse_command(
            "Bring the glass of water from the kitchen to the bedroom", five_zone_map
        )
        assert task.pickup == Point(2.5, 17.5)
        assert task.drop == Point(17.5, 2.5)
        assert task.item == "glass of water"

    def test_direct_pattern(self, five_zone_map):
        task = parse_command("deliver box from Storage Area to Bathroom", five_zone_map)
        assert task.pickup == Point(17.5, 17.5)
        assert task.drop == Point(2.5, 2.5)
        assert task.item == "box"

    def test_missing_structure(self, five_zone_map):
        with pytest.raises(UnparsableCommand):
            parse_command("go to the kitchen", five_zone_map)

    def test_unknown_verb_rejected(self, five_zone_map):
        with pytest.raises(UnparsableCommand):
            parse_command("teleport box from kitchen to bedroom", five_zone_map)

    def test_unknown_zone(self, five_zone_map):
        with pytest.raises(UnknownZone):
            parse_command("bring box from garage to bedroom", five_zone_map)

    def test_same_zone(self, five_zone_map):
        with pytest.raises(SameZone):
            parse_command("bring box from kitchen to kitchen", five_zone_map)

    def test_empty(self, five_zone_map):
        with pytest.raises(UnparsableCommand):
            parse_command("   ", five_zone_map)

    @pytest.mark.parametrize(
        "variant",
        [
            "bring the box from the kitchen to the bedroom",
            "BRING THE BOX FROM THE KITCHEN TO THE BEDROOM",
            "take a box from kitchen to bedroom",
            "deliver the box from Kitchen to Bedroom.",
            "carry  the box  from the  kitchen to   the bedroom",
            "move box from the Kitchen to the Bedroom!",
        ],
    )
    def test_phrasing_variants_agree(self, variant, five_zone_map):
        base = parse_command("bring box from kitchen to bedroom", five_zone_map)
        got = parse_command(variant, five_zone_map)
        assert (got.pickup, got.drop, got.item) == (base.pickup, base.drop, base.item)

    @settings(max_examples=50, deadline=None)
    @given(
        verb=st.sampled_from(["bring", "take", "deliver", "carry", "move"]),
        art=st.sampled_from(["", "the ", "a "]),
        pad=st.integers(min_value=1, max_value=3),
        upper=st.booleans(),
    )
    def test_normalization_invariance(self, verb, art, pad, upper):
        from relaysim.world import SemanticMap

        smap = SemanticMap.from_raw(
            {"Kitchen": Point(2.5, 17.5), "Bathroom": Point(2.5, 2.5)}
        )
        sp = " " * pad
        text = f"{verb}{sp}{art}cup{sp}from{sp}the kitchen{sp}to{sp}{art}bathroom"
        if upper:
            text = text.upper()
        task = parse_command(text, smap)
        assert task.item == "cup"
        assert task.pickup == Point(2.5, 17.5)
        assert task.drop == Point(2.5, 2.5)


class _Handler(BaseHTTPRequestHandler):
    reply: dict | bytes = {}  # bytes are sent as they are
    status: int = 200
    delay: float = 0.0
    seen: list = []
    content_types: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.content_types.append(self.headers["Content-Type"])
        _Handler.seen.append(json.loads(self.rfile.read(length)))
        if _Handler.delay:
            time.sleep(_Handler.delay)
        body = _Handler.reply
        if not isinstance(body, bytes):
            body = json.dumps(body).encode()
        self.send_response(_Handler.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.reply = {}
    _Handler.status = 200
    _Handler.delay = 0.0
    _Handler.seen = []
    _Handler.content_types = []
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


@pytest.fixture
def garbage_endpoint():
    """A raw socket that reads each request and answers with a line that is
    not an HTTP status line, so urlopen raises BadStatusLine."""
    server = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def serve():
        while True:
            conn, _ = server.accept()
            if stop.is_set():
                conn.close()
                return
            with conn, conn.makefile("rb") as request:
                length = 0
                for line in request:
                    if line == b"\r\n":
                        break
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                request.read(length)
                conn.sendall(b"NOT AN HTTP REPLY\r\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    address = server.getsockname()
    yield f"http://127.0.0.1:{address[1]}/"
    stop.set()
    socket.create_connection(address).close()  # wake the accept
    thread.join()
    server.close()


class TestInterpretExternal:
    def test_matches_grammar_path(self, five_zone_map, mock_endpoint):
        _Handler.reply = {"pickup": "Kitchen", "drop": "Bedroom", "item": "glass of water"}
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=2.0)
        text = "Bring the glass of water from the kitchen to the bedroom"
        got = interpret_external(text, five_zone_map, cfg)
        want = parse_command(text, five_zone_map)
        assert (got.pickup, got.drop, got.item) == (want.pickup, want.drop, want.item)
        # wire contract: a JSON body with the command plus the known zone names
        assert _Handler.content_types == ["application/json"]
        assert _Handler.seen[0]["command"] == text
        assert "kitchen" in _Handler.seen[0]["zones"]

    def test_timeout_falls_back_to_grammar(self, five_zone_map, mock_endpoint):
        _Handler.delay = 1.0
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=0.2)
        got = interpret_external("bring box from kitchen to bedroom", five_zone_map, cfg)
        assert got.pickup == Point(2.5, 17.5)

    def test_timeout_without_fallback_raises(self, five_zone_map, mock_endpoint):
        _Handler.delay = 1.0
        cfg = InterpreterConfig(
            endpoint=mock_endpoint, timeout=0.2, fallback=False
        )
        with pytest.raises(EndpointUnreachable):
            interpret_external("bring box from kitchen to bedroom", five_zone_map, cfg)

    def test_unknown_zone_from_endpoint(self, five_zone_map, mock_endpoint):
        _Handler.reply = {"pickup": "Attic", "drop": "Bedroom", "item": "box"}
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=2.0)
        with pytest.raises(UnknownZone):
            interpret_external("whatever", five_zone_map, cfg)

    def test_malformed_reply_falls_back(self, five_zone_map, mock_endpoint):
        _Handler.reply = {"nonsense": True}
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=2.0)
        got = interpret_external("bring box from kitchen to bedroom", five_zone_map, cfg)
        assert got.item == "box"

    def test_reply_nested_too_deep_falls_back(self, five_zone_map, mock_endpoint):
        _Handler.reply = b"[" * 100_000 + b"]" * 100_000
        text = "bring box from kitchen to bedroom"
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=2.0)
        assert interpret_external(text, five_zone_map, cfg) == parse_command(text, five_zone_map)
        cfg = InterpreterConfig(endpoint=mock_endpoint, timeout=2.0, fallback=False)
        with pytest.raises(MalformedResponse):
            interpret_external(text, five_zone_map, cfg)

    def test_error_status_without_fallback_raises(self, five_zone_map, mock_endpoint):
        _Handler.status = 500
        _Handler.reply = {"pickup": "Kitchen", "drop": "Bedroom", "item": "box"}
        cfg = InterpreterConfig(
            endpoint=mock_endpoint, timeout=2.0, fallback=False
        )
        with pytest.raises(MalformedResponse):
            interpret_external("bring box from kitchen to bedroom", five_zone_map, cfg)

    def test_bad_status_line_without_fallback_raises(self, five_zone_map, garbage_endpoint):
        cfg = InterpreterConfig(
            endpoint=garbage_endpoint, timeout=2.0, fallback=False
        )
        with pytest.raises(EndpointUnreachable) as info:
            interpret_external("bring box from kitchen to bedroom", five_zone_map, cfg)
        # the http.client.HTTPException branch: BadStatusLine is not an OSError
        assert isinstance(info.value.__cause__, http.client.BadStatusLine)

    def test_bad_status_line_falls_back_to_grammar(self, five_zone_map, garbage_endpoint):
        cfg = InterpreterConfig(endpoint=garbage_endpoint, timeout=2.0)
        text = "bring box from kitchen to bedroom"
        assert interpret_external(text, five_zone_map, cfg) == parse_command(text, five_zone_map)

    def test_config_rejects_a_timeout_urlopen_cannot_take(self):
        # inf made urlopen raise OverflowError past the fallback; 0 and -1
        # failed every request at once, as if the endpoint were unreachable;
        # 1e10 passes time_t on 64-bit platforms and overflowed as inf did
        for timeout in (math.inf, math.nan, 1e10, 0.0, -1.0, True, "5"):
            with pytest.raises(ValueError, match="timeout"):
                InterpreterConfig("http://127.0.0.1:9/", timeout, True)
        assert InterpreterConfig(timeout=1).timeout == 1
        assert InterpreterConfig(timeout=1e9).timeout == 1e9

    def test_external_mode_requires_endpoint(self, five_zone_map):
        text = "bring box from kitchen to bedroom"
        with pytest.raises(ValueError):
            interpret_external(text, five_zone_map, InterpreterConfig())


class TestValidateTask:
    def test_valid_unchanged(self, five_zone_map, workspace20):
        task = parse_command("bring box from kitchen to bedroom", five_zone_map)
        assert validate_task(task, workspace20) is task

    def test_same_zone(self, workspace20):
        task = TaskSpec(pickup=Point(1, 1), drop=Point(1, 1), item="x", source_text="t")
        with pytest.raises(SameZone):
            validate_task(task, workspace20)

    def test_outside_workspace(self, workspace20):
        task = TaskSpec(pickup=Point(1, 1), drop=Point(25, 1), item="x", source_text="t")
        with pytest.raises(PointOutsideWorkspace):
            validate_task(task, workspace20)
