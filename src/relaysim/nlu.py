"""Natural-language command parsing into structured pickup/delivery tasks.

Two routes: a deterministic grammar parser, and a pluggable HTTP client for
an external interpreter that speaks a small JSON contract.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .errors import (
    EndpointUnreachable,
    MalformedResponse,
    PointOutsideWorkspace,
    SameZone,
    UnknownZone,
    UnparsableCommand,
)
from .geometry import Point, Workspace, point_from_list
from .world import SemanticMap, normalize_zone_name, resolve_zone

_VERBS = ("bring", "take", "deliver", "carry", "move")
_COMMAND_RE = re.compile(
    r"^(?:please\s+)?(?P<verb>" + "|".join(_VERBS) + r")\s+"
    r"(?P<item>.+?)\s+from\s+(?P<pickup>.+?)\s+to\s+(?P<drop>.+?)$",
    re.IGNORECASE,
)
_ARTICLE_RE = re.compile(r"^(?:the|a|an)\s+", re.IGNORECASE)


class TaskSpec(NamedTuple):
    pickup: Point
    drop: Point
    item: str
    source_text: str


def task_to_dict(task: TaskSpec) -> dict:
    return {
        "pickup": [task.pickup.x, task.pickup.y],
        "drop": [task.drop.x, task.drop.y],
        "item": task.item,
        "source_text": task.source_text,
    }


def task_from_dict(data: dict) -> TaskSpec:
    task = TaskSpec(
        pickup=point_from_list(data["pickup"]),
        drop=point_from_list(data["drop"]),
        item=data["item"],
        source_text=data["source_text"],
    )
    if not (isinstance(task.item, str) and isinstance(task.source_text, str)):
        raise ValueError("item and source_text must be strings")
    return task


class _InterpreterConfigFields(NamedTuple):
    endpoint: str | None  # set: the external route; None: the grammar
    timeout: float  # seconds
    fallback: bool


class InterpreterConfig(_InterpreterConfigFields):
    """Which route `interpret` takes, and how long the external one waits."""

    __slots__ = ()

    def __new__(
        cls, endpoint: str | None = None, timeout: float = 5.0, fallback: bool = True
    ) -> InterpreterConfig:
        # urlopen raises OverflowError on a timeout past the platform's time_t
        # (about 9.2e9 s, inf included), and fails at once, as if
        # unreachable, on one <= 0
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not 0 < timeout <= 1e9:
            raise ValueError("timeout must be a number of seconds in (0, 1e9]")
        return tuple.__new__(cls, (endpoint, timeout, fallback))


def _strip_article(phrase: str) -> str:
    return _ARTICLE_RE.sub("", phrase.strip())


def parse_command(text: str, smap: SemanticMap) -> TaskSpec:
    """Grammar route: '<verb> <item> from <zone> to <zone>'."""
    if not text or not text.strip():
        raise UnparsableCommand("empty command")
    cleaned = re.sub(r"\s+", " ", text.strip()).rstrip(".!?").strip()
    m = _COMMAND_RE.match(cleaned)
    if m is None:
        raise UnparsableCommand(f"command does not match the grammar: {text!r}")
    item = normalize_zone_name(_strip_article(m.group("item")))
    pickup_name = _strip_article(m.group("pickup"))
    drop_name = _strip_article(m.group("drop"))
    if not item:
        raise UnparsableCommand("missing item")
    pickup = resolve_zone(pickup_name, smap)
    drop = resolve_zone(drop_name, smap)
    if pickup == drop:
        raise SameZone(f"pickup and drop both resolve to {pickup_name!r}")
    return TaskSpec(pickup=pickup, drop=drop, item=item, source_text=text)


def _post_json(url: str, payload: dict, timeout: float) -> object:
    """POST payload as JSON and decode the JSON reply.

    Transport failures and timeouts raise EndpointUnreachable; a non-2xx
    status or a body that is not JSON raises MalformedResponse.
    """
    # imported here: only the external route needs the HTTP stack (ssl, socket, email)
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise MalformedResponse(f"HTTP status {exc.code} from {url}") from exc
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise EndpointUnreachable(str(exc)) from exc
    try:
        return json.loads(raw)
    except (RecursionError, ValueError) as exc:
        raise MalformedResponse(f"reply is not JSON: {exc}") from exc


def interpret_external(
    text: str, smap: SemanticMap, config: InterpreterConfig
) -> TaskSpec:
    """External route: POST the command and known zones, resolve the reply.

    Falls back to the grammar parser on transport failures or malformed
    replies when config.fallback is on; unknown zones are semantic errors
    and always raise.
    """
    if not config.endpoint:
        raise ValueError("interpret_external requires an endpoint")
    payload = {"command": text, "zones": sorted(smap.zones)}
    try:
        body = _post_json(config.endpoint, payload, config.timeout)
        try:
            pickup_name = body["pickup"]
            drop_name = body["drop"]
            item = body["item"]
        except (KeyError, TypeError) as exc:
            raise MalformedResponse(f"reply lacks a field: {exc!r}") from exc
        if not all(isinstance(v, str) for v in (pickup_name, drop_name, item)):
            raise MalformedResponse("reply's pickup, drop and item must be strings")
    except (EndpointUnreachable, MalformedResponse):
        if config.fallback:
            return parse_command(text, smap)
        raise
    pickup = resolve_zone(pickup_name, smap)
    drop = resolve_zone(drop_name, smap)
    if pickup == drop:
        raise SameZone(f"interpreter returned identical zones {pickup_name!r}")
    return TaskSpec(pickup=pickup, drop=drop, item=item, source_text=text)


def interpret(text: str, smap: SemanticMap, config: InterpreterConfig) -> TaskSpec:
    """The external route when config has an endpoint, else the grammar."""
    if config.endpoint:
        return interpret_external(text, smap, config)
    return parse_command(text, smap)


def validate_task(task: TaskSpec, workspace: Workspace) -> TaskSpec:
    if not workspace.contains(task.pickup):
        raise PointOutsideWorkspace("pickup outside workspace")
    if not workspace.contains(task.drop):
        raise PointOutsideWorkspace("drop outside workspace")
    if task.pickup == task.drop:
        raise SameZone("pickup equals drop")
    return task
