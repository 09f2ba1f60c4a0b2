"""Writes semantic map files in the format `world.load_semantic_map` reads."""

from __future__ import annotations

import json

from relaysim.geometry import Workspace, workspace_to_dict
from relaysim.world import SemanticMap


def map_json(smap: SemanticMap, workspace: Workspace) -> str:
    data = {
        "zones": {name: [p.x, p.y] for name, p in sorted(smap.zones.items())},
        "workspace": workspace_to_dict(workspace),
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
