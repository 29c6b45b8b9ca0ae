"""Pinned bytes of `simulate --out`.

Oracle transcripts grade every model and seed the training data, so a
speed-up of the session loop must leave them byte for byte as they were. A
change that alters the transcript format on purpose updates the digests.
"""

import hashlib
import json

from smart_tcp.agent_runtime import Scenario
from smart_tcp.cli import EXIT_OK, main
from smart_tcp.tcp_core import Role

# Alternating data segments of awkward sizes, the server closes.
MULTI_SEGMENT = Scenario(
    data_script=(
        (Role.CLIENT, 1),
        (Role.SERVER, 1460),
        (Role.CLIENT, 700),
        (Role.SERVER, 3),
        (Role.CLIENT, 65535),
        (Role.SERVER, 512),
        (Role.SERVER, 99),
        (Role.CLIENT, 1024),
    ),
    closer=Role.SERVER,
    steps_budget=160,
    scenario_id="golden-multi",
)

GOLDEN = {
    "default": "6e1cca4c4664890f3ad787ed41193f159d883bb119fca04857e13b9ec07e1fc4",
    "multi": "dda1697eeebb31d2d0ffcf36695667677c68d7c9734103dbf20bf8f7a128589d",
}


def simulate_digest(tmp_path, capsys, *extra):
    out = tmp_path / "out"
    code = main(["simulate", "--core", "oracle", *extra, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    h.update(stdout.encode())
    return h.hexdigest()


def test_default_scenario_transcripts(tmp_path, capsys):
    # The CLI defaults: 30 sessions, seed 7.
    assert simulate_digest(tmp_path, capsys) == GOLDEN["default"]


def test_server_closes_multi_segment_transcripts(tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(MULTI_SEGMENT.to_wire()))
    digest = simulate_digest(
        tmp_path, capsys, "--sessions", "6", "--seed", "11", "--scenario", str(sc)
    )
    assert digest == GOLDEN["multi"]
