"""The reference wire forms of an input.

`cognitive_core.serialize_input` writes a `CognitiveInput` from one template.
These are the dict forms it was derived from, as `CognitiveInput`,
`AgentState` and `LocalAction` built them, and `reference_serialize_input`
encodes them the way the library did. Tests hold the template to it byte for
byte.
"""

import json

_encode = json.JSONEncoder(separators=(",", ":")).encode


def state_to_wire(s) -> dict:
    return {
        "role": s.role.value,
        "state": s.state.value,
        "iss": s.iss,
        "irs": s.irs,
        "snd_nxt": s.snd_nxt,
        "rcv_nxt": s.rcv_nxt,
    }


def action_to_wire(a) -> dict:
    return {
        "kind": a.kind.value,
        "data_len": len(a.data) if a.data else 0,
    }


def input_to_wire(i) -> dict:
    return {
        "state": state_to_wire(i.s),
        "received": i.r.to_wire() if i.r is not None else None,
        "action": action_to_wire(i.a),
    }


def reference_serialize_input(i) -> str:
    return _encode(input_to_wire(i))
