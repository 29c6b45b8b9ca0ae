"""A core that fails in a known way, as a trained model does.

`planted_transition` decides like `oracle_transition`, with one exception:
an endpoint whose ISS is in the planted set answers the peer's FIN with
SYN|FIN instead of ACK, so the peer's oracle halts with FLAG_ERROR. Tests take
the ISSs to plant from a clean run of the same seeds.
"""

from smart_tcp.cognitive_core import CognitiveCore, oracle_transition
from smart_tcp.tcp_core import FLAGS_ACK, ActionKind, Role, flags_parse

SYN_FIN = flags_parse("SYN|FIN")


def planted_transition(s, r, a, planted):
    decision = oracle_transition(s, r, a)
    if (
        s.iss in planted
        and a.kind is ActionKind.NONE
        and r.flags.fin
        and decision.flags == FLAGS_ACK
    ):
        return decision._replace(flags=SYN_FIN)
    return decision


class PlantedCore(CognitiveCore):
    """Serial core over planted_transition that counts its decisions."""

    name = "planted"

    def __init__(self, planted=frozenset()):
        self.planted = frozenset(planted)
        self.decisions = 0

    def decide(self, input):
        self.decisions += 1
        return planted_transition(input.s, input.r, input.a, self.planted)


def isses(transcripts, sessions, role=Role.SERVER):
    """The ISSs of one side in the given sessions of a trial's transcripts."""
    return {
        t.server_iss if role is Role.SERVER else t.client_iss
        for t in (transcripts[i] for i in sessions)
    }
