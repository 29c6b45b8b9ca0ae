"""Autonomous TCP agent: cognitive-core protocol logic with a deterministic
sequence-number ALU, a dual-agent session harness, a trace-to-SFT data
pipeline and an evaluation suite."""

from .alu import AluResult, AluTask, alu_execute, alu_parse_task
from .cognitive_core import (
    CognitiveDecision,
    CognitiveInput,
    OracleCore,
    RemoteCore,
    Verdict,
    oracle_transition,
    parse_decision,
)
from .tcp_core import (
    AgentState,
    LocalAction,
    Role,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,
    segment_consumes,
    seq_add,
    seq_lt,
)

__version__ = "0.1.0"

__all__ = [
    "AluResult",
    "AluTask",
    "AgentState",
    "CognitiveDecision",
    "CognitiveInput",
    "LocalAction",
    "OracleCore",
    "RemoteCore",
    "Role",
    "Segment",
    "TcpFlags",
    "TcpState",
    "Verdict",
    "alu_execute",
    "alu_parse_task",
    "flags_parse",
    "oracle_transition",
    "parse_decision",
    "segment_consumes",
    "seq_add",
    "seq_lt",
    "__version__",
]
