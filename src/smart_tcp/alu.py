"""Deterministic arithmetic tool for sequence/acknowledgment numbers.

The cognitive core never computes 32-bit values itself; it names a task and
this unit produces the exact numbers from the agent state and the received
segment. Stateless and pure: advancing snd_nxt afterwards is the caller's job.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .tcp_core import AgentState, Segment, assemble, seq_add, segment_consumes


class AluTask(Enum):
    INIT_SYN = "INIT_SYN"
    CALCULATE_ACK = "CALCULATE_ACK"
    CALCULATE_SEQ_ACK = "CALCULATE_SEQ_ACK"

    # Identity hash, as TcpState's: a decision's hash then runs in C.
    __hash__ = object.__hash__


# Bound once for the hot path (see tcp_core's docstring).
INIT_SYN = AluTask.INIT_SYN


class AluError(ValueError):
    """Bad task token or missing/superfluous received segment."""


class AluResult(NamedTuple):
    seq: int
    ack: int


_TASK_BY_TOKEN = {task.value: task for task in AluTask}


def alu_parse_task(token: str) -> AluTask:
    """Exact, case-sensitive match over the closed task vocabulary."""
    if isinstance(token, str):
        task = _TASK_BY_TOKEN.get(token)
        if task is not None:
            return task
    raise AluError(f"unknown ALU task token: {token!r}")


def alu_execute(task: AluTask, s: AgentState, r: Optional[Segment] = None) -> AluResult:
    if task is INIT_SYN:
        if r is not None:
            raise AluError("INIT_SYN takes no received segment")
        return assemble(AluResult, (s.iss, 0))
    if r is None:
        raise AluError(f"{task.value} requires a received segment")
    # CALCULATE_ACK and CALCULATE_SEQ_ACK compute identical numbers; the
    # distinction tells the caller whether the assembled segment will itself
    # consume sequence space.
    return assemble(AluResult, (s.snd_nxt, seq_add(r.seq, segment_consumes(r))))
