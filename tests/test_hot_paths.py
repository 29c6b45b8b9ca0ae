"""Hot code reads enum members from module constants, never as
`Class.MEMBER`: on Python 3.10 and 3.11 each such read runs
`EnumMeta.__getattr__` (see `tcp_core`'s docstring). The check reads the
bytecode of each function that the agent step, the session driver and the
trace2sft pipeline run per trace line, per segment, per record or per
sample, and the code objects nested in it (comprehensions, generator
expressions)."""

import dis
import enum
import types

import pytest

from smart_tcp import agent_runtime, alu, cli, cognitive_core, dataset_pipeline, tcp_core
from smart_tcp.cognitive_core import Verdict

MODULES = {
    "agent_runtime": agent_runtime,
    "alu": alu,
    "cli": cli,
    "cognitive_core": cognitive_core,
    "dataset_pipeline": dataset_pipeline,
    "tcp_core": tcp_core,
}

HOT_FUNCTIONS = (
    "agent_runtime.advance",
    "agent_runtime.remember",
    "agent_runtime.oracle_step",
    "agent_runtime.implied_action",
    "agent_runtime.initial_states",
    "agent_runtime.Agent.step",
    "agent_runtime.Agent.__init__",
    "agent_runtime.run_session",
    # Memoized per scenario; the check reads the function behind the memo.
    "agent_runtime._scripted_actions.__wrapped__",
    "agent_runtime.grade_session",
    "agent_runtime.replay_deliveries",
    "cognitive_core.oracle_transition",
    "cognitive_core.CognitiveInput.__new__",
    "tcp_core.LocalAction.__new__",
    "alu.alu_execute",
    "tcp_core.Segment.from_wire",
    "tcp_core.zero_payload",
    "dataset_pipeline.ingest_trace",
    "dataset_pipeline.handshake_isss",
    "dataset_pipeline.reconstruct_labels",
    "dataset_pipeline.generate_error_dataset",
    "dataset_pipeline._mutate",
    "dataset_pipeline.emit_sft",
    "dataset_pipeline.extract_flows",
    "dataset_pipeline._is_complete",
    # Its flow filter is a comprehension: a nested code object before 3.12.
    "cli.cmd_trace2sft",
)


def resolve(dotted):
    module, *path = dotted.split(".")
    obj = MODULES[module]
    for name in path:
        obj = getattr(obj, name)
    return obj


def code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def enum_member_reads(fn):
    """Each `Class.MEMBER` read in fn: a global bound to an Enum class,
    followed by an attribute load of one of its members."""
    found = []
    for code in code_objects(fn.__code__):
        enum_class = None
        for ins in dis.get_instructions(code):
            if (
                enum_class is not None
                and ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                and ins.argval in enum_class.__members__
            ):
                found.append(f"{code.co_name}: {enum_class.__name__}.{ins.argval}")
            enum_class = None
            if ins.opname == "LOAD_GLOBAL":
                value = fn.__globals__.get(ins.argval)
                if isinstance(value, type) and issubclass(value, enum.Enum):
                    enum_class = value
    return found


def reads_member():
    return Verdict.NORMAL


def reads_member_in_comprehension(decisions):
    return [d for d in decisions if d.verdict is Verdict.FLAG_ERROR]


def reads_member_by_value(token):
    return Verdict(token), Verdict.__members__


def test_the_check_finds_member_reads():
    assert enum_member_reads(reads_member) == ["reads_member: Verdict.NORMAL"]
    [read] = enum_member_reads(reads_member_in_comprehension)
    assert read.endswith(": Verdict.FLAG_ERROR")
    assert enum_member_reads(reads_member_by_value) == []


@pytest.mark.parametrize("dotted", HOT_FUNCTIONS)
def test_hot_function_reads_no_enum_member_through_its_class(dotted):
    fn = resolve(dotted)
    # A wrapper left installed (perfbench's tracer, say) would hide the code.
    assert fn.__module__ == f"smart_tcp.{dotted.split('.')[0]}"
    assert enum_member_reads(fn) == []
