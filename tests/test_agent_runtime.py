"""Agent step loop, dual-agent sessions, grading and fault injection."""

import json
import random
import re
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from smart_tcp import agent_runtime
from smart_tcp.agent_runtime import (
    Agent,
    PhaseResult,
    Scenario,
    StepFailure,
    advance,
    grade_session,
    implied_action,
    initial_states,
    oracle_step,
    remember,
    replay_deliveries,
    run_session,
    run_trials,
)
from smart_tcp.alu import AluTask
from smart_tcp.dataset_pipeline import COMPLETE, extract_flows, reconstruct_labels
from smart_tcp.cognitive_core import (
    ACTION_STATES,
    CognitiveCore,
    CognitiveDecision,
    CognitiveInput,
    OracleCore,
    Verdict,
    oracle_transition,
)
from smart_tcp.tcp_core import (
    ACTION_NONE,
    ActionKind,
    AgentState,
    ISN_MAX,
    ISN_MIN,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    Segment,
    TcpFlags,
    TcpState,
    flags_parse,
    segment_consumes,
    seq_add,
)

from planted import PlantedCore, isses


def act(agent, kind, data=None):
    return agent.step(action=LocalAction(kind, data))


class TestAgentStep:
    def test_active_open_emits_syn(self):
        agent = Agent(Role.CLIENT, OracleCore(), iss=3000000000)
        out = act(agent, ActionKind.OPEN_ACTIVE)
        assert out.emitted is not None
        assert out.emitted.seq == 3000000000
        assert out.emitted.ack == 0
        assert out.emitted.flags == flags_parse("SYN")
        assert out.emitted.payload_len == 0
        assert agent.state.snd_nxt == 3000000001
        assert agent.state.state is TcpState.SYN_SENT

    def test_third_handshake_ack_no_emission(self):
        server = Agent(Role.SERVER, OracleCore(), iss=7000)
        act(server, ActionKind.OPEN_PASSIVE)
        server.step(segment=Segment(seq=100, ack=0, flags=flags_parse("SYN")))
        assert server.state.state is TcpState.SYN_RCVD
        out = server.step(segment=Segment(seq=101, ack=7001, flags=flags_parse("ACK")))
        assert out.emitted is None
        assert server.state.state is TcpState.ESTABLISHED

    def test_mutated_syn_flag_error_no_emission_state_kept(self):
        client, server = handshake_pair()
        before = client.state
        out = client.step(
            segment=Segment(seq=client.state.rcv_nxt, ack=0, flags=flags_parse("SYN"))
        )
        assert out.decision.verdict is Verdict.FLAG_ERROR
        assert out.emitted is None
        assert client.state == before

    def test_step_takes_exactly_one_trigger(self):
        agent = Agent(Role.CLIENT, OracleCore(), iss=5000)
        before = agent.state
        with pytest.raises(ValueError):
            agent.step()
        with pytest.raises(ValueError):
            agent.step(
                segment=Segment(seq=0, ack=0, flags=flags_parse("SYN")),
                action=LocalAction(ActionKind.OPEN_ACTIVE),
            )
        assert agent.state == before
        assert agent.last_received is None

    @pytest.mark.parametrize("none", [ACTION_NONE, LocalAction(ActionKind.NONE)])
    def test_action_none_is_no_trigger(self, none):
        # A server in SYN_RCVD after the SYN: with ACTION_NONE as its trigger,
        # the core would judge the SYN again and answer ORDER_ERROR.
        server = Agent(Role.SERVER, OracleCore(), iss=7000)
        act(server, ActionKind.OPEN_PASSIVE)
        server.step(segment=Segment(seq=100, ack=0, flags=flags_parse("SYN")))
        before, received = server.state, server.last_received
        with pytest.raises(ValueError, match="exactly one of a segment or an action"):
            server.step(action=none)
        assert server.state == before and server.last_received is received

    def test_action_none_does_not_ack_consumed_data_again(self):
        class AckEverything(CognitiveCore):
            """NORMAL, ACK and CALCULATE_ACK for every input it is given."""

            inputs = []

            def decide(self, i):
                self.inputs.append(i)
                return CognitiveDecision(i.s.state, flags_parse("ACK"), 0, AluTask.CALCULATE_ACK)

        agent = Agent(Role.CLIENT, AckEverything(), iss=100)
        agent.state = ESTABLISHED._replace(rcv_nxt=1001)
        data = Segment(seq=1001, ack=101, flags=flags_parse("PSH|ACK"), payload=bytes(100))
        assert agent.step(segment=data).emitted == Segment(101, 1101, flags_parse("ACK"))
        with pytest.raises(ValueError, match="exactly one of a segment or an action"):
            agent.step(action=ACTION_NONE)
        assert len(agent.core.inputs) == 1 and agent.state.rcv_nxt == 1101


def handshake_pair(client_iss=1_000_000, server_iss=2_000_000):
    client = Agent(Role.CLIENT, OracleCore(), iss=client_iss)
    server = Agent(Role.SERVER, OracleCore(), iss=server_iss)
    act(server, ActionKind.OPEN_PASSIVE)
    syn = act(client, ActionKind.OPEN_ACTIVE).emitted
    synack = server.step(segment=syn).emitted
    ack = client.step(segment=synack).emitted
    server.step(segment=ack)
    assert client.state.state is TcpState.ESTABLISHED
    assert server.state.state is TcpState.ESTABLISHED
    return client, server


ESTABLISHED = AgentState(Role.CLIENT, TcpState.ESTABLISHED, iss=100, snd_nxt=101, irs=500, rcv_nxt=501)


class TestStepFunctions:
    def test_time_wait_collapses_to_closed(self):
        s = remember(ESTABLISHED, TcpState.TIME_WAIT)
        assert s == AgentState(Role.CLIENT, TcpState.CLOSED, 100, 101, 500, 501)

    def test_irs_is_learned_from_the_first_syn_only(self):
        s = AgentState(Role.CLIENT, TcpState.SYN_SENT, iss=100, snd_nxt=101)
        synack = Segment(seq=500, ack=101, flags=flags_parse("SYN|ACK"))
        s = remember(s, TcpState.ESTABLISHED, received=synack)
        assert (s.irs, s.rcv_nxt) == (500, 501)
        again = Segment(seq=900, ack=101, flags=flags_parse("SYN|ACK"))
        s = remember(s, TcpState.ESTABLISHED, received=again)
        assert (s.irs, s.rcv_nxt) == (500, 901)

    def test_snd_nxt_follows_the_segment_sent(self):
        # The segment's own seq, not the old snd_nxt, and modulo 2^32.
        fin = Segment(seq=SEQ_MOD - 3, ack=501, flags=flags_parse("FIN|ACK"), payload=b"abc")
        s = remember(ESTABLISHED, TcpState.FIN_WAIT_1, sent=fin)
        assert (s.snd_nxt, s.rcv_nxt) == (1, 501)

    def test_advance_consumes_a_segment_trigger(self):
        data = Segment(seq=501, ack=101, flags=flags_parse("PSH|ACK"), payload=b"xy")
        cinput = CognitiveInput(ESTABLISHED, data)
        s, emitted = advance(cinput, oracle_transition(ESTABLISHED, data, cinput.a))
        assert emitted == Segment(seq=101, ack=503, flags=flags_parse("ACK"))
        assert (s.snd_nxt, s.rcv_nxt) == (101, 503)

    def test_an_actions_segment_is_alu_context_not_consumed(self):
        last = Segment(seq=499, ack=101, flags=flags_parse("PSH|ACK"), payload=b"x")
        send = LocalAction(ActionKind.SEND, b"hello")
        s, emitted = advance(
            CognitiveInput(ESTABLISHED, last, send), oracle_transition(ESTABLISHED, last, send)
        )
        assert emitted == Segment(seq=101, ack=500, flags=flags_parse("PSH|ACK"), payload=b"hello")
        assert (s.snd_nxt, s.rcv_nxt) == (106, 501)

    @pytest.mark.parametrize(
        "state, next_state",
        [
            (TcpState.ESTABLISHED, TcpState.CLOSED),
            (TcpState.ESTABLISHED, TcpState.TIME_WAIT),
            (TcpState.FIN_WAIT_2, TcpState.CLOSED),
            (TcpState.CLOSED, TcpState.CLOSED),
        ],
    )
    def test_a_next_state_that_no_transition_reaches_is_a_step_failure(self, state, next_state):
        s = ESTABLISHED._replace(state=state)
        decision = CognitiveDecision(next_state, None, 0, None)
        with pytest.raises(
            StepFailure, match=f"next_state {next_state.value} is not reachable from {state.value}"
        ):
            advance(CognitiveInput(s, a=LocalAction(ActionKind.CLOSE)), decision)

    def test_task_without_flags_is_a_step_failure(self):
        cinput = CognitiveInput(ESTABLISHED, a=LocalAction(ActionKind.CLOSE))
        decision = CognitiveDecision(TcpState.FIN_WAIT_1, None, 0, AluTask.CALCULATE_SEQ_ACK)
        with pytest.raises(StepFailure, match="no flags"):
            advance(cinput, decision)

    @pytest.mark.parametrize(
        "flags, task, match",
        [
            (TcpFlags(), AluTask.CALCULATE_SEQ_ACK, "names a task but its flags are empty"),
            (flags_parse("FIN|ACK"), None, "names flags but no task to run"),
        ],
    )
    def test_flags_that_the_task_cannot_send_are_a_step_failure(self, flags, task, match):
        cinput = CognitiveInput(ESTABLISHED, a=LocalAction(ActionKind.CLOSE))
        decision = CognitiveDecision(TcpState.FIN_WAIT_1, flags, 0, task)
        with pytest.raises(StepFailure, match=match):
            advance(cinput, decision)

    @pytest.mark.parametrize(
        "action, flags, task, payload_len, sent",
        [
            # A SEND's segment carries the action's data, 5 bytes.
            (LocalAction(ActionKind.SEND, b"hello"), "PSH|ACK", AluTask.CALCULATE_SEQ_ACK, 12, 5),
            (LocalAction(ActionKind.SEND, b"hello"), "PSH|ACK", AluTask.CALCULATE_SEQ_ACK, 0, 5),
            # A SEND answered with nothing sends no bytes.
            (LocalAction(ActionKind.SEND, b"hello"), None, None, 5, 0),
            (LocalAction(ActionKind.CLOSE), "FIN|ACK", AluTask.CALCULATE_SEQ_ACK, 7, 0),
            (ACTION_NONE, "ACK", AluTask.CALCULATE_ACK, 1, 0),
            (ACTION_NONE, None, None, 7, 0),
        ],
    )
    def test_payload_len_other_than_the_bytes_sent_is_a_step_failure(
        self, action, flags, task, payload_len, sent
    ):
        last = Segment(seq=501, ack=101, flags=flags_parse("PSH|ACK"), payload=b"x")
        decision = CognitiveDecision(
            TcpState.ESTABLISHED, flags and flags_parse(flags), payload_len, task
        )
        match = f"payload_len {payload_len} but the step sends {sent} bytes"
        with pytest.raises(StepFailure, match=match):
            advance(CognitiveInput(ESTABLISHED, last, action), decision)

    def test_oracle_step_matches_agent_step(self):
        client, _ = handshake_pair()
        s, r = client.state, client.last_received
        send = LocalAction(ActionKind.SEND, b"abc")
        cinput, decision, after, emitted = oracle_step(s, r, send)
        out = client.step(action=send)
        assert cinput == CognitiveInput(s, r, send)
        assert (decision, after, emitted) == (out.decision, client.state, out.emitted)

    @pytest.mark.parametrize("kind", [k for k in ActionKind if k is not ActionKind.NONE])
    @pytest.mark.parametrize("state", list(TcpState))
    def test_oracle_accepts_an_action_exactly_in_its_table_states(self, state, kind):
        s = AgentState(Role.CLIENT, state, iss=100, snd_nxt=101, irs=500, rcv_nxt=501)
        action = LocalAction(kind, b"x" if kind is ActionKind.SEND else None)
        if state in ACTION_STATES[kind]:
            assert oracle_transition(s, None, action).verdict is Verdict.NORMAL
        else:
            with pytest.raises(ValueError, match="not valid in state"):
                oracle_transition(s, None, action)

    def test_initial_states(self):
        states = initial_states(7, 9)
        assert states[Role.CLIENT] == AgentState(Role.CLIENT, TcpState.CLOSED, 7, 7)
        assert states[Role.SERVER] == AgentState(Role.SERVER, TcpState.LISTEN, 9, 9)

    @pytest.mark.parametrize(
        "state, flags, payload, kind",
        [
            (TcpState.CLOSED, "SYN", b"", ActionKind.OPEN_ACTIVE),
            (TcpState.CLOSED, "SYN|FIN", b"", ActionKind.OPEN_ACTIVE),
            (TcpState.LISTEN, "SYN", b"", None),
            (TcpState.ESTABLISHED, "PSH|ACK", b"ab", ActionKind.SEND),
            (TcpState.ESTABLISHED, "SYN|ACK", b"ab", None),
            (TcpState.CLOSE_WAIT, "PSH|ACK", b"ab", None),
            (TcpState.ESTABLISHED, "FIN|ACK", b"", ActionKind.CLOSE),
            (TcpState.ESTABLISHED, "FIN|ACK", b"ab", ActionKind.CLOSE),
            (TcpState.CLOSE_WAIT, "FIN|ACK", b"", ActionKind.CLOSE),
            (TcpState.FIN_WAIT_1, "FIN|ACK", b"", None),
            (TcpState.ESTABLISHED, "ACK", b"", None),
            (TcpState.SYN_RCVD, "SYN|ACK", b"", None),
        ],
    )
    def test_implied_action(self, state, flags, payload, kind):
        s = AgentState(Role.CLIENT, state, iss=100, snd_nxt=101)
        action = implied_action(s, Segment(seq=101, ack=0, flags=flags_parse(flags), payload=payload))
        assert (action and action.kind) == kind
        if kind is ActionKind.SEND:
            assert action.data == payload


# Any decision that CognitiveDecision.from_wire accepts.
schema_valid_decisions = st.builds(
    CognitiveDecision,
    next_state=st.sampled_from(list(TcpState)),
    flags=st.none() | st.builds(TcpFlags, *[st.booleans()] * 6).filter(TcpFlags.any),
    payload_len=st.integers(0, MAX_PAYLOAD_LEN),
    t_task=st.none() | st.sampled_from(list(AluTask)),
    verdict=st.sampled_from(list(Verdict)),
)


# The halt reasons of a session that ends early without a non-NORMAL verdict.
EARLY_END = re.compile(
    r"(CLIENT|SERVER) step failure: (next_state \w+ is not reachable from \w+"
    r"|decision names a task but no flags to emit"
    r"|decision names flags but no task to run"
    r"|decision payload_len \d+ but the step sends \d+ bytes"
    r"|INIT_SYN takes no received segment|CALCULATE_(SEQ_)?ACK requires a received segment)$"
    r"|deadlock: (CLIENT|SERVER) cannot \w+ in \w+$"
    r"|step budget exhausted$"
    r"|quiescent: CLIENT in \w+, SERVER in \w+$"
)

# Scenarios with up to four scripted sends; two draws may share an id.
SCENARIOS = st.builds(
    Scenario,
    data_script=st.lists(
        st.tuples(st.sampled_from(list(Role)), st.integers(1, 1460)), max_size=4
    ).map(tuple),
    closer=st.sampled_from(list(Role)),
    steps_budget=st.just(Scenario().steps_budget),
    scenario_id=st.sampled_from(["a", "b"]),
)


class TestRunSession:
    def test_oracle_session_all_phases_pass(self):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
        assert all(p.passed for p in t.phase_results.values()), t.phase_results

    def test_isn_in_configured_range(self):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=5)
        assert ISN_MIN <= t.client_iss <= ISN_MAX
        assert ISN_MIN <= t.server_iss <= ISN_MAX

    def test_server_closer(self):
        sc = Scenario(closer=Role.SERVER, scenario_id="server-close")
        t = run_session(OracleCore(), OracleCore(), sc, seed=3)
        assert all(p.passed for p in t.phase_results.values()), t.phase_results

    def test_empty_data_script(self):
        sc = Scenario(data_script=(), scenario_id="no-data")
        t = run_session(OracleCore(), OracleCore(), sc, seed=2)
        assert all(p.passed for p in t.phase_results.values())
        assert len(t.entries) == 7  # 3-way handshake + 4-way close

    def test_session_file_is_trace_lines_then_the_trailer(self, tmp_path):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=21)
        path = tmp_path / "session.jsonl"
        t.write(path)
        *lines, trailer = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(t.entries) == len(t.trace_records())
        for obj, e, rec in zip(lines, t.entries, t.trace_records()):
            assert obj == {**rec.to_wire(), "step": e.step, "decision": e.decision.to_wire()}
            assert list(obj) == [
                "ts", "src", "dst", "proto", "seq", "ack", "flags", "payload_len",
                "step", "decision",
            ]
        assert list(trailer) == ["trailer"]
        assert list(trailer["trailer"]) == ["scenario_id", "seed", "halt_reason", "phase_results"]
        assert trailer["trailer"]["seed"] == t.rng_seed
        assert {k: v["passed"] for k, v in trailer["trailer"]["phase_results"].items()} == {
            "handshake": True, "data_transfer": True, "termination": True,
        }

    def test_deterministic_transcript(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_session(OracleCore(), OracleCore(), Scenario(), seed=77).write(a)
        run_session(OracleCore(), OracleCore(), Scenario(), seed=77).write(b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_isns(self):
        a = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
        b = run_session(OracleCore(), OracleCore(), Scenario(), seed=2)
        assert (a.client_iss, a.server_iss) != (b.client_iss, b.server_iss)

    def test_step_budget_exhaustion_fails_phases(self):
        sc = Scenario(steps_budget=4, scenario_id="tight")
        t = run_session(OracleCore(), OracleCore(), sc, seed=1)
        assert not t.phase_results["data_transfer"].passed
        assert not t.phase_results["termination"].passed

    def test_a_session_that_ends_on_its_last_budgeted_step_passes(self):
        # Seed 1's default session takes 17 steps: 11 deliveries and 6 actions.
        done = run_session(OracleCore(), OracleCore(), Scenario(steps_budget=17), seed=1)
        assert done.halt_reason == ""
        assert all(p.passed for p in done.phase_results.values()), done.phase_results
        short = run_session(OracleCore(), OracleCore(), Scenario(steps_budget=16), seed=1)
        assert short.halt_reason == "step budget exhausted"
        # The last ACK never arrives.
        assert short.phase_results["termination"] == PhaseResult(False, "FIN not acknowledged")

    def test_ack_conservation(self):
        # Every ACK acknowledges exactly the peer's consumed sequence space,
        # replayed with independent counters.
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=11)
        consumed = {Role.CLIENT: 0, Role.SERVER: 0}
        isn = {Role.CLIENT: t.client_iss, Role.SERVER: t.server_iss}
        for e in t.entries:
            sender = e.direction
            peer = Role.SERVER if sender is Role.CLIENT else Role.CLIENT
            if e.segment.flags.ack:
                expected = (isn[peer] + consumed[peer]) % SEQ_MOD
                assert e.segment.ack == expected
            consumed[sender] += segment_consumes(e.segment)

    def test_snd_nxt_monotonic_per_sender(self):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=13)
        last = {}
        for e in t.entries:
            c = segment_consumes(e.segment)
            if e.direction in last:
                assert e.segment.seq == last[e.direction]
            last[e.direction] = seq_add(e.segment.seq, c)

    def test_peer_verdict_halts_the_session(self):
        clean = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
        core = PlantedCore({clean.server_iss})
        t = run_session(core, core, Scenario(), seed=1)
        # The server answers the client's FIN with SYN|FIN; the client halts.
        assert t.halt_reason == "CLIENT verdict FLAG_ERROR"
        assert t.entries[-1].segment.flags == flags_parse("SYN|FIN")
        assert t.phase_results["handshake"].passed
        assert t.phase_results["data_transfer"].passed
        assert not t.phase_results["termination"].passed
        # A verdict on a scripted action halts the session too: the client
        # answers its own CLOSE with ORDER_ERROR and never sends its FIN.
        t = run_session(CLOSE_ERROR, OracleCore(), Scenario(), seed=1)
        assert t.halt_reason == "CLIENT verdict ORDER_ERROR"
        assert t.phase_results["handshake"].passed
        assert t.phase_results["data_transfer"].reason == "halted: CLIENT verdict ORDER_ERROR"
        assert t.phase_results["termination"].reason == "closer never sent FIN"

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.tuples(st.sampled_from(list(Role)), st.integers(1, MAX_PAYLOAD_LEN)), max_size=4),
        st.sampled_from(list(Role)),
        st.integers(0, 2**32 - 1),
        st.dictionaries(st.integers(0, 24), schema_valid_decisions, max_size=3),
    )
    def test_an_adversarial_core_ends_every_session_graded(self, script, closer, seed, swaps):
        core = AdversarialCore(swaps)
        scenario = Scenario(data_script=tuple(script), closer=closer)
        t = run_session(core, core, scenario, seed)
        assert set(t.phase_results) == {"handshake", "data_transfer", "termination"}
        first = next((k for k, (_, d) in enumerate(core.made) if d.verdict is not Verdict.NORMAL), None)
        if first is not None:
            # The first decision that is not NORMAL is the session's last.
            role, decision = core.made[first]
            assert first == len(core.made) - 1
            assert t.halt_reason == f"{role.value} verdict {decision.verdict.value}"
        elif t.halt_reason:
            assert EARLY_END.match(t.halt_reason), t.halt_reason
        else:
            # A session without a halt reason ended with both endpoints CLOSED.
            assert t.phase_results["termination"].reason != "agents did not both reach CLOSED"

    @settings(deadline=None)
    @given(SCENARIOS, SCENARIOS, st.integers(0, 2**32 - 1))
    def test_the_script_memo_keeps_each_scenario_its_own(self, a, b, seed):
        core = OracleCore()
        first, other, again = (run_session(core, core, sc, seed) for sc in (a, b, a))
        assert again.trace_records() == first.trace_records()
        assert again.phase_results == first.phase_results
        assert again.halt_reason == first.halt_reason
        for scenario, t in ((a, first), (b, other), (a, again)):
            sends = [(e.direction, e.decision.payload_len) for e in t.entries if e.segment.payload]
            assert sends == list(scenario.data_script)
            assert all(e.decision.payload_len == len(e.segment.payload) for e in t.entries)

    def test_a_payload_len_the_step_does_not_send_halts_the_session(self):
        plus_7 = EditedOracleCore(lambda d: d._replace(payload_len=d.payload_len + 7))
        transcripts = []
        report = run_trials(plus_7, OracleCore(), 5, base_seed=1, sink=transcripts.append)
        assert report.trial_accuracy == 0.0
        for t in transcripts:
            # The client's first decision, OPEN_ACTIVE, sends the bare SYN.
            assert t.halt_reason == (
                "CLIENT step failure: decision payload_len 7 but the step sends 0 bytes"
            )
            assert not t.phase_results["handshake"].passed

    def test_flags_without_a_task_halt_the_session(self):
        # ACK flags and no task on every silent decision.
        ack_silent = EditedOracleCore(
            lambda d: d if d.flags else d._replace(flags=flags_parse("ACK"))
        )
        transcripts = []
        report = run_trials(OracleCore(), ack_silent, 5, base_seed=1, sink=transcripts.append)
        assert report.trial_accuracy == 0.0
        for t in transcripts:
            # The server's first decision, OPEN_PASSIVE, is silent.
            assert t.halt_reason == "SERVER step failure: decision names flags but no task to run"
            assert t.entries == []

    def test_a_task_with_empty_flags_halts_the_session(self):
        t = run_session(EMPTY_FLAGS_SYN, OracleCore(), Scenario(), seed=1)
        assert t.halt_reason == (
            "CLIENT step failure: decision names a task but its flags are empty"
        )
        assert t.entries == []
        assert t.phase_results["handshake"] == PhaseResult(False, "fewer than three segments")

    def test_a_session_that_goes_quiet_before_closed_says_so(self):
        # The server takes the client's FIN in ESTABLISHED without a word,
        # then closes itself: the client ends CLOSED, the server FIN_WAIT_2.
        t = run_session(OracleCore(), SwallowFinCore(), Scenario(), seed=1)
        assert t.halt_reason == "quiescent: CLIENT in CLOSED, SERVER in FIN_WAIT_2"
        assert t.phase_results == {
            "handshake": PhaseResult(True),
            "data_transfer": PhaseResult(True),
            "termination": PhaseResult(False, "agents did not both reach CLOSED"),
        }

    def test_a_quiet_end_before_the_closers_fin_blames_only_termination(self):
        # The client answers its own CLOSE with nothing and stays
        # ESTABLISHED. Every action was issued and all data went through, so
        # the quiet end is not a halt that data_transfer answers for.
        t = run_session(SILENT_CLOSE, OracleCore(), Scenario(), seed=1)
        assert t.halt_reason == "quiescent: CLIENT in CLOSE_WAIT, SERVER in FIN_WAIT_2"
        assert t.phase_results == {
            "handshake": PhaseResult(True),
            "data_transfer": PhaseResult(True),
            "termination": PhaseResult(False, "closer never sent FIN"),
        }

    def test_action_invalid_in_the_agents_state_is_a_deadlock(self):
        t = run_session(OPEN_TO_LISTEN, OracleCore(), Scenario(), seed=1)
        assert t.entries == []
        assert t.halt_reason == "deadlock: CLIENT cannot SEND in LISTEN"
        assert not t.phase_results["handshake"].passed

    def test_a_next_state_that_no_transition_reaches_halts_the_session(self):
        t = run_session(STAY_CLOSED, OracleCore(), Scenario(), seed=1)
        assert t.entries == []
        assert t.halt_reason == "CLIENT step failure: next_state CLOSED is not reachable from CLOSED"
        assert not t.phase_results["handshake"].passed

    @pytest.mark.parametrize("closer", list(Role))
    def test_a_core_that_skips_time_wait_halts_the_session(self, closer):
        # The oracle, except that it claims CLOSED where it says TIME_WAIT.
        # The closer's memory would end CLOSED either way.
        skip = EditedOracleCore(
            lambda d: d._replace(next_state=TcpState.CLOSED) if d.next_state is TcpState.TIME_WAIT else d
        )
        cores = (skip, OracleCore()) if closer is Role.CLIENT else (OracleCore(), skip)
        transcripts = []
        report = run_trials(
            *cores, 10, base_seed=1, scenario=Scenario(closer=closer), sink=transcripts.append
        )
        assert report.trial_accuracy == 0.0
        for t in transcripts:
            assert t.halt_reason == (
                f"{closer.value} step failure: next_state CLOSED is not reachable from FIN_WAIT_2"
            )
            assert t.phase_results["termination"] == PhaseResult(False, "FIN not acknowledged")



# Seeds whose ISS lies close enough below 2^32 for a session's sequence
# numbers to wrap: seed 625 gives the client an ISS 35,667 below it, and seed
# 62824 the server one 13,299 below.
CLIENT_WRAP_SEED, SERVER_WRAP_SEED = 625, 62824


@contextmanager
def checked_assembly():
    """Wrap agent_runtime's `assemble`, which builds the step's values
    without their types' checks: each value must equal its type's checked
    constructor on the same fields, which must not raise. Yields the list of
    the types built."""
    built = []

    def assemble(cls, fields):
        value = tuple.__new__(cls, fields)
        assert cls(*fields) == value, (cls.__name__, fields)
        built.append(cls)
        return value

    with mock.patch.object(agent_runtime, "assemble", assemble):
        yield built


class TestAssembledValues:
    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.tuples(st.sampled_from(list(Role)), st.integers(1, MAX_PAYLOAD_LEN)), max_size=4),
        st.sampled_from(list(Role)),
        st.sampled_from([CLIENT_WRAP_SEED, SERVER_WRAP_SEED]) | st.integers(0, 2**32 - 1),
        st.dictionaries(st.integers(0, 24), schema_valid_decisions, max_size=3),
    )
    @example([(Role.CLIENT, 40_000)], Role.CLIENT, CLIENT_WRAP_SEED, {})
    @example([(Role.SERVER, 20_000)], Role.SERVER, SERVER_WRAP_SEED, {})
    # The client answers the SYN|ACK with a FIN (no ACK) whose ALU ack is the
    # server's ISN+1: the assembled segment must carry ack 0.
    @example([], Role.CLIENT, 1, {3: CognitiveDecision(
        TcpState.ESTABLISHED, flags_parse("FIN"), 0, AluTask.CALCULATE_ACK)})
    def test_the_step_assembles_what_the_checked_constructors_build(
        self, script, closer, seed, swaps
    ):
        # With no swaps the adversarial core is the oracle.
        core = AdversarialCore(swaps)
        with checked_assembly() as built:
            t = run_session(core, core, Scenario(data_script=tuple(script), closer=closer), seed)
            assert built.count(Segment) >= len(t.entries)
            # The labeler's replay of the session's complete flows, as
            # trace2sft runs it.
            for flow in extract_flows(t.trace_records()):
                if flow.completeness is COMPLETE:
                    reconstruct_labels(flow)


class AlwaysAckCore(CognitiveCore):
    """Degenerate core: answers flags=ACK to everything."""

    name = "always-ack"

    def decide(self, input):
        task = AluTask.INIT_SYN if input.r is None else AluTask.CALCULATE_ACK
        return CognitiveDecision(
            next_state=input.s.state, flags=flags_parse("ACK"), payload_len=0, t_task=task
        )


class ActionAnswerCore(CognitiveCore):
    """Answers each action of `kind` with `decision`; otherwise the oracle."""

    name = "action-answer"

    def __init__(self, kind, decision):
        self.kind = kind
        self.decision = decision

    def decide(self, input):
        if input.a.kind is self.kind:
            return self.decision
        return oracle_transition(input.s, input.r, input.a)


class EditedOracleCore(CognitiveCore):
    """The oracle, with `edit` applied to each of its decisions."""

    name = "edited-oracle"

    def __init__(self, edit):
        self.edit = edit

    def decide(self, input):
        return self.edit(oracle_transition(input.s, input.r, input.a))


OPEN_ACTIVE, CLOSE = ActionKind.OPEN_ACTIVE, ActionKind.CLOSE
# Answers OPEN_ACTIVE by staying CLOSED, which no transition reaches from
# CLOSED, or by moving to LISTEN, which OPEN_PASSIVE reaches; either way it
# sends nothing.
STAY_CLOSED = ActionAnswerCore(OPEN_ACTIVE, CognitiveDecision(TcpState.CLOSED, None, 0, None))
OPEN_TO_LISTEN = ActionAnswerCore(OPEN_ACTIVE, CognitiveDecision(TcpState.LISTEN, None, 0, None))
# Schema-valid but unfeedable: names CALCULATE_ACK on OPEN_ACTIVE, before any
# segment has arrived.
ACK_BEFORE_RECEIVE = ActionAnswerCore(
    OPEN_ACTIVE, CognitiveDecision(TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.CALCULATE_ACK)
)
# Names INIT_SYN on OPEN_ACTIVE with an empty flag set: no wire decision has
# empty flags, but a Python core can.
EMPTY_FLAGS_SYN = ActionAnswerCore(
    OPEN_ACTIVE, CognitiveDecision(TcpState.SYN_SENT, TcpFlags(), 0, AluTask.INIT_SYN)
)
# Answer CLOSE, which comes in ESTABLISHED in these sessions, with
# ORDER_ERROR, or with nothing and no change of state.
CLOSE_ERROR = ActionAnswerCore(
    CLOSE, CognitiveDecision(TcpState.ESTABLISHED, None, 0, None, Verdict.ORDER_ERROR)
)
SILENT_CLOSE = ActionAnswerCore(CLOSE, CognitiveDecision(TcpState.ESTABLISHED, None, 0, None))


class SwallowFinCore(CognitiveCore):
    """Takes a FIN in ESTABLISHED with a silent NORMAL decision that stays
    ESTABLISHED; otherwise the oracle."""

    name = "swallow-fin"

    def decide(self, input):
        s, r, a = input
        if a.kind is ActionKind.NONE and r.flags.fin and s.state is TcpState.ESTABLISHED:
            return CognitiveDecision(TcpState.ESTABLISHED, None, 0, None)
        return oracle_transition(s, r, a)


class AdversarialCore(CognitiveCore):
    """The oracle, except that the session's i-th decision is swaps[i] where
    swaps has one; keeps each decision it makes, with the deciding role.
    Serve both endpoints of one session with one instance."""

    name = "adversarial"

    def __init__(self, swaps):
        self.swaps = swaps
        self.made = []

    def decide(self, input):
        decision = self.swaps.get(len(self.made)) or oracle_transition(input.s, input.r, input.a)
        self.made.append((input.s.role, decision))
        return decision


class TestRunTrials:
    def test_oracle_trials_all_pass(self):
        report = run_trials(OracleCore(), OracleCore(), 10, base_seed=7)
        assert report.handshake == report.data_transfer == report.termination == 1.0
        assert report.trial_accuracy == 1.0

    def test_degenerate_core_fails_handshake(self):
        transcripts = []
        report = run_trials(AlwaysAckCore(), OracleCore(), 3, base_seed=1, sink=transcripts.append)
        assert report.handshake == 0.0
        assert report.trial_accuracy == 0.0
        assert transcripts[0].phase_results["handshake"].reason

    def test_failed_handshake_fails_downstream_phases(self):
        transcripts = []
        run_trials(AlwaysAckCore(), OracleCore(), 1, base_seed=1, sink=transcripts.append)
        t = transcripts[0]
        assert not t.phase_results["data_transfer"].passed
        assert not t.phase_results["termination"].passed

    def test_alu_error_halts_and_grades_the_session(self):
        transcripts = []
        report = run_trials(ACK_BEFORE_RECEIVE, OracleCore(), 3, base_seed=1, sink=transcripts.append)
        assert report.handshake == 0.0
        for t in transcripts:
            assert t.halt_reason == (
                "CLIENT step failure: CALCULATE_ACK requires a received segment"
            )
            assert not t.phase_results["handshake"].passed

    def test_sessions_must_be_positive(self):
        with pytest.raises(ValueError):
            run_trials(OracleCore(), OracleCore(), 0, base_seed=1)

    def test_two_forced_failures_give_93_33(self):
        # 28/30 full passes formats as the 93.33% fixture.
        clean = []
        run_trials(OracleCore(), OracleCore(), 30, base_seed=7, sink=clean.append)
        core = PlantedCore(isses(clean, (3, 17)))
        report = run_trials(core, core, 30, base_seed=7)
        assert report.to_wire()["trial_accuracy"] == "93.33%"
        assert report.to_wire()["handshake"] == "100.00%"

    def test_the_sink_gets_each_seeds_transcript_in_seed_order(self):
        scenario = Scenario(closer=Role.SERVER)
        rng = random.Random(7)
        seeds = [rng.getrandbits(32) for _ in range(12)]
        got = []
        run_trials(OracleCore(), OracleCore(), 12, 7, scenario, sink=got.append)
        assert got == [run_session(OracleCore(), OracleCore(), scenario, s) for s in seeds]

    def test_a_failing_sink_stops_the_trial(self, monkeypatch):
        sessions = []

        def counted(*args):
            sessions.append(args)
            return run_session(*args)

        def sink(t):
            if len(sessions) == 3:
                raise OSError("sink failed")

        monkeypatch.setattr(agent_runtime, "run_session", counted)
        with pytest.raises(OSError, match="sink failed"):
            run_trials(OracleCore(), OracleCore(), 10, base_seed=7, sink=sink)
        assert len(sessions) == 3

    def test_trial_memory_does_not_grow_with_the_session_count(self):
        # Holding each transcript costs ~3.5 KB a session, ~6 MB over 1,800.
        assert trial_peak(OracleCore, 2000) - trial_peak(OracleCore, 200) < 64 * 1024

    def test_threaded_trial_memory_does_not_grow_with_the_session_count(self):
        # Submitting every session up front costs ~2 KB a session, ~4 MB
        # over 1,800.
        assert trial_peak(FourWayOracle, 2000) - trial_peak(FourWayOracle, 200) < 64 * 1024


class FourWayOracle(OracleCore):
    """The oracle, served to four sessions at once as a remote core is."""

    concurrency = 4


def trial_peak(core_type, n):
    """tracemalloc's peak, in bytes, over a trial of n sessions."""
    tracemalloc.start()
    try:
        run_trials(core_type(), core_type(), n, base_seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Seed 1's default session, 11 deliveries: 0 SYN, 1 SYN|ACK, 2 ACK (client),
# 3 client data, 4 ACK, 5 server data, 6 ACK, 7 client FIN|ACK, 8 ACK,
# 9 server FIN|ACK, 10 ACK (client).
GRADED = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
DEFAULT_SCRIPT = Scenario().data_script


def grade_doctored(
    index=None, flags=None, seq_delta=0, ack_delta=0, payload=None,
    keep=None, halt_reason="", both_closed=True, script=DEFAULT_SCRIPT,
):
    """Grade GRADED's first `keep` deliveries, with delivery `index`
    doctored, against a scenario that scripts `script`."""
    entries = list(GRADED.entries[:keep])
    if index is not None:
        seg = entries[index].segment
        seg = Segment(
            seq_add(seg.seq, seq_delta),
            seq_add(seg.ack, ack_delta),
            flags_parse(flags) if flags else seg.flags,
            seg.payload if payload is None else payload,
        )
        entries[index] = entries[index]._replace(segment=seg)
    return grade_session(entries, halt_reason, Scenario(data_script=script), both_closed)


HS_FAILED = ("handshake failed", "handshake failed")
C, S = Role.CLIENT, Role.SERVER


class TestGradeSession:
    """One row per failure reason of grade_session: the doctoring and the
    (handshake, data_transfer, termination) reasons it must give, "" for a
    pass. No reason is out of run_session's reach: a core picks each step's
    flags, its ALU task (and with it the numbers) and its next state, may
    send nothing on a SEND, and a halt or the step budget ends a session
    anywhere, so each doctored stream stands for some pair of cores."""

    @pytest.mark.parametrize(
        "doctor, expected",
        [
            (dict(keep=2), ("fewer than three segments", *HS_FAILED)),
            # A clean handshake and nothing more: three segments are enough.
            (dict(keep=3, script=(), both_closed=False), ("", "", "closer never sent FIN")),
            (dict(index=0, flags="SYN|ACK"), ("first segment is not a client SYN", *HS_FAILED)),
            (dict(index=1, flags="SYN"), ("second segment is not a server SYN|ACK", *HS_FAILED)),
            (dict(index=1, ack_delta=1), ("SYN|ACK does not acknowledge client ISN+1", *HS_FAILED)),
            (dict(index=2, flags="PSH|ACK"), ("third segment is not a pure ACK", *HS_FAILED)),
            (dict(index=2, ack_delta=1), ("handshake ACK numbers wrong", *HS_FAILED)),
            (dict(index=10, flags="SYN|ACK"), ("", "", "unexpected SYN after handshake")),
            (dict(index=10, payload=b"x"), ("", "data after FIN", "")),
            (dict(index=3, seq_delta=1), ("", "data segment out of sequence", "")),
            (dict(script=((S, 256), (C, 512))), ("", "data segment does not match script", "")),
            (dict(index=4, ack_delta=1), ("", "acknowledgment does not match bytes received", "")),
            (dict(index=8, ack_delta=1), ("", "", "acknowledgment does not match bytes received")),
            (dict(index=10, flags="FIN|ACK"), ("", "", "duplicate FIN")),
            (dict(index=7, seq_delta=1), ("", "", "FIN out of sequence")),
            (
                dict(script=DEFAULT_SCRIPT + ((C, 1),)),
                ("", "scripted data never transferred", ""),
            ),
            (
                dict(keep=7, halt_reason="CLIENT verdict ORDER_ERROR", both_closed=False),
                ("", "halted: CLIENT verdict ORDER_ERROR", "closer never sent FIN"),
            ),
            (dict(keep=7, both_closed=False), ("", "", "closer never sent FIN")),
            (dict(keep=9, both_closed=False), ("", "", "peer never sent FIN")),
            (dict(keep=10, both_closed=False), ("", "", "FIN not acknowledged")),
            (dict(both_closed=False), ("", "", "agents did not both reach CLOSED")),
            (dict(halt_reason="step budget exhausted"), ("", "", "timeout")),
            (dict(), ("", "", "")),
        ],
    )
    def test_each_failure_reason(self, doctor, expected):
        phases = ("handshake", "data_transfer", "termination")
        assert grade_doctored(**doctor) == {
            phase: PhaseResult(not reason, reason) for phase, reason in zip(phases, expected)
        }


class TestFaultInjection:
    """`replay_deliveries` on recorded streams edited by hand, as `inject`
    edits them; the CLI's checks on the edit are in test_cli.py."""

    def recorded(self):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=42)
        return [(e.direction, e.segment) for e in t.entries], (t.client_iss, t.server_iss)

    def test_unmutated_replay_all_normal(self):
        stream, iss = self.recorded()
        assert replay_deliveries(stream, *iss) == [Verdict.NORMAL] * len(stream)

    def test_swap_triggers_order_error_on_replay(self):
        stream, iss = self.recorded()
        stream[3], stream[4] = stream[4], stream[3]
        verdicts = replay_deliveries(stream, *iss)
        assert Verdict.ORDER_ERROR in verdicts
        assert Verdict.FLAG_ERROR not in verdicts

    def test_flag_mutation_triggers_flag_error_on_replay(self):
        stream, iss = self.recorded()
        sender, seg = stream[2]
        stream[2] = (sender, Segment(seg.seq, seg.ack, flags_parse("SYN|FIN"), seg.payload))
        verdicts = replay_deliveries(stream, *iss)
        assert verdicts[2] is Verdict.FLAG_ERROR
        assert verdicts[:2] == [Verdict.NORMAL] * 2

    def test_a_receiver_stops_at_its_first_anomaly(self):
        # After the client's FLAG_ERROR at delivery 1 (SYN|ACK mutated to
        # SYN|FIN), every later delivery to the client reads NORMAL.
        stream, iss = self.recorded()
        sender, seg = stream[1]
        assert sender is Role.SERVER
        stream[1] = (sender, Segment(seg.seq, seg.ack, flags_parse("SYN|FIN"), seg.payload))
        verdicts = replay_deliveries(stream, *iss)
        assert verdicts[1] is Verdict.FLAG_ERROR
        to_client = [v for (s, _), v in zip(stream[2:], verdicts[2:]) if s is Role.SERVER]
        assert to_client and all(v is Verdict.NORMAL for v in to_client)


class TestScenario:
    def test_wire_round_trip(self):
        sc = Scenario(
            data_script=((Role.CLIENT, 64), (Role.SERVER, 32)),
            closer=Role.SERVER,
            steps_budget=40,
            scenario_id="rt",
        )
        assert Scenario.from_wire(sc.to_wire()) == sc

    @pytest.mark.parametrize(
        "obj, scenario",
        [
            ({}, Scenario()),
            ({"closer": "SERVER"}, Scenario(closer=Role.SERVER)),
            ({"data_script": []}, Scenario(data_script=())),
        ],
        ids=["empty", "closer-only", "no-data"],
    )
    def test_a_missing_key_takes_the_default(self, obj, scenario):
        assert Scenario.from_wire(obj) == scenario

    def test_send_larger_than_a_segment_rejected(self):
        obj = Scenario().to_wire()
        obj["data_script"][0]["payload_len"] = MAX_PAYLOAD_LEN + 1
        with pytest.raises(ValueError):
            Scenario.from_wire(obj)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "data_script": [{"side": "CLIENT", "payload_len": 10}],
                    "closer": "SERVER",
                    "steps_budget": 32,
                }
            )
        )
        sc = Scenario.load(path)
        assert sc.closer is Role.SERVER and sc.data_script == ((Role.CLIENT, 10),)
