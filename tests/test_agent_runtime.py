"""Agent step loop, dual-agent sessions, grading and fault injection."""

import json

import pytest

from smart_tcp.agent_runtime import (
    Agent,
    FaultKind,
    FaultSpec,
    Scenario,
    SessionTranscript,
    StepFailure,
    advance,
    implied_action,
    initial_states,
    inject_fault,
    oracle_step,
    remember,
    replay_deliveries,
    run_session,
    run_trials,
)
from smart_tcp.alu import AluTask
from smart_tcp.cognitive_core import (
    CognitiveCore,
    CognitiveDecision,
    CognitiveInput,
    OracleCore,
    Verdict,
    oracle_transition,
)
from smart_tcp.tcp_core import (
    ACTION_STATES,
    ActionKind,
    AgentState,
    ISN_MAX,
    ISN_MIN,
    LocalAction,
    MAX_PAYLOAD_LEN,
    Role,
    SEQ_MOD,
    Segment,
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
        s, emitted, alu = advance(cinput, oracle_transition(ESTABLISHED, data, cinput.a))
        assert emitted == Segment(seq=101, ack=503, flags=flags_parse("ACK"))
        assert (alu.seq, alu.ack) == (101, 503)
        assert (s.snd_nxt, s.rcv_nxt) == (101, 503)

    def test_an_actions_segment_is_alu_context_not_consumed(self):
        last = Segment(seq=499, ack=101, flags=flags_parse("PSH|ACK"), payload=b"x")
        send = LocalAction(ActionKind.SEND, b"hello")
        s, emitted, _ = advance(
            CognitiveInput(ESTABLISHED, last, send), oracle_transition(ESTABLISHED, last, send)
        )
        assert emitted == Segment(seq=101, ack=500, flags=flags_parse("PSH|ACK"), payload=b"hello")
        assert (s.snd_nxt, s.rcv_nxt) == (106, 501)

    def test_task_without_flags_is_a_step_failure(self):
        cinput = CognitiveInput(ESTABLISHED, a=LocalAction(ActionKind.CLOSE))
        decision = CognitiveDecision(TcpState.FIN_WAIT_1, None, 0, AluTask.CALCULATE_SEQ_ACK)
        with pytest.raises(StepFailure, match="no flags"):
            advance(cinput, decision)

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

    def test_deterministic_transcript(self):
        def dump(t):
            return json.dumps([e.to_wire() for e in t.entries])

        a = run_session(OracleCore(), OracleCore(), Scenario(), seed=77)
        b = run_session(OracleCore(), OracleCore(), Scenario(), seed=77)
        assert dump(a) == dump(b)

    def test_different_seed_different_isns(self):
        a = run_session(OracleCore(), OracleCore(), Scenario(), seed=1)
        b = run_session(OracleCore(), OracleCore(), Scenario(), seed=2)
        assert (a.client_iss, a.server_iss) != (b.client_iss, b.server_iss)

    def test_step_budget_exhaustion_fails_phases(self):
        sc = Scenario(steps_budget=4, scenario_id="tight")
        t = run_session(OracleCore(), OracleCore(), sc, seed=1)
        assert not t.phase_results["data_transfer"].passed
        assert not t.phase_results["termination"].passed

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

    def test_action_invalid_in_the_agents_state_is_a_deadlock(self):
        t = run_session(StayClosedCore(), OracleCore(), Scenario(), seed=1)
        assert t.entries == []
        assert t.halt_reason == "deadlock: CLIENT cannot SEND in CLOSED"
        assert not t.phase_results["handshake"].passed

    def test_transcript_file_round_trip(self, tmp_path):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=21)
        path = tmp_path / "session.jsonl"
        t.write(path)
        back = SessionTranscript.read(path)
        assert len(back.entries) == len(t.entries)
        # Payload bytes are not persisted, only lengths; compare wire fields.
        assert [e.segment.to_wire() for e in back.entries] == [
            e.segment.to_wire() for e in t.entries
        ]
        assert back.rng_seed == t.rng_seed
        assert {k: v.passed for k, v in back.phase_results.items()} == {
            k: v.passed for k, v in t.phase_results.items()
        }


class AlwaysAckCore(CognitiveCore):
    """Degenerate core: answers flags=ACK to everything."""

    name = "always-ack"

    def decide(self, input):
        task = AluTask.INIT_SYN if input.r is None else AluTask.CALCULATE_ACK
        return CognitiveDecision(
            next_state=input.s.state, flags=flags_parse("ACK"), payload_len=0, t_task=task
        )


class StayClosedCore(CognitiveCore):
    """Answers OPEN_ACTIVE by staying CLOSED and sending nothing;
    otherwise the oracle."""

    name = "stay-closed"

    def decide(self, input):
        if input.a.kind is ActionKind.OPEN_ACTIVE:
            return CognitiveDecision(TcpState.CLOSED, None, 0, None)
        return oracle_transition(input.s, input.r, input.a)


class AckBeforeReceiveCore(CognitiveCore):
    """Schema-valid but unfeedable: names CALCULATE_ACK on OPEN_ACTIVE,
    before any segment has arrived; otherwise the oracle."""

    name = "ack-before-receive"

    def decide(self, input):
        if input.a.kind is ActionKind.OPEN_ACTIVE:
            return CognitiveDecision(
                TcpState.SYN_SENT, flags_parse("SYN"), 0, AluTask.CALCULATE_ACK
            )
        return oracle_transition(input.s, input.r, input.a)


class TestRunTrials:
    def test_oracle_trials_all_pass(self):
        report = run_trials(OracleCore(), OracleCore(), 10, base_seed=7)
        assert report.handshake == report.data_transfer == report.termination == 1.0
        assert report.trial_accuracy == 1.0

    def test_degenerate_core_fails_handshake(self):
        report = run_trials(AlwaysAckCore(), OracleCore(), 3, base_seed=1)
        assert report.handshake == 0.0
        assert report.trial_accuracy == 0.0
        assert report.transcripts[0].phase_results["handshake"].reason

    def test_failed_handshake_fails_downstream_phases(self):
        report = run_trials(AlwaysAckCore(), OracleCore(), 1, base_seed=1)
        t = report.transcripts[0]
        assert not t.phase_results["data_transfer"].passed
        assert not t.phase_results["termination"].passed

    def test_alu_error_halts_and_grades_the_session(self):
        report = run_trials(AckBeforeReceiveCore(), OracleCore(), 3, base_seed=1)
        assert report.handshake == 0.0
        for t in report.transcripts:
            assert t.halt_reason == (
                "CLIENT step failure: CALCULATE_ACK requires a received segment"
            )
            assert not t.phase_results["handshake"].passed

    def test_sessions_must_be_positive(self):
        with pytest.raises(ValueError):
            run_trials(OracleCore(), OracleCore(), 0, base_seed=1)

    def test_two_forced_failures_give_93_33(self):
        # 28/30 full passes formats as the 93.33% fixture.
        clean = run_trials(OracleCore(), OracleCore(), 30, base_seed=7)
        core = PlantedCore(isses(clean, (3, 17)))
        report = run_trials(core, core, 30, base_seed=7)
        assert report.to_wire()["trial_accuracy"] == "93.33%"
        assert report.to_wire()["handshake"] == "100.00%"


class TestFaultInjection:
    def record_stream(self, seed=42, scenario=None):
        t = run_session(OracleCore(), OracleCore(), scenario or Scenario(), seed=seed)
        return [(e.direction, e.segment) for e in t.entries]

    def iss(self, seed=42):
        t = run_session(OracleCore(), OracleCore(), Scenario(), seed=seed)
        return t.client_iss, t.server_iss

    def test_none_is_identity(self):
        stream = self.record_stream()
        assert inject_fault(stream, FaultSpec()) == stream

    def test_swap_triggers_order_error_on_replay(self):
        stream = self.record_stream()
        mutated = inject_fault(stream, FaultSpec(FaultKind.REORDER_SWAP, target_index=3))
        verdicts = replay_deliveries(mutated, *self.iss())
        assert Verdict.ORDER_ERROR in verdicts
        assert Verdict.FLAG_ERROR not in verdicts

    def test_flag_mutation_triggers_flag_error_on_replay(self):
        stream = self.record_stream()
        mutated = inject_fault(
            stream, FaultSpec(FaultKind.FLAG_MUTATE, target_index=2, mutation=flags_parse("SYN|FIN"))
        )
        verdicts = replay_deliveries(mutated, *self.iss())
        assert Verdict.FLAG_ERROR in verdicts

    def test_unmutated_replay_all_normal(self):
        verdicts = replay_deliveries(self.record_stream(), *self.iss())
        assert all(v is Verdict.NORMAL for v in verdicts)

    def test_index_out_of_range(self):
        stream = self.record_stream()
        with pytest.raises(IndexError):
            inject_fault(stream, FaultSpec(FaultKind.REORDER_SWAP, target_index=len(stream)))

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.REORDER_SWAP)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.FLAG_MUTATE, target_index=1)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NONE, target_index=1)


class TestScenario:
    def test_wire_round_trip(self):
        sc = Scenario(
            data_script=((Role.CLIENT, 64), (Role.SERVER, 32)),
            closer=Role.SERVER,
            steps_budget=40,
            scenario_id="rt",
        )
        assert Scenario.from_wire(sc.to_wire()) == sc

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
