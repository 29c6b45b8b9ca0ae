"""Remote-core sessions run concurrently: same transcripts, exact counts,
transport failures surface, and connections are reused and closed."""

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from smart_tcp import cli
from smart_tcp.agent_runtime import run_trials
from smart_tcp.cognitive_core import (
    CognitiveInput,
    OracleCore,
    RemoteConfig,
    RemoteCore,
    TransportError,
    serialize_decision,
)
from smart_tcp.tcp_core import ActionKind, AgentState, LocalAction, Role, TcpState

from planted import PlantedCore, isses, planted_transition

OPEN_ACTIVE = CognitiveInput(
    s=AgentState(role=Role.CLIENT, state=TcpState.CLOSED, iss=10, snd_nxt=10),
    a=LocalAction(ActionKind.OPEN_ACTIVE),
)


def oracle_reply(messages, planted=frozenset()):
    """What a perfectly trained model answers to a prompt, or one that fails
    where `planted` says."""
    inp = CognitiveInput.from_wire(json.loads(messages[-1]["content"]))
    return serialize_decision(planted_transition(inp.s, inp.r, inp.a, planted))


def oracle_run(n, seed, planted=frozenset()):
    """Serial reference run; returns (report, decisions made)."""
    client, server = PlantedCore(planted), PlantedCore(planted)
    report = run_trials(client, server, n, seed)
    return report, client.decisions + server.decisions


def transcript_wire(report):
    return [
        (
            [json.dumps(e.to_wire()) for e in t.entries],
            t.halt_reason,
            {k: v.to_wire() for k, v in t.phase_results.items()},
        )
        for t in report.transcripts
    ]


class SleepyRemote(RemoteCore):
    """RemoteCore whose transport answers like oracle_reply after a short
    sleep, and optionally fails on the k-th call across all threads."""

    def __init__(self, fail_on=None, planted=frozenset()):
        super().__init__(RemoteConfig(endpoint="http://example.invalid"))
        self.fail_on = fail_on
        self.planted = planted
        self.calls = 0
        self.lock = threading.Lock()

    def _complete(self, messages):
        with self.lock:
            self.calls += 1
            k = self.calls
        if k == self.fail_on:
            raise TransportError(f"call {k} failed")
        time.sleep(0.0005)
        return oracle_reply(messages, self.planted)


class TestConcurrentTrials:
    def test_matches_serial_oracle_with_exact_counts(self):
        planted = isses(oracle_run(30, 7)[0], (3, 17))
        expected, decisions = oracle_run(30, 7, planted)
        client, server = SleepyRemote(planted=planted), SleepyRemote(planted=planted)
        assert client.concurrency > 1
        # Switch threads often so that an unlocked count would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_trials(client, server, 30, 7)
        finally:
            sys.setswitchinterval(interval)
        assert transcript_wire(report) == transcript_wire(expected)
        assert report.to_wire() == expected.to_wire()
        assert report.trial_accuracy < 1.0
        assert client.request_count + server.request_count == decisions
        assert client.malformed_count == server.malformed_count == 0

    def test_transport_error_on_kth_call_reaches_caller(self):
        client, server = SleepyRemote(fail_on=5), SleepyRemote()
        with pytest.raises(TransportError, match="call 5 failed"):
            run_trials(client, server, 64, 3)
        # Sessions not yet started when the error surfaced were dropped.
        _, decisions = oracle_run(64, 3)
        assert client.request_count + server.request_count < decisions // 2

    def test_a_serial_core_never_serves_two_decisions_at_once(self):
        class OneAtATime(OracleCore):
            def __init__(self):
                self.lock = threading.Lock()
                self.in_flight = self.most_in_flight = 0

            def decide(self, input):
                with self.lock:
                    self.in_flight += 1
                    self.most_in_flight = max(self.most_in_flight, self.in_flight)
                time.sleep(0.0005)
                with self.lock:
                    self.in_flight -= 1
                return super().decide(input)

        server = OneAtATime()
        assert server.concurrency == 1
        report = run_trials(SleepyRemote(), server, 8, 1)
        assert report.trial_accuracy == 1.0
        assert server.most_in_flight == 1


class LoopbackModel:
    """A chat-completion endpoint on 127.0.0.1 answering like the oracle;
    counts the connections it accepted, those still open, and requests, and
    records each request's Authorization header.

    Variants: `reply=(status, body)` answers every request with those bytes
    instead; `drop_after=k` silently closes the connection that served the
    k-th request, as a server does with an idle keep-alive connection;
    `close_each` answers with `Connection: close`."""

    def __init__(self, reply=None, drop_after=None, close_each=False):
        stats = self
        self.lock = threading.Lock()
        self.connections = 0
        self.open = 0
        self.requests = 0
        self.authorizations = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with stats.lock:
                    stats.connections += 1
                    stats.open += 1

            def finish(self):
                with stats.lock:
                    stats.open -= 1
                super().finish()

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                if reply is None:
                    content = oracle_reply(json.loads(body)["messages"])
                    status, payload = 200, json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    ).encode()
                else:
                    status, payload = reply
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                if close_each:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(payload)
                with stats.lock:
                    stats.requests += 1
                    stats.authorizations.append(self.headers.get("Authorization"))
                    if stats.requests == drop_after:
                        # No Connection: close header, so the client keeps it.
                        self.close_connection = True

            def log_message(self, format, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()

    def wait_all_closed(self, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if self.open == 0:
                    return True
            time.sleep(0.01)
        return False


class TestRemoteTransport:
    def test_loopback_model_matches_oracle_over_reused_connections(self):
        expected, decisions = oracle_run(6, 11)
        with LoopbackModel() as model:
            client = RemoteCore(RemoteConfig(endpoint=model.url))
            server = RemoteCore(RemoteConfig(endpoint=model.url))
            try:
                report = run_trials(client, server, 6, 11)
            finally:
                client.close()
                server.close()
            assert model.wait_all_closed()
        assert transcript_wire(report) == transcript_wire(expected)
        assert client.request_count + server.request_count == decisions
        assert model.requests == decisions
        assert model.connections < model.requests

    def test_idle_connection_dropped_by_the_server_is_resent_once(self):
        expected, decisions = oracle_run(1, 11)
        with LoopbackModel(drop_after=3) as model:
            client = RemoteCore(RemoteConfig(endpoint=model.url))
            server = RemoteCore(RemoteConfig(endpoint=model.url))
            try:
                report = run_trials(client, server, 1, 11)
            finally:
                client.close()
                server.close()
            assert model.wait_all_closed()
        assert transcript_wire(report) == transcript_wire(expected)
        assert client.request_count + server.request_count == decisions
        assert model.requests == decisions
        # One connection per core for a serial session, plus the one that
        # replaced the dropped connection.
        assert model.connections == 3

    def test_connection_close_reply_closes_its_socket(self):
        with LoopbackModel(close_each=True) as model:
            core = RemoteCore(RemoteConfig(endpoint=model.url))
            for _ in range(3):
                core.decide(OPEN_ACTIVE)
            assert model.wait_all_closed()
            core.close()
        assert model.requests == model.connections == 3

    def test_close_closes_idle_connections(self):
        with LoopbackModel() as model:
            core = RemoteCore(RemoteConfig(endpoint=model.url))
            core.decide(OPEN_ACTIVE)
            core.decide(OPEN_ACTIVE)
            assert model.connections == model.open == 1
            core.close()
            assert model.wait_all_closed()

    @pytest.mark.parametrize("key, header", [("k", "Bearer k"), (None, None)])
    def test_bearer_header_only_with_a_key(self, key, header):
        with LoopbackModel() as model:
            core = RemoteCore(RemoteConfig(endpoint=model.url, api_key=key))
            try:
                core.decide(OPEN_ACTIVE)
            finally:
                core.close()
        assert model.authorizations == [header]

    @pytest.mark.parametrize(
        "reply, reason",
        [
            ((500, b'{"error": "boom"}'), "HTTP 500 Internal Server Error"),
            ((200, b"not json"), "Expecting value"),
        ],
    )
    def test_bad_reply_is_a_transport_error(self, capsys, reply, reason):
        with LoopbackModel(reply=reply) as model:
            core = RemoteCore(RemoteConfig(endpoint=model.url))
            try:
                with pytest.raises(TransportError, match=f"model endpoint failure: {reason}"):
                    core.decide(OPEN_ACTIVE)
            finally:
                core.close()
            code = cli.main(["simulate", "--core", "remote", "--endpoint", model.url, "--sessions", "1"])
            assert code == cli.EXIT_TRANSPORT
            assert f"model endpoint failure: {reason}" in capsys.readouterr().err
            assert model.wait_all_closed()

    def test_reply_whose_first_choice_is_not_an_object_exits_3(self, capsys):
        with LoopbackModel(reply=(200, b'{"choices":[1]}')) as model:
            code = cli.main(["simulate", "--core", "remote", "--endpoint", model.url, "--sessions", "1"])
            assert code == cli.EXIT_TRANSPORT
            assert "unrecognized response body" in capsys.readouterr().err
            assert model.wait_all_closed()

    @pytest.mark.parametrize(
        "endpoint, reason",
        [
            (None, "Connection refused"),
            ("ftp://127.0.0.1/v1/chat/completions", "must be an http(s) URL"),
            ("http:///v1/chat/completions", "must be an http(s) URL"),
            ("http://127.0.0.1:99999/v1", "bad model endpoint"),
        ],
    )
    def test_unusable_endpoint_exits_3(self, capsys, endpoint, reason):
        if endpoint is None:
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/v1/chat/completions"
        code = cli.main(["simulate", "--core", "remote", "--endpoint", endpoint, "--sessions", "1"])
        assert code == cli.EXIT_TRANSPORT
        assert reason in capsys.readouterr().err

    def test_simulate_closes_its_connections(self, capsys, monkeypatch):
        assert cli.main(["simulate", "--core", "oracle", "--sessions", "4", "--seed", "2"]) == 0
        oracle_out = capsys.readouterr().out
        # Keep the cores alive, so that only close(), not garbage
        # collection, can release their sockets.
        made = []

        class KeptRemote(RemoteCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(cli, "RemoteCore", KeptRemote)
        with LoopbackModel() as model:
            code = cli.main([
                "simulate", "--core", "remote", "--endpoint", model.url,
                "--sessions", "4", "--seed", "2",
            ])
            assert code == 0
            assert capsys.readouterr().out == oracle_out
            assert len(made) == 2 and model.connections > 0
            assert model.wait_all_closed()
