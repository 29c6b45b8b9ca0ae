"""Remote-core sessions run concurrently: same transcripts, exact counts,
transport failures surface, and connections are reused and closed."""

import json
import re
import socket
import ssl
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from smart_tcp import cli, cognitive_core, http11
from smart_tcp.agent_runtime import run_trials
from smart_tcp.cognitive_core import (
    CognitiveInput,
    OracleCore,
    PERSONA,
    RemoteConfig,
    RemoteCore,
    TransportError,
    serialize_decision,
    serialize_input,
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


def session_files(report):
    """The bytes of each session file the report's transcripts write:
    deliveries, decisions, halt reason and grades."""
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.jsonl"
        for t in report.transcripts:
            t.write(path)
            files.append(path.read_bytes())
    return files


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
        assert session_files(report) == session_files(expected)
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
    records each request's body and Authorization header.

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
        self.bodies = []
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
                    stats.bodies.append(body)
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
        assert session_files(report) == session_files(expected)
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
        assert session_files(report) == session_files(expected)
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

    def test_request_body_is_the_persona_and_the_input(self):
        with LoopbackModel() as model:
            core = RemoteCore(RemoteConfig(endpoint=model.url))
            try:
                core.decide(OPEN_ACTIVE)
            finally:
                core.close()
        body = {
            "model": "smart-tcp",
            "messages": [
                {"role": "system", "content": PERSONA},
                {"role": "user", "content": serialize_input(OPEN_ACTIVE)},
            ],
            "temperature": 0.0,
        }
        assert model.bodies == [json.dumps(body).encode()]

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
            ("http://127.0.0.1:0/v1", "port 0 takes no connection"),
            ("https://example.com:0/v1", "port 0 takes no connection"),
            ("http://127.0.0.1:9/v1 x", "not a valid request target"),
            ("http://127.0.0.1:9/v1\x00", "not a valid request target"),
            ("http://127.0.0.1:9/v1/\u00fc", "not a valid request target"),
            ("http://" + "\u00fc" * 70 + "/v1", "bad model endpoint"),
            ("http://[::1", "bad model endpoint"),
            ("http://[zz]/v1", "bad model endpoint"),
            ("http://127.0.0.1:9/a\nb", "not a valid request target"),
            (" http://127.0.0.1:9/v1", "not a valid request target"),
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
            assert len(made) == 1 and model.connections > 0
            assert model.wait_all_closed()

    def test_simulate_opens_no_more_connections_than_sessions_in_flight(self, capsys):
        # Both agents share one core and its socket pool: four sessions keep
        # at most four decisions, so four connections, in flight.
        with LoopbackModel() as model:
            code = cli.main([
                "simulate", "--core", "remote", "--endpoint", model.url,
                "--sessions", "4", "--seed", "2",
            ])
            assert code == 0 and "trial=100.00%" in capsys.readouterr().out
            assert 0 < model.connections <= 4
            assert model.wait_all_closed()


class FakeTlsContext:
    """Stands in for `ssl.create_default_context()`: wrap_socket records the
    socket and the server name it is given, then raises `error` or returns
    the plain socket, so an https endpoint runs over the loopback model."""

    def __init__(self, error=None):
        self.error = error
        self.socks = []
        self.hostnames = []

    def wrap_socket(self, sock, server_hostname=None):
        self.socks.append(sock)
        self.hostnames.append(server_hostname)
        if self.error is not None:
            raise self.error
        return sock


class TestTlsConnect:
    """`simulate --core remote` against an https endpoint: each connection
    is wrapped for the endpoint's host, and a failed wrap closes its socket
    and exits 3."""

    def simulate(self, monkeypatch, capsys, context):
        monkeypatch.setattr(ssl, "create_default_context", lambda: context)
        with LoopbackModel() as model:
            url = model.url.replace("http://", "https://", 1)
            code = cli.main(["simulate", "--core", "remote", "--endpoint", url, "--sessions", "1"])
            assert model.wait_all_closed()
        return code, capsys.readouterr(), model

    def test_each_connection_is_wrapped_for_the_endpoint_host(self, monkeypatch, capsys):
        context = FakeTlsContext()
        code, out, model = self.simulate(monkeypatch, capsys, context)
        assert code == cli.EXIT_OK and "trial=100.00%" in out.out
        assert model.connections > 0
        assert context.hostnames == ["127.0.0.1"] * model.connections

    def test_failed_wrap_closes_its_socket_and_exits_3(self, monkeypatch, capsys):
        context = FakeTlsContext(ssl.SSLError("handshake refused"))
        code, out, _ = self.simulate(monkeypatch, capsys, context)
        assert code == cli.EXIT_TRANSPORT
        assert out.err.startswith("error: model endpoint failure:")
        assert context.socks and all(sock.fileno() == -1 for sock in context.socks)


class RawReplyServer:
    """A loopback endpoint that answers the k-th request it reads with the
    k-th of `replies`, raw bytes, and closes that connection after a reply
    whose `close` is true. Records each request's bytes, the connections it
    accepted and how many of them the client closed. Serves one connection
    at a time and stops after the last reply, once the client closes."""

    def __init__(self, *replies):
        self.replies = replies  # (bytes, close) pairs
        self.requests = []
        self.connections = 0
        self.client_closed = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        # A client that hangs fails the test instead of blocking it.
        self.listener.settimeout(5)
        self.port = self.listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"
        self.conn = self.rfile = None
        self.thread = threading.Thread(target=self.serve, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.listener.close()

    def hang_up(self):
        self.rfile.close()
        self.conn.close()
        self.conn = self.rfile = None

    def read_request(self):
        """Read the next request, on a new connection once the client has
        closed the last one."""
        while True:
            if self.conn is None:
                self.conn, _ = self.listener.accept()
                self.conn.settimeout(5)
                self.rfile = self.conn.makefile("rb")
                self.connections += 1
            line = self.rfile.readline()
            if line:
                break
            self.client_closed += 1
            self.hang_up()
        head = line
        while line != b"\r\n":
            line = self.rfile.readline()
            head += line
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        self.requests.append(head + self.rfile.read(length))

    def serve(self):
        try:
            for reply, close in self.replies:
                self.read_request()
                self.conn.sendall(reply)
                if close:
                    self.hang_up()
            if self.conn is not None:
                if self.rfile.readline() == b"":
                    self.client_closed += 1
                self.hang_up()
        except OSError:
            if self.conn is not None:
                self.hang_up()


def reply(status_line, *headers, body=b""):
    return b"\r\n".join([status_line, *headers, b""]) + b"\r\n" + body


OK_2 = reply(b"HTTP/1.1 200 OK", b"Content-Length: 2", body=b"ok")


class TestReplyFraming:
    """Each reply is read to its end or is a TransportError; none waits for
    the socket timeout (5 s here). The request after a reply shows whether
    the socket was kept."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(cognitive_core, "TIMEOUT", 5.0)

    def post_twice(self, first):
        """Post with `first` as the reply, then with OK_2; return the first
        body and the server."""
        with RawReplyServer(first, (OK_2, False)) as server:
            core = RemoteCore(RemoteConfig(endpoint=server.url))
            try:
                body = core.endpoint.post(b"{}")
                assert core.endpoint.post(b"{}") == b"ok"
            finally:
                core.close()
        assert len(server.requests) == 2
        return body, server

    @pytest.mark.parametrize(
        "first, body",
        [
            (
                reply(
                    b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked",
                    body=b"4;name=value\r\nWiki\r\nA\r\npedia, the\r\n0\r\nExpires: never\r\nX-T: 1\r\n\r\n",
                ),
                b"Wikipedia, the",
            ),
            (reply(b"HTTP/1.1 100 Continue") + OK_2, b"ok"),
            (reply(b"HTTP/1.1 204 No Content"), b""),
            (reply(b"HTTP/1.0 200 OK", b"Connection: keep-alive", b"Content-Length: 2", body=b"ok"), b"ok"),
            (reply(b"HTTP/1.1 200 OK", *[b"X-H: v"] * 99, b"Content-Length: 2", body=b"ok"), b"ok"),
        ],
        ids=["chunked", "100-continue", "204", "http1.0-keep-alive", "100-header-lines"],
    )
    def test_framed_reply_keeps_the_socket(self, first, body):
        got, server = self.post_twice((first, False))
        assert got == body
        assert server.connections == 1 and server.client_closed == 1

    @pytest.mark.parametrize(
        "first, close",
        [
            (reply(b"HTTP/1.0 200 OK", body=b"hello"), True),
            (reply(b"HTTP/1.0 200 OK", b"Content-Length: 5", body=b"hello"), False),
            (reply(b"HTTP/1.1 200 OK", b"Connection: close", b"Content-Length: 5", body=b"hello"), False),
            (reply(b"HTTP/1.1 200 OK", b"Content-Length: 5", body=b"helloEXTRA"), False),
        ],
        ids=["http1.0-to-close", "http1.0", "connection-close", "bytes-left-over"],
    )
    def test_reply_that_ends_its_socket(self, first, close):
        got, server = self.post_twice((first, close))
        assert got == b"hello"
        assert server.connections == 2
        # The client closed the first socket itself unless the server did.
        assert server.client_closed == (1 if close else 2)

    def test_read_to_close_body_spans_several_recv_calls(self):
        # Three recv sizes of body: the reader must gather them all.
        body = bytes(range(256)) * (3 * http11.RECV_SIZE // 256)
        got, server = self.post_twice((reply(b"HTTP/1.0 200 OK", body=body), True))
        assert got == body
        assert server.connections == 2 and server.client_closed == 1

    @pytest.mark.parametrize(
        "first, reason",
        [
            (reply(b"HTTP/1.1 200 OK", b"Content-Length: 10", body=b"short"), "connection closed inside the reply body"),
            (b"HTTP/1.1 200 OK\r\nContent-Le", "connection closed inside the reply head"),
            (reply(b"garbage"), "bad status line b'garbage'"),
            (reply(b"HTTP/2 200 OK"), "bad status line"),
            (reply(b"HTTP/1.1 20 OK"), "bad status line"),
            (reply(b"HTTP/1.1 200 OK", b"no colon"), "bad header line"),
            (reply(b"HTTP/1.1 200 OK", *[b"X-H: v"] * 101), "more than 100 header lines"),
            (reply(b"HTTP/1.1 200 OK", b"X-Long: " + b"a" * 70_000), "reply head line longer than 65536 bytes"),
            (reply(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked", body=b"zz\r\n"), "bad chunk size b'zz'"),
            (reply(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked", body=b"0x4\r\nWiki\r\n0\r\n\r\n"), "bad chunk size"),
            (reply(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked", body=b"2\r\nokay\r\n0\r\n\r\n"), "chunk longer than its size"),
            (
                reply(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked", body=b"0\r\n" + b"X-T: 1\r\n" * 101 + b"\r\n"),
                "more than 100 trailer lines",
            ),
            (reply(b"HTTP/1.1 200 OK", b"Transfer-Encoding: gzip", b"Content-Length: 2", body=b"ok"), "unsupported transfer coding b'gzip'"),
            (reply(b"HTTP/1.1 503 Busy", b"Content-Length: 2", body=b"no"), "HTTP 503 Busy"),
        ],
        ids=[
            "short-body", "eof-in-head", "garbage-status", "http2", "two-digit-status", "no-colon",
            "101-header-lines", "long-line", "bad-chunk-size", "0x-chunk-size", "long-chunk",
            "101-trailer-lines", "gzip", "non-2xx",
        ],
    )
    def test_broken_reply_is_a_transport_error(self, first, reason):
        with RawReplyServer((first, True)) as server:
            core = RemoteCore(RemoteConfig(endpoint=server.url))
            try:
                with pytest.raises(TransportError, match=f"^model endpoint failure: {re.escape(reason)}"):
                    core.endpoint.post(b"{}")
                assert core.endpoint.idle == []
            finally:
                core.close()

    @pytest.mark.parametrize("key, authorization", [("k", b"Authorization: Bearer k\r\n"), (None, b"")])
    def test_request_bytes(self, key, authorization):
        with RawReplyServer((OK_2, False)) as server:
            core = RemoteCore(RemoteConfig(endpoint=f"http://127.0.0.1:{server.port}/v1/chat?a=1&b=2", api_key=key))
            try:
                assert core.endpoint.post(b'{"x":1}') == b"ok"
            finally:
                core.close()
        assert server.requests == [
            b"POST /v1/chat?a=1&b=2 HTTP/1.1\r\n"
            + f"Host: 127.0.0.1:{server.port}\r\n".encode()
            + b"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            + authorization
            + b'Content-Length: 7\r\n\r\n{"x":1}'
        ]

    @pytest.mark.parametrize(
        "endpoint, host",
        [
            ("http://[::1]:8080/v1", b"[::1]:8080"),
            ("http://[::1]/v1", b"[::1]"),
            ("http://Example.COM:80/v1", b"example.com"),
            ("http://example.com:/v1", b"example.com"),
            ("https://example.com:443/v1", b"example.com"),
            ("https://example.com:80/v1", b"example.com:80"),
            ("http://b\u00fccher.example/v1", b"xn--bcher-kva.example"),
        ],
    )
    def test_host_header(self, endpoint, host):
        # The head is built when the core is; no socket is opened.
        head = RemoteCore(RemoteConfig(endpoint=endpoint)).endpoint.head
        assert head.startswith(b"POST /v1 HTTP/1.1\r\nHost: " + host + b"\r\n")


class TestNoReply:
    """`simulate --core remote` against an endpoint that sends no reply byte
    on a fresh connection: the request is not resent, the socket is closed
    and the command exits 3."""

    def simulate(self, server, capsys):
        code = cli.main(["simulate", "--core", "remote", "--endpoint", server.url, "--sessions", "1"])
        return code, capsys.readouterr().err

    def test_fresh_connection_closed_before_a_reply_is_not_resent(self, capsys, monkeypatch):
        # A resent request would get no reply either; the short timeout
        # ends that wait.
        monkeypatch.setattr(cognitive_core, "TIMEOUT", 1.0)
        with RawReplyServer((b"", True)) as server:
            code, err = self.simulate(server, capsys)
            server.thread.join(timeout=5)
            # A second connection would wait in the listener's queue.
            server.listener.setblocking(False)
            try:
                conn, _ = server.listener.accept()
            except BlockingIOError:
                pass
            else:
                conn.close()
                pytest.fail("the request was resent on a new connection")
        assert code == cli.EXIT_TRANSPORT
        assert "model endpoint failure: Remote end closed connection without response" in err
        assert server.connections == 1

    def test_first_read_that_times_out_closes_the_socket(self, capsys, monkeypatch):
        monkeypatch.setattr(cognitive_core, "TIMEOUT", 0.2)
        with RawReplyServer((b"", False)) as server:
            code, err = self.simulate(server, capsys)
        assert code == cli.EXIT_TRANSPORT
        assert "model endpoint failure: timed out" in err
        assert server.connections == server.client_closed == 1


class TestSettings:
    """How `simulate --core remote` finds its endpoint and key: the flag, then
    the environment; an empty variable counts as unset."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(cli.ENDPOINT_ENV, raising=False)
        monkeypatch.delenv(cli.KEY_ENV, raising=False)

    def simulate(self, *extra):
        return cli.main(["simulate", "--core", "remote", "--sessions", "1", *extra])

    def test_endpoint_flag_beats_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENDPOINT_ENV, "ftp://127.0.0.1/unused")
        with LoopbackModel() as model:
            assert self.simulate("--endpoint", model.url) == cli.EXIT_OK
            assert model.requests > 0
        assert "trial=100.00%" in capsys.readouterr().out

    def test_environment_endpoint_without_the_flag(self, capsys, monkeypatch):
        with LoopbackModel() as model:
            monkeypatch.setenv(cli.ENDPOINT_ENV, model.url)
            assert self.simulate() == cli.EXIT_OK
            assert model.requests > 0
        assert "trial=100.00%" in capsys.readouterr().out

    @pytest.mark.parametrize("key, header", [("k", "Bearer k"), ("", None)])
    def test_environment_key_reaches_the_bearer_header(self, capsys, monkeypatch, key, header):
        monkeypatch.setenv(cli.KEY_ENV, key)
        with LoopbackModel() as model:
            assert self.simulate("--endpoint", model.url) == cli.EXIT_OK
        assert model.requests > 0
        assert set(model.authorizations) == {header}

    @pytest.mark.parametrize("key", ["k\r\nX-Injected: 1", "k\u20ac"])
    def test_key_that_is_not_one_ascii_line_exits_3(self, capsys, monkeypatch, key):
        monkeypatch.setenv(cli.KEY_ENV, key)
        assert self.simulate("--endpoint", "http://127.0.0.1:9/") == cli.EXIT_TRANSPORT
        assert "model key must be one line of ASCII text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env, extra",
        [("", ()), ("http://127.0.0.1:9/", ("--endpoint", ""))],
        ids=["empty-env", "empty-flag"],
    )
    def test_empty_endpoint_exits_3(self, capsys, monkeypatch, env, extra):
        monkeypatch.setenv(cli.ENDPOINT_ENV, env)
        assert self.simulate(*extra) == cli.EXIT_TRANSPORT
        assert "remote core selected but no endpoint configured" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--config", "x", "simulate"], ["simulate", "--config", "x"]]
    )
    def test_config_option_is_unknown(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err
