"""The HTTP/1.1 transport of `cognitive_core.RemoteCore`: the endpoint, its
keep-alive connections, the request head and reply framing.

Only a remote core imports this module, so no oracle-only command compiles
it or imports socket. Replies are read as RFC 9112 frames them, with at
least http.client's checks: the status line, the head's bounds, chunked
transfer coding and the choice of body framing. Lines end in CRLF.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional
from urllib.parse import urlsplit

from .cognitive_core import TransportError

# Bounds on a reply, as http.client's: header lines in a head, and bytes in
# a line of the head, a chunk size or a trailer, its CRLF included.
MAX_HEADERS = 100
MAX_LINE = 65536
# Bytes asked of each recv.
RECV_SIZE = 65536
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class Endpoint:
    """An http(s) model endpoint and the keep-alive sockets open to it.

    Built from the endpoint's URL, which it checks, and an optional key:
    TransportError for an endpoint or key that cannot go into a request.
    `head` is the head of every request up to its Content-Length value: the
    request line, Host, Accept-Encoding, Content-Type and, with a key,
    Authorization. Each socket opened to the endpoint has TCP_NODELAY,
    `timeout` and, for https, TLS that verifies the server against the
    system trust store. `idle` holds the sockets that wait for a request,
    shared by the threads that post: each pops one (or opens one) and pushes
    it back when done, so no more are ever open than requests in flight.
    """

    def __init__(self, endpoint: str, api_key: Optional[str], timeout: float):
        # urlsplit drops tabs and line breaks, and leading controls and
        # spaces, so it would read another URL than the one given.
        if any(c <= " " or c == "\x7f" for c in endpoint):
            raise TransportError(f"bad model endpoint {endpoint!r}: not a valid request target")
        try:
            url = urlsplit(endpoint)
            port = url.port
        except ValueError as exc:
            raise TransportError(f"bad model endpoint {endpoint!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"model endpoint must be an http(s) URL: {endpoint!r}")
        if port == 0:
            raise TransportError(f"bad model endpoint {endpoint!r}: port 0 takes no connection")
        host = url.hostname
        default_port = 443 if url.scheme == "https" else 80
        if port is None:
            port = default_port
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        try:
            authority = host if host.isascii() else host.encode("idna").decode()
        except UnicodeError as exc:
            raise TransportError(f"bad model endpoint {endpoint!r}: {exc}") from None
        if ":" in authority:
            authority = f"[{authority}]"
        if port != default_port:
            authority += f":{port}"
        # http.client's checks: the request line and Host are printable
        # ASCII with no space, and no header value breaks its line.
        if not all(" " < c < "\x7f" for c in target + authority):
            raise TransportError(f"bad model endpoint {endpoint!r}: not a valid request target")
        head = (
            f"POST {target} HTTP/1.1\r\nHost: {authority}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
        )
        if api_key:
            if "\r" in api_key or "\n" in api_key or not api_key.isascii():
                raise TransportError("model key must be one line of ASCII text")
            head += f"Authorization: Bearer {api_key}\r\n"
        self._context = None
        if url.scheme == "https":
            import ssl

            self._context = ssl.create_default_context()
        self._host = host
        self._port = port
        self._timeout = timeout
        self.head = (head + "Content-Length: ").encode()
        self.idle: List = []
        self._idle_lock = threading.Lock()

    def _connect(self):
        sock = socket.create_connection((self._host, self._port), self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return sock

    def close(self) -> None:
        """Close the idle keep-alive sockets."""
        with self._idle_lock:
            idle, self.idle = self.idle, []
        for sock in idle:
            sock.close()

    def post(self, body: bytes) -> bytes:
        """POST `body` to the endpoint and return the whole reply body.

        A reused socket that gives EOF, ECONNRESET or EPIPE before the first
        reply byte is one the server closed while it sat idle; the request is
        resent once on a new socket. Any other failure, and a non-2xx status,
        closes the socket and raises. After a 2xx reply the socket goes back
        to the idle list if the reply let it stay open (see `ReplyReader.reply`).
        """
        request = self.head + b"%d\r\n\r\n" % len(body) + body
        with self._idle_lock:
            sock = self.idle.pop() if self.idle else None
        resend = sock is not None
        while True:
            if sock is None:
                sock = self._connect()
            try:
                sock.sendall(request)
                reader = ReplyReader(sock)
                break
            except (ConnectionResetError, BrokenPipeError):
                sock.close()
                if not resend:
                    raise
                resend, sock = False, None
            except BaseException:
                sock.close()
                raise
        try:
            status, reason, data, keep = reader.reply()
            if not 200 <= status < 300:
                raise TransportError(f"model endpoint failure: HTTP {status} {reason}")
        except BaseException:
            sock.close()
            raise
        if keep:
            with self._idle_lock:
                self.idle.append(sock)
        else:
            sock.close()
        return data


class ReplyReader:
    """Reads the replies that arrive on one socket, from a buffer that holds
    the bytes received so far and a read position in it.

    Built once a request is sent: it receives the reply's first bytes, and
    raises ConnectionResetError if the stream ends before any arrive."""

    __slots__ = ("sock", "buf", "pos")

    def __init__(self, sock):
        self.sock = sock
        self.buf = sock.recv(RECV_SIZE)
        self.pos = 0
        if not self.buf:
            raise ConnectionResetError("Remote end closed connection without response")

    def reply(self):
        """Read one HTTP/1.x reply and return (status, reason, body, keep):
        keep says whether the socket can carry the next request. 1xx replies
        are skipped. The body is framed by, in this order: a 204 or 304
        status (no body), chunked transfer coding, a Content-Length, or the
        end of the stream. TransportError for a reply that breaks that
        framing or the bounds."""
        while True:
            status_line = self.line("head")
            version, _, rest = status_line.partition(b" ")
            code, _, reason = rest.partition(b" ")
            if not (
                len(version) == 8 and version.startswith(b"HTTP/1.") and version[7:].isdigit()
                and len(code) == 3 and code.isdigit() and code[:1] != b"0"
            ):
                raise TransportError(f"model endpoint failure: bad status line {status_line[:80]!r}")
            status = int(code)
            # The first value of each field, as http.client reads them.
            fields = {}
            for _ in range(MAX_HEADERS + 1):
                line = self.line("head")
                if not line:
                    break
                name, colon, value = line.partition(b":")
                if not colon or not name or name[:1].isspace():
                    raise TransportError(f"model endpoint failure: bad header line {line[:80]!r}")
                fields.setdefault(name.rstrip().lower(), value.strip())
            else:
                raise TransportError(f"model endpoint failure: more than {MAX_HEADERS} header lines")
            if status >= 200:
                break
        coding = fields.get(b"transfer-encoding")
        length = fields.get(b"content-length")
        framed = True
        if status == 204 or status == 304:
            body = b""
        elif coding is not None:
            if coding.lower() != b"chunked":
                raise TransportError(f"model endpoint failure: unsupported transfer coding {coding[:80]!r}")
            body = self.chunked()
        elif length is not None and length.isdigit():
            body = self.take(int(length), "body")
        else:
            body = self.rest()
            framed = False
        connection = fields.get(b"connection", b"").lower()
        if version == b"HTTP/1.0":
            keep = b"keep-alive" in connection
        else:
            keep = b"close" not in connection
        # Bytes past the reply answer no request: the socket is out of step.
        keep = keep and framed and self.pos == len(self.buf)
        return status, reason.strip().decode("latin-1"), body, keep

    def chunked(self) -> bytes:
        """A chunked body; chunk extensions and trailer fields are skipped."""
        chunks = []
        while True:
            size = self.line("chunk size").partition(b";")[0].strip()
            # int(size, 16) alone would also take a sign, "0x" and "_".
            if not size or size.strip(_HEX_DIGITS):
                raise TransportError(f"model endpoint failure: bad chunk size {size[:80]!r}")
            n = int(size, 16)
            if n == 0:
                break
            chunks.append(self.take(n, "body"))
            if self.line("body"):
                raise TransportError("model endpoint failure: chunk longer than its size")
        for _ in range(MAX_HEADERS + 1):
            if not self.line("trailer"):
                return b"".join(chunks)
        raise TransportError(f"model endpoint failure: more than {MAX_HEADERS} trailer lines")

    def fill(self, part: str) -> None:
        more = self.sock.recv(RECV_SIZE)
        if not more:
            raise TransportError(f"model endpoint failure: connection closed inside the reply {part}")
        if type(self.buf) is bytes:
            self.buf = bytearray(self.buf)  # grows in place from here on
        self.buf += more

    def line(self, part: str) -> bytes:
        """The next line, without its CRLF."""
        pos = self.pos
        end = self.buf.find(b"\r\n", pos)
        while end < 0 and len(self.buf) - pos <= MAX_LINE:
            seen = len(self.buf)
            self.fill(part)
            end = self.buf.find(b"\r\n", max(pos, seen - 1))
        if end < 0 or end + 2 - pos > MAX_LINE:
            raise TransportError(f"model endpoint failure: reply {part} line longer than {MAX_LINE} bytes")
        self.pos = end + 2
        return bytes(self.buf[pos:end])

    def take(self, n: int, part: str) -> bytes:
        """The next n bytes."""
        pos = self.pos
        while len(self.buf) < pos + n:
            self.fill(part)
        self.pos = pos + n
        return bytes(self.buf[pos : pos + n])

    def rest(self) -> bytes:
        """Every byte up to the end of the stream."""
        chunks = [bytes(self.buf[self.pos :])]
        more = self.sock.recv(RECV_SIZE)
        while more:
            chunks.append(more)
            more = self.sock.recv(RECV_SIZE)
        self.pos = len(self.buf)
        return b"".join(chunks)
