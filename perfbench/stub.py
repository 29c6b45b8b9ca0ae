"""Loopback chat-completion stand-in for ``RemoteCore``.

    python3 perfbench/stub.py --delay-ms 2

Listens on 127.0.0.1 on a free port and prints ``PORT <n>`` once ready.
Each POST carries the chat messages ``RemoteCore`` builds; the stub parses
the last user message as a ``CognitiveInput``, answers with
``oracle_transition`` of it after a fixed service delay, and so returns the
decision the oracle core would have made. One asyncio event loop, no thread
pool. When its standard input closes, the stub prints its counters as one
JSON line and exits, so it also ends if the benchmark dies.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time

from workloads import SRC

sys.path.insert(0, str(SRC))

from smart_tcp.cognitive_core import CognitiveInput, oracle_transition  # noqa: E402


class Stub:
    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.connections = 0
        self.requests = 0
        self.errors = 0
        self.service_s = []

    def answer(self, body: bytes) -> bytes:
        messages = json.loads(body)["messages"]
        inp = CognitiveInput.from_wire(json.loads(messages[-1]["content"]))
        decision = oracle_transition(inp.s, inp.r, inp.a)
        content = json.dumps(decision.to_wire(), separators=(",", ":"))
        return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return  # client closed the connection
                t0 = time.perf_counter()
                headers = {}
                for line in head.decode("latin-1").split("\r\n")[1:]:
                    if ":" in line:
                        k, v = line.split(":", 1)
                        headers[k.strip().lower()] = v.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                try:
                    payload, status = self.answer(body), "200 OK"
                except (ValueError, KeyError, TypeError) as exc:
                    self.errors += 1
                    payload, status = json.dumps({"error": str(exc)}).encode(), "400 Bad Request"
                await asyncio.sleep(self.delay_s)
                close = headers.get("connection", "").lower() == "close"
                writer.write(
                    f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n".encode()
                    + payload
                )
                await writer.drain()
                self.requests += 1
                self.service_s.append(time.perf_counter() - t0)
                if close:
                    return
        except ConnectionError:
            return
        finally:
            writer.close()

    def counters(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "errors": self.errors,
            "service_p50_ms": statistics.median(self.service_s) * 1e3 if self.service_s else 0.0,
        }


async def run(delay_s: float) -> dict:
    stub = Stub(delay_s)
    server = await asyncio.start_server(stub.serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"PORT {port}", flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    async with server:
        await stdin.read()  # until the benchmark closes our stdin
    return stub.counters()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="loopback chat-completion stub")
    ap.add_argument("--delay-ms", type=float, default=2.0)
    args = ap.parse_args(argv)
    counters = asyncio.run(run(args.delay_ms / 1e3))
    print(json.dumps(counters), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
