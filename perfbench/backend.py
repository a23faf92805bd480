"""Stand-in model backend for the slow_model workload.

Serves the README chat wire shape on 127.0.0.1 in its own process, so its
work never competes for the program's interpreter lock:

    POST /chat  {"messages": [...], ...}  ->  {"content": "...", "usage": {...}}

Replies are looked up by a digest of the request's messages and sent after a
fixed delay; an unknown request gets a 404, which the program surfaces as a
failed case. POST /calibrate answers at once, so the harness can check that
the transport itself adds only a few milliseconds.

    python3 perfbench/backend.py --replies backend.json --delay-ms 50

prints the port it listens on as its first line, then serves until killed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def wire_key(messages: list[dict]) -> str:
    """Digest of a chat request's messages as they travel on the wire."""
    canonical = json.dumps(
        [{"role": m["role"], "content": m["content"]} for m in messages],
        ensure_ascii=False, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_handler(replies: dict[str, str], delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            # Without this, Nagle's algorithm and the client's delayed ACK add
            # tens of milliseconds to a reply that spans two segments.
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/calibrate":
                self._reply(200, {"content": "", "usage": {}})
                return
            try:
                messages = json.loads(body)["messages"]
                content = replies[wire_key(messages)]
            except (ValueError, KeyError, TypeError):
                self._reply(404, {"error": "no reply recorded for this request"})
                return
            time.sleep(delay_s)
            self._reply(200, {
                "content": content,
                "usage": {"prompt_tokens": len(body) // 4, "completion_tokens": len(content) // 4},
            })

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + data)  # one send per response

        def log_message(self, format, *args) -> None:
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True, help="JSON object: wire key -> content")
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.replies, encoding="utf-8") as f:
        replies = json.load(f)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(replies, args.delay_ms / 1000))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
