"""Stub chat-completion server for the ``http_stub`` workload.

Runs in its own process: ``python3 perfbench/stub_server.py PLAN.json``.
It binds a free localhost port and prints ``port <n>`` once it serves.

Every request sleeps a fixed latency before it is answered. The first
attempt of a prompt whose statement is listed in the plan's
``fail_first`` fails with a retryable 503; later attempts succeed.
Attempts are counted per prompt, so which requests fail depends only on
the prompt and its attempt number, never on arrival order, and retries
and answers repeat exactly from run to run. Answers are a fixed function
of the statement labels in the prompt.

``GET /stats`` returns the server-side attempt and status counts;
``POST /reset`` clears them and the per-prompt attempt numbers.
"""
from __future__ import annotations

import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_STATEMENT_RE = re.compile(r"\['(.*?)', '(.*?)', '(.*?)'\]")


def answer(s: str, p: str, o: str) -> str:
    return (
        "Here are some questions:\n"
        f"1. Does every {s} have a {o}?\n"
        f"2. How does a {s} use {p} for a {o}?\n"
    )


class Stub:
    def __init__(self, latency_s: float, fail_first: list[list[str]]) -> None:
        self.latency_s = latency_s
        self.fail_first = {tuple(t) for t in fail_first}
        self.lock = threading.Lock()
        self.attempts: Counter = Counter()
        self.statuses: Counter = Counter()

    def respond(self, prompt: str) -> tuple[int, dict]:
        time.sleep(self.latency_s)
        match = _STATEMENT_RE.search(prompt)
        with self.lock:
            self.attempts[prompt] += 1
            attempt = self.attempts[prompt]
            if match is None:
                status = 400
            elif attempt == 1 and match.groups() in self.fail_first:
                status = 503
            else:
                status = 200
            self.statuses[status] += 1
        if status != 200:
            return status, {"error": {"message": "stub failure", "attempt": attempt}}
        content = answer(*match.groups())
        return 200, {
            "choices": [
                {"message": {"role": "assistant", "content": content}, "finish_reason": "stop"}
            ]
        }

    def stats(self) -> dict:
        with self.lock:
            return {
                "attempts": sum(self.statuses.values()),
                "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            }

    def reset(self) -> None:
        with self.lock:
            self.attempts.clear()
            self.statuses.clear()


def make_handler(stub: Stub) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._send(200, stub.stats())
            else:
                self._send(404, {})

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                stub.reset()
                self._send(200, {})
                return
            try:
                prompt = json.loads(raw)["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, {"error": {"message": "bad request"}})
                return
            self._send(*stub.respond(prompt))

        def log_message(self, format: str, *args) -> None:
            pass

    return Handler


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    stub = Stub(plan["latency_s"], plan["fail_first"])
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1])
