import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples
# on every run, so a CI failure reproduces; locally examples stay random.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


class _Server:
    """Tiny HTTP test double; the handler function maps a JSON request
    body to (status, payload) or (status, payload, response headers) and
    requests are counted."""

    def __init__(self, handler):
        self.handler = handler
        self.request_count = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.request_count += 1
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                status, payload, *extra = outer.handler(self.path, body, dict(self.headers))
                data = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else json.dumps(payload).encode("utf-8")
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._httpd.server_port}/v1/chat/completions"
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def http_server():
    servers = []

    def start(handler):
        server = _Server(handler)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def chat_payload(text: str, finish_reason: str = "stop") -> dict:
    return {
        "choices": [
            {"message": {"role": "assistant", "content": text}, "finish_reason": finish_reason}
        ]
    }


class FakeResponse:
    """A ``requests.post`` answer, as far as ``gateway._post_json`` reads
    it: the status, the headers and the body, JSON of ``payload`` unless
    ``content`` gives the bytes."""

    def __init__(self, status_code=200, payload=None, headers=None, content=None):
        self.status_code = status_code
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})
        self.content = json.dumps(payload).encode("utf-8") if content is None else content
