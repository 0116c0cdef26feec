import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from rede.corpus import Document


@pytest.fixture
def toy_corpus():
    return {
        "d1": Document("d1", "", "a b a"),
        "d2": Document("d2", "", "b c"),
    }


@pytest.fixture
def http_server():
    """Start a scriptable HTTP JSON server; yields (url, state dict).

    state["handler"] is called with the parsed request body and must return
    (status, response_dict). state["requests"] collects every body seen.
    """
    state = {"handler": lambda body: (200, {}), "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            state["requests"].append(body)
            status, payload = state["handler"](body)
            data = json.dumps(payload).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hung up (e.g. timed out); nobody is left to reply to

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for serve_forever's next poll: at the default 0.5 s, every teardown took 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def make_vectors(rows):
    return np.asarray(rows, dtype=np.float32)
