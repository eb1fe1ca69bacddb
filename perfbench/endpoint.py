"""Loopback bulk endpoint for the HTTP sink workload.

A single-threaded `http.server.HTTPServer` on 127.0.0.1, served from one
thread of the benchmark's parent process. Every POST to `/<tag>/_bulk`
is appended to `<directory>/received-<tag>.bulk` before the reply, so
the run process can read back exactly what arrived and compare its size
with the bytes the sink reports. HTTP/1.0 replies close each
connection, so every POST opens a new one, as a remote endpoint would
see it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

_REPLY = json.dumps({"took": 0, "errors": False, "items": []}).encode()


class BulkEndpoint:
    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.requests = 0
        self.bytes_received = 0
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                tag, _, rest = self.path.strip("/").partition("/")
                if rest != "_bulk" or not tag.isalnum():
                    self.send_error(404)
                    return
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with open(endpoint.directory / f"received-{tag}.bulk", "ab") as fh:
                    fh.write(body)
                endpoint.requests += 1
                endpoint.bytes_received += len(body)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(_REPLY)))
                self.end_headers()
                self.wfile.write(_REPLY)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "BulkEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
