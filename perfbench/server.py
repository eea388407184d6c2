"""Loopback completion endpoint for the fetch-partial workload.

One process. It answers POST bodies {prompt, max_tokens, temperature, n} with
{"choices": [{"text": ...}, ...]} after a fixed simulated latency, serving at
most `--slots` requests at a time. A JSON plan file names the prompts that get
HTTP 503: `permanent` prompts fail on every attempt, `transient` prompts fail
on their first attempt and then succeed. Attempts are counted per request
path, so a client that puts a pass id in the URL path gets the same faults on
every pass.

    python3 perfbench/server.py --plan plan.json --latency 0.02 --slots 2

prints `port <n>` on its first stdout line once it is listening on
127.0.0.1, and serves until it receives SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion_text(prompt: str, index: int) -> str:
    """The completion served for sample `index` of `prompt`; already clean."""
    return f"{prompt} Answer {index}: it has a distinctive shape and colour."


class CompletionServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: dict, latency: float, slots: int):
        super().__init__(("127.0.0.1", 0), CompletionHandler)
        self.permanent = set(plan["permanent"])
        self.transient = set(plan["transient"])
        self.latency = latency
        self.slots = threading.BoundedSemaphore(slots)
        self.attempts: dict[tuple[str, str], int] = {}
        self.lock = threading.Lock()

    def fails(self, path: str, prompt: str) -> bool:
        if prompt in self.permanent:
            return True
        if prompt not in self.transient:
            return False
        with self.lock:
            seen = self.attempts.get((path, prompt), 0)
            self.attempts[(path, prompt)] = seen + 1
        return seen == 0


class CompletionHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY the
    # second waits for the client's delayed ACK (about 40 ms on Linux).
    disable_nagle_algorithm = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt, n = str(body["prompt"]), int(body["n"])
        with self.server.slots:
            time.sleep(self.server.latency)
            if self.server.fails(self.path, prompt):
                self._reply(503, {"error": "overloaded"})
            else:
                texts = [completion_text(prompt, i) for i in range(n)]
                self._reply(200, {"choices": [{"text": t} for t in texts]})

    def _reply(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="JSON {permanent, transient}")
    parser.add_argument("--latency", type=float, default=0.02, help="seconds per reply")
    parser.add_argument("--slots", type=int, default=1, help="requests served at once")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    with CompletionServer(plan, args.latency, max(1, args.slots)) as server:
        print(f"port {server.server_address[1]}", flush=True)
        try:
            server.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
