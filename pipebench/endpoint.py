"""Loopback OpenAI-style chat endpoint for the `generate-select` workload.

Run as its own process:

    python3 pipebench/endpoint.py --script endpoint.json --delay-ms 20

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` on its first
line. Each POST waits the fixed delay, then answers with the scripted
numbered list of the segment whose source text appears in the prompt. On a
segment's first request only, a scripted fault replaces the answer: ``429``
(rate limit with ``Retry-After: 0``) or ``short`` (a list one item short).
Both are faults the client retries today. GET /stats returns the request and
status counters as JSON.
"""

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Endpoint:
    """Scripted answers plus the counters the benchmark reads back."""

    def __init__(self, script: list[dict], delay_s: float):
        self.script = script
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.stats = {"requests": 0, "status_200": 0, "status_429": 0, "short_lists": 0,
                      "unknown_prompts": 0}

    def _entry_for(self, prompt: str):
        for entry in self.script:
            if entry["source"] in prompt:
                return entry
        return None

    def answer(self, prompt: str) -> tuple[int, dict, dict]:
        """(status, payload, headers) for one request."""
        entry = self._entry_for(prompt)
        with self.lock:
            self.stats["requests"] += 1
            if entry is None:
                self.stats["unknown_prompts"] += 1
                return 400, {"error": "unknown prompt"}, {}
            attempt = self.attempts.get(entry["segment_id"], 0) + 1
            self.attempts[entry["segment_id"]] = attempt
            fault = entry["fault"] if attempt == 1 else None
            if fault == "429":
                self.stats["status_429"] += 1
                return 429, {"error": "rate limited"}, {"Retry-After": "0"}
            self.stats["status_200"] += 1
            candidates = entry["candidates"]
            if fault == "short":
                self.stats["short_lists"] += 1
                candidates = candidates[:-1]
        content = "\n".join(f"{i}. {text}" for i, text in enumerate(candidates, 1))
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}, {}


def make_handler(endpoint: Endpoint):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            time.sleep(endpoint.delay_s)
            prompt = body["messages"][-1]["content"]
            self._reply(*endpoint.answer(prompt))

        def do_GET(self):
            with endpoint.lock:
                stats = dict(endpoint.stats)
            self._reply(200, stats, {})

        def _reply(self, status: int, payload: dict, headers: dict):
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            for key, value in headers.items():
                self.send_header(key, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True, help="endpoint.json written by inputs.py")
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.script, encoding="utf-8") as handle:
        endpoint = Endpoint(json.load(handle), args.delay_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(endpoint))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
