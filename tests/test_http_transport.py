"""HttpChatTransport against a loopback HTTP(S) server; no external network."""

import collections
import email.utils
import json
import os
import queue
import select
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from multiref import refgen
from multiref.cli import main
from multiref.errors import MalformedResponseError, TransportError
from multiref.refgen import (
    ENGLISH_TRANSLATION,
    MAX_RETRY_SLEEP_S,
    GenerationConfig,
    HttpChatTransport,
    completed_segment_ids,
    generate_references,
    load_generation_records,
)

# A self-signed certificate for 127.0.0.1, valid 2000-2100, and its key, made once with
#   openssl req -x509 -newkey rsa:2048 -nodes -not_before 20000101000000Z
#     -not_after 21000101000000Z -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1
#     -addext basicConstraints=critical,CA:FALSE
#     -addext keyUsage=critical,digitalSignature,keyEncipherment
#     -addext extendedKeyUsage=serverAuth -keyout loopback-key.pem -out loopback-cert.pem
DATA = Path(__file__).resolve().parent / "data"
CERT, KEY = DATA / "loopback-cert.pem", DATA / "loopback-key.pem"


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted reply.

    A reply is (status, payload, headers), optionally followed by a fault:
    "stall" sends nothing until the test ends, "reset" aborts the connection,
    "truncate" sends half the body it announces.
    """

    script = []
    requests = []
    release = threading.Event()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests.append((self.path, dict(self.headers), body))
        status, payload, headers, *fault = type(self).script.pop(0)
        if fault == ["stall"]:
            type(self).release.wait(10.0)
            self.close_connection = True
            return
        if fault == ["reset"]:
            # Linger 0: closing sends RST instead of FIN.
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.close_connection = True
            return
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        if fault == ["truncate"]:
            self.send_header("Content-Length", str(len(data)))
            data = data[: len(data) // 2]
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def serve(tls_context=None):
    """A running ScriptedHandler server, over TLS when given a server-side context."""
    # One thread per request, so a stalled reply does not hold up the retry;
    # a short poll interval, so shutdown() does not wait out the default 0.5 s.
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    scheme = "http"
    if tls_context is not None:
        httpd.socket = tls_context.wrap_socket(httpd.socket, server_side=True)
        scheme = "https"
    httpd.url = f"{scheme}://127.0.0.1:{httpd.server_address[1]}/v1/chat/completions"
    ScriptedHandler.script = []
    ScriptedHandler.requests = []
    ScriptedHandler.release.clear()
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield httpd
    ScriptedHandler.release.set()
    httpd.shutdown()
    httpd.server_close()
    thread.join()


@pytest.fixture
def server():
    yield from serve()


@pytest.fixture
def tls_server(monkeypatch):
    """`server` over HTTPS, with the loopback certificate as the clients' only trusted one."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(CERT, KEY)
    monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
    yield from serve(context)


def config_for(server, **kwargs):
    return GenerationConfig(
        model_name="test-model",
        n_references=2,
        endpoint_url=server.url,
        timeout=5.0,
        **kwargs,
    )


def chat_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def test_success_path_and_wire_format(server):
    ScriptedHandler.script = [(200, chat_payload("1. a\n2. b"), {})]
    transport = HttpChatTransport(api_key="sk-test")
    reply = transport.complete("some prompt", config_for(server))
    assert reply == "1. a\n2. b"

    path, headers, body = ScriptedHandler.requests[0]
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sk-test"
    assert body == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "some prompt"}],
    }


def test_rate_limit_retried_with_retry_after(server):
    ScriptedHandler.script = [
        (429, {"error": "slow down"}, {"Retry-After": "0"}),
        (200, chat_payload("ok"), {}),
    ]
    transport = HttpChatTransport(api_key="sk-test")
    assert transport.complete("p", config_for(server)) == "ok"
    assert len(ScriptedHandler.requests) == 2


@pytest.fixture
def sleeps(monkeypatch):
    """The waits the transport asks for, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(refgen.time, "sleep", waits.append)
    return waits


def http_date(seconds_from_now):
    when = datetime.now(timezone.utc) + timedelta(seconds=seconds_from_now)
    return email.utils.format_datetime(when, usegmt=True)


def retried_once_after(server, retry_after):
    """Waits of one 429 with this Retry-After header, then a success."""
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    ScriptedHandler.script = [(429, {"error": "slow down"}, headers), (200, chat_payload("ok"), {})]
    assert HttpChatTransport(api_key="sk-test").complete("p", config_for(server)) == "ok"
    assert len(ScriptedHandler.requests) == 2


def test_retry_after_zero_does_not_wait(server, sleeps):
    retried_once_after(server, "0")
    assert sleeps == [0.0]


def test_retry_after_seconds(server, sleeps):
    retried_once_after(server, "7")
    assert sleeps == [7.0]


def test_retry_after_http_date_in_the_future(server, sleeps):
    retried_once_after(server, http_date(30))
    assert len(sleeps) == 1 and 25.0 <= sleeps[0] <= 30.0


def test_retry_after_http_date_in_the_past_means_no_wait(server, sleeps):
    retried_once_after(server, "Wed, 21 Oct 2015 07:28:00 GMT")
    assert sleeps == [0.0]


def test_retry_after_http_date_without_a_zone_is_read_as_utc():
    when = datetime.now(timezone.utc) + timedelta(seconds=30)
    wait = refgen._retry_wait(when.strftime("%a, %d %b %Y %H:%M:%S"), 1.0)
    assert 25.0 <= wait <= 30.0


@pytest.mark.parametrize("garbage", ["soon", "nan", "Mon, 99 Foo 2020", None])
def test_unparsable_or_missing_retry_after_falls_back_to_backoff(server, sleeps, garbage):
    retried_once_after(server, garbage)
    assert sleeps == [1.0]


# The date case gets a fixed id: its value is computed at collection time.
@pytest.mark.parametrize(
    "far", ["86400", "inf", pytest.param(http_date(7200), id="http-date-in-2h")]
)
def test_every_wait_is_capped(server, sleeps, far):
    retried_once_after(server, far)
    assert sleeps == [MAX_RETRY_SLEEP_S]


def test_backoff_doubles_without_retry_after(server, sleeps):
    ScriptedHandler.script = [(503, {"error": "busy"}, {})] * 5 + [(200, chat_payload("ok"), {})]
    assert HttpChatTransport(api_key="sk-test").complete("p", config_for(server)) == "ok"
    assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_auth_failure_aborts_immediately(server):
    ScriptedHandler.script = [(401, {"error": "bad key"}, {})]
    transport = HttpChatTransport(api_key="sk-wrong")
    with pytest.raises(TransportError, match="401"):
        transport.complete("p", config_for(server))
    assert len(ScriptedHandler.requests) == 1


def test_unexpected_payload_is_transport_error(server):
    ScriptedHandler.script = [(200, {"unexpected": True}, {})]
    transport = HttpChatTransport(api_key="sk-test")
    with pytest.raises(TransportError, match="payload"):
        transport.complete("p", config_for(server))


def test_unreachable_endpoint_is_transport_error():
    transport = HttpChatTransport(api_key="sk-test")
    cfg = GenerationConfig(
        endpoint_url="http://127.0.0.1:1/v1/chat/completions", timeout=1.0
    )
    with pytest.raises(TransportError, match="reach"):
        transport.complete("p", cfg)


def test_missing_api_key_rejected(monkeypatch):
    monkeypatch.delenv("MULTIREF_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    with pytest.raises(TransportError, match="API key"):
        HttpChatTransport()


def test_key_resolved_from_environment(monkeypatch, server):
    monkeypatch.setenv("MULTIREF_API_KEY", "sk-env")
    ScriptedHandler.script = [(200, chat_payload("x"), {})]
    transport = HttpChatTransport()
    transport.complete("p", config_for(server))
    assert ScriptedHandler.requests[0][1]["Authorization"] == "Bearer sk-env"


OK = (200, chat_payload("ok"), {})


@pytest.mark.parametrize("fault", ["stall", "reset", "truncate"])
def test_connection_fault_retried_with_backoff(server, sleeps, fault):
    ScriptedHandler.script = [(200, chat_payload("lost"), {}, fault), OK]
    cfg = config_for(server)._replace(timeout=0.2)
    assert HttpChatTransport(api_key="sk-test").complete("p", cfg) == "ok"
    assert len(ScriptedHandler.requests) == 2
    assert sleeps == [1.0]


def test_connection_faults_share_the_retry_budget(server, sleeps):
    ScriptedHandler.script = [
        (503, {"error": "busy"}, {}),
        (200, chat_payload("lost"), {}, "reset"),
        (200, chat_payload("lost"), {}, "truncate"),
        OK,
    ]
    assert HttpChatTransport(api_key="sk-test").complete("p", config_for(server)) == "ok"
    assert sleeps == [1.0, 2.0, 4.0]


def test_connection_faults_exhaust_the_budget(server, sleeps):
    retries = HttpChatTransport.MAX_TRANSIENT_RETRIES
    ScriptedHandler.script = [(200, chat_payload("lost"), {}, "truncate")] * (retries + 1)
    with pytest.raises(TransportError, match="IncompleteRead.*after 6 attempts"):
        HttpChatTransport(api_key="sk-test").complete("p", config_for(server))
    assert len(ScriptedHandler.requests) == retries + 1
    assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0]


class ResettingEndpoint:
    """A raw loopback socket that resets its first `resets` connections (all when None), then answers "ok".

    Each reset is made with linger 0 as the connection is accepted, and the
    client waits until it has arrived before it sends, so the reset meets
    the request being sent (or its connect), which `urllib` wraps in a
    `URLError`.
    """

    def __init__(self, monkeypatch, resets):
        self.resets = resets
        self.connections = 0
        self.decisions = queue.Queue()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.01)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}/v1/chat/completions"
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        connect = socket.create_connection

        def connect_after_the_reset(*args, **kwargs):
            try:
                sock = connect(*args, **kwargs)
            finally:  # the reset may already fail the connect
                reset = self.decisions.get(timeout=5.0) == "reset"
            if reset:
                select.select([sock], [], [], 5.0)  # readable once the reset has arrived
            return sock

        monkeypatch.setattr(socket, "create_connection", connect_after_the_reset)

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            if self.resets is None or self.connections <= self.resets:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                conn.close()
                self.decisions.put("reset")
                continue
            self.decisions.put("answer")
            with conn, conn.makefile("rb") as request:
                headers = list(iter(request.readline, b"\r\n"))
                request.read(next(int(line[15:]) for line in headers if line.lower().startswith(b"content-length:")))
                body = json.dumps(chat_payload("ok")).encode("utf-8")
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(body), body))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        self.thread.join(5.0)
        assert not self.thread.is_alive()
        self.listener.close()


def test_reset_while_the_request_is_sent_is_retried(monkeypatch, sleeps):
    with ResettingEndpoint(monkeypatch, resets=2) as endpoint:
        cfg = GenerationConfig(endpoint_url=endpoint.url, timeout=5.0)
        assert HttpChatTransport(api_key="sk-test").complete("p", cfg) == "ok"
    assert endpoint.connections == 3
    assert sleeps == [1.0, 2.0]


def test_resets_while_the_request_is_sent_exhaust_the_budget(monkeypatch, sleeps):
    with ResettingEndpoint(monkeypatch, resets=None) as endpoint:
        cfg = GenerationConfig(endpoint_url=endpoint.url, timeout=5.0)
        with pytest.raises(TransportError, match=r"connection failed: ConnectionResetError\(.*\(gave up after 6 attempts\)"):
            HttpChatTransport(api_key="sk-test").complete("p", cfg)
    assert endpoint.connections == 6
    assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0]


@pytest.fixture
def client_contexts(monkeypatch):
    """Each client-side TLS context `ssl.SSLContext` makes from here on."""
    built = []
    make = ssl.SSLContext.__new__

    def counted(cls, protocol=None, *args, **kwargs):
        if protocol == ssl.PROTOCOL_TLS_CLIENT:
            built.append(protocol)
        return make(cls, protocol, *args, **kwargs)

    # Not a subclass in place of the class: ssl's own properties name `ssl.SSLContext`.
    monkeypatch.setattr(ssl.SSLContext, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("endpoint, contexts", [("server", 0), ("tls_server", 1)], ids=["http", "https"])
def test_one_tls_context_per_transport_and_none_for_http(request, client_contexts, endpoint, contexts):
    # `urlopen` without a context made one per HTTPS request, each loading
    # the CA store again. Four workers, and a short switch interval, give the
    # first requests every chance to race for the context.
    server = request.getfixturevalue(endpoint)
    ScriptedHandler.script = [(429, {"error": "slow down"}, {"Retry-After": "0"})] + [
        (200, chat_payload("1. a\n2. b"), {})
    ] * 8
    segments = [(f"s{i}", f"text {i}", f"gold {i}") for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = generate_references(segments, ENGLISH_TRANSLATION, config_for(server, concurrency=4),
                                      HttpChatTransport(api_key="sk-test"))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(r.segment_id for r in records if r.candidates == ("a", "b")) == sorted(s[0] for s in segments)
    assert len(ScriptedHandler.requests) == 9
    assert len(client_contexts) == contexts


# OpenAI-compatible servers send "content": null with a tool call or a refusal.
NON_STRING_CONTENT = pytest.mark.parametrize("content, json_type", [(None, "null"), (7, "number")])


@NON_STRING_CONTENT
def test_non_string_content_is_a_malformed_response(server, content, json_type):
    ScriptedHandler.script = [(200, chat_payload(content), {})]
    with pytest.raises(MalformedResponseError, match=f"content must be a string, got {json_type}"):
        HttpChatTransport(api_key="sk-test").complete("p", config_for(server))
    assert len(ScriptedHandler.requests) == 1


@NON_STRING_CONTENT
def test_generate_records_non_string_content_as_a_failed_segment(
    server, tmp_path, monkeypatch, content, json_type
):
    monkeypatch.setenv("MULTIREF_API_KEY", "sk-test")
    segments = tmp_path / "segments.jsonl"
    segments.write_text('{"id": "s1", "source": "one"}\n{"id": "s2", "source": "two"}\n')
    out = tmp_path / "refs.jsonl"
    # s1 gets the bad reply on both attempts, s2 a good one.
    ScriptedHandler.script = [(200, chat_payload(content), {})] * 2 + [(200, chat_payload("1. a\n2. b"), {})]
    argv = ["generate", "--segments", str(segments), "--out", str(out), "--n-references", "2",
            "--max-retries", "1", "--endpoint", config_for(server).endpoint_url]
    assert main(argv) == 0
    failed, done = load_generation_records(out)
    assert (failed.segment_id, failed.succeeded, failed.attempt_count) == ("s1", False, 2)
    assert failed.raw_response == ""
    assert failed.error == f"reply content must be a string, got {json_type}"
    assert (done.segment_id, done.candidates) == ("s2", ("a", "b"))
    assert completed_segment_ids(out) == {"s2"}


class SourceEchoHandler(BaseHTTPRequestHandler):
    """Answers each prompt, after a fixed delay, with two candidates built from its source.

    The source is the prompt's last line (the built-in template without a
    ground truth); `requests` counts the prompts received per source.
    """

    DELAY_S = 0.03
    requests = collections.Counter()
    lock = threading.Lock()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        source = body["messages"][0]["content"].splitlines()[-1]
        with self.lock:
            self.requests[source] += 1
        time.sleep(self.DELAY_S)
        data = json.dumps(chat_payload(f"1. {source} a\n2. {source} b")).encode("utf-8")
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client was killed while this request was in flight

    def log_message(self, *args):
        pass


def test_killed_generate_resumes_without_repeating_completed_segments(tmp_path):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), SourceEchoHandler)
    SourceEchoHandler.requests.clear()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    sources = {f"s{i}": f"source text {i}" for i in range(40)}
    segments = tmp_path / "segments.jsonl"
    segments.write_text("".join(json.dumps({"id": sid, "source": text}) + "\n" for sid, text in sources.items()))
    out = tmp_path / "refs.jsonl"
    argv = [sys.executable, "-m", "multiref", "--jobs", "4", "generate", "--segments", str(segments),
            "--out", str(out), "--n-references", "2",
            "--endpoint", f"http://127.0.0.1:{httpd.server_address[1]}/v1/chat/completions"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, MULTIREF_API_KEY="sk-test",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30.0
            while not (out.exists() and out.read_bytes().count(b"\n") >= 8):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.002)
        finally:
            child.kill()
            child.wait()
        done_before_kill = completed_segment_ids(out)
        assert 8 <= len(done_before_kill) < len(sources)
        # A kill in the middle of a write leaves a partial last line.
        partial = b'{"segment_id": "s39", "candidates": ["cut short'
        with open(out, "ab") as handle:
            handle.write(partial)

        rerun = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30.0)
        assert rerun.returncode == 0, rerun.stderr
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()
    assert f"{len(done_before_kill)} skipped (already complete)" in rerun.stdout
    assert partial not in out.read_bytes()
    records = load_generation_records(out)
    assert all(r.succeeded for r in records)
    assert sorted(r.segment_id for r in records) == sorted(sources)
    assert all(SourceEchoHandler.requests[sources[sid]] == 1 for sid in done_before_kill)
