"""HttpChatTransport against a loopback HTTP server; no external network."""

import dataclasses
import email.utils
import json
import socket
import struct
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from multiref import refgen
from multiref.cli import main
from multiref.errors import MalformedResponseError, TransportError
from multiref.refgen import (
    MAX_RETRY_SLEEP_S,
    GenerationConfig,
    HttpChatTransport,
    completed_segment_ids,
    load_generation_records,
)


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


@pytest.fixture
def server():
    # One thread per request, so a stalled reply does not hold up the retry;
    # a short poll interval, so shutdown() does not wait out the default 0.5 s.
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
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


def config_for(server, **kwargs):
    port = server.server_address[1]
    return GenerationConfig(
        model_name="test-model",
        n_references=2,
        endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
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
    cfg = dataclasses.replace(config_for(server), timeout=0.2)
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
