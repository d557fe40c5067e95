"""`generate_references` with several worker threads: interrupts and shared state."""

import _thread
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from multiref.refgen import (
    GenerationConfig,
    MockTransport,
    PromptTemplate,
    generate_references,
    load_generation_records,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TEMPLATE = PromptTemplate(
    rules="Be a careful translator.",
    task_description="Give {n} translations of:\n{source}",
    include_ground_truth=False,
)


def segments(count):
    return [(f"s{i}", f"text {i}", None) for i in range(count)]


class InterruptingTransport:
    """Every call answers after 100 ms; the first interrupts the main thread once a second is in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.prompts = []
        self.second_call = threading.Event()

    def complete(self, prompt, cfg):
        with self.lock:
            self.prompts.append(prompt)
            first = len(self.prompts) == 1
        if first:
            self.second_call.wait(timeout=5)
            # Long enough for the main thread to be waiting on the workers.
            time.sleep(0.02)
            _thread.interrupt_main()
        else:
            self.second_call.set()
        time.sleep(0.1)
        return "1. a\n2. b"


def test_interrupt_keeps_in_flight_results_and_sends_no_more(tmp_path):
    out = tmp_path / "refs.jsonl"
    transport = InterruptingTransport()
    cfg = GenerationConfig(n_references=2, concurrency=2)
    # interrupt_main raises KeyboardInterrupt only under Python's own SIGINT handler.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            generate_references(segments(20), TEMPLATE, cfg, transport, out_path=out)
    finally:
        signal.signal(signal.SIGINT, previous)
    # The main thread sees the interrupt when it wakes for the first result; by
    # then each worker may have taken one more segment, and no other is sent.
    assert 2 <= len(transport.prompts) <= 2 * 2
    persisted = [r.prompt_used for r in load_generation_records(out)]
    assert sorted(persisted) == sorted(transport.prompts)


def test_many_workers_write_each_record_once(tmp_path):
    out = tmp_path / "refs.jsonl"
    todo = segments(200)
    transport = MockTransport()
    cfg = GenerationConfig(n_references=3, concurrency=8)
    returned = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # A daemon runner, whose workers are daemons too, so that a hang fails the test.
        runner = threading.Thread(
            target=lambda: returned.extend(
                generate_references(todo, TEMPLATE, cfg, transport, out_path=out)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(transport.calls) == len(todo)
    written = load_generation_records(out)
    assert [r.segment_id for r in written] == [r.segment_id for r in returned]
    assert sorted(r.segment_id for r in written) == sorted(sid for sid, _, _ in todo)
    assert all(r.succeeded for r in written)


def test_importing_the_cli_loads_no_executor_logging_or_queue():
    # Every command imports multiref.cli; the workers need only threading and collections.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import multiref.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(m for m in added if m.split('.')[0] in ('concurrent', 'logging', 'queue')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
