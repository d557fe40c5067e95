import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from multiref import refgen
from multiref.errors import MalformedResponseError, TransportError
from multiref.refgen import (
    ENGLISH_TRANSLATION,
    GenerationConfig,
    GenerationRecord,
    MockTransport,
    PromptTemplate,
    build_prompt,
    completed_segment_ids,
    generate_references,
    load_generation_records,
    parse_candidates,
)

TEMPLATE = PromptTemplate(
    rules="Be a careful translator.",
    task_description="Give {n} translations of:\n{source}",
    include_ground_truth=False,
)

TEMPLATE_GT = PromptTemplate(
    rules="Be a careful translator.",
    task_description="Give {n} translations of:\n{source}",
    include_ground_truth=True,
)


def numbered(*items):
    return "\n".join(f"{i + 1}. {text}" for i, text in enumerate(items))


class FailsFirstTransport:
    """Raises TransportError on its first call; every later call answers after 50 ms."""

    def __init__(self):
        self.lock = threading.Lock()
        self.prompts = []

    def complete(self, prompt, cfg):
        with self.lock:
            self.prompts.append(prompt)
            first = len(self.prompts) == 1
        if first:
            raise TransportError("connection refused")
        time.sleep(0.05)
        return numbered("a", "b")


class FailsAfterSecondStartsTransport:
    """s0's call raises TransportError once s1's call has started; s1's answers once s0's worker has stopped."""

    def __init__(self):
        self.lock = threading.Lock()
        self.prompts = []
        self.second_started = threading.Event()
        self.first_raises = threading.Event()
        self.first_worker = None

    def complete(self, prompt, cfg):
        with self.lock:
            self.prompts.append(prompt)
        if prompt.endswith("text 0"):
            self.first_worker = threading.current_thread()
            self.second_started.wait(timeout=5)
            self.first_raises.set()
            raise TransportError("connection reset")
        self.second_started.set()
        self.first_raises.wait(timeout=5)
        self.first_worker.join(timeout=5)
        return numbered("a", "b")


class TestBuildPrompt:
    def test_substitution_without_ground_truth(self):
        prompt = build_prompt(TEMPLATE, "hello world", None, 10)
        assert "10" in prompt
        assert "hello world" in prompt
        assert "Ground Truth" not in prompt

    def test_deterministic(self):
        a = build_prompt(TEMPLATE_GT, "src", "gold", 3)
        b = build_prompt(TEMPLATE_GT, "src", "gold", 3)
        assert a == b

    def test_ground_truth_block_present(self):
        prompt = build_prompt(TEMPLATE_GT, "src", "X", 2)
        assert "Ground Truth:\nX" in prompt

    def test_gold_block_exactly_when_gold_is_given(self):
        # generate_references decides whether a prompt carries the gold
        # reference; build_prompt used to check that decision a second time.
        for template in (TEMPLATE, TEMPLATE_GT, ENGLISH_TRANSLATION):
            assert build_prompt(template, "src", "gold", 2).endswith("\n\nGround Truth:\ngold")
            assert "Ground Truth" not in build_prompt(template, "src", None, 2)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            build_prompt(TEMPLATE, "src", None, 0)
        # 2.5 used to be written into the prompt as the number of candidates.
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2.5$"):
            build_prompt(TEMPLATE, "src", None, 2.5)

    def test_template_placeholder_validation(self):
        with pytest.raises(ValueError):
            PromptTemplate(rules="r", task_description="no placeholders")
        with pytest.raises(ValueError):
            PromptTemplate(rules="r", task_description="{n} and {n} of {source}")

    def test_builtin_template_is_valid(self):
        prompt = build_prompt(ENGLISH_TRANSLATION, "die Katze", "the cat", 40)
        assert "40" in prompt and "die Katze" in prompt


class TestParseCandidates:
    def test_dot_numbering(self):
        assert parse_candidates("1. a\n2. b", 2) == ["a", "b"]

    def test_paren_numbering(self):
        assert parse_candidates("1) alpha\n2) beta", 2) == ["alpha", "beta"]

    def test_plain_lines_fallback(self):
        assert parse_candidates("a\nb\nc", 3) == ["a", "b", "c"]

    def test_count_mismatch_raises(self):
        with pytest.raises(MalformedResponseError):
            parse_candidates("1. a", 2)

    def test_empty_response_raises(self):
        with pytest.raises(MalformedResponseError):
            parse_candidates("   \n  ", 1)

    def test_continuation_lines_join(self):
        raw = "1. first part\nstill first\n2. second"
        assert parse_candidates(raw, 2) == ["first part still first", "second"]

    def test_numbering_prefix_stripped(self):
        for item in parse_candidates("1. a\n2. b\n3. c", 3):
            assert not item[0].isdigit()

    def test_no_empty_candidates(self):
        with pytest.raises(MalformedResponseError):
            parse_candidates("1.\n2. b", 2)

    def test_blank_lines_between_items_skipped(self):
        assert parse_candidates("1. a\n\n   \n2. b\n", 2) == ["a", "b"]
        assert parse_candidates("a\n\nb", 2) == ["a", "b"]


class TestGenerationConfig:
    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        # 0 used to fail as an unreachable endpoint, nan and -1 inside a worker thread.
        with pytest.raises(ValueError, match="timeout"):
            GenerationConfig(timeout=timeout)

    def test_positive_timeout_accepted(self):
        assert GenerationConfig(timeout=0.5).timeout == 0.5


class TestGenerateReferences:
    def segments(self):
        return [("s1", "source one", None), ("s2", "source two", None)]

    def config(self, **kwargs):
        defaults = dict(n_references=2, max_retries=2)
        defaults.update(kwargs)
        return GenerationConfig(**defaults)

    def test_wellformed_response_single_attempt(self):
        transport = MockTransport(scripted=[numbered("a", "b"), numbered("c", "d")])
        records = generate_references(self.segments(), TEMPLATE, self.config(), transport)
        assert [r.candidates for r in records] == [("a", "b"), ("c", "d")]
        assert all(r.attempt_count == 1 for r in records)
        assert all(r.succeeded for r in records)

    def test_retry_then_success(self):
        transport = MockTransport(
            scripted=["garbage", "1. only-one", numbered("a", "b"), numbered("c", "d")]
        )
        records = generate_references(
            self.segments()[:1], TEMPLATE, self.config(), transport
        )
        assert records[0].attempt_count == 3
        assert records[0].candidates == ("a", "b")

    def test_exhausted_retries_marks_failed_and_continues(self):
        transport = MockTransport(
            scripted=["bad", "bad", numbered("a", "b")]
        )
        records = generate_references(
            self.segments(), TEMPLATE, self.config(max_retries=1), transport
        )
        assert not records[0].succeeded
        assert records[0].candidates == ()
        assert records[1].succeeded

    def test_request_budget_respected(self):
        transport = MockTransport(scripted=["bad"] * 10)
        cfg = self.config(max_retries=2)
        generate_references(self.segments()[:1], TEMPLATE, cfg, transport)
        assert len(transport.calls) == 1 + cfg.max_retries

    def test_transport_error_aborts(self):
        transport = MockTransport(scripted=[TransportError("connection refused")])
        with pytest.raises(TransportError):
            generate_references(self.segments(), TEMPLATE, self.config(), transport)

    def test_persistence_and_resume(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=[numbered("a", "b"), numbered("c", "d")])
        generate_references(self.segments(), TEMPLATE, self.config(), transport, out_path=out)
        assert completed_segment_ids(out) == {"s1", "s2"}

        # A rerun on the same file must not touch the transport.
        quiet = MockTransport(scripted=[])
        records = generate_references(self.segments(), TEMPLATE, self.config(), quiet, out_path=out)
        assert records == []
        assert quiet.calls == []
        assert len(load_generation_records(out)) == 2

    def test_an_exhausted_script_is_a_transport_error(self):
        transport = MockTransport(scripted=[numbered("a", "b")])
        assert transport.complete("p", self.config()) == numbered("a", "b")
        with pytest.raises(TransportError, match="^mock transport script exhausted$"):
            transport.complete("q", self.config())
        assert transport.calls == ["p", "q"]

    def test_rerun_on_the_same_file_sends_and_writes_nothing(self, tmp_path):
        # A second call used to request every segment again and append a second
        # successful record for each, so the file no longer loaded.
        out = tmp_path / "refs.jsonl"
        cfg = self.config(concurrency=2)
        generate_references(self.segments(), TEMPLATE, cfg, MockTransport(), out_path=out)
        written = out.read_bytes()
        transport = MockTransport()
        assert generate_references(self.segments(), TEMPLATE, cfg, transport, out_path=out) == []
        assert transport.calls == []
        assert out.read_bytes() == written
        assert {r.segment_id for r in load_generation_records(out)} == {"s1", "s2"}

    def test_resume_with_many_completed_ids(self, tmp_path, jsonl_writer):
        done = [(f"done{i}", f"text {i}", None) for i in range(5000)]
        pending = [(f"new{i}", f"fresh text {i}", None) for i in range(3)]
        segments = done[:2500] + pending[:2] + done[2500:] + pending[2:]
        fresh = generate_references(pending, TEMPLATE, self.config(), MockTransport())

        out = tmp_path / "refs.jsonl"
        jsonl_writer(out, (GenerationRecord(sid, "p", "1. a", ("a",), 1, "t")._asdict() for sid, _, _ in done))
        transport = MockTransport()
        records = generate_references(segments, TEMPLATE, self.config(), transport, out_path=out)
        assert len(transport.calls) == 3
        assert [(r.segment_id, r.candidates, r.attempt_count) for r in records] == [
            (r.segment_id, r.candidates, r.attempt_count) for r in fresh
        ]
        assert completed_segment_ids(out) == {sid for sid, _, _ in segments}

    def test_failed_segments_resume_as_pending(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=["bad", "bad", "bad"])
        generate_references(
            self.segments()[:1], TEMPLATE, self.config(max_retries=2), transport, out_path=out
        )
        assert completed_segment_ids(out) == set()

    def test_failed_record_then_successful_record_loads(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        segment = self.segments()[:1]
        cfg = self.config(max_retries=0)
        generate_references(segment, TEMPLATE, cfg, MockTransport(scripted=["bad"]), out_path=out)
        resume = MockTransport(scripted=[numbered("a", "b")])
        generate_references(segment, TEMPLATE, cfg, resume, out_path=out)
        assert [r.succeeded for r in load_generation_records(out)] == [False, True]
        assert completed_segment_ids(out) == {"s1"}

    def test_concurrent_generation_keeps_all_records(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(12)]
        transport = MockTransport()  # synthesizes deterministic numbered lists
        records = generate_references(
            segments, TEMPLATE, self.config(concurrency=4), transport, out_path=out
        )
        assert {r.segment_id for r in records} == {s[0] for s in segments}
        assert completed_segment_ids(out) == {s[0] for s in segments}

    def test_transport_failure_keeps_in_flight_results_and_sends_no_more(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(20)]
        transport = FailsFirstTransport()
        with pytest.raises(TransportError):
            generate_references(
                segments, TEMPLATE, self.config(concurrency=2), transport, out_path=out
            )
        # The failing worker takes nothing more; the other has taken at most one segment.
        assert 1 <= len(transport.prompts) <= 2
        persisted = {r.prompt_used for r in load_generation_records(out)}
        assert persisted == set(transport.prompts[1:])

    def test_transport_failure_stops_a_lone_worker_before_its_next_segment(self, tmp_path):
        # The worker used to go on taking segments until the calling thread saw
        # the failure: 3 calls and 2 records here.
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(3)]
        transport = MockTransport(
            scripted=[TransportError("connection refused"), numbered("a", "b"), numbered("c", "d")]
        )
        with pytest.raises(TransportError):
            generate_references(
                segments, TEMPLATE, self.config(concurrency=1), transport, out_path=out
            )
        assert len(transport.calls) == 1
        assert load_generation_records(out) == []

    def test_failure_in_flight_keeps_the_other_workers_record(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(6)]
        transport = FailsAfterSecondStartsTransport()
        with pytest.raises(TransportError):
            generate_references(
                segments, TEMPLATE, self.config(concurrency=2), transport, out_path=out
            )
        assert len(transport.prompts) == 2
        assert [r.segment_id for r in load_generation_records(out)] == ["s1"]

    def test_failed_write_stops_the_workers_and_is_raised(self, tmp_path, monkeypatch):
        lines = []
        jsonl_line = refgen.jsonl_line

        def failing_jsonl_line(obj):
            lines.append(obj["segment_id"])
            if len(lines) == 2:
                raise OSError(28, "No space left on device")
            return jsonl_line(obj)

        monkeypatch.setattr(refgen, "jsonl_line", failing_jsonl_line)
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(4)]
        transport = MockTransport()
        with pytest.raises(OSError, match="No space left on device"):
            generate_references(
                segments, TEMPLATE, self.config(concurrency=1), transport, out_path=out
            )
        assert len(transport.calls) == 2
        assert [r.segment_id for r in load_generation_records(out)] == ["s0"]

    def test_one_worker_sends_segments_in_order(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        segments = [(f"s{i}", f"text {i}", None) for i in range(6)]
        cfg = self.config(concurrency=1)
        transport = MockTransport()
        generate_references(segments, TEMPLATE, cfg, transport, out_path=out)
        assert transport.calls == [
            build_prompt(TEMPLATE, src, None, cfg.n_references) for _, src, _ in segments
        ]
        assert [r.segment_id for r in load_generation_records(out)] == [s[0] for s in segments]

    def test_ground_truth_required_when_template_expects_it(self):
        with pytest.raises(ValueError):
            generate_references(
                [("s1", "src", None)], TEMPLATE_GT, self.config(), MockTransport()
            )

    def test_truncated_tail_repaired_on_resume(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=[numbered("a", "b")])
        generate_references(self.segments()[:1], TEMPLATE, self.config(), transport, out_path=out)
        # Simulate a crash mid-append: a partial record without a newline.
        with open(out, "a", encoding="utf-8") as handle:
            handle.write('{"segment_id": "s2", "candid')
        assert completed_segment_ids(out) == {"s1"}

        resume = MockTransport(scripted=[numbered("c", "d")])
        records = generate_references(self.segments(), TEMPLATE, self.config(), resume, out_path=out)
        assert [r.segment_id for r in records] == ["s2"]
        loaded = load_generation_records(out)
        assert [r.segment_id for r in loaded] == ["s1", "s2"]
        assert loaded[1].candidates == ("c", "d")

    def test_whole_last_record_without_newline_kept_on_resume(self, tmp_path):
        # A crash between a record and its newline leaves a whole record: it stays done.
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=[numbered("a", "b")])
        generate_references(self.segments()[:1], TEMPLATE, self.config(), transport, out_path=out)
        written = out.read_bytes()
        out.write_bytes(written.rstrip(b"\n"))
        assert completed_segment_ids(out) == {"s1"}
        assert out.read_bytes() == written

        resume = MockTransport(scripted=[numbered("c", "d")])
        records = generate_references(self.segments(), TEMPLATE, self.config(), resume, out_path=out)
        assert [r.segment_id for r in records] == ["s2"]
        assert len(resume.calls) == 1
        loaded = load_generation_records(out)
        assert [(r.segment_id, r.candidates) for r in loaded] == [("s1", ("a", "b")), ("s2", ("c", "d"))]

    @pytest.mark.parametrize("tail", ['["s2"]', '{"segment_id": "s2"} {', b'{"segment_id": "\xff"}'],
                             ids=["array", "extra-data", "bad-utf8"])
    def test_last_line_that_is_no_json_object_dropped(self, tmp_path, tail):
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=[numbered("a", "b")])
        generate_references(self.segments()[:1], TEMPLATE, self.config(), transport, out_path=out)
        written = out.read_bytes()
        out.write_bytes(written + (tail if isinstance(tail, bytes) else tail.encode()))
        assert completed_segment_ids(out) == {"s1"}
        assert out.read_bytes() == written

    def test_a_fifo_target_holds_no_records_and_is_not_opened(self, tmp_path):
        fifo = tmp_path / "refs.jsonl"
        os.mkfifo(fifo)
        done = []
        # Opening a FIFO for reading waits for a writer, which this test never opens unless it must.
        reader = threading.Thread(target=lambda: done.append(completed_segment_ids(fifo)), daemon=True)
        reader.start()
        reader.join(5.0)
        try:
            assert done == [set()]
        finally:
            while reader.is_alive():  # let a waiting open through, to a FIFO that holds nothing
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader is waiting yet
                    pass
                reader.join(0.01)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_generate_to_a_piped_stdout_writes_its_records_and_ends(self, tmp_path):
        segments = tmp_path / "segments.jsonl"
        segments.write_text('{"id": "s1", "source": "one"}\n{"id": "s2", "source": "two"}\n')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "multiref", "generate", "--segments", str(segments),
                "--out", "/dev/stdout", "--mock", "--n-references", "2"]
        run = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=20)
        assert run.returncode == 0, run.stderr
        # The summary goes to stderr, as the records take stdout.
        assert [json.loads(line)["segment_id"] for line in run.stdout.splitlines()] == ["s1", "s2"]
        assert run.stderr == "generate: 2 segments done, 0 skipped (already complete), 0 failed\n"

    def test_audit_fields_round_trip(self, tmp_path):
        out = tmp_path / "refs.jsonl"
        transport = MockTransport(scripted=[numbered("a", "b")])
        generate_references(self.segments()[:1], TEMPLATE, self.config(), transport, out_path=out)
        with open(out, encoding="utf-8") as handle:
            raw = json.loads(handle.readline())
        assert set(raw) == {
            "segment_id",
            "prompt_used",
            "raw_response",
            "candidates",
            "attempt_count",
            "timestamp",
            "error",
        }
        record = GenerationRecord.from_json(raw)
        assert record.raw_response == numbered("a", "b")
