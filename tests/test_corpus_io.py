import ast
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from multiref.cli import main
from multiref.corpus_io import (
    EvalCorpus,
    Segment,
    jsonl_line,
    load_corpus,
    load_outputs,
    load_segments,
    merge_references,
    read_jsonl,
    read_jsonl_records,
    write_json,
    write_jsonl,
)
from multiref.errors import CorpusFormatError
from multiref.refgen import GenerationRecord, load_generation_records


def record(segment_id, candidates, error=None):
    return GenerationRecord(
        segment_id=segment_id,
        prompt_used="p",
        raw_response="r",
        candidates=tuple(candidates),
        attempt_count=1,
        timestamp="2024-01-01T00:00:00+00:00",
        error=error,
    )


class TestLoadCorpus:
    def test_minimal_fixture(self, tmp_path, jsonl_writer):
        seg_path = tmp_path / "segments.jsonl"
        out_path = tmp_path / "outputs.jsonl"
        jsonl_writer(
            seg_path,
            [
                {"id": "s1", "source": "src1", "gold_refs": ["g1"]},
                {"id": "s2", "source": "src2", "gold_refs": []},
            ],
        )
        jsonl_writer(
            out_path,
            [
                {"system": "sysA", "segment": "s1", "hypothesis": "h1"},
                {"system": "sysA", "segment": "s2", "hypothesis": "h2"},
            ],
        )
        corpus = load_corpus(seg_path, out_path)
        assert len(corpus.segments) == 2
        assert corpus.systems["sysA"]["s2"] == "h2"

    def test_unknown_segment_reports_line(self, tmp_path, jsonl_writer):
        seg_path = tmp_path / "segments.jsonl"
        out_path = tmp_path / "outputs.jsonl"
        jsonl_writer(seg_path, [{"id": "s1", "source": "x"}])
        jsonl_writer(
            out_path,
            [
                {"system": "a", "segment": "s1", "hypothesis": "h"},
                {"system": "a", "segment": "mystery", "hypothesis": "h"},
            ],
        )
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(seg_path, out_path)
        assert err.value.line == 2
        assert "mystery" in str(err.value)

    def test_duplicate_segment_id_rejected(self, tmp_path, jsonl_writer):
        path = tmp_path / "segments.jsonl"
        jsonl_writer(path, [{"id": "s1", "source": "a"}, {"id": "s1", "source": "b"}])
        with pytest.raises(CorpusFormatError) as err:
            load_segments(path)
        assert err.value.line == 2

    def test_duplicate_hypothesis_rejected(self, tmp_path, jsonl_writer):
        path = tmp_path / "outputs.jsonl"
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "hypothesis": "x"},
                {"system": "a", "segment": "s1", "hypothesis": "y"},
            ],
        )
        with pytest.raises(CorpusFormatError):
            load_outputs(path, {"s1"})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "segments.jsonl"
        path.write_text('{"id": "s1", "source": "a"}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_segments(path)
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "segments.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_segments(path)

    def test_roundtrip(self, tmp_path):
        segments = [
            Segment(id="s1", source="src 猫", gold_refs=("g1", "g2")),
            Segment(id="s2", source="src2"),
        ]
        systems = {"sysA": {"s1": "h1", "s2": "h2"}, "sysB": {"s1": "h3"}}
        seg_path = tmp_path / "segments.jsonl"
        out_path = tmp_path / "outputs.jsonl"
        write_jsonl(
            seg_path,
            ({"id": s.id, "source": s.source, "gold_refs": list(s.gold_refs)} for s in segments),
        )
        write_jsonl(
            out_path,
            (
                {"system": system, "segment": segment, "hypothesis": hypothesis}
                for system, hypotheses in systems.items()
                for segment, hypothesis in hypotheses.items()
            ),
        )
        corpus = load_corpus(seg_path, out_path)
        assert corpus.segments == segments
        assert corpus.systems == systems

    def test_ids_are_still_converted_to_strings(self, tmp_path, jsonl_writer):
        seg_path = tmp_path / "segments.jsonl"
        out_path = tmp_path / "outputs.jsonl"
        jsonl_writer(seg_path, [{"id": 3, "source": "x", "gold_refs": ["g"]}])
        jsonl_writer(out_path, [{"system": 1, "segment": 3, "hypothesis": "h"}])
        corpus = load_corpus(seg_path, out_path)
        assert corpus.segment_ids() == ["3"]
        assert corpus.systems == {"1": {"3": "h"}}

    @pytest.mark.parametrize(
        "field, value",
        [("source", None), ("gold_refs", "g"), ("gold_refs", ["g", None]), ("gold_refs", None)],
    )
    def test_non_string_segment_text_reports_line(self, tmp_path, jsonl_writer, field, value):
        path = tmp_path / "segments.jsonl"
        jsonl_writer(path, [{"id": "s1", "source": "x"}, {"id": "s2", "source": "y", field: value}])
        with pytest.raises(CorpusFormatError) as err:
            load_segments(path)
        assert err.value.line == 2
        assert field in str(err.value)

    @pytest.mark.parametrize("value", [None, 3, ["h"]])
    def test_non_string_hypothesis_reports_line(self, tmp_path, jsonl_writer, value):
        path = tmp_path / "outputs.jsonl"
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "hypothesis": "h"},
                {"system": "a", "segment": "s2", "hypothesis": value},
            ],
        )
        with pytest.raises(CorpusFormatError) as err:
            load_outputs(path)
        assert err.value.line == 2
        assert "hypothesis must be a string" in str(err.value)


def _loads_reason(line):
    """The reason `json.loads` gives for a stripped line, as a read_jsonl error words it."""
    try:
        json.loads(line.strip())
    except json.JSONDecodeError as exc:
        return f"bad JSON: {exc}"
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"json.loads accepted {line!r}")


class TestDecodeParity:
    """read_jsonl rejects a malformed line with the message `json.loads` gives it."""

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"a": 1}  x', "bad JSON: Extra data: line 1 column 11 (char 10)"),
            ('{"a":1}{"b":2}', "bad JSON: Extra data: line 1 column 8 (char 7)"),
            ('\ufeff{"a": 1}', "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            ("nul", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[1", "bad JSON: Expecting ',' delimiter: line 1 column 3 (char 2)"),
            ('"', "bad JSON: Unterminated string starting at: line 1 column 1 (char 0)"),
            # The wording of these two depends on the Python version.
            ("\t" + "7" * 5000 + " ", None),
            ("[" * 100_000 + "]" * 100_000, None),
        ],
        ids=["trailing-garbage", "two-objects", "bom-on-line-2", "truncated-literal",
             "unclosed-array", "lone-quote", "5000-digit-int", "deep-nesting"],
    )
    def test_message_equals_json_loads(self, tmp_path, line, reason):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 0}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            list(read_jsonl(path, dict, "record"))
        expected = _loads_reason(line)
        if reason is not None:
            assert expected == reason
        assert str(err.value) == f"{path}:2: invalid record: {expected}"

    def test_valid_lines_decode_as_json_loads(self, tmp_path):
        lines = ['{"a": 1} \t', '\x0c{"a": [1, 2.5, -0.0, 1e400, NaN]}\x0b', '{"\\ud800": "é", "b": null}']
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = [record for _lineno, record in read_jsonl(path, dict, "record")]
        assert repr(got) == repr([json.loads(line.strip()) for line in lines])


class TestEncodeParity:
    """jsonl_line writes what `json.dumps(record, ensure_ascii=False)` writes, plus a newline."""

    RECORDS = [
        {"text": "é 中文 \u2028 \ud800 \"quoted\"\n", "emoji": "🙂"},
        {"nested": {"a": [1, [2, {"b": None}]], "empty": {}, "none": []}},
        {"floats": [-0.0, 0.0, 1e16, 1e-7, 2.5, float("nan"), float("inf"), -float("inf")]},
        {"ints": [0, -1, 10**30], "bools": [True, False], "null": None},
        {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
        [1, "top-level list"],
    ]

    @pytest.mark.parametrize("value", RECORDS, ids=range(len(RECORDS)))
    def test_line_equals_json_dumps(self, value):
        assert jsonl_line(value) == json.dumps(value, ensure_ascii=False) + "\n"

    def test_failed_encode_leaves_no_state(self):
        record = {"segment_id": "s1", "candidates": {"a", "b"}, "inner": {"x": [1.5]}}
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            jsonl_line(record)
        # The same dict, mended: an encoder that kept the failed encode's
        # circular-reference markers would see a cycle here.
        record["candidates"] = sorted(record["candidates"])
        assert jsonl_line(record) == json.dumps(record, ensure_ascii=False) + "\n"


# Builds without CPython's `_json` accelerator, and PyPy, take json's pure-Python encoder and scanner.
NO_ACCELERATOR = """\
import pickle, sys
sys.modules["_json"] = None
import multiref.cli
from multiref.corpus_io import read_jsonl_records, write_jsonl
import json.encoder, json.scanner
assert json.encoder.c_make_encoder is None and json.scanner.c_make_scanner is None
write_jsonl(sys.argv[1], pickle.loads(bytes.fromhex(sys.argv[2])))
print(repr([record for _lineno, record in read_jsonl_records(sys.argv[1], "record")]))
"""


def test_without_the_json_accelerator_lines_round_trip_as_with_it(tmp_path):
    # UTF-8 cannot hold the lone surrogate of the first record.
    records = [{"text": "é 中文 \u2028 \"quoted\"\n\t\x00\\", "emoji": "🙂"}]
    records += [value for value in TestEncodeParity.RECORDS[1:] if isinstance(value, dict)]
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    pure = tmp_path / "pure.jsonl"
    run = subprocess.run([sys.executable, "-c", NO_ACCELERATOR, str(pure), pickle.dumps(records).hex()],
                         env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert run.returncode == 0, run.stderr
    accelerated = tmp_path / "accelerated.jsonl"
    write_jsonl(accelerated, records)
    assert pure.read_bytes() == accelerated.read_bytes()
    assert run.stdout == repr([record for _lineno, record in read_jsonl_records(accelerated, "record")]) + "\n"


class TestLoadGenerationRecords:
    def test_unknown_segment_reports_line(self, tmp_path, jsonl_writer):
        path = tmp_path / "refs.jsonl"
        jsonl_writer(path, [record("s1", ["c"])._asdict(), record("zz", ["c"])._asdict()])
        assert [r.segment_id for r in load_generation_records(path)] == ["s1", "zz"]
        with pytest.raises(CorpusFormatError) as err:
            load_generation_records(path, {"s1"})
        assert err.value.line == 2
        assert "'zz'" in str(err.value)

    @pytest.mark.parametrize("candidates", ["the dog", [None], ["a", 3], None])
    def test_non_string_candidates_report_line(self, tmp_path, jsonl_writer, candidates):
        path = tmp_path / "refs.jsonl"
        bad = {**record("s1", ["c"])._asdict(), "candidates": candidates}
        jsonl_writer(path, [record("s0", ["c"])._asdict(), bad])
        with pytest.raises(CorpusFormatError) as err:
            load_generation_records(path)
        assert err.value.line == 2
        assert "candidates" in str(err.value)


class TestMergeReferences:
    def corpus(self):
        return EvalCorpus(
            segments=[
                Segment(id="s1", source="x", gold_refs=("gold1",)),
                Segment(id="s2", source="y", gold_refs=("gold2",)),
            ],
        )

    def test_generated_only(self):
        merged = merge_references(self.corpus(), [record("s1", ["c1", "c2"])])
        seg = merged.segments[0]
        assert seg.generated_refs == ("c1", "c2")
        assert seg.gold_refs == ("gold1",)

    def test_gold_included_when_requested(self):
        merged = merge_references(self.corpus(), [record("s1", ["c1"])])
        seg = merged.segments[0]
        assert (seg.gold_refs, seg.generated_refs) == (("gold1",), ("c1",))

    def test_failed_records_contribute_nothing(self):
        merged = merge_references(self.corpus(), [record("s1", [], error="bad")])
        assert merged.segments[0].generated_refs == ()

    def test_unknown_segment_rejected(self):
        with pytest.raises(ValueError):
            merge_references(self.corpus(), [record("sX", ["c"])])

    def test_original_untouched(self):
        corpus = self.corpus()
        merge_references(corpus, [record("s1", ["c"])])
        assert corpus.segments[0].gold_refs == ("gold1",)
        assert corpus.segments[0].generated_refs == ()


class TestAllOrNothingWrites:
    def failing_records(self, n):
        for i in range(n):
            yield {"row": i}
        raise RuntimeError("records failed")

    @pytest.mark.parametrize("kind", ["jsonl", "json"])
    def test_a_failed_write_leaves_the_target_whole(self, tmp_path, kind):
        # The target used to be truncated first, so it kept only the records before the failure.
        target = tmp_path / "out"
        target.write_bytes(b'{"old": 1}\n')
        with pytest.raises((RuntimeError, TypeError)):
            if kind == "jsonl":
                write_jsonl(target, self.failing_records(3))
            else:
                write_json(target, {"rows": [1, 2], "bad": object()})
        assert target.read_bytes() == b'{"old": 1}\n'
        assert list(tmp_path.iterdir()) == [target]

    def test_the_target_keeps_its_mode_and_no_temporary_file_stays(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        write_jsonl(target, [{"a": 1}, {"b": "é"}])
        assert target.read_bytes() == '{"a": 1}\n{"b": "é"}\n'.encode()
        assert target.stat().st_mode & 0o777 == 0o640
        assert list(tmp_path.iterdir()) == [target]

    def test_a_temporary_file_that_cannot_be_made_names_the_target(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as caught:
            write_jsonl("missing/x.jsonl", [{"a": 1}])
        assert str(caught.value) == "[Errno 2] No such file or directory: 'missing/x.jsonl'"
        refs = tmp_path / "refs.jsonl"
        write_jsonl(refs, [record("s1", ["a b", "c d"])._asdict()])
        assert main(["select", "--refs", str(refs), "--out", "missing/x.jsonl"]) == 1
        assert capsys.readouterr().err == "multiref: error: [Errno 2] No such file or directory: 'missing/x.jsonl'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.jsonl"]

    def test_a_symlink_or_fifo_target_is_written_in_place(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        write_json(link, [1])
        assert link.is_symlink() and real.read_bytes() == b"[\n  1\n]"
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        write_jsonl(fifo, [{"a": 1}])
        reader.join(10)
        assert received == [b'{"a": 1}\n']
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "real.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", ["score", "combine", "metaeval"])
    def test_stdout_redirected_to_a_file_keeps_the_table_before_the_document(
        self, tmp_path, jsonl_writer, command
    ):
        # /dev/stdout used to be opened anew with O_TRUNC, which emptied the redirected file,
        # so only the document was left.
        segments, outputs, matrix, human = (tmp_path / f"{name}.jsonl" for name in ("seg", "out", "matrix", "human"))
        systems = {"A": 0.25, "B": 0.5, "C": 0.75}
        jsonl_writer(segments, [{"id": f"s{i}", "source": "x", "gold_refs": [f"the cat sat {i}"]} for i in range(2)])
        jsonl_writer(outputs, [{"system": system, "segment": f"s{i}", "hypothesis": f"the {system} sat {i}"}
                               for system in systems for i in range(2)])
        jsonl_writer(matrix, [{"system": system, "segment": f"s{i}", "scores": {"r0": value + i / 10}, "metric": "m"}
                              for system, value in systems.items() for i in range(2)])
        jsonl_writer(human, [{"system": system, "segment": f"s{i}", "score": value + i}
                             for system, value in systems.items() for i in range(2)])
        argv, flag = {
            "score": (["score", "--segments", str(segments), "--outputs", str(outputs)], "--summary"),
            "combine": (["combine", "--matrix", str(matrix)], "--summary"),
            "metaeval": (["metaeval", "--matrix", str(matrix), "--human", str(human)], "--out"),
        }[command]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
        document, redirected = tmp_path / "document.json", tmp_path / "stdout.txt"
        table = subprocess.run([sys.executable, "-m", "multiref", *argv, flag, str(document)],
                               env=env, capture_output=True, text=True, check=True, timeout=60).stdout
        with open(redirected, "w", encoding="utf-8") as stdout:
            subprocess.run([sys.executable, "-m", "multiref", *argv, flag, "/dev/stdout"],
                           env=env, stdout=stdout, check=True, timeout=60)
        assert table.startswith("metric")
        assert redirected.read_text(encoding="utf-8") == table + document.read_text(encoding="utf-8")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command, table", [
        ("generate", "generate: 2 segments done"),
        ("select", "segment  in  kept"),
        ("score", "metric  system"),
        ("combine", "metric  system"),
    ])
    def test_a_jsonl_out_on_stdout_holds_only_records_and_the_table_goes_to_stderr(
        self, tmp_path, jsonl_writer, command, table
    ):
        # The table and status lines used to follow the records on stdout, so
        # `generate --out /dev/stdout | select --refs /dev/stdin` failed at the summary line.
        segments, outputs, refs, matrix = (tmp_path / f"{name}.jsonl" for name in ("seg", "out", "refs", "matrix"))
        jsonl_writer(segments, [{"id": f"s{i}", "source": "x", "gold_refs": [f"the cat sat {i}"]} for i in range(2)])
        jsonl_writer(outputs, [{"system": system, "segment": f"s{i}", "hypothesis": f"the {system} sat {i}"}
                               for system in "AB" for i in range(2)])
        jsonl_writer(refs, [{"segment_id": f"s{i}", "prompt_used": "p", "raw_response": "r", "attempt_count": 1,
                             "candidates": ["the cat sat", "a dog ran"], "timestamp": "t", "error": None}
                            for i in range(2)])
        jsonl_writer(matrix, [{"system": system, "segment": f"s{i}", "scores": {"r0": 0.5}, "metric": "m"}
                              for system in "AB" for i in range(2)])
        argv = {
            "generate": ["generate", "--segments", str(segments), "--mock", "--n-references", "2"],
            "select": ["select", "--refs", str(refs)],
            "score": ["score", "--segments", str(segments), "--outputs", str(outputs), "--generated-refs", str(refs),
                      "--per-reference"],
            "combine": ["combine", "--matrix", str(matrix)],
        }[command]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "multiref", *argv, "--out", "/dev/stdout"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines and all(isinstance(json.loads(line), dict) for line in lines)
        assert table in run.stderr

    def test_a_killed_score_leaves_the_old_matrix(self, tmp_path, jsonl_writer):
        # `score --out` used to write the matrix in place, so a kill left some of its rows.
        from multiref.cli import main

        segments, outputs, matrix = (tmp_path / name for name in ("seg.jsonl", "out.jsonl", "matrix.jsonl"))
        jsonl_writer(segments, [{"id": f"s{i}", "source": "x", "gold_refs": [f"a b c {i}"]} for i in range(3)])
        jsonl_writer(outputs, [{"system": system, "segment": f"s{i}", "hypothesis": f"a b {system} {i}"}
                               for system in ("A", "B") for i in range(3)])
        flags = ["score", "--segments", str(segments), "--outputs", str(outputs), "--out", str(matrix)]
        assert main([*flags, "--metrics", "chrf"]) == 0
        old = matrix.read_bytes()
        # Each matrix line takes 50 ms to encode, so the kill lands mid-write.
        slow_score = (
            "import sys, time\n"
            "from multiref import corpus_io\n"
            "from multiref.cli import main\n"
            "line = corpus_io.jsonl_line\n"
            "corpus_io.jsonl_line = lambda record: time.sleep(0.05) or line(record)\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", slow_score, *flags, "--metrics", "bleu,rouge1"],
                                env=env, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".matrix.jsonl.*.tmp")) and proc.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        proc.kill()
        proc.wait()
        assert list(tmp_path.glob(".matrix.jsonl.*.tmp")), "score wrote no temporary file before it ended"
        assert matrix.read_bytes() == old


SRC = Path(__file__).resolve().parent.parent / "src" / "multiref"

# The one function outside corpus_io that may open a file for writing:
# generate's append-and-flush loop.
WRITERS_ALLOWED = {("refgen.py", "generate_references")}
# Functions whose `x.open(...)` calls open a URL through a urllib opener, not a file.
URL_OPENERS = {("refgen.py", "complete")}


def _writes(call: ast.Call) -> bool:
    """Whether `call` is `json.dump(...)`, or an `open(path, mode)`/`path.open(mode)` that may write."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "dump":
        return isinstance(func.value, ast.Name) and func.value.id == "json"
    if isinstance(func, ast.Name) and func.id == "open":
        positional = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = call.args[:1]
    else:
        return False
    modes = positional + [k.value for k in call.keywords if k.arg == "mode"]
    # A mode that is not a literal may write.
    return any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value) for m in modes)


def _calls(tree, function=None):
    """(enclosing function, call) of each call in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            yield function, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _calls(node, inner)


def test_only_corpus_io_writes_files():
    allowed_seen = set()
    openers_seen = set()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "corpus_io.py":
            continue
        for function, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            site = (path.name, function)
            if site in URL_OPENERS and isinstance(call.func, ast.Attribute) and call.func.attr == "open":
                openers_seen.add(site)
            elif not _writes(call):
                continue
            elif site in WRITERS_ALLOWED:
                allowed_seen.add(site)
            else:
                stray.append(f"{path.name}:{call.lineno} in {function}")
    assert stray == [], "write files through corpus_io.write_jsonl/write_json"
    # The check sees the writes and URL opens it lets through, so it is not blind.
    assert allowed_seen == WRITERS_ALLOWED
    assert openers_seen == URL_OPENERS
