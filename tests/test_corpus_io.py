import ast
import json
from pathlib import Path

import pytest

from multiref.corpus_io import (
    EvalCorpus,
    Segment,
    jsonl_line,
    load_corpus,
    load_outputs,
    load_segments,
    merge_references,
    read_jsonl,
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


class TestLoadGenerationRecords:
    def test_unknown_segment_reports_line(self, tmp_path, jsonl_writer):
        path = tmp_path / "refs.jsonl"
        jsonl_writer(path, [record("s1", ["c"]).to_json(), record("zz", ["c"]).to_json()])
        assert [r.segment_id for r in load_generation_records(path)] == ["s1", "zz"]
        with pytest.raises(CorpusFormatError) as err:
            load_generation_records(path, {"s1"})
        assert err.value.line == 2
        assert "'zz'" in str(err.value)

    @pytest.mark.parametrize("candidates", ["the dog", [None], ["a", 3], None])
    def test_non_string_candidates_report_line(self, tmp_path, jsonl_writer, candidates):
        path = tmp_path / "refs.jsonl"
        bad = {**record("s1", ["c"]).to_json(), "candidates": candidates}
        jsonl_writer(path, [record("s0", ["c"]).to_json(), bad])
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
        seg = merged.segment("s1")
        assert seg.generated_refs == ("c1", "c2")
        assert seg.scoring_refs("generated") == ["c1", "c2"]

    def test_gold_included_when_requested(self):
        merged = merge_references(self.corpus(), [record("s1", ["c1"])])
        assert merged.segment("s1").scoring_refs("both") == ["gold1", "c1"]

    def test_failed_records_contribute_nothing(self):
        merged = merge_references(self.corpus(), [record("s1", [], error="bad")])
        assert merged.segment("s1").scoring_refs("generated") == []

    def test_unknown_segment_rejected(self):
        with pytest.raises(ValueError):
            merge_references(self.corpus(), [record("sX", ["c"])])

    def test_original_untouched(self):
        corpus = self.corpus()
        merge_references(corpus, [record("s1", ["c"])])
        assert corpus.segment("s1").gold_refs == ("gold1",)
        assert corpus.segment("s1").generated_refs == ()


class TestScoringRefs:
    segment = Segment(
        id="s", source="x", gold_refs=("g1",), generated_refs=("c1", "c2", "c3")
    )

    def test_modes(self):
        assert self.segment.scoring_refs("gold") == ["g1"]
        assert self.segment.scoring_refs("generated") == ["c1", "c2", "c3"]
        assert self.segment.scoring_refs("both") == ["g1", "c1", "c2", "c3"]

    def test_max_generated_caps_only_generated(self):
        assert self.segment.scoring_refs("both", max_generated=2) == ["g1", "c1", "c2"]
        assert self.segment.scoring_refs("generated", max_generated=0) == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            self.segment.scoring_refs("everything")


SRC = Path(__file__).resolve().parent.parent / "src" / "multiref"

# Functions outside corpus_io that may open a file for writing: generate's
# append-and-flush loop, and the repair of a line a kill cut short.
WRITERS_ALLOWED = {("refgen.py", "generate_references"), ("refgen.py", "repair_truncated_tail")}


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


def _write_sites(tree, function=None):
    """(enclosing function, line) of each writing call in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and _writes(node):
            yield function, node.lineno
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _write_sites(node, inner)


def test_only_corpus_io_writes_files():
    allowed_seen = set()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "corpus_io.py":
            continue
        for function, line in _write_sites(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) in WRITERS_ALLOWED:
                allowed_seen.add((path.name, function))
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert stray == [], "write files through corpus_io.write_jsonl/write_json"
    # The check sees the writes it lets through, so it is not blind.
    assert allowed_seen == WRITERS_ALLOWED
