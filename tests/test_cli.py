import argparse
import json

import pytest

from multiref import refgen
from multiref.cli import _apply_config, build_parser, main
from multiref.combine import CombinePolicy
from multiref.corpus_io import read_jsonl
from multiref.diversity import DEFAULT_DISTINCT_N, DEFAULT_SELF_BLEU_THRESHOLD, score_and_select
from multiref.metrics import DEFAULT_CHRF_BETA, DEFAULT_CHRF_ORDER, BleuConfig, ScoreSettings, bleu_corpus
from multiref.refgen import load_generation_records
from multiref.textproc import tokenize_words


def _subparsers(parser):
    """The {command: subparser} table of `parser`."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


GOLD = {
    "s1": "the cat sat on the mat",
    "s2": "a quick brown fox jumps over dogs",
    "s3": "rain falls gently on the hills",
}
NOISE = "zq xv wk jm pf lr bt"


def make_record(segment_id, candidates):
    return {
        "segment_id": segment_id,
        "prompt_used": "p",
        "raw_response": "r",
        "candidates": candidates,
        "attempt_count": 1,
        "timestamp": "2024-01-01T00:00:00+00:00",
        "error": None,
    }


@pytest.fixture
def pipeline(tmp_path, jsonl_writer):
    paths = {
        "segments": tmp_path / "segments.jsonl",
        "outputs": tmp_path / "outputs.jsonl",
        "human": tmp_path / "human.jsonl",
        "refs": tmp_path / "refs.jsonl",
        "dir": tmp_path,
    }
    jsonl_writer(
        paths["segments"],
        [{"id": sid, "source": f"src {sid}", "gold_refs": [text]} for sid, text in GOLD.items()],
    )
    jsonl_writer(
        paths["outputs"],
        [{"system": "copy", "segment": sid, "hypothesis": text} for sid, text in GOLD.items()]
        + [{"system": "noise", "segment": sid, "hypothesis": NOISE} for sid in GOLD],
    )
    jsonl_writer(
        paths["human"],
        [{"system": "copy", "segment": sid, "score": 5.0 - 0.1 * i} for i, sid in enumerate(GOLD)]
        + [{"system": "noise", "segment": sid, "score": 1.0 + 0.1 * i} for i, sid in enumerate(GOLD)],
    )
    jsonl_writer(
        paths["refs"],
        [
            make_record(sid, [text, text + " indeed", NOISE + f" {i}"])
            for i, (sid, text) in enumerate(GOLD.items())
        ],
    )
    return paths


class TestGenerate:
    def test_mock_smoke_run(self, pipeline, capsys):
        out = pipeline["dir"] / "gen.jsonl"
        code = main(
            [
                "generate",
                "--segments", str(pipeline["segments"]),
                "--out", str(out),
                "--mock",
                "--n-references", "4",
            ]
        )
        assert code == 0
        records = load_generation_records(out)
        assert len(records) == 3
        assert all(len(r.candidates) == 4 for r in records)
        assert "3 segments done" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b'{"rules": "r", "task_description": "{n} of {source}"', "bad JSON: Expecting ',' delimiter"),
            (b'{"rules": "r"}', "'task_description'"),
            (b'{"rules": ["r"], "task_description": "{n} of {source}"}', "rules must be a string, got array"),
            (b'{"rules": "r", "task_description": "{n} of {source}", "include_ground_truth": "no"}',
             "include_ground_truth must be a boolean, got string"),
            (b'["r", "{n} of {source}"]', "document must be a JSON object, got array"),
            (b'{"rules": "\xff", "task_description": "{n} of {source}"}', "'utf-8' codec can't decode"),
        ],
        ids=["bad-json", "missing-key", "non-string-rules", "non-boolean-flag", "array-body", "invalid-utf8"],
    )
    def test_bad_template_file_fails_with_path(self, pipeline, capsys, body, reason):
        # A missing key, a non-string field or an array body used to end in a traceback.
        template = pipeline["dir"] / "template.json"
        template.write_bytes(body)
        out = pipeline["dir"] / "gen.jsonl"
        code = main(["generate", "--segments", str(pipeline["segments"]), "--out", str(out),
                     "--mock", "--template-file", str(template)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"multiref: error: {template}: invalid template: {reason}")
        assert not out.exists()

    def test_custom_template_file_is_used(self, pipeline):
        template = pipeline["dir"] / "template.json"
        template.write_text(json.dumps({"rules": "RULES", "task_description": "Give {n}: {source}"}))
        out = pipeline["dir"] / "gen.jsonl"
        code = main(["generate", "--segments", str(pipeline["segments"]), "--out", str(out),
                     "--mock", "--n-references", "2", "--template-file", str(template)])
        assert code == 0
        prompt = load_generation_records(out)[0].prompt_used
        assert prompt.startswith("RULES\n\nGive 2: src s1")

    @pytest.mark.parametrize(
        "key, flags, with_gold",
        [({"include_ground_truth": False}, [], False),
         ({"include_ground_truth": True}, [], True),
         ({}, [], True),
         ({"include_ground_truth": False}, ["--ground-truth"], True),
         ({"include_ground_truth": True}, ["--no-ground-truth"], False)],
        ids=["key-false", "key-true", "no-key", "flag-over-key-false", "flag-over-key-true"],
    )
    def test_template_file_key_decides_unless_flag_given(self, pipeline, key, flags, with_gold):
        # Every segment has a gold reference; the CLI used to include it
        # whatever the file's include_ground_truth said.
        template = pipeline["dir"] / "template.json"
        template.write_text(json.dumps({"rules": "R", "task_description": "{n} of {source}", **key}))
        out = pipeline["dir"] / "gen.jsonl"
        code = main(["generate", "--segments", str(pipeline["segments"]), "--out", str(out),
                     "--mock", "--n-references", "2", "--template-file", str(template), *flags])
        assert code == 0
        prompt = load_generation_records(out)[0].prompt_used
        expected = "R\n\n2 of src s1"
        if with_gold:
            expected += f"\n\n{refgen.GROUND_TRUTH_LABEL}\n{GOLD['s1']}"
        assert prompt == expected

    @pytest.mark.parametrize(
        "template, flags, fails",
        [(None, [], False),
         ({}, [], False),
         ({"include_ground_truth": False}, [], False),
         ({"include_ground_truth": True}, [], True),
         (None, ["--ground-truth"], True),
         ({}, ["--ground-truth"], True),
         (None, ["--no-ground-truth"], False),
         ({"include_ground_truth": True}, ["--no-ground-truth"], False)],
        ids=["built-in", "no-key", "key-false", "key-true", "flag-on-built-in", "flag-on-no-key",
             "flag-off-built-in", "flag-off-over-key-true"],
    )
    def test_gold_block_when_one_segment_lacks_gold(self, pipeline, jsonl_writer, capsys, template, flags, fails):
        # One rule, in generate_references: the flag, else the template
        # file's key, else whether every segment has a gold reference.
        segments = pipeline["dir"] / "segments.jsonl"
        jsonl_writer(segments, [{"id": "s1", "source": "src s1", "gold_refs": [GOLD["s1"]]},
                                {"id": "s2", "source": "src s2"}])
        argv = ["generate", "--segments", str(segments), "--out", str(pipeline["dir"] / "gen.jsonl"),
                "--mock", "--n-references", "2", *flags]
        if template is not None:
            path = pipeline["dir"] / "template.json"
            path.write_text(json.dumps({"rules": "R", "task_description": "{n} of {source}", **template}))
            argv += ["--template-file", str(path)]
        code = main(argv)
        if fails:
            assert code == 1
            assert capsys.readouterr().err == (
                f"multiref: error: {segments}: template expects ground truth but segments lack gold refs: ['s2']\n"
            )
            assert not (pipeline["dir"] / "gen.jsonl").exists()
        else:
            assert code == 0
            prompts = [r.prompt_used for r in load_generation_records(pipeline["dir"] / "gen.jsonl")]
            assert len(prompts) == 2 and not any(refgen.GROUND_TRUTH_LABEL in p for p in prompts)

    @pytest.mark.parametrize(
        "flags, config",
        [(["--template", "english", "--template-file", "T"], {}),
         (["--template-file", "T"], {"template": "chinese"}),
         (["--template", "english"], {"template_file": "T"})],
        ids=["both-flags", "template-in-config", "template-file-in-config"],
    )
    def test_template_and_template_file_together_fail(self, pipeline, capsys, flags, config):
        # --template used to win silently, whatever --template-file said.
        template = pipeline["dir"] / "template.json"
        template.write_text(json.dumps({"rules": "RULES", "task_description": "Give {n}: {source}"}))
        path = pipeline["dir"] / "config.json"
        path.write_text(json.dumps({key: str(template) if value == "T" else value
                                    for key, value in config.items()}))
        out = pipeline["dir"] / "gen.jsonl"
        flags = [str(template) if flag == "T" else flag for flag in flags]
        code = main(["--config", str(path), "generate", "--segments", str(pipeline["segments"]),
                     "--out", str(out), "--mock", *flags])
        assert code == 1
        assert capsys.readouterr().err == "multiref: error: --template and --template-file are mutually exclusive\n"
        assert not out.exists()

    def test_template_without_its_task_fails_before_segments_are_read(self, pipeline, capsys):
        # The template used to be resolved only after --segments was loaded,
        # so a missing segments file hid the bad (task, template) pair.
        out = pipeline["dir"] / "gen.jsonl"
        code = main(["generate", "--segments", str(pipeline["dir"] / "missing.jsonl"), "--out", str(out),
                     "--mock", "--task", "summarization", "--template", "chinese"])
        assert code == 1
        assert capsys.readouterr().err == (
            "multiref: error: no built-in chinese template for task 'summarization'\n"
        )
        assert not out.exists()

    def test_resume_skips_done_ids(self, pipeline, capsys):
        out = pipeline["dir"] / "gen.jsonl"
        args = [
            "generate",
            "--segments", str(pipeline["segments"]),
            "--out", str(out),
            "--mock",
            "--n-references", "2",
        ]
        assert main(args) == 0
        assert main(args) == 0
        assert "3 skipped (already complete)" in capsys.readouterr().out
        assert len(load_generation_records(out)) == 3

    def test_a_torn_last_line_nested_too_deep_is_dropped_on_resume(self, pipeline, capsys):
        segments = pipeline["dir"] / "one.jsonl"
        segments.write_text('{"id": "s1", "source": "one"}\n')
        out = pipeline["dir"] / "gen.jsonl"
        args = ["generate", "--segments", str(segments), "--out", str(out), "--mock", "--n-references", "2"]
        assert main(args) == 0
        written = out.read_bytes()
        with open(out, "ab") as handle:
            handle.write(b"[" * 100_000)
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == "generate: 0 segments done, 1 skipped (already complete), 0 failed\n"
        assert out.read_bytes() == written

    def test_summarization_task_defaults_to_ten_candidates(self, pipeline):
        out = pipeline["dir"] / "gen.jsonl"
        code = main(
            [
                "generate",
                "--segments", str(pipeline["segments"]),
                "--out", str(out),
                "--mock",
                "--task", "summarization",
            ]
        )
        assert code == 0
        records = load_generation_records(out)
        assert all(len(r.candidates) == 10 for r in records)

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_timeout_fails_before_any_request(self, pipeline, capsys, monkeypatch, timeout):
        # 0 used to fail as an unreachable endpoint, nan and -1 inside a worker
        # thread after --out was opened.
        transports = []

        class RecordingTransport(refgen.MockTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                transports.append(self)

        monkeypatch.setattr(refgen, "MockTransport", RecordingTransport)
        out = pipeline["dir"] / "gen.jsonl"
        code = main(
            [
                "generate",
                "--segments", str(pipeline["segments"]),
                "--out", str(out),
                "--mock",
                "--timeout", timeout,
            ]
        )
        assert code == 1
        assert "timeout" in capsys.readouterr().err
        assert all(t.calls == [] for t in transports)
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_jobs_below_one_fails_naming_the_flag(self, pipeline, capsys, tmp_path, via):
        # It used to fail as "concurrency must be >= 1", which names no flag.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 0}))
        jobs = ["--jobs", "0"] if via == "flag" else ["--config", str(config)]
        out = pipeline["dir"] / "gen.jsonl"
        code = main([*jobs, "generate", "--segments", str(pipeline["segments"]), "--out", str(out), "--mock"])
        assert code == 1
        assert capsys.readouterr().err == "multiref: error: --jobs must be >= 1, got 0\n"
        assert not out.exists()

    def test_missing_api_key_diagnostic(self, pipeline, capsys, monkeypatch):
        monkeypatch.delenv("MULTIREF_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        code = main(
            [
                "generate",
                "--segments", str(pipeline["segments"]),
                "--out", str(pipeline["dir"] / "gen.jsonl"),
            ]
        )
        assert code != 0
        assert "API key" in capsys.readouterr().err


class TestSelect:
    def run_select(self, pipeline, threshold):
        out = pipeline["dir"] / "selected.jsonl"
        report = pipeline["dir"] / "report.json"
        code = main(
            [
                "select",
                "--refs", str(pipeline["refs"]),
                "--out", str(out),
                "--threshold", str(threshold),
                "--report", str(report),
            ]
        )
        assert code == 0
        return load_generation_records(out), json.loads(report.read_text())

    def test_nan_threshold_fails_before_writing(self, pipeline, capsys):
        # NaN used to keep one candidate per segment and exit 0.
        out = pipeline["dir"] / "selected.jsonl"
        code = main(
            ["select", "--refs", str(pipeline["refs"]), "--out", str(out), "--threshold", "nan"]
        )
        assert code == 1
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_table_stops_at_forty_segments(self, tmp_path, jsonl_writer, capsys):
        refs = tmp_path / "refs.jsonl"
        jsonl_writer(refs, [make_record(f"s{i:02d}", ["a b c", "d e f"]) for i in range(42)])
        assert main(["select", "--refs", str(refs), "--out", str(tmp_path / "selected.jsonl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:42]] == [f"s{i:02d}" for i in range(40)]
        assert lines[42:] == [
            "... 2 more segments (full report via --report)",
            f"select: kept 84/84 candidates (threshold {DEFAULT_SELF_BLEU_THRESHOLD})",
        ]

    def test_threshold_zero_keeps_single_fallback(self, pipeline):
        records, _report = self.run_select(pipeline, 0.0)
        assert all(len(r.candidates) == 1 for r in records)

    def test_threshold_above_scale_keeps_all(self, pipeline):
        records, _report = self.run_select(pipeline, 101.0)
        assert all(len(r.candidates) == 3 for r in records)

    def test_default_threshold_matches_library(self, pipeline):
        records, report = self.run_select(pipeline, 35.0)
        originals = load_generation_records(pipeline["refs"])
        for before, after in zip(originals, records):
            _, kept = score_and_select(before.candidates)
            assert after.candidates == tuple(before.candidates[i] for i in kept)
            assert report[before.segment_id]["kept_indices"]


class TestScore:
    def test_identity_corpus_scores_100(self, pipeline):
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--metrics", "bleu,chrf,rouge1,rougeL",
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        for metric in ("bleu", "chrf", "rouge1", "rougeL"):
            assert summary["metrics"][metric]["copy"] == pytest.approx(100.0)

    def test_matches_library_corpus_bleu(self, pipeline):
        summary_path = pipeline["dir"] / "summary.json"
        main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--generated-refs", str(pipeline["refs"]),
                "--refs", "both",
                "--summary", str(summary_path),
            ]
        )
        refs_by_seg = {
            r["segment_id"]: r["candidates"]
            for r in map(json.loads, pipeline["refs"].read_text(encoding="utf-8").splitlines())
        }
        def words(text):
            return list(tokenize_words(text))
        expected = bleu_corpus(
            [
                (words(NOISE), [words(GOLD[sid])] + [words(c) for c in refs_by_seg[sid]])
                for sid in sorted(GOLD)
            ]
        ).value
        summary = json.loads(summary_path.read_text())
        assert summary["metrics"]["bleu"]["noise"] == pytest.approx(expected, abs=1e-9)

    def test_matrix_schema_and_single_column(self, pipeline):
        matrix_path = pipeline["dir"] / "matrix.jsonl"
        main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--out", str(matrix_path),
            ]
        )
        rows = [json.loads(line) for line in matrix_path.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 6  # 2 systems x 3 segments
        for row in rows:
            assert set(row) == {"system", "segment", "scores", "metric"}
            assert set(row["scores"]) == {"all"}

    def test_per_reference_matrix_columns(self, pipeline):
        matrix_path = pipeline["dir"] / "matrix.jsonl"
        main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--generated-refs", str(pipeline["refs"]),
                "--refs", "both",
                "--per-reference",
                "--out", str(matrix_path),
            ]
        )
        rows = [json.loads(line) for line in matrix_path.read_text(encoding="utf-8").splitlines()]
        assert all(set(r["scores"]) == {"gold:0", "gen:0", "gen:1", "gen:2"} for r in rows)

    def test_per_reference_without_out_rejected(self, pipeline, capsys):
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--per-reference",
                "--summary", str(summary_path),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "multiref: error: --per-reference sets the cells of the --out matrix; it needs --out\n"
        )
        assert not summary_path.exists()

    def test_sweep_emits_one_row_per_count(self, pipeline):
        summary_path = pipeline["dir"] / "sweep.json"
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--generated-refs", str(pipeline["refs"]),
                "--refs", "generated",
                "--sweep-refs", "1..5",
                "--metrics", "chrf,bleu",
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        series = json.loads(summary_path.read_text())["sweep"]
        # One row per (count, system, metric), in that order; metrics as given.
        # Each segment has 3 generated references, so the series stops at 3.
        assert [(r["refs"], r["system"], r["metric"]) for r in series] == [
            (k, system, metric)
            for k in (1, 2, 3)
            for system in ("copy", "noise")
            for metric in ("chrf", "bleu")
        ]

    def test_max_refs_caps_generated_references(self, pipeline):
        # With --max-refs 1 only the first generated candidate (the gold
        # text itself in this fixture) is used, so "copy" scores 100.
        summary_path = pipeline["dir"] / "summary.json"
        main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--generated-refs", str(pipeline["refs"]),
                "--refs", "generated",
                "--max-refs", "1",
                "--summary", str(summary_path),
            ]
        )
        summary = json.loads(summary_path.read_text())
        assert summary["metrics"]["bleu"]["copy"] == pytest.approx(100.0)
        assert summary["max_refs"] == 1

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_max_refs_below_one_is_rejected(self, pipeline, jsonl_writer, capsys, value):
        # A negative cap used to slice references off the end: here it scored
        # the copy against the wrong reference (BLEU 8.12) and exited 0.
        seg = pipeline["dir"] / "one.segments.jsonl"
        out = pipeline["dir"] / "one.outputs.jsonl"
        refs = pipeline["dir"] / "one.refs.jsonl"
        jsonl_writer(seg, [{"id": "s1", "source": "x", "gold_refs": []}])
        jsonl_writer(out, [{"system": "a", "segment": "s1", "hypothesis": "the cat sat on the mat"}])
        jsonl_writer(refs, [make_record("s1", ["a dog lay on a rug", "the cat sat on the mat"])])
        summary_path = pipeline["dir"] / "summary.json"
        base = ["score", "--segments", str(seg), "--outputs", str(out),
                "--generated-refs", str(refs), "--refs", "generated", "--summary", str(summary_path)]
        assert main(base + ["--max-refs", "2"]) == 0
        assert json.loads(summary_path.read_text())["metrics"]["bleu"]["a"] == pytest.approx(100.0)
        summary_path.unlink()
        capsys.readouterr()
        assert main(base + ["--max-refs", value]) == 1
        assert "--max-refs" in capsys.readouterr().err
        assert not summary_path.exists()

    @pytest.mark.parametrize("given_refs", [False, True], ids=["gold-by-default", "gold-given"])
    def test_max_refs_under_gold_is_rejected(self, pipeline, capsys, given_refs):
        # The cap used to be ignored under --refs gold, and the run exited 0.
        summary_path = pipeline["dir"] / "summary.json"
        flags = ["--max-refs", "2"]
        if given_refs:
            flags = ["--refs", "gold", "--generated-refs", str(pipeline["refs"]), "--max-refs", "1"]
        code = main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                     "--summary", str(summary_path), *flags])
        assert code == 1
        assert capsys.readouterr().err == (
            "multiref: error: --max-refs caps generated references; it does not apply to --refs gold\n"
        )
        assert not summary_path.exists()

    def test_chrf_order_below_one_is_rejected(self, pipeline, capsys):
        # --chrf-order 0 used to score chrF 0.00 even for identical text.
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--metrics", "chrf",
                "--chrf-order", "0",
            ]
        )
        assert code == 1
        assert "--chrf-order" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "-2", "1e200"])
    def test_non_finite_chrf_beta_is_rejected(self, pipeline, capsys, beta):
        # nan used to score every chrF 0.00 and exit 0; inf, and 1e200 whose
        # square overflows, failed as "out of [0, 100]"; -2 scored exactly as 2.
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--metrics", "chrf",
                f"--chrf-beta={beta}",
                "--summary", str(summary_path),
            ]
        )
        assert code == 1
        assert "chrf_beta" in capsys.readouterr().err
        assert not summary_path.exists()

    def test_jobs_flag_gives_identical_results(self, pipeline):
        summaries = []
        for jobs, name in ((1, "a.json"), (4, "b.json")):
            summary_path = pipeline["dir"] / name
            main(
                [
                    "--jobs", str(jobs),
                    "score",
                    "--segments", str(pipeline["segments"]),
                    "--outputs", str(pipeline["outputs"]),
                    "--generated-refs", str(pipeline["refs"]),
                    "--refs", "both",
                    "--metrics", "bleu,rougeL",
                    "--summary", str(summary_path),
                ]
            )
            summaries.append(json.loads(summary_path.read_text()))
        assert summaries[0] == summaries[1]

    def test_spbleu_with_vocab_file(self, pipeline):
        vocab_path = pipeline["dir"] / "vocab.txt"
        pieces = ["▁"] + [
            f"▁{w}" for text in GOLD.values() for w in text.split()
        ]
        vocab_path.write_text("#unk=<unk>\n" + "\n".join(sorted(set(pieces))) + "\n", encoding="utf-8")
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--metrics", "spbleu",
                "--vocab", str(vocab_path),
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["metrics"]["spbleu"]["copy"] == pytest.approx(100.0)
        assert summary["metrics"]["spbleu"]["noise"] < 10.0

    def test_spbleu_fails_at_the_first_sentencepiece_vocab_line(self, pipeline, capsys):
        # `piece<TAB>score` lines used to load whole: every character became <unk> and the run exited 0.
        vocab_path = pipeline["dir"] / "spm.vocab"
        pieces = ["<unk>", "▁", *sorted({f"▁{w}" for text in GOLD.values() for w in text.split()})]
        vocab_path.write_text("".join(f"{piece}\t{-i}\n" for i, piece in enumerate(pieces)), encoding="utf-8")
        code = main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                     "--refs", "gold", "--metrics", "spbleu", "--vocab", str(vocab_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {vocab_path}:1: invalid vocabulary: subword piece '<unk>\\t0' contains whitespace;"
            " keep the first column of a .vocab line\n"
        )

    def test_spbleu_pretokenized_through_cli(self, pipeline, jsonl_writer):
        # Text already split into pieces: spbleu must not need a vocabulary.
        seg = pipeline["dir"] / "pieces.segments.jsonl"
        out = pipeline["dir"] / "pieces.outputs.jsonl"
        jsonl_writer(seg, [{"id": "s1", "source": "x", "gold_refs": ["▁ab ▁cd ef"]}])
        jsonl_writer(out, [{"system": "a", "segment": "s1", "hypothesis": "▁ab ▁cd ef"}])
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "score",
                "--segments", str(seg),
                "--outputs", str(out),
                "--refs", "gold",
                "--metrics", "spbleu",
                "--pretokenized",
                "--max-order", "2",
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["metrics"]["spbleu"]["a"] == pytest.approx(100.0)

    def test_pretokenized_spbleu_honours_lowercase(self, pipeline, jsonl_writer):
        # spbleu used to split the raw pieces and read 4.06 here, while bleu read 100.
        seg = pipeline["dir"] / "pieces.segments.jsonl"
        out = pipeline["dir"] / "pieces.outputs.jsonl"
        jsonl_writer(seg, [{"id": "s1", "source": "x", "gold_refs": ["▁the ▁cat ▁sat ▁on ▁the ▁mat"]}])
        jsonl_writer(out, [{"system": "a", "segment": "s1", "hypothesis": "▁The ▁Cat ▁Sat ▁On ▁The ▁Mat"}])
        summary_path = pipeline["dir"] / "summary.json"
        code = main(
            [
                "--lowercase",
                "score",
                "--segments", str(seg),
                "--outputs", str(out),
                "--pretokenized",
                "--metrics", "spbleu,bleu",
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())["metrics"]
        assert summary == {"spbleu": {"a": 100.0}, "bleu": {"a": 100.0}}

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--metrics", "spbleu", "--vocab", "V", "--pretokenized"], {},
             "--vocab and --pretokenized are mutually exclusive"),
            (["--metrics", "spbleu", "--vocab", "V"], {"pretokenized": True},
             "--vocab and --pretokenized are mutually exclusive"),
            (["--metrics", "bleu", "--vocab", "V"], {},
             "--vocab sets spbleu's tokenizer; --metrics names no spbleu"),
            (["--metrics", "bleu,chrf", "--pretokenized"], {},
             "--pretokenized sets spbleu's tokenizer; --metrics names no spbleu"),
            (["--metrics", "rougeL"], {"vocab": "V"},
             "--vocab sets spbleu's tokenizer; --metrics names no spbleu"),
        ],
        ids=["both-flags", "pretokenized-in-config", "vocab-without-spbleu", "pretokenized-without-spbleu",
             "vocab-in-config-without-spbleu"],
    )
    def test_tokenizer_flags_spbleu_does_not_use_fail(self, pipeline, capsys, flags, config, message):
        # --pretokenized --vocab used to read the vocabulary and ignore it, and
        # either flag without spbleu was ignored; each run exited 0.
        vocab = pipeline["dir"] / "vocab.txt"
        vocab.write_text("▁\n" + "".join(f"▁{w}\n" for w in sorted({w for t in GOLD.values() for w in t.split()})),
                         encoding="utf-8")
        config_path = pipeline["dir"] / "config.json"
        config_path.write_text(json.dumps({key: str(vocab) if value == "V" else value
                                           for key, value in config.items()}))
        summary_path = pipeline["dir"] / "summary.json"
        code = main(["--config", str(config_path), "score", "--segments", str(pipeline["segments"]),
                     "--outputs", str(pipeline["outputs"]), "--refs", "gold", "--summary", str(summary_path),
                     *[str(vocab) if flag == "V" else flag for flag in flags]])
        assert code == 1
        assert capsys.readouterr().err == f"multiref: error: {message}\n"
        assert not summary_path.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_metric_named_twice_fails(self, pipeline, capsys, tmp_path, via):
        # Repeats used to be dropped, so the run exited 0.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"metrics": "bleu, chrf,,bleu"}))
        metrics = ["--metrics", "bleu, chrf,,bleu"] if via == "flag" else []
        global_flags = ["--config", str(config)] if via == "config" else []
        summary = pipeline["dir"] / "summary.json"
        code = main([*global_flags, "score", "--segments", str(pipeline["segments"]),
                     "--outputs", str(pipeline["outputs"]), "--summary", str(summary), *metrics])
        assert code == 1
        assert capsys.readouterr().err == "multiref: error: metric 'bleu' is named twice\n"
        assert not summary.exists()

    def test_lowercase_flag_applies_before_tokenization(self, pipeline, jsonl_writer):
        seg = pipeline["dir"] / "case.segments.jsonl"
        out = pipeline["dir"] / "case.outputs.jsonl"
        jsonl_writer(seg, [{"id": "s1", "source": "x", "gold_refs": ["the cat sat down"]}])
        jsonl_writer(out, [{"system": "a", "segment": "s1", "hypothesis": "THE CAT SAT DOWN"}])
        scores = {}
        for label, prefix in (("cased", []), ("lowered", ["--lowercase"])):
            summary_path = pipeline["dir"] / f"{label}.json"
            assert main(
                prefix
                + [
                    "score",
                    "--segments", str(seg),
                    "--outputs", str(out),
                    "--refs", "gold",
                    "--smoothing", "none",
                    "--summary", str(summary_path),
                ]
            ) == 0
            scores[label] = json.loads(summary_path.read_text())["metrics"]["bleu"]["a"]
        assert scores["cased"] == 0.0
        assert scores["lowered"] == pytest.approx(100.0)

    def test_empty_metric_list_is_rejected_before_reading(self, pipeline, capsys):
        # An empty list used to print an empty table, write an empty summary and exit 0.
        summary = pipeline["dir"] / "summary.json"
        config = pipeline["dir"] / "config.json"
        config.write_text(json.dumps({"metrics": ""}))
        missing = str(pipeline["dir"] / "missing.jsonl")
        cases = [([], ["--metrics", ","]), ([], ["--metrics", ""]), (["--config", str(config)], [])]
        for global_flags, flags in cases:
            code = main([*global_flags, "score", "--segments", missing, "--outputs", missing,
                         "--summary", str(summary), *flags])
            assert code == 1
            assert capsys.readouterr().err == "multiref: error: --metrics names no metric\n"
            assert not summary.exists()

    def test_spbleu_requires_vocab(self, pipeline, capsys):
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--metrics", "spbleu",
            ]
        )
        assert code == 1
        assert "vocab" in capsys.readouterr().err

    def test_generated_mode_requires_refs_file(self, pipeline, capsys):
        code = main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "generated",
            ]
        )
        assert code == 1
        assert "generated" in capsys.readouterr().err

    def test_segment_without_references_names_the_segments_file(self, pipeline, jsonl_writer, capsys):
        # This message used to name no file.
        jsonl_writer(pipeline["segments"], [{"id": sid, "source": "x", "gold_refs": []} for sid in GOLD])
        summary = pipeline["dir"] / "summary.json"
        code = main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                     "--refs", "gold", "--summary", str(summary)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {pipeline['segments']}: segment 's1' has no references under --refs gold\n"
        )
        assert not summary.exists()

    @pytest.mark.parametrize(
        "file, line, record, reason",
        [
            # Each of these used to be scored: null as the text "None" (chrF
            # 2.98), a string as one reference per character, [null, 3] as
            # ("None", "3").
            ("outputs", 2, {"system": "a", "segment": "s1", "hypothesis": None},
             "hypothesis must be a string, got null"),
            ("outputs", 2, {"system": "a", "segment": "s1", "hypothesis": ["the cat"]},
             "hypothesis must be a string, got array"),
            ("segments", 2, {"id": "s2", "source": "x", "gold_refs": "the cat"},
             "gold_refs must be a list of strings, got string"),
            ("segments", 2, {"id": "s2", "source": "x", "gold_refs": [None, 3]},
             "gold_refs[0] must be a string, got null"),
            ("segments", 2, {"id": "s2", "source": 7, "gold_refs": []},
             "source must be a string, got number"),
            ("refs", 2, make_record("s2", "the dog"),
             "candidates must be a list of strings, got string"),
            ("refs", 2, make_record("s2", ["the dog", 3]),
             "candidates[1] must be a string, got number"),
            ("refs", 2, make_record("zz", ["the dog"]), "record references unknown segment 'zz'"),
        ],
    )
    def test_bad_text_fields_fail_with_location(
        self, pipeline, jsonl_writer, capsys, file, line, record, reason
    ):
        paths = {name: pipeline["dir"] / f"bad.{name}.jsonl" for name in ("segments", "outputs", "refs")}
        good = {
            "segments": {"id": "s1", "source": "x", "gold_refs": ["the cat sat"]},
            "outputs": {"system": "b", "segment": "s1", "hypothesis": "the cat sat"},
            "refs": make_record("s1", ["the cat sat"]),
        }
        for name, path in paths.items():
            jsonl_writer(path, [good[name], record] if name == file else [good[name]])
        summary = pipeline["dir"] / "bad.summary.json"
        code = main(
            [
                "score",
                "--segments", str(paths["segments"]),
                "--outputs", str(paths["outputs"]),
                "--generated-refs", str(paths["refs"]),
                "--refs", "both",
                "--summary", str(summary),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"{paths[file]}:{line}: " in err
        assert reason in err
        assert not summary.exists()


# Each bad combination of score's flags: its flags, the ScoreSettings arguments that state it (None
# where a string fails to parse), and the message both give. --segments and --outputs come first.
NO_REFS = {"refs": "gold", "generated_refs": False}
BAD_SCORE_FLAGS = {
    "sweep-out": (["--generated-refs", "missing.refs.jsonl", "--sweep-refs", "1..3", "--out", "m.jsonl"],
                  {"sweep_refs": (1, 3), "out": True},
                  "--sweep-refs emits a score series; --per-reference/--out do not apply"),
    "sweep-range": (["--generated-refs", "missing.refs.jsonl", "--sweep-refs", "3..1"],
                    {"refs": "generated", "sweep_refs": (3, 1)}, "invalid sweep range '3..1'"),
    "generated-no-refs": (["--refs", "generated"], {"refs": "generated", "generated_refs": False},
                          "--refs generated requires --generated-refs"),
    "both-no-refs-before-vocab": (["--metrics", "spbleu", "--vocab", "missing.vocab", "--refs", "both"],
                                  {"metrics": ("spbleu",), "vocab": "missing.vocab", "generated_refs": False},
                                  "--refs both requires --generated-refs"),
    "per-reference-no-out": (["--per-reference"], {**NO_REFS, "per_reference": True},
                             "--per-reference sets the cells of the --out matrix; it needs --out"),
    "vocab-and-pretokenized": (["--metrics", "spbleu", "--vocab", "missing.vocab", "--pretokenized"],
                               {**NO_REFS, "metrics": ("spbleu",), "vocab": "missing.vocab", "pretokenized": True},
                               "--vocab and --pretokenized are mutually exclusive"),
    "vocab-without-spbleu": (["--vocab", "missing.vocab"], {**NO_REFS, "vocab": "missing.vocab"},
                             "--vocab sets spbleu's tokenizer; --metrics names no spbleu"),
    "max-refs-gold": (["--refs", "gold", "--max-refs", "2"], {**NO_REFS, "max_refs": 2},
                      "--max-refs caps generated references; it does not apply to --refs gold"),
    "no-metric": (["--metrics", ","], {**NO_REFS, "metrics": ()}, "--metrics names no metric"),
    "spbleu-no-vocab": (["--metrics", "bleu,spbleu"], {**NO_REFS, "metrics": ("bleu", "spbleu")},
                        "spbleu requires --vocab unless --pretokenized is set"),
    "max-refs-zero": (["--generated-refs", "missing.refs.jsonl", "--max-refs", "0"],
                      {"refs": "generated", "max_refs": 0}, "--max-refs must be >= 1, got 0"),
    "chrf-order-zero": (["--metrics", "chrf", "--chrf-order", "0"], {**NO_REFS, "metrics": ("chrf",), "chrf_order": 0},
                        "--chrf-order must be >= 1, got 0"),
    "sweep-not-a-range": (["--generated-refs", "missing.refs.jsonl", "--sweep-refs", "x"], None,
                          "--sweep-refs expects A..B, got 'x'"),
    "sweep-gold": (["--generated-refs", "missing.refs.jsonl", "--refs", "gold", "--sweep-refs", "1..2"],
                   {"refs": "gold", "sweep_refs": (1, 2)},
                   "--sweep-refs varies generated references; use --refs generated or both"),
    "sweep-and-max-refs": (["--generated-refs", "missing.refs.jsonl", "--sweep-refs", "1..2", "--max-refs", "2"],
                           {"refs": "generated", "sweep_refs": (1, 2), "max_refs": 2},
                           "--sweep-refs and --max-refs are mutually exclusive"),
    # These two used to read --vocab first, and fail on the missing file.
    "unknown-metric-before-vocab": (
        ["--metrics", "spbleu,meteor", "--vocab", "missing.vocab"],
        {**NO_REFS, "metrics": ("spbleu", "meteor"), "vocab": "missing.vocab"},
        "unknown metric 'meteor'; choose from bleu, spbleu, chrf, rouge1, rouge2, rougeL or rouge<n>",
    ),
    "repeated-metric-before-vocab": (["--metrics", "spbleu,spbleu", "--vocab", "missing.vocab"],
                                     {**NO_REFS, "metrics": ("spbleu", "spbleu"), "vocab": "missing.vocab"},
                                     "metric 'spbleu' is named twice"),
}


@pytest.mark.parametrize(
    "argv, message",
    [(["score", *flags], message) for flags, _, message in BAD_SCORE_FLAGS.values()]
    + [(["generate", "--out", "r.jsonl", "--mock", "--n-references", "0"], "--n-references must be >= 1, got 0")],
    ids=[*BAD_SCORE_FLAGS, "generate-n-references"],
)
def test_bad_flags_fail_before_any_file_is_read(tmp_path, monkeypatch, capsys, argv, message):
    # Each used to fail as "missing.jsonl: cannot open" instead.
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    inputs = ["--outputs", "missing.outputs.jsonl"] if command == "score" else []
    code = main([command, "--segments", "missing.jsonl", *inputs, *flags])
    assert code == 1
    assert capsys.readouterr().err == f"multiref: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [(kwargs, message) for _, kwargs, message in BAD_SCORE_FLAGS.values() if kwargs is not None],
    ids=[name for name, (_, kwargs, _) in BAD_SCORE_FLAGS.items() if kwargs is not None],
)
def test_score_settings_reject_what_score_rejects(kwargs, message):
    # The library record makes score's checks, so a library caller gets the same rules and messages.
    with pytest.raises(ValueError) as info:
        ScoreSettings(**kwargs)
    assert str(info.value) == message


# Each bad value or combination of generate's flags: its global flags, its generate flags, the
# library call that states it, and the message both give.
GENERATE = refgen.GenerationConfig
TEMPLATE = refgen.choose_template
BAD_GENERATE_FLAGS = {
    "jobs-zero": (["--jobs", "0"], [], GENERATE, {"concurrency": 0}, "--jobs must be >= 1, got 0"),
    "n-references-zero": ([], ["--n-references", "0"], GENERATE, {"n_references": 0},
                          "--n-references must be >= 1, got 0"),
    "n-references-huge": ([], ["--n-references", "1001"], GENERATE, {"n_references": 1001},
                          "--n-references must be <= 1000, got 1001"),
    "max-retries-negative": ([], ["--max-retries", "-1"], GENERATE, {"max_retries": -1},
                             "--max-retries must be >= 0, got -1"),
    "timeout-zero": ([], ["--timeout", "0"], GENERATE, {"timeout": 0.0},
                     "--timeout must be a finite number of seconds > 0, got 0.0"),
    "timeout-nan": ([], ["--timeout", "nan"], GENERATE, {"timeout": float("nan")},
                    "--timeout must be a finite number of seconds > 0, got nan"),
    "jobs-before-n-references": (["--jobs", "0"], ["--n-references", "0"], GENERATE,
                                 {"concurrency": 0, "n_references": 0}, "--jobs must be >= 1, got 0"),
    "template-and-file": ([], ["--template", "english", "--template-file", "missing.json"], TEMPLATE,
                          {"name": "english", "path": "missing.json"},
                          "--template and --template-file are mutually exclusive"),
    "template-not-for-task": ([], ["--task", "summarization", "--template", "chinese"], TEMPLATE,
                              {"task": "summarization", "name": "chinese"},
                              "no built-in chinese template for task 'summarization'"),
    **{
        f"endpoint-{scheme}": ([], ["--endpoint", url], GENERATE, {"endpoint_url": url},
                               f"--endpoint must be an http:// or https:// URL, got {url!r}")
        for scheme, url in [("file", "file:///tmp/reply.json"), ("ftp", "ftp://127.0.0.1/reply.json"),
                            ("data", "data:,reply"), ("no-scheme", "localhost:8000/v1")]
    },
    "config-before-template": ([], ["--timeout", "-1", "--template-file", "missing.json", "--template", "english"],
                               GENERATE, {"timeout": -1.0},
                               "--timeout must be a finite number of seconds > 0, got -1.0"),
}


@pytest.mark.parametrize("global_flags, flags, message",
                         [(g, f, message) for g, f, _, _, message in BAD_GENERATE_FLAGS.values()],
                         ids=list(BAD_GENERATE_FLAGS))
def test_bad_generate_flags_fail_before_any_file_is_read(tmp_path, monkeypatch, capsys, global_flags, flags, message):
    monkeypatch.chdir(tmp_path)
    code = main([*global_flags, "generate", "--segments", "missing.jsonl", "--out", "r.jsonl", "--mock", *flags])
    assert code == 1
    assert capsys.readouterr().err == f"multiref: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("call, kwargs, message",
                         [(call, kwargs, message) for _, _, call, kwargs, message in BAD_GENERATE_FLAGS.values()],
                         ids=list(BAD_GENERATE_FLAGS))
def test_generate_records_reject_what_generate_rejects(call, kwargs, message):
    # GenerationConfig and choose_template make generate's checks, with generate's messages.
    with pytest.raises(ValueError) as info:
        call(**kwargs)
    assert str(info.value) == message


def test_an_upper_case_http_endpoint_is_accepted():
    assert refgen.GenerationConfig(endpoint_url="HTTP://127.0.0.1:1/v1").endpoint_url == "HTTP://127.0.0.1:1/v1"


def test_a_file_endpoint_reads_no_file_and_writes_no_record(pipeline, monkeypatch, capsys):
    # urllib's default opener reads file: URLs, so a local file used to pass for the endpoint's reply.
    reply = pipeline["dir"] / "reply.json"
    reply.write_text(json.dumps({"choices": [{"message": {"content": "1. a\n2. b"}}]}), encoding="utf-8")
    monkeypatch.setenv("MULTIREF_API_KEY", "key")
    out = pipeline["dir"] / "r.jsonl"
    code = main(["generate", "--segments", str(pipeline["segments"]), "--out", str(out),
                 "--endpoint", reply.as_uri(), "--n-references", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"multiref: error: --endpoint must be an http:// or https:// URL, got {reply.as_uri()!r}\n"
    )
    assert not out.exists()


class TestCombine:
    def write_matrix(self, path, jsonl_writer):
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "scores": {"r0": 0.2, "r1": 0.8}, "metric": "m"},
                {"system": "a", "segment": "s2", "scores": {"r0": 0.6, "r1": 0.4}, "metric": "m"},
            ],
        )

    def test_single_column_pass_through(self, tmp_path, jsonl_writer):
        matrix = tmp_path / "matrix.jsonl"
        out = tmp_path / "combined.jsonl"
        jsonl_writer(
            matrix,
            [{"system": "a", "segment": "s1", "scores": {"only": 0.37}, "metric": "m"}],
        )
        assert main(["combine", "--matrix", str(matrix), "--out", str(out)]) == 0
        row = json.loads(out.read_text().strip())
        assert row == {"system": "a", "segment": "s1", "score": 0.37, "metric": "m"}

    def test_max_vs_mean_differ(self, tmp_path, jsonl_writer, capsys):
        matrix = tmp_path / "matrix.jsonl"
        self.write_matrix(matrix, jsonl_writer)
        summary_max = tmp_path / "max.json"
        summary_mean = tmp_path / "mean.json"
        main(["combine", "--matrix", str(matrix), "--policy", "max", "--summary", str(summary_max)])
        main(["combine", "--matrix", str(matrix), "--policy", "mean", "--summary", str(summary_mean)])
        score_max = json.loads(summary_max.read_text())["metrics"]["m"]["a"]
        score_mean = json.loads(summary_mean.read_text())["metrics"]["m"]["a"]
        assert score_max == pytest.approx(0.7)
        assert score_mean == pytest.approx(0.5)

    def test_malformed_line_reports_location(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text("oops\n", encoding="utf-8")
        assert main(["combine", "--matrix", str(matrix)]) == 1
        err = capsys.readouterr().err
        assert "matrix.jsonl:1" in err

    def test_top_k_requires_k(self, pipeline, tmp_path, jsonl_writer, capsys):
        matrix = tmp_path / "matrix.jsonl"
        self.write_matrix(matrix, jsonl_writer)
        cases = [
            (["--policy", "top_k_mean"], "top_k_mean requires k >= 1"),
            (["--k", "2", "--policy", "max"], "k is only valid for top_k_mean, not 'max'"),
            (["--policy", "top_k_mean", "--k", "0"], "k must be >= 1, got 0"),
        ]
        for command in (["combine"], ["metaeval", "--human", str(pipeline["human"])]):
            for policy, reason in cases:
                assert main([*command, "--matrix", str(matrix), *policy]) == 1
                assert capsys.readouterr().err == f"multiref: error: {reason}\n"

    def test_system_mean_overflow_fails_before_writing(self, tmp_path, jsonl_writer, capsys):
        # Each row is finite, but the system's two scores sum past the float
        # range: math.fsum raised OverflowError, a traceback after --out was written.
        matrix = tmp_path / "matrix.jsonl"
        row = {"system": "a", "segment": "s1", "scores": {"r": 1e308}, "metric": "m"}
        jsonl_writer(matrix, [row, dict(row, segment="s2")])
        out, summary = tmp_path / "combined.jsonl", tmp_path / "summary.json"
        code = main(["combine", "--matrix", str(matrix), "--out", str(out), "--summary", str(summary)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"multiref: error: {matrix}: cannot score system 'a' on metric 'm': "
            "the sum of 2 scores overflows\n"
        )
        assert captured.out == ""
        assert not out.exists() and not summary.exists()


def bad_matrix_cases(tmp_path, jsonl_writer):
    """(matrix path, extra CLI args, expected error) for matrix rows that fail as read."""
    row = {"system": "A", "segment": "s1", "scores": {"r0": 0.2, "r1": 0.8}, "metric": "m"}
    duplicate = tmp_path / "duplicate.jsonl"
    jsonl_writer(duplicate, [row, dict(row, segment="s2"), dict(row, scores={"r0": 0.5})])
    short = tmp_path / "short.jsonl"
    jsonl_writer(short, [dict(row, scores={"r0": 0.1, "r1": 0.2, "r2": 0.3}), dict(row, segment="s2")])
    # float() used to read "5" as 5.0 and true as 1.0, and str() null as "None".
    text_cell = tmp_path / "text_cell.jsonl"
    jsonl_writer(text_cell, [row, dict(row, segment="s2", scores={"r0": "5", "r1": True})])
    bool_cell = tmp_path / "bool_cell.jsonl"
    jsonl_writer(bool_cell, [dict(row, scores={"r0": 0.5, "r1": True})])
    null_metric = tmp_path / "null_metric.jsonl"
    jsonl_writer(null_metric, [row, dict(row, segment="s2", metric=None)])
    return [
        (duplicate, [], f"multiref: error: {duplicate}:3: duplicate matrix row for ('A', 's1')"),
        (short, ["--policy", "top_k_mean", "--k", "3"],
         f"multiref: error: {short}:2: cannot combine row: k=3 exceeds the 2 available scores"),
        (text_cell, [],
         f"multiref: error: {text_cell}:2: invalid matrix row: score 'r0' must be a number, got string"),
        (bool_cell, [],
         f"multiref: error: {bool_cell}:1: invalid matrix row: score 'r1' must be a number, got boolean"),
        (null_metric, [], f"multiref: error: {null_metric}:2: invalid matrix row: "
         "metric must be a string or an integer, got null"),
    ]


def test_bad_matrix_rows_fail_with_location_in_combine_and_metaeval(
    tmp_path, jsonl_writer, capsys
):
    human = tmp_path / "human.jsonl"
    jsonl_writer(human, [{"system": s, "segment": None, "score": v} for s, v in (("A", 2), ("B", 1))])
    for matrix, extra, expected in bad_matrix_cases(tmp_path, jsonl_writer):
        for argv in (
            ["combine", "--matrix", str(matrix)],
            ["metaeval", "--matrix", str(matrix), "--human", str(human)],
        ):
            assert main(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.err.strip() == expected
            assert captured.out == ""


@pytest.mark.parametrize("command", ["combine", "metaeval"])
def test_an_empty_matrix_is_named(tmp_path, jsonl_writer, capsys, command):
    matrix, human = tmp_path / "matrix.jsonl", tmp_path / "human.jsonl"
    matrix.write_bytes(b"")
    jsonl_writer(human, [{"system": s, "segment": None, "score": v} for s, v in (("A", 2), ("B", 1))])
    argv = [command, "--matrix", str(matrix)] + (["--human", str(human)] if command == "metaeval" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"multiref: error: no rows found in {matrix}\n"
    assert captured.out == ""


class TestMetaeval:
    def test_perfect_agreement_fixture(self, pipeline, tmp_path):
        matrix_path = pipeline["dir"] / "matrix.jsonl"
        main(
            [
                "score",
                "--segments", str(pipeline["segments"]),
                "--outputs", str(pipeline["outputs"]),
                "--refs", "gold",
                "--out", str(matrix_path),
            ]
        )
        report_path = tmp_path / "report.json"
        code = main(
            [
                "metaeval",
                "--matrix", str(matrix_path),
                "--human", str(pipeline["human"]),
                "--name", "fixture",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        (report,) = json.loads(report_path.read_text())
        assert report["pairwise_accuracy"] == 1.0
        assert report["pearson"] == pytest.approx(1.0)
        assert report["n_pairs_used"] == 1
        assert report["name"] == "fixture"

    def test_hand_built_two_thirds_accuracy(self, tmp_path, jsonl_writer):
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(
            matrix,
            [
                {"system": s, "segment": "s1", "scores": {"all": v}, "metric": "m"}
                for s, v in (("A", 0.9), ("B", 0.5), ("C", 0.7))
            ],
        )
        jsonl_writer(
            human,
            [{"system": s, "segment": None, "score": v} for s, v in (("A", 3), ("B", 2), ("C", 1))],
        )
        report_path = tmp_path / "report.json"
        assert main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--out", str(report_path)]) == 0
        (report,) = json.loads(report_path.read_text())
        assert report["pairwise_accuracy"] == pytest.approx(2 / 3)
        assert report["kendall"] is None  # no segment-level human judgments

    def test_spearman_per_dimension_through_cli(self, tmp_path, jsonl_writer):
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(
            matrix,
            [
                {"system": s, "segment": seg, "scores": {"all": v}, "metric": "rouge1"}
                for s, seg, v in (
                    ("A", "s1", 0.9), ("A", "s2", 0.8),
                    ("B", "s1", 0.3), ("B", "s2", 0.2),
                )
            ],
        )
        judgments = []
        for s, seg, v in (("A", "s1", 5.0), ("A", "s2", 4.0), ("B", "s1", 2.0), ("B", "s2", 1.0)):
            judgments.append({"system": s, "segment": seg, "score": v})
            judgments.append({"system": s, "segment": seg, "dimension": "coherence", "score": v})
            judgments.append({"system": s, "segment": seg, "dimension": "fluency", "score": -v})
        jsonl_writer(human, judgments)
        report_path = tmp_path / "report.json"
        assert main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--out", str(report_path)]) == 0
        (report,) = json.loads(report_path.read_text())
        assert report["spearman"]["coherence"] == pytest.approx(1.0)
        assert report["spearman"]["fluency"] == pytest.approx(-1.0)

    def test_a_dimension_sharing_one_sample_fails_at_the_matrix(self, tmp_path, jsonl_writer, capsys):
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        scores = (("A", "s1", 5.0), ("A", "s2", 4.0), ("B", "s1", 2.0), ("B", "s2", 1.0))
        jsonl_writer(matrix, [{"system": s, "segment": seg, "scores": {"all": v}, "metric": "m"} for s, seg, v in scores])
        # Of fluency's two samples, only ("A", "s1") is in the matrix.
        jsonl_writer(human, [{"system": s, "segment": seg, "score": v} for s, seg, v in scores] + [
            {"system": "A", "segment": "s1", "dimension": "fluency", "score": 3.0},
            {"system": "A", "segment": "s9", "dimension": "fluency", "score": 2.0},
        ])
        assert main(["metaeval", "--matrix", str(matrix), "--human", str(human)]) == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {matrix}: cannot evaluate against {human}: "
            "dimension 'fluency' shares fewer than two samples\n"
        )

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_a_human_file_without_judgments_is_named(self, tmp_path, jsonl_writer, capsys, content):
        # It failed at the matrix, as "cannot evaluate against <human>:
        # pairwise accuracy needs at least two common systems".
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(matrix, [{"system": s, "segment": "s1", "scores": {"r": v}, "metric": "m"}
                              for s, v in (("A", 0.9), ("B", 0.5))])
        human.write_text(content, encoding="utf-8")
        assert main(["metaeval", "--matrix", str(matrix), "--human", str(human)]) == 1
        assert capsys.readouterr().err == f"multiref: error: no judgments found in {human}\n"

    def test_degenerate_human_reported(self, tmp_path, jsonl_writer, capsys):
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(
            matrix,
            [
                {"system": s, "segment": "s1", "scores": {"all": v}, "metric": "m"}
                for s, v in (("A", 0.9), ("B", 0.5))
            ],
        )
        jsonl_writer(
            human,
            [{"system": s, "segment": "s1", "score": 3.0} for s in ("A", "B")],
        )
        assert main(["metaeval", "--matrix", str(matrix), "--human", str(human)]) == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {matrix}: cannot evaluate against {human}: all human score pairs are tied\n"
        )

    def test_system_mean_overflow_fails_with_path(self, tmp_path, jsonl_writer, capsys):
        # System A's two finite scores sum past the float range; math.fsum
        # raised OverflowError, which ended the run in a traceback.
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(
            matrix,
            [
                {"system": s, "segment": seg, "scores": {"r": v}, "metric": "m"}
                for s, v in (("A", 1e308), ("B", 1.0))
                for seg in ("s1", "s2")
            ],
        )
        jsonl_writer(human, [{"system": s, "segment": None, "score": v} for s, v in (("A", 2), ("B", 1))])
        out = tmp_path / "report.json"
        code = main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"multiref: error: {matrix}: cannot evaluate against {human}: "
            "cannot score system 'A' on metric 'm': the sum of 2 scores overflows\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_pearson_of_underflowing_scores_is_reported(self, tmp_path, jsonl_writer, capsys):
        # sxx * syy underflows to 0.0; the division raised ZeroDivisionError
        # and the command ended in a traceback.
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(matrix, [
            {"system": s, "segment": "s1", "scores": {"r": v}, "metric": "m"}
            for s, v in (("A", 1e-160), ("B", -1e-160), ("C", 0.0))
        ])
        jsonl_writer(human, [
            {"system": s, "segment": None, "score": v} for s, v in (("A", 1e-160), ("B", 0.0), ("C", -1e-160))
        ])
        out = tmp_path / "report.json"
        code = main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        (report,) = json.loads(out.read_text())
        assert report["pearson"] == pytest.approx(0.5, abs=1e-12)
        assert report["pairwise_accuracy"] == pytest.approx(2 / 3)
        assert "0.500" in captured.out

    def test_pearson_overflow_fails_with_path(self, tmp_path, jsonl_writer, capsys):
        # The system scores' squared deviations overflow; pearson was printed
        # as -0.000 (the values scaled to 1, -1, 0 give -1.000) with exit 0.
        matrix = tmp_path / "matrix.jsonl"
        human = tmp_path / "human.jsonl"
        jsonl_writer(matrix, [
            {"system": s, "segment": "s1", "scores": {"r": v}, "metric": "m"}
            for s, v in (("A", 1e200), ("B", -1e200), ("C", 0.0))
        ])
        jsonl_writer(human, [
            {"system": s, "segment": None, "score": v} for s, v in (("A", 1), ("B", 3), ("C", 2))
        ])
        out = tmp_path / "report.json"
        code = main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"multiref: error: {matrix}: cannot evaluate against {human}: "
            "pearson of 3 pairs overflows the float range\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestDiversity:
    def test_single_token_corpus(self, tmp_path, jsonl_writer, capsys):
        outputs = tmp_path / "outputs.jsonl"
        jsonl_writer(outputs, [{"system": "a", "segment": "s1", "hypothesis": "word"}])
        out = tmp_path / "div.json"
        assert main(["diversity", "--outputs", str(outputs), "--n", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["a"]["distinct_n"] == 1.0
        assert report["a"]["unique_tokens"] == 1

    def test_fixture_matches_library(self, pipeline, tmp_path):
        out = tmp_path / "div.json"
        main(["diversity", "--outputs", str(pipeline["outputs"]), "--n", "2", "--out", str(out)])
        report = json.loads(out.read_text())
        from multiref.diversity import distinct_n, unique_tokens

        copy_corpus = [tokenize_words(text) for text in GOLD.values()]
        assert report["copy"]["distinct_n"] == pytest.approx(distinct_n(copy_corpus, 2))
        assert report["copy"]["unique_tokens"] == unique_tokens(copy_corpus)

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["diversity", "--outputs", str(tmp_path / "nope.jsonl")]) == 1
        assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["diversity"], ["score", "--segments", None]], ids=["diversity", "score"])
def test_an_empty_outputs_file_is_named(pipeline, tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    argv = [str(pipeline["segments"]) if arg is None else arg for arg in command]
    assert main([*argv, "--outputs", str(empty)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"multiref: error: no system outputs found in {empty}\n"
    assert captured.out == ""


class TestLeakageReport:
    def test_published_anchor_through_cli(self, tmp_path, capsys):
        single = tmp_path / "single.json"
        multi = tmp_path / "multi.json"
        single.write_text(json.dumps({"metrics": {"spbleu": {"ft": 35.86, "base": 27.05}}}))
        multi.write_text(json.dumps({"metrics": {"spbleu": {"ft": 53.08, "base": 52.76}}}))
        out = tmp_path / "leak.json"
        code = main(
            [
                "leakage-report",
                "--single", str(single),
                "--multi", str(multi),
                "--pair", "ft,base",
                "--out", str(out),
            ]
        )
        assert code == 0
        (report,) = json.loads(out.read_text())
        assert report["delta_single"] == pytest.approx(8.81, abs=1e-9)
        assert report["delta_multi"] == pytest.approx(0.32, abs=1e-9)

    def test_identical_systems_zero_deltas(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"A": 42.0, "B": 42.0}))
        out = tmp_path / "leak.json"
        main(
            [
                "leakage-report",
                "--single", str(scores),
                "--multi", str(scores),
                "--pair", "A,B",
                "--out", str(out),
            ]
        )
        (report,) = json.loads(out.read_text())
        assert report["delta_single"] == 0.0
        assert report["delta_multi"] == 0.0

    def test_missing_system_errors(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"A": 1.0}))
        assert main(
            ["leakage-report", "--single", str(scores), "--multi", str(scores), "--pair", "A,B"]
        ) == 1

    @pytest.mark.parametrize(
        "summary, reason",
        [
            (b'{"metrics": {"bleu": {"A": null, "B": 1.0}}}', "score of 'A' must be a number, got null"),
            (b'{"metrics": {"bleu": {"A": [1.0], "B": 1.0}}}', "score of 'A' must be a number, got array"),
            (b'{"A": "nan", "B": 1.0}', "score of 'A' must be a number, got string"),
            (b'{"A": 1.0, "B": "2"}', "score of 'B' must be a number, got string"),
            (b'{"A": true, "B": 1.0}', "score of 'A' must be a number, got boolean"),
            (b'{"A": NaN, "B": 1.0}', "score of 'A' must be finite, got nan"),
            (b'{"metrics": {"bleu": [1.0, 2.0]}}', "metrics['bleu'] must be a JSON object, got array"),
            (b'{"metrics": {"bleu": {}, "chrf": {}}}', "holds ['bleu', 'chrf']; pick one with --metric"),
            (b'[{"A": 1.0}]', "document must be a JSON object, got array"),
            (b'{"A" 1.0}', "bad JSON: Expecting ':' delimiter"),
            (b'{"A": 1e308, "B": -1e308}', "delta_single of 'A' over 'B' overflows to inf"),
            # A (single, multi) pair: the ratio of the two gaps overflows.
            ((b'{"A": 5e-324, "B": 0}', b'{"A": 1.0, "B": 0.0}'), "ratio of 'A' over 'B' against "),
            # A score --sweep-refs summary used to fail as "score of 'sweep' must be a number, got array".
            (b'{"sweep": [{"metric": "bleu", "system": "A", "refs": 1, "score": 1.0}]}',
             "holds a --sweep-refs series, not one score per system"),
        ],
        ids=["null-score", "list-score", "nan-string-score", "numeric-string-score", "bool-score",
             "nan-score", "array-scores", "two-metrics", "array-summary", "bad-json",
             "gap-overflow", "ratio-overflow", "sweep-series"],
    )
    def test_bad_summary_fails_with_path(self, tmp_path, capsys, summary, reason):
        # A null or list score used to end in a traceback; a string, boolean or
        # NaN score used to be taken as a number; finite scores whose gap or gap
        # ratio overflowed wrote Infinity into the report.
        path = tmp_path / "summary.json"
        multi = path
        if isinstance(summary, tuple):
            summary, multi_summary = summary
            multi = tmp_path / "multi.json"
            multi.write_bytes(multi_summary)
        path.write_bytes(summary)
        out = tmp_path / "leak.json"
        code = main(
            ["leakage-report", "--single", str(path), "--multi", str(multi), "--pair", "A,B",
             "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"multiref: error: {path}: invalid summary: {reason}")
        assert not out.exists()

    def test_pair_without_a_comma_fails(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"A": 1.0, "B": 2.0}))
        assert main(["leakage-report", "--single", str(scores), "--multi", str(scores), "--pair", "A"]) == 1
        assert capsys.readouterr().err == "multiref: error: --pair expects A,B, got 'A'\n"

    def test_metric_missing_from_the_multi_summary_names_it(self, tmp_path, capsys):
        # The single summary's one metric is looked up in the multi summary.
        single, multi = tmp_path / "single.json", tmp_path / "multi.json"
        single.write_text(json.dumps({"metrics": {"bleu": {"A": 1.0, "B": 2.0}}}))
        multi.write_text(json.dumps({"metrics": {"chrf": {"A": 1.0, "B": 2.0}}}))
        assert main(["leakage-report", "--single", str(single), "--multi", str(multi), "--pair", "A,B"]) == 1
        assert capsys.readouterr().err == f"multiref: error: {multi}: invalid summary: metric 'bleu' not present\n"

    @pytest.mark.parametrize("culprit", ["single", "multi"])
    def test_missing_system_names_its_summary(self, tmp_path, capsys, culprit):
        # It used to fail as "system 'B' missing from single-reference scores", naming no file.
        paths = {name: tmp_path / f"{name}.json" for name in ("single", "multi")}
        for name, path in paths.items():
            path.write_text(json.dumps({"metrics": {"bleu": {"A": 2.0} if name == culprit else {"A": 2.0, "B": 1.0}}}))
        code = main(["leakage-report", "--single", str(paths["single"]), "--multi", str(paths["multi"]),
                     "--pair", "A,B"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {paths[culprit]}: invalid summary: no score for system 'B'\n"
        )

    @pytest.mark.parametrize("single, multi, culprit, reason", [
        ({"A": 1e308, "B": -1e308}, {"A": 1.0, "B": 0.0}, "single",
         "delta_single of 'A' over 'B' overflows to inf"),
        ({"A": 1.0, "B": 0.0}, {"A": -1e308, "B": 1e308}, "multi",
         "delta_multi of 'A' over 'B' overflows to -inf"),
        ({"A": 1e308, "B": 0.0}, {"A": -1e308, "B": 0.0}, "single",
         "shrinkage of 'A' over 'B' against {multi} overflows to -inf"),
        ({"A": 5e-324, "B": 0.0}, {"A": 1.0, "B": 0.0}, "single",
         "ratio of 'A' over 'B' against {multi} overflows to inf"),
    ], ids=["delta-single", "delta-multi", "shrinkage", "ratio"])
    def test_overflowing_gap_names_its_summary(self, tmp_path, capsys, single, multi, culprit, reason):
        paths = {"single": tmp_path / "single.json", "multi": tmp_path / "multi.json"}
        paths["single"].write_text(json.dumps(single))
        paths["multi"].write_text(json.dumps(multi))
        code = main(["leakage-report", "--single", str(paths["single"]), "--multi", str(paths["multi"]),
                     "--pair", "A,B"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"multiref: error: {paths[culprit]}: invalid summary: "
            f"{reason.format(multi=paths['multi'])}\n"
        )

    def test_synthetic_leak_shrinks_through_pipeline(self, tmp_path, jsonl_writer):
        # System L copies the gold reference verbatim; system H paraphrases.
        # Rescoring against generated references must shrink the L-H gap.
        import random

        rng = random.Random(7)
        slots = [[f"s{i}w{j}" for j in range(4)] for i in range(10)]

        def sentence(peaked):
            return " ".join(
                slot[0] if peaked and rng.random() < 0.75 else slot[rng.randint(0, 3)]
                for slot in slots
            )

        segments, outputs, refs = [], [], []
        for i in range(60):
            gold = sentence(peaked=True)
            segments.append({"id": f"s{i}", "source": f"src{i}", "gold_refs": [gold]})
            outputs.append({"system": "L", "segment": f"s{i}", "hypothesis": gold})
            outputs.append({"system": "H", "segment": f"s{i}", "hypothesis": sentence(False)})
            refs.append(make_record(f"s{i}", [sentence(False) for _ in range(6)]))
        seg_path, out_path, refs_path = (
            tmp_path / "segments.jsonl", tmp_path / "outputs.jsonl", tmp_path / "refs.jsonl",
        )
        jsonl_writer(seg_path, segments)
        jsonl_writer(out_path, outputs)
        jsonl_writer(refs_path, refs)

        single, multi, leak = tmp_path / "single.json", tmp_path / "multi.json", tmp_path / "leak.json"
        assert main(["score", "--segments", str(seg_path), "--outputs", str(out_path),
                     "--refs", "gold", "--summary", str(single)]) == 0
        assert main(["score", "--segments", str(seg_path), "--outputs", str(out_path),
                     "--generated-refs", str(refs_path), "--refs", "generated",
                     "--summary", str(multi)]) == 0
        assert main(["leakage-report", "--single", str(single), "--multi", str(multi),
                     "--pair", "L,H", "--out", str(leak)]) == 0
        (report,) = json.loads(leak.read_text())
        assert report["delta_single"] > 0
        assert report["delta_multi"] < report["delta_single"]


class TestConfigFile:
    def test_config_supplies_defaults(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 101.0}))
        out = pipeline["dir"] / "selected.jsonl"
        main(
            [
                "--config", str(config),
                "select",
                "--refs", str(pipeline["refs"]),
                "--out", str(out),
            ]
        )
        records = load_generation_records(out)
        assert all(len(r.candidates) == 3 for r in records)

    def test_nan_threshold_in_config_fails_before_writing(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": float("nan")}))
        out = pipeline["dir"] / "selected.jsonl"
        code = main(["--config", str(config), "select", "--refs", str(pipeline["refs"]),
                     "--out", str(out)])
        assert code == 1
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_chrf_beta_in_config_is_rejected(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"chrf_beta": float("nan")}))
        code = main(["--config", str(config), "score", "--segments", str(pipeline["segments"]),
                     "--outputs", str(pipeline["outputs"]), "--metrics", "chrf"])
        assert code == 1
        assert "chrf_beta" in capsys.readouterr().err

    def test_explicit_flag_beats_config(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 101.0}))
        out = pipeline["dir"] / "selected.jsonl"
        main(
            [
                "--config", str(config),
                "select",
                "--refs", str(pipeline["refs"]),
                "--out", str(out),
                "--threshold", "0",
            ]
        )
        records = load_generation_records(out)
        assert all(len(r.candidates) == 1 for r in records)

    def test_explicit_flag_equal_to_its_default_beats_config(self, pipeline, tmp_path):
        # A flag given at its default value used to be overridden by the config.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_order": 2, "metrics": "chrf", "smoothing": "none"}))
        summary = tmp_path / "summary.json"
        argv = ["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                "--max-order", "4", "--metrics", "bleu", "--smoothing", "exp", "--summary", str(summary)]
        assert main(argv) == 0
        plain = summary.read_bytes()
        assert main(["--config", str(config), *argv]) == 0
        assert summary.read_bytes() == plain

    @pytest.mark.parametrize(
        "command, config, reason",
        [
            ("select", {"threshold": "x"}, 'expected a number, got "x"'),
            ("generate", {"n_references": "3"}, 'expected an integer, got "3"'),
            ("generate", {"n-references": 2.5}, "expected an integer, got 2.5"),
            ("select", {"threshold": True}, "expected a number, got true"),
            ("select", {"jobs": False}, "expected an integer, got false"),
            ("generate", {"template": "klingon"},
             'invalid choice "klingon" (choose from english, chinese)'),
            ("generate", {"mock": 1}, "expected true or false, got 1"),
            ("generate", {"ground_truth": "no"}, 'expected true or false, got "no"'),
            ("leakage-report", {"pair": "a,b"}, 'expected a list, got "a,b"'),
            ("leakage-report", {"pair": ["a,b", 3]}, "expected a string, got 3"),
            ("select", {"treshold": 101}, "names no flag of any command"),
            # These two used to end the run with an OverflowError traceback.
            ("generate", {"timeout": 10**400}, "int too large to convert to float"),
            ("score", {"chrf_beta": 10**400}, "int too large to convert to float"),
        ],
        ids=["float-given-string", "int-given-string", "int-given-float", "float-given-bool",
             "global-int-given-bool", "outside-choices", "store-true-given-int",
             "optional-bool-given-string", "append-given-string", "append-given-int-item",
             "unknown-key", "timeout-given-int-too-large", "chrf-beta-given-int-too-large"],
    )
    def test_bad_value_fails_with_config_path_and_key(
        self, pipeline, tmp_path, capsys, command, config, reason
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        argv = {
            "select": ["--refs", str(pipeline["refs"]), "--out", str(out)],
            "generate": ["--segments", str(pipeline["segments"]), "--out", str(out), "--mock"],
            "score": ["--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                      "--out", str(out)],
            "leakage-report": ["--single", "s.json", "--multi", "m.json", "--pair", "a,b"],
        }[command]
        assert main(["--config", str(path), command, *argv]) == 1
        (key,) = config
        assert capsys.readouterr().err.strip() == f"multiref: error: {path}: {key}: {reason}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b'{"threshold": 101', "bad JSON: Expecting ',' delimiter"),
            (b'[["threshold", 101]]', "document must be a JSON object, got array"),
            (b'{"report": "r\xe9.json"}', "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["bad-json", "array", "invalid-utf8"],
    )
    def test_unreadable_config_fails_with_path(self, pipeline, tmp_path, capsys, body, reason):
        # Bad JSON used to fail with no path.
        path = tmp_path / "config.json"
        path.write_bytes(body)
        out = tmp_path / "out.jsonl"
        assert main(["--config", str(path), "select", "--refs", str(pipeline["refs"]),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"multiref: error: {path}: invalid config: {reason}")
        assert not out.exists()

    def test_other_commands_keys_are_skipped(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_references": 3, "metrics": "chrf", "threshold": 101.0}))
        out = pipeline["dir"] / "selected.jsonl"
        argv = ["--config", str(config), "select", "--refs", str(pipeline["refs"]), "--out", str(out)]
        assert main(argv) == 0
        assert all(len(r.candidates) == 3 for r in load_generation_records(out))

    def test_values_are_stored_as_the_flag_would_store_them(self, pipeline, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"threshold": 101, "lowercase": True}))
        out = pipeline["dir"] / "selected.jsonl"
        parser = build_parser()
        argv = ["--config", str(path), "select", "--refs", str(pipeline["refs"]), "--out", str(out)]
        _apply_config(parser, parser.parse_args(argv))
        args = parser.parse_args(argv)
        assert args.threshold == 101.0 and isinstance(args.threshold, float)
        assert args.lowercase is True


def _json_loads_error(text):
    """The message `json.loads(text)` fails with here: CPython's C decoder and the pure-Python one word some apart."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"json.loads accepted {text[:20]!r}")


@pytest.mark.parametrize(
    "command, name, line, reason",
    [
        ("metaeval", "human.jsonl", '{"system": "copy", "segment": null, "score": 1%s}' % ("0" * 400),
         "invalid judgment: int too large to convert to float"),
        ("select", "refs.jsonl", '{"segment_id": "s1", "candidates": ["a"], "attempt_count": Infinity}',
         "invalid generation record: cannot convert float infinity to integer"),
        ("metaeval", "human.jsonl", '{"system": "copy", "segment": "s9", "score": "5"}',
         "invalid judgment: score must be a number, got string"),
        ("metaeval", "human.jsonl", '{"system": "copy", "segment": "s9", "score": true}',
         "invalid judgment: score must be a number, got boolean"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "error": null}',
         "invalid generation record: a record without an error must hold candidates"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": [], "error": null}',
         "invalid generation record: a record without an error must hold candidates"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": [], "error": 5}',
         "invalid generation record: error must be a string, got number"),
        ("score", "segments.jsonl", b'{"id": "s9", "source": "\xff"}',
         "invalid segment: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"),
        ("score", "outputs.jsonl", b'{"system": "copy", "segment": "s1", "hypothesis": "\xc3"}',
         "invalid output record: 'utf-8' codec can't decode byte 0xc3 in position 51: "
         "invalid continuation byte"),
        ("score", "refs.jsonl", b'{"segment_id": "s1", "candidates": ["\xe9t\xe9"]}',
         "invalid generation record: 'utf-8' codec can't decode byte 0xe9 in position 37: "
         "invalid continuation byte"),
        ("metaeval", "human.jsonl", b'{"system": "\xff", "segment": null, "score": 1}',
         "invalid judgment: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
        ("combine", "matrix.jsonl", b'{"system": "\xff", "segment": "s2", "scores": {"r0": 1.0}, "metric": "m"}',
         "invalid matrix row: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": [}',
         "invalid generation record: bad JSON: Expecting value: line 1 column 37 (char 36)"),
        ("score", "outputs.jsonl", '["copy", "s1", "the cat"]',
         "invalid output record: record must be a JSON object, got array"),
        ("combine", "matrix.jsonl", "[" * 200000, "invalid matrix row: " + _json_loads_error("[" * 200000)),
        ("spbleu", "vocab.txt", b"\xe2\x96\x81ca\xfft",
         "invalid vocabulary: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "attempt_count": "3"}',
         'invalid generation record: attempt_count must be an integer >= 1, got "3"'),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "attempt_count": true}',
         "invalid generation record: attempt_count must be an integer >= 1, got true"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "attempt_count": 2.9}',
         "invalid generation record: attempt_count must be an integer >= 1, got 2.9"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "attempt_count": 0}',
         "invalid generation record: attempt_count must be an integer >= 1, got 0"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "prompt_used": 5}',
         "invalid generation record: prompt_used must be a string, got number"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "raw_response": null}',
         "invalid generation record: raw_response must be a string, got null"),
        ("select", "refs.jsonl", '{"segment_id": "s9", "candidates": ["a"], "timestamp": []}',
         "invalid generation record: timestamp must be a string, got array"),
        ("select", "refs.jsonl", '{"segment_id": null, "candidates": ["a"]}',
         "invalid generation record: segment_id must be a string or an integer, got null"),
        ("score", "segments.jsonl", '{"id": true, "source": "x"}',
         "invalid segment: id must be a string or an integer, got boolean"),
        ("score", "outputs.jsonl", '{"system": null, "segment": "s1", "hypothesis": "x"}',
         "invalid output record: system must be a string or an integer, got null"),
        ("score", "outputs.jsonl", '{"system": "copy", "segment": 1.5, "hypothesis": "x"}',
         "invalid output record: segment must be a string or an integer, got number"),
        ("metaeval", "human.jsonl", '{"system": ["copy"], "segment": null, "score": 1}',
         "invalid judgment: system must be a string or an integer, got array"),
        ("metaeval", "human.jsonl", '{"system": "copy", "segment": false, "score": 1}',
         "invalid judgment: segment must be a string or an integer, got boolean"),
        ("metaeval", "human.jsonl", '{"system": "copy", "segment": "s1", "dimension": {}, "score": 1}',
         "invalid judgment: dimension must be a string or an integer, got object"),
        ("combine", "matrix.jsonl", '{"system": "A", "segment": null, "scores": {"r0": 1.0}, "metric": "m"}',
         "invalid matrix row: segment must be a string or an integer, got null"),
        ("select", "refs.jsonl", json.dumps(make_record("s1", ["a b"])),
         "duplicate successful record for segment 's1'"),
        ("score", "refs.jsonl", json.dumps(make_record("s1", ["a b"])),
         "duplicate successful record for segment 's1'"),
    ],
    ids=["human-score-beyond-float", "refs-attempt-count-infinity", "human-score-string",
         "human-score-bool", "refs-success-without-candidates", "refs-success-with-empty-candidates",
         "refs-error-not-string", "segments-invalid-utf8",
         "outputs-invalid-utf8", "refs-invalid-utf8", "human-invalid-utf8", "matrix-invalid-utf8",
         "refs-bad-json", "outputs-array-line", "matrix-nested-too-deep", "vocab-invalid-utf8",
         "refs-attempt-count-string", "refs-attempt-count-bool", "refs-attempt-count-fraction",
         "refs-attempt-count-zero", "refs-prompt-not-string", "refs-response-null",
         "refs-timestamp-array", "refs-segment-id-null", "segments-id-bool", "outputs-system-null",
         "outputs-segment-float", "human-system-array", "human-segment-bool",
         "human-dimension-object", "matrix-segment-null", "refs-second-success-select",
         "refs-second-success-score"],
)
def test_number_too_large_fails_with_location(pipeline, tmp_path, capsys, command, name, line, reason):
    matrix = tmp_path / "matrix.jsonl"
    matrix.write_text(json.dumps({"system": "copy", "segment": "s1", "scores": {"r0": 1.0}, "metric": "m"}) + "\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("#unk=<unk>\n▁the\n", encoding="utf-8")
    path = {"matrix.jsonl": matrix, "vocab.txt": vocab}.get(name) or pipeline[name.split(".")[0]]
    with open(path, "ab") as handle:
        handle.write((line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n")
    lineno = path.read_bytes().count(b"\n")
    argv = {
        "metaeval": ["metaeval", "--matrix", str(matrix), "--human", str(path)],
        "select": ["select", "--refs", str(path), "--out", str(tmp_path / "out.jsonl")],
        "score": ["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                  "--generated-refs", str(pipeline["refs"])],
        "combine": ["combine", "--matrix", str(path)],
        "spbleu": ["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                   "--metrics", "spbleu", "--vocab", str(path)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"multiref: error: {path}:{lineno}: {reason}"


def test_byte_order_mark_is_skipped(pipeline):
    summary = pipeline["dir"] / "summary.json"
    config = pipeline["dir"] / "config.json"
    config.write_text(json.dumps({"metrics": "bleu,chrf"}), encoding="utf-8")
    argv = ["--config", str(config), "score", "--segments", str(pipeline["segments"]),
            "--outputs", str(pipeline["outputs"]), "--summary", str(summary)]
    assert main(argv) == 0
    plain = summary.read_bytes()
    for path in (config, pipeline["segments"]):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 0
    assert summary.read_bytes() == plain
    assert set(json.loads(plain)["metrics"]) == {"bleu", "chrf"}


def test_crlf_vocabulary_scores_as_lf(pipeline):
    vocab = pipeline["dir"] / "vocab.txt"
    # Every other word whole, the rest spelled out, so the pieces depend on the vocabulary.
    pieces = {f"▁{w}" for text in GOLD.values() for w in text.split()[::2]}
    pieces = sorted(pieces | set("abcdefghijklmnopqrstuvwxyz"))
    vocab.write_bytes(("#unk=<unk>\n" + "\n".join(pieces) + "\n").encode("utf-8"))
    summary = pipeline["dir"] / "summary.json"
    argv = ["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
            "--metrics", "spbleu", "--vocab", str(vocab), "--summary", str(summary)]
    assert main(argv) == 0
    lf = summary.read_bytes()
    vocab.write_bytes(vocab.read_bytes().replace(b"\n", b"\r\n"))
    assert main(argv) == 0
    assert summary.read_bytes() == lf


def test_outputs_keep_non_ascii_names_unescaped(pipeline, jsonl_writer):
    names = {"copy": "système", "noise": "系统"}
    outputs = pipeline["dir"] / "named.outputs.jsonl"
    jsonl_writer(outputs, [dict(record, system=names[record["system"]])
                           for _, record in read_jsonl(pipeline["outputs"], dict, "output")])
    human = pipeline["dir"] / "named.human.jsonl"
    jsonl_writer(human, [dict(record, system=names[record["system"]])
                         for _, record in read_jsonl(pipeline["human"], dict, "judgment")])
    d = pipeline["dir"]
    assert main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(outputs),
                 "--out", str(d / "score.jsonl"), "--summary", str(d / "score.json")]) == 0
    matrix = d / "named.matrix.jsonl"
    jsonl_writer(matrix, [dict(record, metric="métrique")
                          for _, record in read_jsonl(d / "score.jsonl", dict, "matrix row")])
    assert main(["combine", "--matrix", str(matrix),
                 "--out", str(d / "combine.jsonl"), "--summary", str(d / "combine.json")]) == 0
    assert main(["metaeval", "--matrix", str(matrix), "--human", str(human), "--name", "英中",
                 "--out", str(d / "metaeval.json")]) == 0
    assert main(["diversity", "--outputs", str(outputs), "--out", str(d / "diversity.json")]) == 0
    assert main(["leakage-report", "--single", str(d / "score.json"), "--multi", str(d / "score.json"),
                 "--pair", "système,系统", "--out", str(d / "leakage.json")]) == 0
    expected = {
        "score.jsonl": ["système", "系统"],
        "score.json": ["système", "系统"],
        "combine.jsonl": ["système", "系统", "métrique"],
        "combine.json": ["système", "系统", "métrique"],
        "metaeval.json": ["métrique", "英中"],
        "diversity.json": ["système", "系统"],
        "leakage.json": ["système", "系统"],
    }
    written = {name: (d / name).read_bytes().decode("utf-8") for name in expected}
    assert [name for name, text in written.items() if "\\u" in text] == []
    for name, texts in expected.items():
        assert all(text in written[name] for text in texts), name


def test_written_records_keep_their_keys_in_order(pipeline):
    # The fields of each record a command writes, in the order it writes them.
    d = pipeline["dir"]
    record_keys = ["segment_id", "prompt_used", "raw_response", "candidates", "attempt_count", "timestamp",
                   "error"]
    assert main(["generate", "--segments", str(pipeline["segments"]), "--out", str(d / "gen.jsonl"),
                 "--n-references", "3", "--mock"]) == 0
    assert main(["select", "--refs", str(d / "gen.jsonl"), "--out", str(d / "sel.jsonl"),
                 "--report", str(d / "sel.json")]) == 0
    for name in ("gen.jsonl", "sel.jsonl"):
        lines = [json.loads(line) for line in (d / name).read_text(encoding="utf-8").splitlines()]
        assert [list(line) for line in lines] == [record_keys] * len(GOLD), name
    assert [list(entry) for entry in json.loads((d / "sel.json").read_text()).values()] == (
        [["self_bleu", "kept_indices"]] * len(GOLD)
    )

    assert main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                 "--out", str(d / "matrix.jsonl"), "--summary", str(d / "single.json")]) == 0
    assert main(["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
                 "--generated-refs", str(pipeline["refs"]), "--summary", str(d / "multi.json")]) == 0
    assert main(["metaeval", "--matrix", str(d / "matrix.jsonl"), "--human", str(pipeline["human"]),
                 "--name", "fixture", "--out", str(d / "metaeval.json")]) == 0
    assert main(["diversity", "--outputs", str(pipeline["outputs"]), "--out", str(d / "diversity.json")]) == 0
    assert main(["leakage-report", "--single", str(d / "single.json"), "--multi", str(d / "multi.json"),
                 "--pair", "copy,noise", "--out", str(d / "leakage.json")]) == 0
    assert [list(report) for report in json.loads((d / "metaeval.json").read_text())] == [
        ["metric", "name", "pairwise_accuracy", "n_pairs_used", "pearson", "kendall", "spearman",
         "n_systems", "n_segments"],
    ]
    diversity = json.loads((d / "diversity.json").read_text())
    assert {system: list(summary) for system, summary in diversity.items()} == {
        "copy": ["distinct_n", "n", "unique_tokens"],
        "noise": ["distinct_n", "n", "unique_tokens"],
    }
    assert [list(report) for report in json.loads((d / "leakage.json").read_text())] == [
        ["metric", "system_a", "system_b", "delta_single", "delta_multi", "shrinkage", "ratio"],
    ]


def test_crlf_line_ends_load_as_lf(pipeline):
    argv = ["score", "--segments", str(pipeline["segments"]), "--outputs", str(pipeline["outputs"]),
            "--generated-refs", str(pipeline["refs"]), "--refs", "both", "--metrics", "bleu,chrf",
            "--summary", str(pipeline["dir"] / "summary.json")]
    assert main(argv) == 0
    lf = (pipeline["dir"] / "summary.json").read_bytes()
    for name in ("segments", "outputs", "refs"):
        pipeline[name].write_bytes(pipeline[name].read_bytes().replace(b"\n", b"\r\n"))
    assert main(argv) == 0
    assert (pipeline["dir"] / "summary.json").read_bytes() == lf


@pytest.mark.parametrize("columns", [60, 132])
def test_help_is_formatted_as_argparse_formats_it_by_default(monkeypatch, capsys, columns):
    # build_parser reads the terminal width once for every formatter it makes;
    # each help text must be what argparse's own default formatter prints.
    monkeypatch.setenv("COLUMNS", str(columns))
    parser = build_parser()
    commands = {(): parser, **{(name,): sub for name, sub in _subparsers(parser).items()}}
    assert len(commands) == 8
    for argv, command in commands.items():
        with pytest.raises(SystemExit) as exit:
            main([*argv, "--help"])
        assert exit.value.code == 0
        shown = capsys.readouterr().out
        command.formatter_class = argparse.HelpFormatter
        assert shown == command.format_help()


# Every defaulted flag and the value it must take from the library, by command.
_GENERATION = refgen.GenerationConfig()
_BLEU = BleuConfig()
_LIBRARY_DEFAULTS = {
    "generate": {"jobs": _GENERATION.concurrency, "model": _GENERATION.model_name,
                 "endpoint": _GENERATION.endpoint_url, "max_retries": _GENERATION.max_retries,
                 "timeout": _GENERATION.timeout},
    "select": {"threshold": DEFAULT_SELF_BLEU_THRESHOLD},
    "score": {"max_order": _BLEU.max_order, "smoothing": _BLEU.smoothing,
              "ref_length": _BLEU.effective_ref_length, "chrf_order": DEFAULT_CHRF_ORDER,
              "chrf_beta": DEFAULT_CHRF_BETA},
    "combine": {"policy": CombinePolicy().kind, "k": CombinePolicy().k},
    "metaeval": {"policy": CombinePolicy().kind, "k": CombinePolicy().k},
    "diversity": {"n": DEFAULT_DISTINCT_N},
}


@pytest.mark.parametrize("command", sorted(_LIBRARY_DEFAULTS))
def test_flag_defaults_are_the_library_defaults(command):
    # Each flag used to restate its default; a library default that changed left the flag behind.
    parser = build_parser()
    sub = _subparsers(parser)[command]
    required = [arg for action in sub._actions if action.required for arg in (action.option_strings[0], "x")]
    args = parser.parse_args([command, *required])
    expected = _LIBRARY_DEFAULTS[command]
    assert {dest: getattr(args, dest) for dest in expected} == expected
    for dest, value in expected.items():
        assert type(getattr(args, dest)) is type(value), dest
    if command == "generate":
        # --template and --n-references default to None, and the library's defaults fill them in.
        chosen = refgen.choose_template(args.task, args.template, args.template_file, args.ground_truth)
        assert chosen is refgen.BUILTIN_TEMPLATES[(args.task, refgen.DEFAULT_TEMPLATE)]
        (template,) = [action for action in sub._actions if action.dest == "template"]
        assert template.help == f"built-in template (default: {refgen.DEFAULT_TEMPLATE})"
        assert refgen.GenerationConfig().n_references == refgen.DEFAULT_N_REFERENCES[args.task]


def test_n_references_help_names_each_task_default():
    (action,) = [a for a in _subparsers(build_parser())["generate"]._actions if a.dest == "n_references"]
    for task, n in refgen.DEFAULT_N_REFERENCES.items():
        assert f"{n} {task}" in action.help
