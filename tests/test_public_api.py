"""The public API: what `multiref` exports and what README "Library use" and "Pipeline quickstart" show."""

import json
import re
import shlex
from pathlib import Path

import multiref
from multiref.cli import main
from multiref import SubwordVocab, tokenize_chars, tokenize_subwords, tokenize_words

README = Path(__file__).resolve().parent.parent / "README.md"

# One name per job. combine_matrix and meta_evaluate stay in their modules
# for the benchmark's tracer only; build_prompt and parse_candidates are
# steps of generate_references.
PUBLIC_API = [
    "BleuConfig",
    "CombinePolicy",
    "CorpusFormatError",
    "CorpusStats",
    "DegenerateDataError",
    "DiversityReport",
    "EvalCorpus",
    "GenerationConfig",
    "GenerationRecord",
    "HttpChatTransport",
    "HumanJudgment",
    "LeakageGapReport",
    "MalformedResponseError",
    "MetaEvalReport",
    "MetricScore",
    "MockTransport",
    "MultiRefScorer",
    "MultirefError",
    "PromptTemplate",
    "ScoreSettings",
    "Segment",
    "SubwordVocab",
    "TransportError",
    "bleu_corpus",
    "bleu_sentence",
    "chrf_corpus",
    "chrf_sentence",
    "distinct_n",
    "generate_references",
    "kendall_tau",
    "leakage_gap",
    "load_combined",
    "load_corpus",
    "load_subword_vocab",
    "merge_references",
    "meta_evaluate_all",
    "pairwise_accuracy",
    "pearson",
    "rouge_l",
    "rouge_n",
    "score_and_select",
    "score_corpus",
    "self_bleu",
    "spbleu_corpus",
    "spearman",
    "system_scores",
    "tokenize_chars",
    "tokenize_subwords",
    "tokenize_words",
    "unique_tokens",
]


def test_exports_are_pinned():
    assert multiref.__all__ == PUBLIC_API


def test_every_exported_name_resolves():
    missing = [name for name in multiref.__all__ if not hasattr(multiref, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})


def test_readme_pipeline_quickstart_runs(tmp_path, monkeypatch, capsys, jsonl_writer):
    # Each command of the quickstart, on small inputs in place of its files, exits 0 and writes its outputs.
    section = README.read_text(encoding="utf-8").split("## Pipeline quickstart", 1)[1]
    script = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["multiref", "generate"], ["multiref", "select"], ["multiref", "score"], ["multiref", "metaeval"]
    ]
    monkeypatch.chdir(tmp_path)
    gold = {"s1": "the cat sat on the mat", "s2": "rain falls gently on the hills", "s3": "a fox jumps"}
    jsonl_writer(tmp_path / "segments.jsonl",
                 [{"id": sid, "source": f"source {sid}", "gold_refs": [text]} for sid, text in gold.items()])
    hyps = {"copy": dict(gold), "half": {sid: " ".join(text.split()[::2]) for sid, text in gold.items()}}
    jsonl_writer(tmp_path / "outputs.jsonl", [{"system": system, "segment": sid, "hypothesis": hyp}
                                              for system, by_segment in hyps.items() for sid, hyp in by_segment.items()])
    jsonl_writer(tmp_path / "human.jsonl", [{"system": system, "segment": sid, "score": 5.0 - 2 * i - 0.1 * j}
                                            for i, system in enumerate(hyps) for j, sid in enumerate(gold)])
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        for flag in ("--out", "--summary"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).stat().st_size > 0, (argv, flag)
    capsys.readouterr()
    reports = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [(r["metric"], r["pairwise_accuracy"]) for r in reports] == [("bleu", 1.0), ("chrf", 1.0), ("rougeL", 1.0)]


def test_tokenizers_return_tuples_of_strings():
    vocab = SubwordVocab(frozenset({"▁the", "c", "a", "t"}))
    for tokens in (
        tokenize_words("The cat."),
        tokenize_chars("The cat."),
        tokenize_subwords("the cat", vocab),
    ):
        assert type(tokens) is tuple
        assert tokens and all(type(token) is str for token in tokens)
