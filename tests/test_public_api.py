"""The public API: what `multiref` exports and what README "Library use" shows."""

import re
from pathlib import Path

import multiref
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


def test_tokenizers_return_tuples_of_strings():
    vocab = SubwordVocab(frozenset({"▁the", "c", "a", "t"}))
    for tokens in (
        tokenize_words("The cat."),
        tokenize_chars("The cat."),
        tokenize_subwords("the cat", vocab),
    ):
        assert type(tokens) is tuple
        assert tokens and all(type(token) is str for token in tokens)
