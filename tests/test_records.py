"""The package's record classes: named tuples checked in `__new__`, and one plain `__slots__` class.

Importing the package must generate and compile no code: each record class
but `SubwordVocab` is built from `records.record` (a named tuple), never
from `dataclasses`; `SubwordVocab` is a plain class because it holds a
per-instance word cache.
"""

import copy
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from multiref import (
    BleuConfig,
    CombinePolicy,
    CorpusStats,
    DiversityReport,
    EvalCorpus,
    GenerationConfig,
    GenerationRecord,
    HumanJudgment,
    LeakageGapReport,
    MetaEvalReport,
    MetricScore,
    PromptTemplate,
    ScoreSettings,
    Segment,
    SubwordVocab,
    tokenize_subwords,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TEMPLATE = {"rules": "R", "task_description": "{n} of {source}", "include_ground_truth": None}

# (class, valid keyword arguments, frozen, hashable, [(changes, message of the check they fail)])
CASES = [
    (CombinePolicy, {"kind": "top_k_mean", "k": 2}, True, True, [
        ({"kind": "median", "k": None}, "unknown combine kind 'median'"),
        ({"k": None}, "top_k_mean requires k >= 1"),
        ({"k": 0}, "top_k_mean requires k >= 1"),
        ({"kind": "max"}, "k is only valid for top_k_mean, not 'max'"),
    ]),
    (Segment, {"id": "s1", "source": "src", "gold_refs": ("g",), "generated_refs": ("a", "b")}, True, True, []),
    (EvalCorpus, {"segments": [Segment("s1", "src")], "systems": {"A": {"s1": "hyp"}}}, True, False, []),
    (DiversityReport, {"distinct_n": 0.5, "n": 2, "unique_tokens": 7}, True, True, [
        ({"distinct_n": 1.5}, "distinct_n out of [0, 1]: 1.5"),
        ({"distinct_n": -0.25}, "distinct_n out of [0, 1]: -0.25"),
    ]),
    (HumanJudgment, {"system": "A", "score": 3.5, "segment": "s1", "dimension": "fluency"}, True, True, [
        ({"score": math.inf}, "human score must be finite, got inf"),
        ({"score": math.nan}, "human score must be finite, got nan"),
    ]),
    (
        MetaEvalReport,
        {
            "metric": "bleu", "pairwise_accuracy": 0.75, "n_pairs_used": 4, "pearson": 0.5,
            "kendall": -0.25, "spearman": {"fluency": 0.125}, "name": "xx-yy",
            "n_systems": 3, "n_segments": 10,
        },
        True, False, [
            ({"pairwise_accuracy": 1.5}, "accuracy out of [0, 1]: 1.5"),
            ({"pearson": 2.0}, "correlation out of [-1, 1]: 2.0"),
            ({"kendall": -1.5}, "correlation out of [-1, 1]: -1.5"),
            ({"spearman": {"fluency": 1.25}}, "correlation out of [-1, 1]: 1.25"),
        ],
    ),
    (LeakageGapReport, {"system_a": "A", "system_b": "B", "delta_single": 2.0, "delta_multi": 1.0}, True, True, []),
    (BleuConfig, {"max_order": 2, "smoothing": "none", "effective_ref_length": "shortest"}, True, True, [
        ({"max_order": 0}, "max_order must be >= 1, got 0"),
        ({"smoothing": "add1"}, "unknown smoothing 'add1'"),
        ({"effective_ref_length": "average"}, "unknown effective_ref_length 'average'"),
    ]),
    (
        ScoreSettings,
        {
            "metrics": ("bleu", "spbleu"), "refs": "both", "max_refs": 2, "sweep_refs": None,
            "per_reference": True, "out": True, "generated_refs": True, "bleu": BleuConfig(2), "chrf_order": 4,
            "chrf_beta": 1.0, "lowercase": True, "vocab": None, "pretokenized": True,
        },
        True, True, [
            ({"max_refs": 0}, "--max-refs must be >= 1, got 0"),
            ({"refs": "gold"}, "--max-refs caps generated references; it does not apply to --refs gold"),
            ({"out": False}, "--per-reference sets the cells of the --out matrix; it needs --out"),
            ({"pretokenized": False}, "spbleu requires --vocab unless --pretokenized is set"),
            ({"chrf_beta": -1.0}, "chrf_beta must be >= 0 with a finite square, got -1.0"),
        ],
    ),
    (MetricScore, {"value": 42.0, "per_order": (0.5, 0.25), "detail": {"bp": 1.0}}, True, False, [
        ({"value": math.nan}, "metric value must be finite, got nan"),
        ({"value": 101.0}, "metric value out of [0, 100]: 101.0"),
        ({"value": -0.5}, "metric value out of [0, 100]: -0.5"),
        ({"per_order": (0.5, 1.5)}, "per-order entry out of [0, 1]: 1.5"),
    ]),
    (CorpusStats, {"matched": [2, 1], "totals": [3, 2], "hyp_len": 3, "ref_len": 4}, True, False, [
        ({"totals": [3]}, "matched and totals must have the same length"),
        ({"matched": [4, 1]}, "invalid counts: matched=4, total=3"),
        ({"matched": [-1, 1]}, "invalid counts: matched=-1, total=3"),
    ]),
    (SubwordVocab, {"entries": frozenset({"▁a", "b"}), "unk_piece": "?"}, True, True, [
        ({"entries": frozenset()}, "subword vocabulary must not be empty"),
        ({"entries": frozenset({"a", ""})}, "subword vocabulary must not contain the empty string"),
        ({"unk_piece": ""}, "the unk piece must not be empty"),
    ]),
    (PromptTemplate, TEMPLATE, True, True, [
        ({"task_description": "{source} only"}, "task_description must contain exactly one '{n}'"),
        ({"task_description": "{n} {n} {source}"}, "task_description must contain exactly one '{n}'"),
        ({"task_description": "{n} only"}, "task_description must contain exactly one '{source}'"),
    ]),
    (
        GenerationConfig,
        {
            "model_name": "m", "n_references": 5, "endpoint_url": "http://localhost:1/v1",
            "max_retries": 0, "timeout": 0.5, "concurrency": 2,
        },
        True, True, [
            ({"n_references": 0}, "n_references must be >= 1"),
            ({"max_retries": -1}, "max_retries must be >= 0"),
            ({"concurrency": 0}, "concurrency must be >= 1"),
            ({"timeout": 0.0}, "timeout must be a finite number of seconds > 0, got 0.0"),
            ({"timeout": math.inf}, "timeout must be a finite number of seconds > 0, got inf"),
        ],
    ),
    (
        GenerationRecord,
        {
            "segment_id": "s1", "prompt_used": "p", "raw_response": "1. a", "candidates": ("a",),
            "attempt_count": 1, "timestamp": "2024-01-01T00:00:00+00:00", "error": None,
        },
        True, True, [],
    ),
]

IDS = [cls.__name__ for cls, *_ in CASES]
CHECKS = [(cls, kwargs, changes, message) for cls, kwargs, _, _, checks in CASES for changes, message in checks]
CHECK_IDS = [f"{cls.__name__}-{i}" for cls, _, _, _, checks in CASES for i in range(len(checks))]
NAMED_TUPLES = [cls for cls, *_ in CASES if issubclass(cls, tuple)]


def test_every_former_dataclass_is_covered():
    assert len(CASES) == 15
    assert {cls for cls, *_ in CASES if not issubclass(cls, tuple)} == {SubwordVocab}


@pytest.mark.parametrize("cls, kwargs, frozen, hashable, checks", CASES, ids=IDS)
class TestRecordSemantics:
    def test_equal_fields_give_equal_objects(self, cls, kwargs, frozen, hashable, checks):
        a = cls(**kwargs)
        b = cls(**copy.deepcopy(kwargs))
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
        assert [getattr(a, name) for name in kwargs] == list(kwargs.values())
        assert a != object()

    def test_fields_cannot_be_assigned_when_frozen(self, cls, kwargs, frozen, hashable, checks):
        record = cls(**kwargs)
        name, value = next(iter(kwargs.items()))
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        else:
            setattr(record, name, value)
            assert getattr(record, name) is value
        # No class takes attributes it does not declare.
        with pytest.raises(AttributeError):
            record.undeclared = 1

    def test_repr_names_class_and_fields(self, cls, kwargs, frozen, hashable, checks):
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"

    def test_pickle_round_trip(self, cls, kwargs, frozen, hashable, checks):
        record = cls(**kwargs)
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls, kwargs, changes, message", CHECKS, ids=CHECK_IDS)
def test_check_on_construction_and_replace(cls, kwargs, changes, message):
    with pytest.raises(ValueError) as err:
        cls(**{**kwargs, **changes})
    assert str(err.value) == message
    if issubclass(cls, tuple):
        with pytest.raises(ValueError) as err:
            cls(**kwargs)._replace(**changes)
        assert str(err.value) == message


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_named_tuple_api(cls):
    kwargs = next(kw for c, kw, *_ in CASES if c is cls)
    record = cls(**kwargs)
    assert record._asdict() == kwargs
    assert record == tuple(kwargs.values())
    assert type(record._replace()) is cls and record._replace() == record
    with pytest.raises(TypeError):
        record._replace(undeclared=1)


def test_metric_score_clamps_and_defaults_through_every_path():
    score = MetricScore(100.0 + 1e-10)
    assert score.value == 100.0 and score.per_order is None and score.detail == {}
    assert MetricScore(1.0).detail is not MetricScore(1.0).detail
    assert score._replace(value=-1e-10).value == 0.0
    assert score._replace(detail=None).detail == {}


def test_corpus_records_default_and_combine_as_their_class():
    a, b = EvalCorpus(), EvalCorpus()
    assert a == ([], {}) and a.segments is not b.segments and a.systems is not b.systems
    total = CorpusStats.zero(2) + CorpusStats([1, 0], [2, 1], 2, 3)
    assert type(total) is CorpusStats and total == ([1, 0], [2, 1], 2, 3)
    assert total._replace(ref_len=5) == CorpusStats([1, 0], [2, 1], 2, 5)


def test_replace_keeps_the_other_fields():
    template = PromptTemplate(**TEMPLATE)
    assert PromptTemplate("R", "{n} of {source}") == template
    assert template._replace(include_ground_truth=True) == PromptTemplate(
        "R", "{n} of {source}", include_ground_truth=True
    )
    segment = Segment("s1", "src", ("g",))
    assert segment._replace(generated_refs=("a",)) == Segment("s1", "src", ("g",), ("a",))


def test_pickled_vocab_segments_alike_with_its_own_cache():
    vocab = SubwordVocab(frozenset({"▁un", "happy", "▁the", "e"}), unk_piece="?")
    text = "the unhappy thee unhappy"
    expected = tokenize_subwords(text, vocab)
    clone = pickle.loads(pickle.dumps(vocab))
    assert clone == vocab and hash(clone) == hash(vocab)
    assert clone._segment is not vocab._segment
    assert clone._segment.cache_info().currsize == 0
    assert tokenize_subwords(text, clone) == expected
    assert clone._segment.cache_info().currsize == 3
    assert vocab._segment.cache_info().currsize == 3


def test_importing_the_cli_loads_no_code_generator():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import multiref.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
