"""Leave-one-out self-BLEU from one count table per order, checked against the oracles.

`self_bleu` hands each candidate's `CorpusStats` to `_bleu_from_stats`; the
tests record those statistics and compare the integers with the brute-force
counts of `tests/oracles.py` exactly. The score itself must equal today's
`bleu_sentence` against the other candidates bit for bit, and the float
oracle to 1e-9 (it sums the log precisions in a different order).
"""

import contextlib
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiref.cli
import multiref.diversity
import multiref.metrics
from multiref import kernels
from multiref.cli import main
from multiref.diversity import score_and_select, self_bleu
from multiref.metrics import BleuConfig, bleu_sentence

import oracles

CONFIGS = [
    BleuConfig(max_order, smoothing, ref_length)
    for max_order in range(1, 7)
    for smoothing in ("exp", "none")
    for ref_length in ("closest", "shortest")
]


def recorded_self_bleu(monkeypatch, candidates, cfg):
    """self_bleu's scores and the statistics it scored each candidate from."""
    seen = []
    assemble = multiref.diversity._bleu_from_stats

    def recording(stats, cfg):
        seen.append(stats)
        return assemble(stats, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(multiref.diversity, "_bleu_from_stats", recording)
        scores = self_bleu(candidates, cfg)
    return scores, seen


def check_against_oracle(monkeypatch, candidates, cfg):
    scores, stats = recorded_self_bleu(monkeypatch, candidates, cfg)
    assert len(scores) == len(stats) == len(candidates)
    for i, hyp in enumerate(candidates):
        others = candidates[:i] + candidates[i + 1 :]
        orders = range(1, cfg.max_order + 1)
        assert stats[i].matched == [oracles.clipped_matches(hyp, others, n) for n in orders]
        assert stats[i].totals == [len(oracles.ngram_list(hyp, n)) for n in orders]
        assert stats[i].hyp_len == len(hyp)
        assert stats[i].ref_len == oracles.effective_ref_len(
            len(hyp), [len(o) for o in others], cfg.effective_ref_length
        )
        assert scores[i] == bleu_sentence(hyp, others, cfg).value
        assert scores[i] == pytest.approx(
            oracles.bleu(hyp, others, cfg.max_order, cfg.smoothing, cfg.effective_ref_length),
            abs=1e-9,
        )
    return stats


candidate = st.lists(st.sampled_from("abc"), min_size=0, max_size=9)


@st.composite
def candidate_sets(draw):
    candidates = draw(st.lists(candidate, min_size=2, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        candidates.insert(
            draw(st.integers(0, len(candidates))), list(draw(st.sampled_from(candidates)))
        )
    return candidates


@settings(max_examples=300, deadline=None)
@given(candidates=candidate_sets(), cfg=st.sampled_from(CONFIGS))
def test_statistics_and_scores_match_oracles(candidates, cfg):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_against_oracle(monkeypatch, candidates, cfg)


@settings(max_examples=400, deadline=None)
@given(
    # A narrow range of lengths gives many ties, of equal lengths and of equal distances.
    lengths=st.integers(1, 80).flatmap(
        lambda top: st.lists(st.integers(0, top), min_size=2, max_size=60)
    ),
    mode=st.sampled_from(("closest", "shortest")),
)
def test_leave_one_out_ref_lens_match_ref_len_on_the_other_lengths(lengths, mode):
    expected = [
        kernels.ref_len(length, lengths[:i] + lengths[i + 1 :], mode)
        for i, length in enumerate(lengths)
    ]
    assert multiref.diversity._leave_one_out_ref_lens(lengths, mode) == expected


def words(*texts):
    return [text.split() for text in texts]


@pytest.mark.parametrize(
    "candidates",
    [
        # "a" twice in the first two candidates: a tie for the top count.
        words("a a b", "a a c", "a d e"),
        # Three candidates at the top, and the holder listed last of the counts.
        words("x y y", "y y z", "y y w", "y"),
        # Duplicate candidates clip each other fully.
        words("a b c d", "a b c d", "e f g h"),
        # Empty candidates and candidates shorter than the order.
        words("", "a", "a b", "a b c d e f g"),
        words("", ""),
        # Two-candidate sets: each is the other's only reference.
        words("a b a b", "b a b"),
        words("p q r s t", "u v"),
        # Equal distance to a shorter and a longer sibling: closest takes the shorter.
        words("a b c", "a b", "a b c d", "a b c"),
        words("a b c", "a b", "a b c d"),
    ],
)
def test_edge_cases_match_oracles(monkeypatch, candidates):
    for cfg in CONFIGS:
        check_against_oracle(monkeypatch, candidates, cfg)


def test_a_tie_for_the_top_count_clips_the_holder_at_the_top(monkeypatch):
    # "a" appears twice in candidates 0 and 1 and once in candidate 2. Without
    # the tie rule, candidate 0 (the first holder) would be clipped at 1.
    _, stats = recorded_self_bleu(monkeypatch, words("a a b", "a a c", "a d e"), BleuConfig(1))
    assert [s.matched for s in stats] == [[2], [2], [1]]


def test_a_sole_holder_is_clipped_at_the_second_count(monkeypatch):
    _, stats = recorded_self_bleu(monkeypatch, words("a a a", "a a", "a"), BleuConfig(1))
    assert [s.matched for s in stats] == [[2], [2], [1]]


def test_needs_two_candidates():
    with pytest.raises(ValueError):
        self_bleu([["a"]])


def test_score_and_select():
    assert score_and_select(["only one"]) == ([], [0])
    texts = ["The cat sat down", "the cat sat down", "zebras roam far away"]
    scores, kept = score_and_select(texts, threshold=70.0, lowercase=True)
    assert scores == self_bleu(words(*[t.lower() for t in texts]))
    assert scores[:2] == [100.0, 100.0]
    assert kept == [2]
    # Case is kept without lowercase: "The" and "the" differ, so the first two
    # score below the threshold and survive.
    scores, kept = score_and_select(texts, threshold=70.0)
    assert scores == self_bleu(words(*texts))
    assert kept == [0, 1, 2]


def test_select_counts_each_candidate_once_and_calls_no_kernel(tmp_path, monkeypatch, jsonl_writer):
    segments = {
        "s1": [f"the cat sat on mat number {i}" for i in range(6)],
        "s2": ["a b c", "a b c", "d e f", "a b c d"],
        "s3": ["only one candidate"],
    }
    refs = tmp_path / "refs.jsonl"
    jsonl_writer(refs, [
        {"segment_id": sid, "prompt_used": "p", "raw_response": "r", "candidates": cands,
         "attempt_count": 1, "timestamp": "2024-01-01T00:00:00+00:00", "error": None}
        for sid, cands in segments.items()
    ])

    tokenized = []
    for module in (multiref.diversity, multiref.cli):
        tokenize = module.tokenize_words
        monkeypatch.setattr(
            module, "tokenize_words",
            lambda text, *a, tokenize=tokenize, **k: tokenized.append(text) or tokenize(text, *a, **k),
        )
    forbidden = []
    for module, name in [(kernels, "bleu_segment_stats"), (multiref.metrics, "bleu_sentence"),
                         (multiref.diversity, "bleu_sentence"), (multiref.cli, "bleu_sentence")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: forbidden.append(name))

    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["select", "--refs", str(refs), "--out", str(tmp_path / "out.jsonl"),
                     "--report", str(report)]) == 0
    assert forbidden == []
    assert Counter(tokenized) == Counter(segments["s1"] + segments["s2"])
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["s3"] == {"self_bleu": [], "kept_indices": [0]}
    monkeypatch.undo()
    cands = words(*segments["s1"])
    assert result["s1"]["self_bleu"] == [
        bleu_sentence(c, cands[:i] + cands[i + 1 :]).value for i, c in enumerate(cands)
    ]
