"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts. Every tolerance is fixed here; nothing is calibrated elsewhere.
"""

import json
import random
import time

import pytest

import oracles
from multiref.cli import main
from multiref.combine import CombinePolicy, combine_matrix
from multiref.diversity import distinct_n, score_and_select, self_bleu
from multiref.errors import DegenerateDataError
from multiref.metaeval import (
    kendall_tau,
    leakage_gap,
    pairwise_accuracy,
    pearson,
    spearman,
)
from multiref.metrics import (
    MultiRefScorer,
    ScoreSettings,
    bleu_corpus,
    bleu_sentence,
    chrf_sentence,
    rouge_l,
    rouge_n,
)
from multiref.refgen import (
    GenerationConfig,
    MockTransport,
    PromptTemplate,
    generate_references,
)
from multiref.textproc import tokenize_words

ALPHABET = "abcde"


def _passed(criterion: int, description: str) -> None:
    print(f"PASS criterion {criterion}: {description}")


def random_tokens(rng, lo=1, hi=12):
    return [rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi))]


def random_case(rng):
    return random_tokens(rng), [random_tokens(rng) for _ in range(rng.randint(1, 4))]


def bleu_stats(hyp, refs):
    """One segment's BLEU `CorpusStats`: its bleu part from the scorer's `joint`."""
    scores = MultiRefScorer(ScoreSettings(["bleu"]), words=tuple).segment({"": tuple(hyp)}, [tuple(r) for r in refs])
    return scores.joint("", "bleu")[1]


def test_criterion_01_metric_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(200):
        hyp, refs = random_case(rng)
        assert bleu_sentence(hyp, refs).value == pytest.approx(
            oracles.bleu(hyp, refs), abs=1e-9
        )
        hyp_text, ref_texts = "".join(hyp), ["".join(r) for r in refs]
        assert chrf_sentence(hyp_text, ref_texts).value == pytest.approx(
            oracles.chrf_sentence(hyp_text, ref_texts), abs=1e-9
        )
        assert rouge_n(hyp, refs, 1).value == pytest.approx(
            oracles.rouge_n(hyp, refs, 1), abs=1e-9
        )
        assert rouge_n(hyp, refs, 2).value == pytest.approx(
            oracles.rouge_n(hyp, refs, 2), abs=1e-9
        )
        assert rouge_l(hyp, refs).value == pytest.approx(
            oracles.rouge_l(hyp, refs), abs=1e-9
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _passed(1, f"BLEU/chrF/ROUGE match brute-force oracles on 200 cases in {elapsed:.2f}s")


def test_criterion_02_multi_reference_monotonicity():
    rng = random.Random(102)
    violations = 0
    for _ in range(200):
        hyp, refs = random_case(rng)
        extra = random_tokens(rng)
        before = bleu_stats(hyp, refs)
        after = bleu_stats(hyp, refs + [extra])
        if any(b > a for b, a in zip(before.matched, after.matched)):
            violations += 1
        for metric in (lambda h, r: rouge_n(h, r, 1), lambda h, r: rouge_n(h, r, 2), rouge_l):
            if metric(hyp, refs + [extra]).value < metric(hyp, refs).value:
                violations += 1
        hyp_text, ref_texts = "".join(hyp), ["".join(r) for r in refs]
        if (
            chrf_sentence(hyp_text, ref_texts + ["".join(extra)]).value
            < chrf_sentence(hyp_text, ref_texts).value
        ):
            violations += 1
    assert violations == 0
    _passed(2, "adding a reference never hurt clipped matches or ROUGE/chrF on 200 cases")


def test_criterion_03_diversity_selection():
    rng = random.Random(103)
    threshold = 35.0
    for case in range(120):
        if case % 10 == 0:
            # All-identical candidates (long enough to own every 4-gram)
            # must collapse to a single survivor via the fallback rule.
            text = " ".join(random_tokens(rng, 4, 9))
            candidates = [text] * rng.randint(2, 5)
        else:
            candidates = [
                " ".join(random_tokens(rng, 1, 9))
                for _ in range(rng.randint(2, 6))
            ]
        scores = self_bleu([tokenize_words(c) for c in candidates])
        _, kept = score_and_select(candidates, threshold)
        selected = [candidates[i] for i in kept]
        assert selected, "selection must never come back empty"
        leftovers = iter(candidates)
        assert all(c in leftovers for c in selected), "not an ordered subset"
        survivors_by_score = [
            candidates[i] for i, s in enumerate(scores) if s < threshold
        ]
        if survivors_by_score:
            assert selected == survivors_by_score
        else:
            assert len(selected) == 1
        if len(set(candidates)) == 1:
            assert len(selected) == 1
    _passed(3, "120 random candidate sets: survivors under threshold, fallback exact")


def test_criterion_04_max_combination():
    rng = random.Random(104)
    for _ in range(120):
        scores = {f"r{i}": rng.uniform(-3, 3) for i in range(rng.randint(1, 8))}
        rows = {("sys", "seg"): dict(scores)}
        combined = combine_matrix(rows, CombinePolicy("max"))["sys", "seg"]
        assert all(combined >= s for s in scores.values())
        rows["sys", "seg"]["extra"] = rng.uniform(-3, 3)
        grown = combine_matrix(rows, CombinePolicy("max"))["sys", "seg"]
        assert grown >= combined
    _passed(4, "max combination dominates inputs and grows with extra columns (120 matrices)")


def test_criterion_05_statistics_oracles():
    rng = random.Random(105)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 30)
        x = [float(rng.randint(0, 6)) for _ in range(n)]
        y = [float(rng.randint(0, 6)) for _ in range(n)]
        systems = {f"s{i}": x[i] for i in range(n)}
        humans = {f"s{i}": y[i] for i in range(n)}
        expected_acc, used = oracles.pairwise_accuracy(systems, humans)
        if expected_acc is None:
            with pytest.raises(DegenerateDataError):
                pairwise_accuracy(systems, humans)
        else:
            assert pairwise_accuracy(systems, humans) == (expected_acc, used)
        if len(set(x)) > 1 and len(set(y)) > 1:
            assert kendall_tau(x, y) == oracles.kendall_tau(x, y)
            assert pearson(x, y) == pytest.approx(oracles.pearson(x, y), abs=1e-12)
            assert spearman(x, y) == pytest.approx(oracles.spearman(x, y), abs=1e-12)
            checked += 1
    assert checked >= 200
    hand_acc, hand_used = pairwise_accuracy(
        {"A": 0.9, "B": 0.5, "C": 0.7}, {"A": 3.0, "B": 2.0, "C": 1.0}
    )
    assert hand_used == 3 and hand_acc == pytest.approx(2.0 / 3.0)
    _passed(5, f"accuracy/tau exact, rho/spearman within 1e-12 on {checked} tied vectors")


def test_criterion_06_published_leakage_anchor():
    single = {"MT-ft-test": 35.86, "MT": 27.05}
    multi = {"MT-ft-test": 53.08, "MT": 52.76}
    report = leakage_gap(single, multi, "MT-ft-test", "MT")
    assert report.delta_single == pytest.approx(8.81, abs=1e-9)
    assert report.delta_multi == pytest.approx(0.32, abs=1e-9)
    _passed(6, "published system scores reproduce deltas +8.81 (single) and +0.32 (multi)")


# --- synthetic leakage fixture -------------------------------------------
#
# A slot language: every sentence realizes 12 slots, each slot choosing one
# of 4 interchangeable words. The gold reference draws from a peaked
# distribution; honest paraphrases and generated references draw uniformly.
# System L copies the gold reference verbatim (simulated leakage), system H
# emits an independent paraphrase.

N_SLOTS = 12
SLOT_CHOICES = 4
SLOT_WORDS = [[f"w{slot}x{j}" for j in range(SLOT_CHOICES)] for slot in range(N_SLOTS)]


def _realization(rng, peaked: bool) -> list[str]:
    words = []
    for slot in range(N_SLOTS):
        if peaked and rng.random() < 0.75:
            idx = 0
        else:
            idx = rng.randint(0, SLOT_CHOICES - 1)
        words.append(SLOT_WORDS[slot][idx])
    return words


def _leakage_fixture(n_segments=200, n_refs=10, seed=107):
    rng = random.Random(seed)
    segments = []
    for i in range(n_segments):
        gold = _realization(rng, peaked=True)
        refs = [_realization(rng, peaked=False) for _ in range(n_refs)]
        paraphrase = _realization(rng, peaked=False)
        segments.append({"id": f"s{i}", "gold": gold, "refs": refs, "H": paraphrase})
    return segments


def test_criterion_07_leakage_mitigation_direction():
    start = time.monotonic()
    fixture = _leakage_fixture()

    sampled = fixture[0]["refs"]
    sample_scores = self_bleu(sampled)
    assert max(sample_scores) < 35.0, "generated references must be diverse"

    single_scores = {}
    multi_scores = {}
    for system in ("L", "H"):
        hyps = [
            seg["gold"] if system == "L" else seg["H"] for seg in fixture
        ]
        single_scores[system] = bleu_corpus(
            [(hyp, [seg["gold"]]) for hyp, seg in zip(hyps, fixture)]
        ).value
        multi_scores[system] = bleu_corpus(
            [(hyp, seg["refs"]) for hyp, seg in zip(hyps, fixture)]
        ).value

    report = leakage_gap(single_scores, multi_scores, "L", "H")
    assert report.delta_single > 0, "copying system must win under the single gold ref"
    assert single_scores["L"] == 100.0
    assert report.delta_multi <= 0.5 * report.delta_single, (
        f"gap only moved from {report.delta_single:.2f} to {report.delta_multi:.2f}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(
        7,
        f"gap {report.delta_single:.2f} -> {report.delta_multi:.2f} BLEU "
        f"under 10 diverse references in {elapsed:.1f}s",
    )


def test_criterion_08_distinct_n_ordering():
    fixture = _leakage_fixture()
    copying = [seg["gold"] for seg in fixture]
    paraphrasing = [seg["H"] for seg in fixture]
    copy_diversity = distinct_n(copying, 6)
    paraphrase_diversity = distinct_n(paraphrasing, 6)
    assert paraphrase_diversity > copy_diversity
    _passed(
        8,
        f"distinct-6 of the paraphrase system ({paraphrase_diversity:.4f}) exceeds "
        f"the copying system ({copy_diversity:.4f})",
    )


def test_criterion_09_generation_robustness(tmp_path):
    template = PromptTemplate(
        rules="rules", task_description="{n} of {source}", include_ground_truth=False
    )
    cfg = GenerationConfig(n_references=3, max_retries=2)
    segments = [("s1", "alpha beta gamma", None), ("s2", "delta epsilon zeta", None)]

    valid = "1. one\n2. two\n3. three"
    well_formed = MockTransport(scripted=[valid, valid])
    records = generate_references(segments, template, cfg, well_formed)
    assert all(len(r.candidates) == 3 and r.attempt_count == 1 for r in records)

    flaky = MockTransport(scripted=["??", "??", valid, valid])
    records = generate_references(segments, template, cfg, flaky)
    assert records[0].attempt_count == 3 and records[0].succeeded
    assert records[1].attempt_count == 1

    hopeless = MockTransport(scripted=["??"] * 10)
    out = tmp_path / "refs.jsonl"
    records = generate_references(segments, template, cfg, hopeless, out_path=out)
    assert all(not r.succeeded for r in records)
    assert len(hopeless.calls) == 2 * (1 + cfg.max_retries)

    recovery = MockTransport(scripted=[valid, valid])
    records = generate_references(segments, template, cfg, recovery, out_path=out)
    assert len(records) == 2  # failed ids retry on resume
    silent = MockTransport(scripted=[])
    records = generate_references(segments, template, cfg, silent, out_path=out)
    assert records == [] and silent.calls == []
    _passed(9, "mock transports: parse, bounded retries, idempotent resume, no network")


def test_criterion_10_end_to_end_smoke(tmp_path, jsonl_writer):
    start = time.monotonic()
    rng = random.Random(110)
    words = [f"tok{i}" for i in range(30)]
    segments = []
    outputs = []
    human = []
    for i in range(20):
        text = " ".join(rng.choice(words) for _ in range(8))
        shuffled = " ".join(reversed(text.split()))
        segments.append({"id": f"s{i}", "source": f"src {i}", "gold_refs": [text]})
        outputs.append({"system": "copy", "segment": f"s{i}", "hypothesis": text})
        outputs.append({"system": "shuffle", "segment": f"s{i}", "hypothesis": shuffled})
        outputs.append({"system": "noise", "segment": f"s{i}", "hypothesis": "xx yy zz qq"})
        for system, score in (("copy", 3.0), ("shuffle", 2.0), ("noise", 1.0)):
            human.append({"system": system, "segment": f"s{i}", "score": score + 0.01 * i})

    seg_path = tmp_path / "segments.jsonl"
    out_path = tmp_path / "outputs.jsonl"
    human_path = tmp_path / "human.jsonl"
    jsonl_writer(seg_path, segments)
    jsonl_writer(out_path, outputs)
    jsonl_writer(human_path, human)

    refs = tmp_path / "refs.jsonl"
    selected = tmp_path / "selected.jsonl"
    matrix = tmp_path / "matrix.jsonl"
    report_path = tmp_path / "report.json"

    assert main(["generate", "--segments", str(seg_path), "--out", str(refs),
                 "--mock", "--n-references", "6"]) == 0
    assert main(["select", "--refs", str(refs), "--out", str(selected)]) == 0
    assert main(["score", "--segments", str(seg_path), "--outputs", str(out_path),
                 "--generated-refs", str(selected), "--refs", "both",
                 "--metrics", "bleu,chrf", "--out", str(matrix)]) == 0
    assert main(["metaeval", "--matrix", str(matrix), "--human", str(human_path),
                 "--name", "smoke", "--out", str(report_path)]) == 0

    reports = json.loads(report_path.read_text())
    assert len(reports) == 2
    for report in reports:
        assert set(report) == {
            "metric", "name", "pairwise_accuracy", "n_pairs_used", "pearson",
            "kendall", "spearman", "n_systems", "n_segments",
        }
        assert 0.0 <= report["pairwise_accuracy"] <= 1.0
        assert -1.0 <= report["pearson"] <= 1.0
        assert -1.0 <= report["kendall"] <= 1.0
        assert report["n_systems"] == 3
        assert report["n_segments"] == 20
    bleu_report = next(r for r in reports if r["metric"] == "bleu")
    assert bleu_report["pairwise_accuracy"] == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(10, f"generate -> select -> score -> metaeval on 20 segments in {elapsed:.1f}s")
