import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiref.diversity import (
    CandidateSet,
    DiversityReport,
    distinct_n,
    diversity_report,
    score_and_select,
    select_diverse,
    self_bleu,
    unique_tokens,
)
from multiref.metrics import bleu_sentence

import oracles

word_lists = st.lists(st.sampled_from("abcde"), min_size=1, max_size=10)


def cset(*candidates):
    return CandidateSet(segment_id="s1", candidates=tuple(candidates))


class TestSelfBleu:
    def test_identical_candidates_score_100(self):
        cands = [["a", "b", "c", "d"]] * 3
        assert self_bleu(cands) == [100.0, 100.0, 100.0]

    def test_disjoint_candidates_score_zero(self):
        assert self_bleu([["a", "b"], ["c", "d"]]) == [0.0, 0.0]

    def test_matches_explicit_multi_reference_bleu(self):
        cands = [
            ["the", "cat", "sat", "down"],
            ["a", "cat", "sat", "down", "now"],
            ["the", "dog", "stood", "up"],
        ]
        scores = self_bleu(cands)
        for i, hyp in enumerate(cands):
            others = cands[:i] + cands[i + 1 :]
            assert scores[i] == bleu_sentence(hyp, others).value

    def test_requires_two_candidates(self):
        with pytest.raises(ValueError):
            self_bleu([["a"]])


class TestSelectDiverse:
    def test_identical_candidates_collapse_to_first(self):
        selected = select_diverse(cset("a b c d", "a b c d", "a b c d"))
        assert selected.candidates == ("a b c d",)

    def test_disjoint_candidates_all_kept(self):
        selected = select_diverse(cset("a b", "c d", "e f"))
        assert selected.candidates == ("a b", "c d", "e f")

    def test_threshold_zero_triggers_fallback(self):
        selected = select_diverse(cset("a b", "c d"), threshold=0.0)
        assert len(selected.candidates) == 1

    def test_threshold_above_scale_keeps_all(self):
        selected = select_diverse(cset("a b c d", "a b c d"), threshold=101.0)
        assert len(selected.candidates) == 2

    def test_nan_threshold_rejected(self):
        # NaN used to keep only the lowest-scoring candidate, as no score is below it.
        with pytest.raises(ValueError, match="threshold"):
            select_diverse(cset("a b", "c d"), threshold=float("nan"))
        with pytest.raises(ValueError, match="threshold"):
            select_diverse(cset("only one"), threshold=float("nan"))
        with pytest.raises(ValueError, match="threshold"):
            score_and_select(["a b", "c d"], float("nan"))

    def test_single_candidate_unchanged(self):
        selected = select_diverse(cset("only one"))
        assert selected.candidates == ("only one",)

    def test_mixed_set_keeps_exactly_sub_threshold(self):
        # Two near-identical candidates score high against each other; the
        # disjoint third scores 0 and survives alongside neither twin.
        candidates = cset(
            "the cat sat on the mat",
            "the cat sat on the mat today",
            "zebras wander somewhere else entirely",
        )
        scores = self_bleu(
            [c.split() for c in candidates.candidates]
        )
        selected = select_diverse(candidates)
        expected = tuple(
            candidates.candidates[i] for i, s in enumerate(scores) if s < 35.0
        )
        assert selected.candidates == expected
        assert "zebras wander somewhere else entirely" in selected.candidates

    def test_metadata_preserved(self):
        original = CandidateSet("seg9", ("a b", "c d"), provenance="external")
        selected = select_diverse(original)
        assert selected.segment_id == "seg9"
        assert selected.provenance == "external"

    @given(st.lists(st.text("abc xyz", min_size=1, max_size=12), min_size=1, max_size=6))
    def test_output_is_nonempty_subset_in_order(self, texts):
        texts = [t for t in texts if t.strip()] or ["a"]
        original = cset(*texts)
        selected = select_diverse(original)
        assert selected.candidates
        it = iter(original.candidates)
        assert all(c in it for c in selected.candidates)  # subsequence check

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet("s", ())

    @given(st.lists(st.sampled_from(["a b c", "d e f", "a b d", "x y z", "p q"]), min_size=2, max_size=6))
    def test_idempotent_when_survivors_stay_diverse(self, texts):
        first = select_diverse(cset(*texts))
        if len(first.candidates) >= 2:
            rescored = self_bleu([c.split() for c in first.candidates])
            if all(s < 35.0 for s in rescored):
                assert select_diverse(first) == first


class TestDistinctN:
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "2"]), max_size=10), max_size=4),
           st.integers(1, 4))
    def test_matches_oracle(self, corpus, n):
        # Distinct n-grams over the corpus divided by their occurrences, from explicit n-gram lists.
        grams = [gram for seq in corpus for gram in oracles.ngram_list(seq, n)]
        assert distinct_n(corpus, n) == (len(set(grams)) / len(grams) if grams else 0.0)

    def test_repeated_tokens(self):
        assert distinct_n([["a", "a", "a", "b"]], 1) == pytest.approx(0.5)

    def test_all_unique(self):
        assert distinct_n([["a", "b"], ["c", "d"]], 1) == 1.0

    def test_no_ngrams_scores_zero(self):
        assert distinct_n([["a"]], 6) == 0.0

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            distinct_n([["a"]], 0)

    def test_counts_pool_across_corpus(self):
        # The same bigram in two sequences is one distinct gram, two tokens.
        assert distinct_n([["a", "b"], ["a", "b"]], 2) == pytest.approx(0.5)

    @given(st.lists(word_lists, max_size=6), st.integers(1, 4))
    def test_range_and_perfect_diversity(self, corpus, n):
        value = distinct_n(corpus, n)
        assert 0.0 <= value <= 1.0


class TestUniqueTokens:
    def test_basic(self):
        assert unique_tokens([["a", "b", "a"]]) == 2

    def test_empty_corpus(self):
        assert unique_tokens([]) == 0

    @given(st.lists(word_lists, max_size=6))
    def test_invariant_under_reordering(self, corpus):
        assert unique_tokens(corpus) == unique_tokens(list(reversed(corpus)))


class TestDiversityReport:
    def test_builder(self):
        report = diversity_report([["a", "b"], ["a", "c"]], n=1)
        assert report.unique_tokens == 3
        assert report.distinct_n == pytest.approx(0.75)
        assert report.n == 1

    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            DiversityReport(distinct_n=1.5, n=1, unique_tokens=1)
