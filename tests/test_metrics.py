import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from multiref import kernels, metrics
from multiref.diversity import distinct_n, self_bleu, unique_tokens
from multiref.metrics import (
    SMOOTHING_METHODS,
    BleuConfig,
    CorpusStats,
    MetricScore,
    MultiRefScorer,
    ScoreSettings,
    bleu_corpus,
    bleu_sentence,
    chrf_corpus,
    chrf_sentence,
    rouge_l,
    rouge_n,
    spbleu_corpus,
)
from multiref.textproc import SubwordVocab, tokenize_words

ALPHABET = "abcde"

token_lists = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=12)


def random_tokens(rng, lo=1, hi=12):
    return [rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi))]


def random_case(rng):
    hyp = random_tokens(rng)
    refs = [random_tokens(rng) for _ in range(rng.randint(1, 4))]
    return hyp, refs


@st.composite
def bleu_counts(draw):
    """(matched, totals) of 1 to 6 BLEU orders, each match count at most its total."""
    totals = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6))
    return [draw(st.integers(0, total)) for total in totals], totals


def bleu_stats(hyp, refs):
    """One segment's BLEU `CorpusStats`: its bleu part from the scorer's `joint`."""
    scores = MultiRefScorer(ScoreSettings(["bleu"]), words=tuple).segment({"": tuple(hyp)}, [tuple(r) for r in refs])
    return scores.joint("bleu")[""][0]


class TestTokenSequences:
    # A plain string used to be scored character by character: this pair
    # scored BLEU 61.63 as strings against 35.36 as words.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bleu_sentence("the cat sat on", ["the dog sat on"]),
            lambda: bleu_sentence("the cat sat on".split(), ["the dog sat on"]),
            lambda: bleu_corpus([("the cat sat on", ["the dog sat on"])]),
            lambda: bleu_corpus([(["the"], ["the"]), ("the cat", ["the dog"])]),
            lambda: rouge_n("the cat", ["the dog"], 1),
            lambda: rouge_l(["the", "cat"], ["the dog"]),
            lambda: self_bleu(["the cat sat", "the dog sat"]),
            lambda: distinct_n(["the cat sat"], 2),
            lambda: unique_tokens(["the cat sat"]),
        ],
        ids=["bleu-sentence", "bleu-sentence-ref", "bleu-corpus", "corpus-stats", "rouge-n",
             "rouge-l-ref", "self-bleu", "distinct-n", "unique-tokens"],
    )
    def test_plain_string_is_rejected(self, call):
        with pytest.raises(TypeError, match="got a str"):
            call()


class TestBleuSentence:
    def test_identity_scores_100(self):
        tokens = ["the", "cat", "sat", "on", "the", "mat"]
        assert bleu_sentence(tokens, [tokens]).value == 100.0

    def test_multi_reference_clipping(self):
        # Each unigram is clipped against its best reference independently.
        score = bleu_sentence(["a", "b"], [["a", "x"], ["y", "b"]], BleuConfig(max_order=1))
        assert score.per_order == (1.0,)
        assert score.value == 100.0

    def test_repeated_token_clipping_and_bp(self):
        score = bleu_sentence(
            ["the", "the", "the"],
            [["the", "cat"]],
            BleuConfig(max_order=1, smoothing="none"),
        )
        assert score.value == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert score.detail["bp"] == 1.0

    def test_short_identity_is_zero_with_default_order(self):
        # No 3-grams exist, so one denominator is zero and the score is 0.
        assert bleu_sentence(["a", "b"], [["a", "b"]]).value == 0.0

    def test_brevity_penalty_applied(self):
        short = bleu_sentence(["a", "b"], [["a", "b", "c"]], BleuConfig(max_order=1))
        assert short.detail["bp"] == pytest.approx(2.718281828459045 ** (1 - 3 / 2), abs=1e-12)

    def test_closest_ref_length_tie_prefers_shorter(self):
        cfg = BleuConfig(max_order=1)
        score = bleu_sentence(["a", "b"], [["a",], ["a", "b", "c"]], cfg)
        assert score.detail["ref_len"] == 1.0

    def test_shortest_ref_length_mode(self):
        cfg = BleuConfig(max_order=1, effective_ref_length="shortest")
        score = bleu_sentence(["a", "b", "c"], [["a", "b", "c"], ["a"]], cfg)
        assert score.detail["ref_len"] == 1.0

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            bleu_sentence(["a"], [])

    def test_oracle_equivalence(self, rng):
        for smoothing in ("exp", "none"):
            cfg = BleuConfig(smoothing=smoothing)
            for _ in range(100):
                hyp, refs = random_case(rng)
                expected = oracles.bleu(hyp, refs, smoothing=smoothing)
                assert bleu_sentence(hyp, refs, cfg).value == pytest.approx(
                    expected, abs=1e-9
                )


class TestBleuCorpus:
    def test_single_pair_equals_sentence(self, rng):
        for _ in range(25):
            hyp, refs = random_case(rng)
            assert bleu_corpus([(hyp, refs)]).value == bleu_sentence(hyp, refs).value

    def test_identity_corpus_scores_100(self):
        pairs = [
            (["a", "b", "c", "d"], [["a", "b", "c", "d"]]),
            (["e", "d", "c", "b", "a"], [["e", "d", "c", "b", "a"]]),
        ]
        assert bleu_corpus(pairs).value == 100.0

    def test_two_segment_frozen_value(self):
        # Hand-counted stats: matched/totals 7/7, 5/5, 3/3, 0/1; lengths 7/7.
        # Exp smoothing turns the zero 4-gram order into 1/2, so the score is
        # 100 * 0.5 ** 0.25.
        pairs = [
            (["the", "cat", "sat"], [["the", "cat", "sat", "down"]]),
            (
                ["a", "dog", "ran", "far"],
                [["a", "dog", "ran"], ["the", "dog", "ran", "far", "away"]],
            ),
        ]
        assert bleu_corpus(pairs).value == pytest.approx(84.08964152537145, abs=1e-9)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            bleu_corpus([])

    def test_oracle_equivalence(self, rng):
        for _ in range(40):
            pairs = [random_case(rng) for _ in range(rng.randint(1, 5))]
            expected = oracles.corpus_bleu(pairs)
            assert bleu_corpus(pairs).value == pytest.approx(expected, abs=1e-9)

    def test_stats_reduction_is_order_independent(self, rng):
        pairs = [random_case(rng) for _ in range(6)]
        stats = [bleu_stats(h, r) for h, r in pairs]
        forward = sum(stats[1:], stats[0])
        backward = sum(list(reversed(stats))[1:], stats[-1])
        assert forward == backward


class TestSpbleu:
    vocab = SubwordVocab(frozenset({"▁the", "▁cat", "▁dog", "s", "▁"}))

    def test_identity_scores_100(self):
        pairs = [("the cats the dogs", ["the cats the dogs"])]
        assert spbleu_corpus(pairs, self.vocab).value == 100.0

    def test_pretokenized_bypasses_vocab(self):
        pairs = [("▁a ▁b ▁c ▁d", ["▁a ▁b ▁x ▁d"])]
        tokens = [
            (
                ["▁a", "▁b", "▁c", "▁d"],
                [["▁a", "▁b", "▁x", "▁d"]],
            )
        ]
        assert (
            spbleu_corpus(pairs, pretokenized=True).value == bleu_corpus(tokens).value
        )

    def test_vocab_required_without_pretokenized(self):
        with pytest.raises(ValueError):
            spbleu_corpus([("a", ["a"])])

    def test_vocab_and_pretokenized_together_rejected(self):
        # The vocabulary used to be ignored under pretokenized=True.
        from multiref.metrics import piece_tokenizer

        with pytest.raises(ValueError, match="does not apply when pretokenized=True"):
            spbleu_corpus([("▁the", ["▁the"])], self.vocab, pretokenized=True)
        with pytest.raises(ValueError, match="does not apply when pretokenized=True"):
            piece_tokenizer(self.vocab, pretokenized=True)
        with pytest.raises(ValueError, match="a subword vocabulary is required"):
            piece_tokenizer()

    def test_piece_tokenizer_picks_subwords_or_pieces(self):
        from multiref.metrics import piece_tokenizer

        assert piece_tokenizer(self.vocab)("the cats") == ("▁the", "▁cat", "s")
        assert piece_tokenizer(self.vocab, lowercase=True)("The Cats") == ("▁the", "▁cat", "s")
        assert piece_tokenizer(pretokenized=True)("▁The ▁cat s") == ("▁The", "▁cat", "s")
        assert piece_tokenizer(pretokenized=True, lowercase=True)("▁The ▁cat s") == ("▁the", "▁cat", "s")

    def test_pretokenized_pieces_are_lowercased(self):
        # Pieces used to be split from the raw text, ignoring lowercase (4.06).
        pairs = [("▁The ▁Cat ▁Sat ▁On ▁The ▁Mat", ["▁the ▁cat ▁sat ▁on ▁the ▁mat"])]
        assert spbleu_corpus(pairs, pretokenized=True, lowercase=True).value == 100.0
        assert spbleu_corpus(pairs, pretokenized=True).value < 100.0

    def test_pretokenized_pieces_are_nfc_normalized(self):
        # A decomposed é (e + combining acute) used to miss the composed one in the reference.
        pairs = [("▁cafe\u0301 ▁au ▁lait ▁noir", ["▁caf\u00e9 ▁au ▁lait ▁noir"])]
        assert spbleu_corpus(pairs, pretokenized=True).value == 100.0

    def test_matches_oracle_on_pieces(self, rng):
        # Subword scoring is plain BLEU over the piece sequences.
        for _ in range(20):
            hyp = random_tokens(rng, 2, 8)
            refs = [random_tokens(rng, 2, 8) for _ in range(rng.randint(1, 3))]
            pairs = [(" ".join(hyp), [" ".join(r) for r in refs])]
            got = spbleu_corpus(pairs, pretokenized=True).value
            assert got == pytest.approx(oracles.bleu(hyp, refs), abs=1e-9)


class TestChrf:
    def test_identity_scores_100(self):
        assert chrf_corpus([("abcdef gh", ["abcdef gh"])]).value == 100.0

    def test_disjoint_scores_zero(self):
        assert chrf_corpus([("ab", ["cd"])]).value == 0.0

    def test_frozen_hand_case(self):
        # Orders 1-2 on abc/abd: F1 = 2/3, F2 = 1/2, mean 7/12.
        score = chrf_sentence("abc", ["abd"], n_max=2)
        assert score.value == pytest.approx(700.0 / 12.0, abs=1e-9)

    def test_best_reference_wins(self):
        near = chrf_sentence("abcd", ["abcd", "zzzz"]).value
        assert near == 100.0

    def test_hypothesis_profiled_once_per_segment(self, monkeypatch):
        """Each distinct text is profiled once per segment; the hypotheses are packed once
        per segment and each distinct reference is summed against them in one pass."""
        built = []

        class CountingProfile(kernels.Profile):
            __slots__ = ()

            def __init__(self, tokens, max_order):
                built.append(tokens)
                super().__init__(tokens, max_order)

        class CountingPacked(kernels.PackedHypotheses):
            __slots__ = ()

            def __init__(self, hyps):
                built.append(("packed", [hyp.tokens for hyp in hyps]))
                super().__init__(hyps)

            def matches(self, ref):
                built.append(("summed", ref.tokens))
                return super().matches(ref)

        monkeypatch.setattr(kernels, "Profile", CountingProfile)
        monkeypatch.setattr(kernels, "PackedHypotheses", CountingPacked)
        chrf_sentence("abc d", ["abd", "ab c", "x", "abd"])
        assert built == [
            "abcd", ("packed", ["abcd"]),
            "abd", ("summed", "abd"), "abc", ("summed", "abc"), "x", ("summed", "x"),
        ]
        built.clear()
        chrf_corpus([("ab", ["a", "ab"]), ("cd", ["c"])])
        assert built == [
            "ab", ("packed", ["ab"]), "a", ("summed", "a"), ("summed", "ab"),
            "cd", ("packed", ["cd"]), "c", ("summed", "c"),
        ]
        built.clear()
        scorer = MultiRefScorer(ScoreSettings(["chrf"]))
        # System C repeats A's text; the reference "x" is B's text, and "a b" a text of its own.
        scorer.segment({"A": "ab", "B": "x", "C": "ab"}, ["x", "a b", "x"])
        assert built == ["ab", "x", ("packed", ["ab", "x"]), ("summed", "x"), "ab", ("summed", "ab")]

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            chrf_corpus([])

    def test_segment_without_hypotheses(self):
        # Nothing to pack: the hypotheses' bit fields have width 0.
        assert MultiRefScorer(ScoreSettings(["chrf"])).segment({}, ["ab"]).refs == ["ab"]
        assert kernels.PackedHypotheses([]).matches(kernels.Profile("ab", 2)) == []

    def test_zero_order_rejected(self):
        # An order below 1 used to score 0.0 with an empty per-order vector.
        with pytest.raises(ValueError, match="chrf_order"):
            chrf_corpus([("abc", ["abd"])], n_max=0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -2.0])
    def test_non_finite_beta_rejected(self, beta):
        # beta=nan used to score every segment 0.0; beta=-2 scored exactly as beta=2.
        with pytest.raises(ValueError, match="chrf_beta"):
            chrf_sentence("abc", ["abd"], beta=beta)
        with pytest.raises(ValueError, match="chrf_beta"):
            chrf_corpus([("abc", ["abd"])], beta=beta)
        with pytest.raises(ValueError, match="chrf_beta"):
            ScoreSettings(["chrf"], chrf_beta=beta)

    def test_beta_whose_square_overflows_rejected(self):
        # beta * beta = inf made every F-score NaN, and the best-reference pick
        # kept its -1.0 start: "metric value out of [0, 100]: -100.0".
        with pytest.raises(ValueError, match="chrf_beta"):
            chrf_sentence("abc", ["abd"], beta=1e200)
        with pytest.raises(ValueError, match="chrf_beta"):
            ScoreSettings(["chrf"], chrf_beta=1.35e154)
        assert chrf_sentence("abc", ["abd"], beta=1e150).value == pytest.approx(
            oracles.chrf_sentence("abc", ["abd"], beta=1e150)
        )

    def test_zero_beta_weighs_precision_only(self):
        expected = oracles.chrf_sentence("ab", ["abcdef"], beta=0.0)
        assert chrf_sentence("ab", ["abcdef"], beta=0.0).value == pytest.approx(expected, abs=1e-9)
        assert expected != pytest.approx(oracles.chrf_sentence("ab", ["abcdef"]))

    def test_sentence_oracle_equivalence(self, rng):
        for _ in range(100):
            hyp = "".join(random_tokens(rng))
            refs = ["".join(random_tokens(rng)) for _ in range(rng.randint(1, 4))]
            expected = oracles.chrf_sentence(hyp, refs)
            assert chrf_sentence(hyp, refs).value == pytest.approx(expected, abs=1e-9)

    def test_corpus_oracle_equivalence(self, rng):
        for _ in range(30):
            pairs = [
                (
                    "".join(random_tokens(rng)),
                    ["".join(random_tokens(rng)) for _ in range(rng.randint(1, 3))],
                )
                for _ in range(rng.randint(1, 5))
            ]
            expected = oracles.chrf_corpus(pairs)
            assert chrf_corpus(pairs).value == pytest.approx(expected, abs=1e-9)


class TestRouge:
    def test_identity_scores_100(self):
        assert rouge_n(["a", "b"], [["a", "b"]], 1).value == 100.0
        assert rouge_l(["a", "b"], [["a", "b"]]).value == 100.0

    def test_unigram_hand_case(self):
        assert rouge_n(["a", "b"], [["a", "c"]], 1).value == pytest.approx(50.0)

    def test_lcs_hand_case(self):
        assert rouge_l(["a", "b", "c"], [["a", "c"]]).value == pytest.approx(80.0)

    def test_max_over_refs_dominates(self):
        hyp = ["x", "y", "z"]
        assert rouge_n(hyp, [["q", "q", "q"], hyp], 1).value == 100.0
        assert rouge_l(hyp, [["q", "q", "q"], hyp]).value == 100.0

    def test_disjoint_scores_zero(self):
        assert rouge_l(["a", "b"], [["c", "d"]]).value == 0.0

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [], 1)
        with pytest.raises(ValueError):
            rouge_l(["a"], [])

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [["a"]], 0)

    def test_detail_comes_from_the_first_best_reference(self):
        # Both references give F1 = 2/3: one by precision 1/2, the other by recall 1/2.
        hyp, refs = ["a", "b"], [["a"], ["a", "b", "c", "d"]]
        assert rouge_n(hyp, refs, 1).detail == {"precision": 0.5, "recall": 1.0}
        assert rouge_n(hyp, refs[::-1], 1).detail == {"precision": 1.0, "recall": 0.5}
        assert rouge_l(hyp, refs).detail == {"precision": 0.5, "recall": 1.0}
        assert rouge_n(hyp, [["c"], ["d"]], 1).detail == {"precision": 0.0, "recall": 0.0}

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            hyp, refs = random_case(rng)
            for n in (1, 2):
                assert rouge_n(hyp, refs, n).value == pytest.approx(
                    oracles.rouge_n(hyp, refs, n), abs=1e-9
                )
            assert rouge_l(hyp, refs).value == pytest.approx(
                oracles.rouge_l(hyp, refs), abs=1e-9
            )
        # Longer than 64 tokens, so the LCS bit masks span several machine words.
        hyp = random_tokens(rng, 65, 130)
        refs = [random_tokens(rng, 65, 130) for _ in range(3)]
        assert rouge_l(hyp, refs).value == pytest.approx(oracles.rouge_l(hyp, refs), abs=1e-9)

    def test_corpus_mean_adds_segment_values_left_to_right(self):
        # The built-in sum compensates float rounding from Python 3.12 on and
        # gave 0.6 / 3 there, so the corpus score depended on the version.
        scorer = MultiRefScorer(ScoreSettings(["rougeL"]), words=tuple)
        parts = [MetricScore(0.1), MetricScore(0.2), MetricScore(0.3)]
        assert scorer.corpus("rougeL", parts).value == ((0.1 + 0.2) + 0.3) / 3


class TestMultiReferenceMonotonicity:
    def test_clipped_numerators_never_decrease(self, rng):
        for _ in range(60):
            hyp, refs = random_case(rng)
            extra = random_tokens(rng)
            before = bleu_stats(hyp, refs)
            after = bleu_stats(hyp, refs + [extra])
            assert all(b <= a for b, a in zip(before.matched, after.matched))

    def test_rouge_and_chrf_never_decrease(self, rng):
        for _ in range(60):
            hyp, refs = random_case(rng)
            extra = random_tokens(rng)
            assert rouge_n(hyp, refs + [extra], 1).value >= rouge_n(hyp, refs, 1).value
            assert rouge_l(hyp, refs + [extra]).value >= rouge_l(hyp, refs).value
            hyp_text = "".join(hyp)
            ref_texts = ["".join(r) for r in refs]
            assert (
                chrf_sentence(hyp_text, ref_texts + ["".join(extra)]).value
                >= chrf_sentence(hyp_text, ref_texts).value
            )


class TestScoreBounds:
    @given(token_lists, st.lists(token_lists, min_size=1, max_size=3))
    def test_all_metrics_in_range(self, hyp, refs):
        values = [
            bleu_sentence(hyp, refs).value,
            rouge_n(hyp, refs, 1).value,
            rouge_l(hyp, refs).value,
            chrf_sentence("".join(hyp), ["".join(r) for r in refs]).value,
        ]
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_metric_score_validates_range(self):
        with pytest.raises(ValueError):
            MetricScore(101.0)
        with pytest.raises(ValueError):
            MetricScore(-0.5)
        with pytest.raises(ValueError):
            MetricScore(50.0, per_order=(1.5,))

    def test_corpus_stats_validates_counts(self):
        with pytest.raises(ValueError):
            CorpusStats(matched=[2], totals=[1])

    @given(counts=bleu_counts(), smoothing=st.sampled_from(SMOOTHING_METHODS),
           hyp_len=st.integers(0, 40), ref_len=st.integers(0, 40))
    @example(counts=([0, 0, 0, 0], [0, 0, 0, 0]), smoothing="exp", hyp_len=0, ref_len=3)
    @example(counts=([3, 0], [3, 0]), smoothing="none", hyp_len=3, ref_len=0)
    def test_bleu_of_any_valid_counts_is_a_value_metric_score_keeps(self, counts, smoothing, hyp_len, ref_len):
        # A per-reference or self-BLEU value is read from _bleu without MetricScore's clamp,
        # so the clamp must never change one.
        matched, totals = counts
        value = metrics._bleu(matched, totals, hyp_len, ref_len, BleuConfig(len(totals), smoothing))[0]
        assert 0.0 <= value <= 100.0
        assert value == MetricScore(value).value

    @pytest.mark.parametrize("metric", ["chrf", "rougeL"])
    @pytest.mark.parametrize("score", [0.0, 1.0, 1.0000000000000002, math.nan])
    def test_chrf_and_rouge_cells_are_metric_score_values(self, metric, score):
        scores = ScoreSettings([metric]).scorer(tokenize_words).segment({"A": "a b"}, ["a b", "c"])
        scores._pairs[metric]["A"] = [(score, None), (0.5, None)]
        if math.isnan(score):
            with pytest.raises(ValueError, match="must be finite"):
                scores.per_reference("A", metric)
        else:
            assert scores.per_reference("A", metric) == [MetricScore(score * 100.0).value, 50.0]

    def test_per_reference_cells_build_no_records(self, monkeypatch):
        settings = ScoreSettings(["bleu", "spbleu", "chrf", "rougeL"], pretokenized=True)
        refs = ["a b c d e f", "b c", "a b c d e f"]
        scores = settings.scorer(tokenize_words).segment({"A": "a b c d e", "B": "c d"}, refs)
        built = []
        for name in ("CorpusStats", "MetricScore"):
            monkeypatch.setattr(metrics, name, lambda *args, name=name: built.append(name))
        cells = {metric: scores.per_reference("A", metric) for metric in settings.metrics}
        assert built == []
        monkeypatch.undo()
        assert cells["bleu"] == cells["spbleu"] == [bleu_sentence("a b c d e".split(), [ref.split()]).value
                                                    for ref in refs]
        assert cells["chrf"] == [chrf_sentence("a b c d e", [ref]).value for ref in refs]
        assert cells["rougeL"] == [rouge_l("a b c d e".split(), [ref.split()]).value for ref in refs]


def test_public_functions_never_call_segment_kernels(monkeypatch):
    """The sentence and corpus functions run on MultiRefScorer, not the per-segment kernels."""
    calls = []
    for name in ("bleu_segment_stats", "chrf_segment_stats"):
        monkeypatch.setattr(kernels, name, lambda *a, name=name, **k: calls.append(name))
    vocab = SubwordVocab(frozenset({"▁a", "▁b", "▁c"}))
    text = "a b c a b"
    hyp, refs = text.split(), [["b", "a"], text.split()]
    stats = bleu_stats(hyp, refs)
    assert (stats.matched, stats.hyp_len, stats.ref_len) == ([5, 4, 3, 2], 5, 5)
    assert bleu_sentence(hyp, refs).value == 100.0
    assert bleu_corpus([(hyp, refs), (hyp, refs[1:])]).value == 100.0
    assert spbleu_corpus([(text, ["b a", text])], vocab).value == 100.0
    assert spbleu_corpus([(text, [text])], pretokenized=True).value == 100.0
    assert chrf_sentence("abc", ["abd", "abc"]).value == 100.0
    assert 0.0 < chrf_corpus([("abc", ["abd"]), ("xy", ["xy"])]).value < 100.0
    assert calls == []

