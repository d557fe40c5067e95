"""The counting kernels, each checked against the brute-force oracles.

Tokens are drawn from a small alphabet with multi-character and non-ASCII
entries, so that n-grams repeat; sequences may be empty and orders may be
longer than the input. The LCS, chrF and `matches` tests also draw from two
or three symbols, so that LCS bit masks span several 64-bit words and
n-grams repeat on both sides of a pair; the packed counts take one to eight
hypotheses, empty ones included, over two characters or two words, and the
packed LCS one to six sequences.
"""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiref import kernels
from multiref.metrics import rouge_n

import oracles

ALPHABET = ["a", "bb", "c", "猫", "e e"]  # multi-char and non-ASCII tokens

tokens = st.lists(st.sampled_from(ALPHABET), max_size=12)
orders = st.integers(1, 8)
# chrF sees text with its whitespace already stripped.
chars = st.lists(st.sampled_from(["a", "bb", "c", "猫"]), max_size=12).map("".join)
long_tokens = st.lists(st.sampled_from(ALPHABET[:3]), max_size=150)
repeating_chars = st.lists(st.sampled_from(["a", "b"]), max_size=40).map("".join)


def profile(seq):
    return kernels.Profile(tuple(seq), 8)


def grams_of(key, n):
    """The n-gram an occurrence key stands for: its first n units."""
    return key[:n]


@given(st.one_of(tokens, chars, repeating_chars))
@example("")
@example([])
def test_ngram_counts_matches_oracle(seq):
    """Profile.keys and Profile.totals, for every order up to 8.

    A list of tokens is profiled as a tuple, with tuple keys; a string is
    profiled as chrF passes it, with string keys. Per order, the keys are
    distinct, each n-gram stands behind as many keys as it occurs, the keys of
    exactly n units are the distinct n-grams, and they come first, in the
    order of a sliding window.
    """
    if isinstance(seq, str):
        counted = kernels.Profile(seq, 8)
        key = "".join
    else:
        counted = profile(seq)
        key = tuple
    assert len(counted.keys) == len(counted.totals) == 8
    for n in range(1, 9):
        grams = [key(gram) for gram in oracles.ngram_list(list(seq), n)]
        keys = counted.keys[n - 1]
        distinct = list(dict.fromkeys(grams))
        assert len(set(keys)) == len(keys) == len(grams) == counted.totals[n - 1]
        assert Counter(grams_of(k, n) for k in keys) == Counter(grams)
        assert [k for k in keys if len(k) == n] == keys[: len(distinct)] == distinct


# Digits, so that a repeat mark (the string of its occurrence number) could
# be mistaken for text if keys were not distinct by construction.
digit_chars = st.lists(st.sampled_from(["1", "2", "12", "a"]), max_size=40).map("".join)
digit_tokens = st.lists(st.sampled_from(["1", "2", "a", "12"]), max_size=40)


@given(st.one_of(digit_chars, digit_tokens), orders)
@example("1" * 12 + "11" * 3, 2)  # "1" + "11" and "11" + "1" must stay apart
def test_no_two_occurrence_keys_of_one_order_are_equal(seq, max_order):
    counted = kernels.Profile(seq if isinstance(seq, str) else tuple(seq), max_order)
    for keys in counted.keys:
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("seq, max_order", [("a" * 2000, 6), (("the",) * 500, 4)], ids=["chars", "words"])
def test_repeat_keys_stay_short(seq, max_order):
    """A text of one repeated unit: its keys grow with the digits of the count, not the count."""
    counted = kernels.Profile(seq, max_order)
    for n, keys in enumerate(counted.keys, 1):
        assert max(map(len, keys)) <= n + len(str(len(seq)))


@given(tokens, tokens, orders)
def test_overlap_matches_oracle(a, b, n):
    """Two texts share as many occurrence keys of an order as their clipped n-gram overlap."""
    a_grams = oracles.ngram_list(a, n)
    b_grams = oracles.ngram_list(b, n)
    expected = sum(min(a_grams.count(g), b_grams.count(g)) for g in set(a_grams))
    assert len(set(profile(a).keys[n - 1]) & set(profile(b).keys[n - 1])) == expected
    assert kernels.matches(profile(a), kernels.clip_table([profile(b)], 8))[n - 1] == expected


@given(tokens, st.lists(tokens, min_size=1, max_size=4), orders)
def test_clip_table_matches_oracle(hyp, refs, max_order):
    """Per order, the union clip holds each n-gram as often as the reference holding it most."""
    table = kernels.clip_table([profile(ref) for ref in refs], max_order)
    assert len(table) == max_order
    for n in range(1, max_order + 1):
        grams = {g for ref in refs for g in oracles.ngram_list(ref, n)}
        best = {g: max(oracles.ngram_list(ref, n).count(g) for ref in refs) for g in grams}
        assert Counter(grams_of(k, n) for k in table[n - 1]) == best
        assert kernels.matches(profile(hyp), table)[n - 1] == oracles.clipped_matches(hyp, refs, n)


# Two symbols, so that n-grams repeat on both sides of most pairs.
binary = st.lists(st.sampled_from(["a", "b"]), max_size=16)


@given(binary, st.lists(binary, min_size=1, max_size=8), orders)
def test_clip_table_grown_one_reference_at_a_time(hyp, refs, max_order):
    """A clip table grown in place equals the union clip of each prefix of the references."""
    profiles = [profile(ref) for ref in refs]
    grown = kernels.clip_table([], max_order)
    for k, ref in enumerate(profiles, 1):
        assert kernels.clip_table([ref], max_order, grown) is grown
        assert grown == kernels.clip_table(profiles[:k], max_order)
        assert kernels.matches(profile(hyp), grown) == [
            oracles.clipped_matches(hyp, refs[:k], n) for n in range(1, max_order + 1)
        ]


@given(binary, st.lists(binary, min_size=1, max_size=5), orders)
@example(["a"] * 4, [["a"] * 2, ["a"] * 3], 2)  # hyp repeats more than every reference
@example(["a", "b", "a"], [["a", "a"], ["b", "b"]], 1)  # each reference repeats a different symbol
def test_matches_matches_oracle(hyp, refs, max_order):
    """`matches` of a hypothesis against the clip table of one reference and of 1-5."""
    hyp_profile = kernels.Profile(tuple(hyp), max_order)
    ref_profiles = [kernels.Profile(tuple(ref), max_order) for ref in refs]
    order_range = range(1, max_order + 1)
    assert kernels.matches(hyp_profile, kernels.clip_table(ref_profiles[:1], max_order)) == [
        oracles.clipped_matches(hyp, refs[:1], n) for n in order_range
    ]
    assert kernels.matches(hyp_profile, kernels.clip_table(ref_profiles, max_order)) == [
        oracles.clipped_matches(hyp, refs, n) for n in order_range
    ]
    last = kernels.clip_table(ref_profiles[-1:], max_order)
    for n in order_range:
        assert kernels.matches(hyp_profile, last)[n - 1] == oracles.clipped_matches(hyp, refs[-1:], n)


binary_text = st.lists(st.sampled_from("ab"), max_size=16).map("".join)
binary_words = st.lists(st.sampled_from(["a", "bb"]), max_size=16)


def packed_counts(hyps, ref, max_order):
    def profile(text):  # a string, or a list of words profiled as a tuple
        return kernels.Profile(text if isinstance(text, str) else tuple(text), max_order)

    return kernels.PackedHypotheses([profile(hyp) for hyp in hyps]).matches(profile(ref))


def oracle_counts(hyps, ref, max_order):
    if isinstance(ref, str):
        return [
            [match for match, _, _ in oracles.chrf_pair_counts(hyp, ref, max_order)] for hyp in hyps
        ]
    return [[oracles.clipped_matches(hyp, [ref], n) for n in range(1, max_order + 1)] for hyp in hyps]


# Character strings, or word lists profiled as tuples, whose repeat keys are `gram + (k,)`.
packed_inputs = (st.tuples(st.lists(binary_text, min_size=1, max_size=8), binary_text)
                 | st.tuples(st.lists(binary_words, min_size=1, max_size=8), binary_words))


@given(packed_inputs, orders)
@example((["ab", "b"], "ab"), 1)  # a field filled to its width: 2 matches in 2 bits
@example((["", "aaaa", ""], "aaaa"), 3)  # empty hypotheses around a full field
@example(([""], "ab"), 2)  # every hypothesis empty: zero-width fields
@example(([["a", "bb"], ["bb"]], ["a", "bb"]), 1)  # the same three, in words
@example(([[], ["a"] * 4, []], ["a"] * 4), 3)
@example(([[]], ["a", "bb"]), 2)
def test_packed_counts_match_oracle(inputs, max_order):
    """One packed pass gives each hypothesis's min-count sums against the reference, per order."""
    hyps, ref = inputs
    assert packed_counts(hyps, ref, max_order) == oracle_counts(hyps, ref, max_order)


@pytest.mark.parametrize(
    "hyps, ref, max_order",
    [(["ab", "b"], "ab", 1), (["", "aaaa", ""], "aaaa", 3), (["a"], "a", 1),
     ([["a", "bb"], ["bb"]], ["a", "bb"], 1), ([[], ["a"] * 4, []], ["a"] * 4, 3)],
)
def test_packed_counts_need_the_full_field_width(monkeypatch, hyps, ref, max_order):
    """One bit less than `field_width` lets a full field carry into the next and miscount."""
    assert packed_counts(hyps, ref, max_order) == oracle_counts(hyps, ref, max_order)
    width = kernels.field_width
    monkeypatch.setattr(kernels, "field_width", lambda profiles: width(profiles) - 1)
    assert packed_counts(hyps, ref, max_order) != oracle_counts(hyps, ref, max_order)


@given(st.integers(0, 12), st.lists(st.integers(0, 12), min_size=1, max_size=5))
@example(2, [3, 1])  # closest-length tie: the shorter wins
def test_ref_len_matches_oracle(hyp_len, ref_lens):
    for mode in ("closest", "shortest"):
        assert kernels.ref_len(hyp_len, ref_lens, mode) == oracles.effective_ref_len(
            hyp_len, ref_lens, mode
        )


@given(tokens, st.lists(tokens, min_size=1, max_size=4), orders)
@example(["a", "a"], [["a"] * 3, ["a"]], 2)  # closest-length tie: the shorter wins
def test_bleu_segment_stats_matches_oracle(hyp, refs, max_order):
    matched, totals, hyp_len, closest, shortest = kernels.bleu_segment_stats(
        hyp, refs, max_order
    )
    order_range = range(1, max_order + 1)
    assert matched == [oracles.clipped_matches(hyp, refs, n) for n in order_range]
    assert totals == [len(oracles.ngram_list(hyp, n)) for n in order_range]
    assert hyp_len == len(hyp)
    ref_lens = [len(ref) for ref in refs]
    assert closest == oracles.effective_ref_len(len(hyp), ref_lens, "closest")
    assert shortest == oracles.effective_ref_len(len(hyp), ref_lens, "shortest")


@given(tokens, tokens, orders)
def test_rouge_overlap_matches_oracle(hyp, ref, n):
    """rouge_n's precision and recall: the clipped overlap over each side's n-grams."""
    hyp_grams = oracles.ngram_list(hyp, n)
    ref_grams = oracles.ngram_list(ref, n)
    overlap = sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))
    detail = rouge_n(hyp, [ref], n).detail
    assert detail["precision"] == (overlap / len(hyp_grams) if hyp_grams else 0.0)
    assert detail["recall"] == (overlap / len(ref_grams) if ref_grams else 0.0)


@given(chars | repeating_chars, chars | repeating_chars, orders)
@example("aaaa", "aa", 3)  # "a" and "aa" repeat on both sides, with different counts
def test_chrf_segment_stats_matches_oracle(hyp, ref, n_max):
    match, hyp_total, ref_total = kernels.chrf_segment_stats(hyp, ref, n_max)
    assert list(zip(match, hyp_total, ref_total)) == oracles.chrf_pair_counts(hyp, ref, n_max)


@given(tokens | long_tokens, tokens | long_tokens)
@example([], ["a"] * 70)  # an empty side
@example(["a"] * 70, [])
@example(["a"] * 100, ["a"] * 90)  # all tokens equal
@example(["c", "a"] * 20, ["a", "bb", "c"] * 30)  # b spans two 64-bit words
def test_lcs_length_matches_oracle(a, b):
    assert kernels.lcs_length(a, b) == oracles.lcs_table(a, b)


def lcs_sequences(symbols):
    """Short sequences, empty ones included, or ones longer than a 64-bit word."""
    symbol = st.sampled_from(symbols)
    return st.lists(symbol, max_size=12) | st.lists(symbol, min_size=65, max_size=80)


lcs_sequence = lcs_sequences(["a", "b"]) | lcs_sequences(["a", "b", "c"])


@given(lcs_sequence, st.lists(lcs_sequence, min_size=1, max_size=6))
@example(["a"], [["a", "a"], ["a"], ["b", "a", "b"]])  # a carry out of field 1 must stop in its guard bit
@example(["a"] * 70, [[], ["a"] * 70, [], ["b"]])  # empty fields around a full one
def test_packed_lcs_matches_oracle(a, seqs):
    """One packed pass gives the LCS length of `a` and every packed sequence, one per field."""
    assert kernels.PackedLcs(seqs).lengths(a) == [oracles.lcs_table(a, b) for b in seqs]


def test_empty_refs_rejected():
    with pytest.raises(ValueError):
        kernels.bleu_segment_stats(["a"], [], 4)


def test_only_backend_is_pure():
    assert kernels.active_backend() == "pure"
