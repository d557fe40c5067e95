"""The counting kernels, each checked against the brute-force oracles.

Tokens are drawn from a small alphabet with multi-character and non-ASCII
entries, so that n-grams repeat; sequences may be empty and orders may be
longer than the input. The LCS, chrF and `matches` tests also draw from two
or three symbols, so that LCS bit masks span several 64-bit words and
n-grams repeat on both sides of a pair.
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


@given(st.one_of(tokens, chars, repeating_chars))
@example("")
@example([])
def test_ngram_counts_matches_oracle(seq):
    """Profile.counts, Profile.totals and Profile.excess, for every order up to 8.

    A list of tokens is profiled as a tuple, with tuple keys; a string is
    profiled as chrF passes it, with each n-gram key the string of its n
    characters. Keys must come in the order of a sliding window.
    """
    if isinstance(seq, str):
        counted = kernels.Profile(seq, 8)
        key = "".join
    else:
        counted = profile(seq)
        key = tuple
    assert len(counted.counts) == len(counted.totals) == len(counted.excess) == 8
    for n in range(1, 9):
        grams = [key(gram) for gram in oracles.ngram_list(list(seq), n)]
        assert counted.counts[n - 1] == Counter(grams)
        assert list(counted.counts[n - 1]) == list(dict.fromkeys(grams))
        assert counted.totals[n - 1] == len(grams)
        assert counted.excess[n - 1] == {
            g: grams.count(g) - 1 for g in grams if grams.count(g) > 1
        }


@given(tokens, tokens, orders)
def test_overlap_matches_oracle(a, b, n):
    a_grams = oracles.ngram_list(a, n)
    b_grams = oracles.ngram_list(b, n)
    expected = sum(min(a_grams.count(g), b_grams.count(g)) for g in set(a_grams))
    assert kernels.overlap(Counter(a_grams), Counter(b_grams)) == expected


@given(tokens, st.lists(tokens, min_size=1, max_size=4), orders)
def test_clip_table_matches_oracle(hyp, refs, max_order):
    """Per order: the n-grams of any reference, and each one's max count minus 1 where above 1."""
    table = kernels.clip_table([profile(ref) for ref in refs], max_order)
    assert len(table.counts) == len(table.excess) == max_order
    for n in range(1, max_order + 1):
        grams = {g for ref in refs for g in oracles.ngram_list(ref, n)}
        best = {g: max(oracles.ngram_list(ref, n).count(g) for ref in refs) for g in grams}
        assert table.counts[n - 1] == grams
        assert table.excess[n - 1] == {g: count - 1 for g, count in best.items() if count > 1}
        assert kernels.matches(profile(hyp), table, slice(n - 1, n)) == [
            oracles.clipped_matches(hyp, refs, n)
        ]


# Two symbols, so that n-grams repeat on both sides of most pairs.
binary = st.lists(st.sampled_from(["a", "b"]), max_size=16)


@given(binary, st.lists(binary, min_size=1, max_size=5), orders)
@example(["a"] * 4, [["a"] * 2, ["a"] * 3], 2)  # hyp repeats more than every reference
@example(["a", "b", "a"], [["a", "a"], ["b", "b"]], 1)  # each reference repeats a different symbol
def test_matches_matches_oracle(hyp, refs, max_order):
    """`matches` of a hypothesis against one reference profile and against a clip table of 1-5."""
    hyp_profile = kernels.Profile(tuple(hyp), max_order)
    ref_profiles = [kernels.Profile(tuple(ref), max_order) for ref in refs]
    order_range = range(1, max_order + 1)
    assert kernels.matches(hyp_profile, ref_profiles[0]) == [
        oracles.clipped_matches(hyp, refs[:1], n) for n in order_range
    ]
    assert kernels.matches(hyp_profile, kernels.clip_table(ref_profiles, max_order)) == [
        oracles.clipped_matches(hyp, refs, n) for n in order_range
    ]
    for n in order_range:
        assert kernels.matches(hyp_profile, ref_profiles[-1], slice(n - 1, n)) == [
            oracles.clipped_matches(hyp, refs[-1:], n)
        ]


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


def test_empty_refs_rejected():
    with pytest.raises(ValueError):
        kernels.bleu_segment_stats(["a"], [], 4)


def test_only_backend_is_pure():
    assert kernels.active_backend() == "pure"
