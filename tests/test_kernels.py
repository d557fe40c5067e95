"""The counting kernels, each checked against the brute-force oracles.

Tokens are drawn from a small alphabet with multi-character and non-ASCII
entries, so that n-grams repeat; sequences may be empty and orders may be
longer than the input.
"""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiref import kernels

import oracles

ALPHABET = ["a", "bb", "c", "猫", "e e"]  # multi-char and non-ASCII tokens

tokens = st.lists(st.sampled_from(ALPHABET), max_size=12)
orders = st.integers(1, 8)
# chrF sees text with its whitespace already stripped.
chars = st.lists(st.sampled_from(["a", "bb", "c", "猫"]), max_size=12).map("".join)


@given(tokens, orders)
def test_ngram_counts_matches_oracle(seq, n):
    assert kernels.ngram_counts(seq, n) == Counter(oracles.ngram_list(seq, n))


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
    hyp_grams = oracles.ngram_list(hyp, n)
    ref_grams = oracles.ngram_list(ref, n)
    overlap = sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))
    assert kernels.rouge_overlap(hyp, ref, n) == (overlap, len(hyp_grams), len(ref_grams))


@given(chars, chars, orders)
def test_chrf_segment_stats_matches_oracle(hyp, ref, n_max):
    match, hyp_total, ref_total = kernels.chrf_segment_stats(hyp, ref, n_max)
    assert list(zip(match, hyp_total, ref_total)) == oracles.chrf_pair_counts(hyp, ref, n_max)


@given(tokens, tokens)
def test_lcs_length_matches_oracle(a, b):
    assert kernels.lcs_length(a, b) == oracles.lcs_table(a, b)


def test_empty_refs_rejected():
    with pytest.raises(ValueError):
        kernels.bleu_segment_stats(["a"], [], 4)


def test_zero_order_rejected():
    with pytest.raises(ValueError):
        kernels.ngram_counts(["a"], 0)


def test_only_backend_is_pure():
    assert kernels.active_backend() == "pure"
