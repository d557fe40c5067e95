"""Diversity statistics and diversity-aware selection of reference candidates.

A candidate's diversity score is its BLEU against all sibling candidates
taken jointly as a multi-reference set; low scores mean high diversity.
Selection keeps candidates scoring strictly below a threshold, computed in a
single pass over the full input set.

Self-BLEU is computed from one count of occurrence keys per n-gram order and
candidate set, so its cost is linear in the candidates' n-grams: each
candidate is profiled once, and its leave-one-out match is the number of its
occurrence keys that some other candidate also holds. Its brevity-penalty
reference length is BLEU's own, `kernels.ref_len` over the other
candidates' lengths, asked once per distinct length.
"""

import math
from collections import Counter
from itertools import chain, repeat
from operator import ge

from . import kernels

# bleu_sentence is no longer called here; it stays importable under this
# module's name because pipebench/tracer.py wraps it.
from .metrics import BleuConfig, CorpusStats, _bleu_from_stats, bleu_sentence  # noqa: F401
from .records import record
from .textproc import tokenize_words, tokens_of

#: Default selection threshold.
DEFAULT_SELF_BLEU_THRESHOLD = 35.0
#: Default n-gram order of the distinct-n ratio.
DEFAULT_DISTINCT_N = 6


class CandidateSet(record("CandidateSet", "segment_id candidates")):
    """Ordered reference candidates for one segment."""

    __slots__ = ()

    def __new__(cls, segment_id: str, candidates: tuple[str, ...]):
        if not candidates:
            raise ValueError("candidate set must not be empty")
        return tuple.__new__(cls, (segment_id, candidates))


class DiversityReport(record("DiversityReport", "distinct_n n unique_tokens")):
    """Lexical-diversity summary of a candidate or output corpus."""

    __slots__ = ()

    def __new__(cls, distinct_n: float, n: int, unique_tokens: int):
        if not 0.0 <= distinct_n <= 1.0:
            raise ValueError(f"distinct_n out of [0, 1]: {distinct_n}")
        return tuple.__new__(cls, (distinct_n, n, unique_tokens))


def self_bleu(candidates, cfg: BleuConfig | None = None) -> list[float]:
    """Score each candidate against all others jointly as its reference set.

    Equal to `bleu_sentence(c_i, candidates without c_i, cfg)` for every i,
    but each candidate's n-grams are counted once: per order, candidate i's
    match is the number of its occurrence keys that at least two candidates
    hold, read from one `Counter` over every candidate's keys.
    """
    cfg = cfg or BleuConfig()
    if len(candidates) < 2:
        raise ValueError("self-BLEU needs at least two candidates")
    profiles = [kernels.Profile(tokens_of(c), cfg.max_order) for c in candidates]
    holders = [Counter(chain.from_iterable(keys)) for keys in zip(*[p.keys for p in profiles])]
    matched = [
        [sum(map(ge, map(table.__getitem__, keys), repeat(2))) for table, keys in zip(holders, p.keys)]
        for p in profiles
    ]
    lengths = [len(profile.tokens) for profile in profiles]
    ref_lens = _leave_one_out_ref_lens(lengths, cfg.effective_ref_length)
    return [
        _bleu_from_stats(
            CorpusStats(
                matched=matched[i],
                totals=profiles[i].totals,
                hyp_len=length,
                ref_len=ref_lens[i],
            ),
            cfg,
        ).value
        for i, length in enumerate(lengths)
    ]


def _leave_one_out_ref_lens(lengths: list[int], mode: str) -> list[int]:
    """`kernels.ref_len(lengths[i], lengths without item i, mode)` for every i, once per distinct length.

    A length's others are the other distinct lengths, and itself when it occurs twice.
    """
    counts = Counter(lengths)
    table = {
        length: kernels.ref_len(length, [other for other in counts if other != length or count > 1], mode)
        for length, count in counts.items()
    }
    return [table[length] for length in lengths]


def check_threshold(threshold: float) -> None:
    """Reject a NaN threshold, which no score is below and which would keep only the argmin."""
    if math.isnan(threshold):
        raise ValueError("selection threshold must be a number, got nan")


def selection_survivors(
    scores: list[float], threshold: float = DEFAULT_SELF_BLEU_THRESHOLD
) -> list[int]:
    """Indices scoring strictly below the threshold; argmin fallback if none do."""
    kept = [i for i, s in enumerate(scores) if s < threshold]
    if not kept:
        kept = [min(range(len(scores)), key=lambda i: (scores[i], i))]
    return kept


def score_and_select(
    texts,
    threshold: float = DEFAULT_SELF_BLEU_THRESHOLD,
    lowercase: bool = False,
    cfg: BleuConfig | None = None,
) -> tuple[list[float], list[int]]:
    """Self-BLEU of raw candidate texts and the indices that survive selection.

    Each text is word-tokenized once. A single candidate has no siblings to
    score against: it gets no scores and is kept (`([], [0])`).
    """
    check_threshold(threshold)
    if len(texts) == 1:
        return [], [0]
    scores = self_bleu([tokenize_words(t, lowercase=lowercase) for t in texts], cfg)
    return scores, selection_survivors(scores, threshold)


def select_diverse(
    cset: CandidateSet,
    threshold: float = DEFAULT_SELF_BLEU_THRESHOLD,
    cfg: BleuConfig | None = None,
    lowercase: bool = False,
) -> CandidateSet:
    """Keep candidates whose diversity score beats the threshold.

    Scores are computed once on the full input set (no recomputation after
    removals). If everything is filtered out, the single lowest-scoring
    candidate is retained (earliest index on ties). A single-candidate set is
    returned unchanged.
    """
    _, kept = score_and_select(cset.candidates, threshold, lowercase, cfg)
    return CandidateSet(cset.segment_id, tuple(cset.candidates[i] for i in kept))


def distinct_n(corpus, n: int = DEFAULT_DISTINCT_N) -> float:
    """Distinct n-grams divided by total n-gram occurrences across the corpus."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    seen = set()
    total = 0
    for seq in corpus:
        profile = kernels.Profile(tokens_of(seq), n)
        # A repeat's occurrence key is longer than n tokens; the others are the distinct n-grams.
        seen.update(key for key in profile.keys[n - 1] if len(key) == n)
        total += profile.totals[n - 1]
    return len(seen) / total if total else 0.0


def unique_tokens(corpus) -> int:
    """Size of the token vocabulary of the corpus."""
    vocab = set()
    for seq in corpus:
        vocab.update(tokens_of(seq))
    return len(vocab)


def diversity_report(corpus: list[tuple[str, ...]], n: int = DEFAULT_DISTINCT_N) -> DiversityReport:
    """Bundle DistinctN and unique-token counts for one corpus."""
    return DiversityReport(
        distinct_n=distinct_n(corpus, n),
        n=n,
        unique_tokens=unique_tokens(corpus),
    )
