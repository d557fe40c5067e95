"""Counting kernels behind the sentence and corpus metrics.

N-gram counting, clipped multi-reference matching, character n-gram overlap,
and longest-common-subsequence length, in pure Python. Callers look the
functions up as module attributes (``kernels.lcs_length(...)``) so that
tracing and tests can wrap them here. tests/test_kernels.py checks each one
against the brute-force oracles in tests/oracles.py.
"""

from collections import Counter


def active_backend() -> str:
    """Always "pure"; kept only because pipebench records it in its results."""
    return "pure"


def ngram_counts(tokens, n):
    """Sliding-window n-gram counts as a Counter keyed by token tuples."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    tokens = tuple(tokens)
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def bleu_segment_stats(hyp, refs, max_order):
    """Clipped n-gram match statistics of one hypothesis against its references.

    Per order n, the match count caps each hypothesis n-gram at the maximum
    count observed in any single reference. Returns
    (matched, totals, hyp_len, closest_ref_len, shortest_ref_len) where
    matched/totals are lists indexed by order-1 and closest_ref_len breaks
    ties toward the shorter reference.
    """
    hyp = list(hyp)
    hyp_len = len(hyp)
    matched = [0] * max_order
    totals = [0] * max_order

    best_key = None
    shortest = None
    ref_lists = []
    for ref in refs:
        ref = list(ref)
        ref_lists.append(ref)
        rl = len(ref)
        key = (abs(rl - hyp_len), rl)
        if best_key is None or key < best_key:
            best_key = key
        if shortest is None or rl < shortest:
            shortest = rl
    if best_key is None:
        raise ValueError("refs must be non-empty")

    for n in range(1, max_order + 1):
        total = max(0, hyp_len - n + 1)
        totals[n - 1] = total
        if total == 0:
            continue
        hyp_counts = Counter(tuple(hyp[i : i + n]) for i in range(total))
        clip = {}
        for ref in ref_lists:
            ref_counts = Counter(
                tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)
            )
            for gram, count in ref_counts.items():
                if gram in hyp_counts and count > clip.get(gram, 0):
                    clip[gram] = count
        matched[n - 1] = sum(
            min(count, clip.get(gram, 0)) for gram, count in hyp_counts.items()
        )

    return matched, totals, hyp_len, best_key[1], shortest


def rouge_overlap(hyp, ref, n):
    """Clipped n-gram overlap of hypothesis and one reference.

    Returns (overlap, hyp_total, ref_total).
    """
    hyp = tuple(hyp)
    ref = tuple(ref)
    hyp_total = max(0, len(hyp) - n + 1)
    ref_total = max(0, len(ref) - n + 1)
    if hyp_total == 0 or ref_total == 0:
        return 0, hyp_total, ref_total
    hyp_counts = Counter(hyp[i : i + n] for i in range(hyp_total))
    ref_counts = Counter(ref[i : i + n] for i in range(ref_total))
    overlap = sum(min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items())
    return overlap, hyp_total, ref_total


def chrf_segment_stats(hyp, ref, n_max):
    """Character n-gram overlap between two whitespace-stripped strings.

    Returns (match, hyp_total, ref_total), each a list indexed by order-1.
    """
    match = [0] * n_max
    hyp_total = [0] * n_max
    ref_total = [0] * n_max
    for n in range(1, n_max + 1):
        ht = max(0, len(hyp) - n + 1)
        rt = max(0, len(ref) - n + 1)
        hyp_total[n - 1] = ht
        ref_total[n - 1] = rt
        if ht == 0 or rt == 0:
            continue
        hyp_counts = Counter(hyp[i : i + n] for i in range(ht))
        ref_counts = Counter(ref[i : i + n] for i in range(rt))
        match[n - 1] = sum(
            min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
        )
    return match, hyp_total, ref_total


def lcs_length(a, b):
    """Length of the longest common subsequence of two token sequences."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0] * (len(b) + 1)
        for j, tok_b in enumerate(b, 1):
            if tok_a == tok_b:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[-1]
