"""The one counting module behind every metric.

`Profile` holds one text's tokens and its n-gram counts; its constructor is
the only place in the package that slides an n-gram window. Everything else
compares profiles: `overlap` (clipped overlap of two count tables),
`clip_table` (multi-reference clipping), `ref_len` (the brevity-penalty
reference length), `chrf_stats` (character n-gram statistics of a pair) and
`lcs_length`. `bleu_segment_stats` and `chrf_segment_stats` compose them for
one segment given as plain token sequences.

Callers look the segment functions and `lcs_length` up as module attributes
(``kernels.lcs_length(...)``) so that tracing and tests can wrap them here.
tests/test_kernels.py checks each helper against the brute-force oracles in
tests/oracles.py.
"""

from collections import Counter


def active_backend() -> str:
    """Always "pure"; kept only because pipebench records it in its results."""
    return "pure"


class Profile:
    """One text's tokens and its n-gram counts for orders 1..max_order.

    `tokens` is a tuple of tokens or, at character level, a string, so that
    its slices are hashable n-gram keys. `counts[n - 1]` counts order n.
    """

    __slots__ = ("tokens", "counts")

    def __init__(self, tokens, max_order: int):
        self.tokens = tokens
        self.counts = [
            Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))
            for n in range(1, max_order + 1)
        ]

    def total(self, n: int) -> int:
        """Number of n-grams of order n."""
        return max(0, len(self.tokens) - n + 1)


def overlap(a, b) -> int:
    """Clipped overlap of two n-gram count tables: the sum of min counts."""
    common = a.keys() & b.keys()
    return sum(map(min, map(a.__getitem__, common), map(b.__getitem__, common)))


def clip_table(refs, max_order: int) -> list[dict]:
    """Per order, the maximum count of each n-gram in any single reference profile."""
    table = [dict(counts) for counts in refs[0].counts[:max_order]]
    for ref in refs[1:]:
        for clip, counts in zip(table, ref.counts):
            for gram, count in counts.items():
                if count > clip.get(gram, 0):
                    clip[gram] = count
    return table


def ref_len(hyp_len: int, ref_lens, mode: str) -> int:
    """The brevity-penalty reference length.

    "closest" minimizes the distance to `hyp_len`, ties toward the shorter
    length; "shortest" takes the minimum.
    """
    if mode == "closest":
        return min(ref_lens, key=lambda length: (abs(length - hyp_len), length))
    return min(ref_lens)


def chrf_stats(hyp: Profile, ref: Profile):
    """(match, hyp_total, ref_total), each a list indexed by order-1."""
    orders = range(1, len(hyp.counts) + 1)
    return (
        [overlap(h, r) for h, r in zip(hyp.counts, ref.counts)],
        [hyp.total(n) for n in orders],
        [ref.total(n) for n in orders],
    )


def bleu_segment_stats(hyp, refs, max_order):
    """Clipped n-gram match statistics of one hypothesis against its references.

    Per order n, the match count caps each hypothesis n-gram at the maximum
    count observed in any single reference. Returns
    (matched, totals, hyp_len, closest_ref_len, shortest_ref_len) where
    matched/totals are lists indexed by order-1 and closest_ref_len breaks
    ties toward the shorter reference.
    """
    refs = [Profile(tuple(ref), max_order) for ref in refs]
    if not refs:
        raise ValueError("refs must be non-empty")
    hyp = Profile(tuple(hyp), max_order)
    hyp_len = len(hyp.tokens)
    ref_lens = [len(ref.tokens) for ref in refs]
    return (
        [overlap(h, clip) for h, clip in zip(hyp.counts, clip_table(refs, max_order))],
        [hyp.total(n) for n in range(1, max_order + 1)],
        hyp_len,
        ref_len(hyp_len, ref_lens, "closest"),
        min(ref_lens),
    )


def chrf_segment_stats(hyp, ref, n_max):
    """Character n-gram overlap between two whitespace-stripped strings.

    Returns (match, hyp_total, ref_total), each a list indexed by order-1.
    """
    return chrf_stats(Profile(hyp, n_max), Profile(ref, n_max))


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
