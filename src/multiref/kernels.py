"""The one counting module behind every metric.

`Profile` holds one text's tokens and, per order, its n-gram counts, their
number (`totals`) and the part of each count above 1 (`excess`), all filled
once when the profile is built. Its constructor is the only place in the
package that forms n-grams: it takes the order-1 units once and builds each
order n from order n - 1, extending every n-gram by the unit that follows it,
so each n-gram costs one concatenation. Everything else compares profiles:
`matches`, `clip_table`, `ref_len` (the brevity-penalty reference length)
and `lcs_length`.

`matches` is the one clipped match count: BLEU (joint and per reference),
ROUGE-N and chrF all count through it. An n-gram on both sides adds
min(a, b) = 1 + min(a - 1, b - 1), and the second term is 0 unless it
repeats on both sides, so per order the match is one set intersection plus
the `overlap` of the two `excess` tables, taken only when both sides repeat
something. A `ClipTable` holds just what `matches` reads of a reference
set: per order, the n-grams any reference holds and the largest excess of
each repeated one. `lcs_length` is the bit-parallel LCS length of Allison &
Dix (1986) and Hyyrö (2004): one Python int holds a whole row of the LCS
table. Nothing here is cached between calls, and there is no flag or
alternative implementation.

`bleu_segment_stats` and `chrf_segment_stats` compose the helpers for one
segment given as plain token sequences. Nothing in the package calls them:
every metric, the public sentence and corpus functions included, runs on
`metrics.MultiRefScorer`. They remain only because pipebench/tracer.py
wraps them, and tests/test_kernels.py checks them against the oracles.

Callers look `lcs_length` up as a module attribute
(``kernels.lcs_length(...)``) so that tracing and tests can wrap it here.
tests/test_kernels.py checks each helper against the brute-force oracles in
tests/oracles.py.
"""

from collections import Counter, namedtuple
from operator import add


def active_backend() -> str:
    """Always "pure"; kept only because pipebench records it in its results."""
    return "pure"


class Profile:
    """One text's tokens and its n-gram statistics for orders 1..max_order.

    `tokens` is a tuple of tokens or, at character level, a string; an
    n-gram key is then a tuple of n tokens or a string of n characters, equal
    to the slice `tokens[i : i + n]`. Each list is indexed by order-1:
    `counts` counts the n-grams, `totals` holds their number, and `excess`
    maps each n-gram that repeats to its count minus 1, which `matches`
    needs on its own. All are filled once here; callers must not mutate them.
    """

    __slots__ = ("tokens", "counts", "totals", "excess")

    def __init__(self, tokens, max_order: int):
        self.tokens = tokens
        # Order 1 holds each unit as a key (a character, or a 1-tuple); order n
        # extends each n-gram of order n - 1 by the unit n - 1 places on, one
        # C-level concatenation per n-gram, in the same order as a sliding window.
        units = list(tokens) if isinstance(tokens, str) else list(zip(tokens))
        grams = units
        self.counts, self.totals = [], []
        for n in range(1, max_order + 1):
            if n > 1:
                grams = list(map(add, grams, units[n - 1 :]))
            self.counts.append(Counter(grams))
            self.totals.append(len(grams))
        # Most higher orders have no repeats; skip their scan, which BLEU
        # profiles (built in bulk by `select`) would pay for nothing.
        self.excess = [
            {gram: count - 1 for gram, count in counts.items() if count > 1}
            if len(counts) < total
            else {}
            for counts, total in zip(self.counts, self.totals)
        ]


def overlap(a, b) -> int:
    """Clipped overlap of two n-gram count tables: the sum of min counts."""
    common = a.keys() & b.keys()
    return sum(map(min, map(a.__getitem__, common), map(b.__getitem__, common)))


def matches(a, b, orders: slice = slice(None)) -> list[int]:
    """Per order, the clipped match count of `a` against `b`: the sum of min counts.

    Both hold `counts` and `excess` lists indexed by order-1: `a` is a
    `Profile`, `b` a `Profile` or a `ClipTable` (whose `counts` are sets).
    `orders` slices the orders counted; by default, all that both hold.
    """
    match = []
    for a_counts, b_counts, a_excess, b_excess in zip(
        a.counts[orders], b.counts[orders], a.excess[orders], b.excess[orders]
    ):
        shared = len(a_counts.keys() & b_counts)
        if a_excess and b_excess:
            shared += overlap(a_excess, b_excess)
        match.append(shared)
    return match


#: Several reference profiles as one `matches` operand (see `clip_table`).
ClipTable = namedtuple("ClipTable", ["counts", "excess"])


def clip_table(refs, max_order: int) -> ClipTable:
    """The references' n-grams and largest excesses, for orders 1..max_order.

    Per order, `counts` is the set of n-grams any reference holds, and
    `excess` maps each n-gram that repeats in some reference to its largest
    count minus 1; only repeated n-grams are visited.
    """
    counts = [set().union(*[ref.counts[i] for ref in refs]) for i in range(max_order)]
    excess = [{} for _ in range(max_order)]
    for ref in refs:
        for clip, ref_excess in zip(excess, ref.excess):
            for gram, extra in ref_excess.items():
                if extra > clip.get(gram, 0):
                    clip[gram] = extra
    return ClipTable(counts, excess)


def ref_len(hyp_len: int, ref_lens, mode: str) -> int:
    """The brevity-penalty reference length.

    "closest" minimizes the distance to `hyp_len`, ties toward the shorter
    length; "shortest" takes the minimum.
    """
    if mode == "closest":
        return min(ref_lens, key=lambda length: (abs(length - hyp_len), length))
    return min(ref_lens)


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
        matches(hyp, clip_table(refs, max_order)),
        hyp.totals,
        hyp_len,
        ref_len(hyp_len, ref_lens, "closest"),
        min(ref_lens),
    )


def chrf_segment_stats(hyp, ref, n_max):
    """Character n-gram overlap between two whitespace-stripped strings.

    Returns (match, hyp_total, ref_total), each a list indexed by order-1.
    """
    hyp, ref = Profile(hyp, n_max), Profile(ref, n_max)
    return matches(hyp, ref), hyp.totals, ref.totals


def lcs_length(a, b):
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit j of `v` is 0 where
    the current row of the LCS table steps up from column j to j + 1. Each
    token of `a` updates the whole row with a few operations on one Python
    int of len(b) bits, however long `b` is, and the LCS length is the
    number of 0 bits.
    """
    masks = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()
