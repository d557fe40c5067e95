"""The one counting module behind every metric.

`Profile` holds one text's tokens and, per order, its n-gram *occurrence
keys* and their number (`totals`), filled once when the profile is built: each
distinct n-gram once, as itself, and one distinct key for each repeat. Its
constructor is the only place in the package that forms n-grams: it takes the
order-1 units once and builds each order n from order n - 1, extending every
n-gram by the unit that follows it, so each n-gram costs one concatenation.

Every clipped match is counted on these keys. The clipped count min(a, b) of
an n-gram is the number of its occurrence keys both sides hold. Against one
reference, `PackedHypotheses` counts every hypothesis of a segment at once:
each owns a bit field of one int per occurrence key, so one sum over the
reference's keys counts every hypothesis's matches; chrF, ROUGE-N and
per-reference BLEU count through it. Against several references, joint BLEU
clips at the plain union of their keys (`clip_table`), so `matches` is one set
intersection per order. `ref_len` is the brevity-penalty reference length.
`PackedLcs` is the bit-parallel LCS length of Allison & Dix (1986) and Hyyrö
(2004) for several sequences at once: one Python int holds a row of the LCS
table of every sequence, each in its own bit field, so ROUGE-L makes one pass
per hypothesis over all of a segment's references. `lcs_length` is its
one-field case. Nothing here is cached between calls, and there is no flag or
alternative implementation.

Nothing in the package calls `bleu_segment_stats`, `chrf_segment_stats` and
`lcs_length`; they remain only because pipebench/tracer.py wraps them.
Callers look up `PackedLcs`, `PackedHypotheses` and `clip_table` as module
attributes so that tests can wrap them here. tests/test_kernels.py checks each helper against tests/oracles.py.
"""

from collections import Counter
from itertools import repeat
from operator import add

from .records import check_count


#: The largest n-gram order any metric counts. The defaults are 4 (BLEU) and 6
#: (chrF, distinct-n), so 32 leaves room for any order in use. `Profile` and
#: the BLEU statistics cost time and lists in proportion to the order, and an
#: order of 10**9 never finished; at 32, a 40-segment corpus with 4 systems
#: and 41 references each scores bleu, spbleu, chrf and rougeL in about 5 s,
#: against about 1 s at the default orders.
MAX_ORDER = 32


def check_order(n: int, name: str) -> None:
    """Reject an n-gram order that is not an integer in 1..MAX_ORDER: `records.check_count`, naming it `name`."""
    check_count(n, name, 1, MAX_ORDER)


def active_backend() -> str:
    """Always "pure"; kept only because pipebench records it in its results."""
    return "pure"


class Profile:
    """One text's tokens and its n-gram occurrence keys for orders 1..max_order.

    `tokens` is a tuple of tokens or, at character level, a string; an
    n-gram is then a tuple of n tokens or a string of n characters, equal to
    the slice `tokens[i : i + n]`. Each list is indexed by order-1: `keys`
    holds a list of the order's occurrence keys, no two equal, and `totals`
    their number. The first occurrences come first, in the order of a sliding
    window; the k-th occurrence of an n-gram is `gram + str(k)` for a string
    and `gram + (k,)` for a tuple, so the keys of exactly n units are the
    distinct n-grams and `key[:n]` is the n-gram of any key. The suffixes are
    made once per profile, so a repeat key costs one concatenation and is at
    most a few units longer than its n-gram. Callers must not mutate the lists.
    """

    __slots__ = ("tokens", "keys", "totals")

    def __init__(self, tokens, max_order: int):
        self.tokens = tokens
        text = isinstance(tokens, str)
        # Order 1 holds each unit as a key (a character, or a 1-tuple); order n
        # extends each n-gram of order n - 1 by the unit n - 1 places on, one
        # C-level concatenation per n-gram, in the same order as a sliding window.
        units = list(tokens) if text else list(zip(tokens))
        grams = units
        self.keys, self.totals = [], []
        repeats = True
        for n in range(1, max_order + 1):
            if n > 1:
                grams = list(map(add, grams, units[n - 1 :]))
            keys = grams
            # A repeated n-gram extends a repeated (n - 1)-gram, so from the
            # first order without repeats on, the n-grams are the keys.
            if repeats:
                counts = Counter(grams)
                repeats = len(counts) < len(grams)
            if repeats:
                if n == 1:
                    # No n-gram occurs more often than the most frequent unit.
                    ks = range(max(counts.values()) + 1)
                    suffixes = list(map(str, ks)) if text else list(zip(ks))
                keys = list(counts)
                keys += [gram + suffixes[k] for gram, count in counts.items() if count > 1
                         for k in range(2, count + 1)]
            self.keys.append(keys)
            self.totals.append(len(grams))


def clip_table(refs, max_order: int, table: list[set] | None = None) -> list[set]:
    """Per order 1..max_order, the union of the references' occurrence keys.

    It caps each n-gram at its largest count in any one reference. Given a
    `table`, adds the references' keys to it in place and returns it.
    """
    if table is None:
        table = [set() for _ in range(max_order)]
    for ref in refs:
        for keys, ref_keys in zip(table, ref.keys):
            keys.update(ref_keys)
    return table


def matches(hyp: Profile, table: list[set]) -> list[int]:
    """Clipped match count per order both hold: `hyp`'s keys in `table`."""
    return [len(keys.intersection(hyp_keys)) for keys, hyp_keys in zip(table, hyp.keys)]


def field_width(hyps) -> int:
    """Bits per packed hypothesis: those of the largest order-1 total, which no match exceeds."""
    return max((hyp.totals[0] for hyp in hyps), default=0).bit_length()


class PackedHypotheses:
    """Several hypothesis profiles, counted against a reference in one pass per order.

    Per order, `tables` maps each occurrence key of any hypothesis to the sum
    of 1 << (`width` * i) over the hypotheses i that hold it. Summing the
    table over a reference's keys then adds, in field i, the number of keys
    hypothesis i shares with the reference: its clipped match count.
    """

    __slots__ = ("tables", "width", "count")

    def __init__(self, hyps):
        self.width = field_width(hyps)
        self.count = len(hyps)
        self.tables = []
        for order_keys in zip(*[hyp.keys for hyp in hyps]):
            table = {}
            for i, keys in enumerate(order_keys):
                # A hypothesis's keys are distinct, so each is read before its one write.
                bits = repeat(1 << self.width * i)
                table.update(zip(keys, map(add, map(table.get, keys, repeat(0)), bits)))
            self.tables.append(table)

    def matches(self, ref: Profile) -> list[list[int]]:
        """Per hypothesis, per order, the clipped match count against `ref`."""
        packed = [sum(map(table.get, keys, repeat(0))) for table, keys in zip(self.tables, ref.keys)]
        mask = (1 << self.width) - 1
        return [[total >> self.width * i & mask for total in packed] for i in range(self.count)]


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
    (match,) = PackedHypotheses([hyp]).matches(ref)
    return match, hyp.totals, ref.totals


class PackedLcs:
    """Several token sequences, each LCS-matched against a sequence in one pass.

    Each sequence owns a bit field of its length with one guard bit above it.
    Bit j of a field of the row `v` is 0 where that sequence's row of the LCS
    table steps up from column j to j + 1, and each token of `a` updates every
    field at once with a few operations on one Python int. A carry out of a
    field in `v + u` stops in its guard bit, which `& full` clears, and
    `v - u` never borrows, since `u` holds only bits of `v`.
    """

    __slots__ = ("masks", "full", "fields")

    def __init__(self, seqs):
        self.masks = {}
        self.fields = []
        offset = 0
        for seq in seqs:
            for j, tok in enumerate(seq, offset):
                self.masks[tok] = self.masks.get(tok, 0) | 1 << j
            self.fields.append((offset, (1 << len(seq)) - 1))
            offset += len(seq) + 1
        self.full = sum(mask << shift for shift, mask in self.fields)

    def lengths(self, a) -> list[int]:
        """LCS length of `a` and each packed sequence: the 0 bits of its field."""
        masks, full = self.masks, self.full
        v = full
        for tok in a:
            u = v & masks.get(tok, 0)
            v = ((v + u) | (v - u)) & full
        steps = v ^ full
        return [(steps >> shift & mask).bit_count() for shift, mask in self.fields]


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two token sequences."""
    return PackedLcs([b]).lengths(a)[0]
