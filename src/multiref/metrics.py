"""Multi-reference n-gram metrics: BLEU, subword BLEU, chrF, and ROUGE.

All scores are reported on a 0-100 scale. Multi-reference handling follows
the native convention of each metric: BLEU clips each hypothesis n-gram at
the maximum count seen in any single reference, chrF scores each segment
against its best reference, and ROUGE takes the maximum F1 over references.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from . import kernels
from .textproc import tokenize_chars, tokenize_subwords, tokens_of

SMOOTHING_METHODS = ("none", "exp")
REF_LENGTH_MODES = ("closest", "shortest")


@dataclass(frozen=True)
class BleuConfig:
    """BLEU scoring knobs.

    `smoothing="exp"` is the doubling scheme: a running factor s starts at 1
    and, for each order with a zero match count, doubles before that order's
    precision is replaced by 1 / (s * total). `effective_ref_length` picks
    the brevity-penalty reference length per segment: "closest" minimizes the
    absolute length difference (ties toward the shorter reference),
    "shortest" always takes the minimum.
    """

    max_order: int = 4
    smoothing: str = "exp"
    effective_ref_length: str = "closest"

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if self.smoothing not in SMOOTHING_METHODS:
            raise ValueError(f"unknown smoothing {self.smoothing!r}")
        if self.effective_ref_length not in REF_LENGTH_MODES:
            raise ValueError(
                f"unknown effective_ref_length {self.effective_ref_length!r}"
            )


@dataclass(frozen=True)
class MetricScore:
    """A scalar metric value in [0, 100] plus per-order diagnostics."""

    value: float
    per_order: tuple[float, ...] | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"metric value must be finite, got {self.value}")
        if self.value < -1e-9 or self.value > 100.0 + 1e-9:
            raise ValueError(f"metric value out of [0, 100]: {self.value}")
        object.__setattr__(self, "value", min(max(self.value, 0.0), 100.0))
        if self.per_order is not None:
            for p in self.per_order:
                if p < -1e-12 or p > 1.0 + 1e-12:
                    raise ValueError(f"per-order entry out of [0, 1]: {p}")


@dataclass
class CorpusStats:
    """Additive sufficient statistics for corpus-level BLEU.

    Segment stats combine by summation, so corpus aggregation is an
    associative, commutative reduction.
    """

    matched: list[int]
    totals: list[int]
    hyp_len: int = 0
    ref_len: int = 0

    def __post_init__(self):
        if len(self.matched) != len(self.totals):
            raise ValueError("matched and totals must have the same length")
        for m, t in zip(self.matched, self.totals):
            if m < 0 or t < 0 or m > t:
                raise ValueError(f"invalid counts: matched={m}, total={t}")

    @classmethod
    def zero(cls, max_order: int) -> "CorpusStats":
        return cls(matched=[0] * max_order, totals=[0] * max_order)

    def __add__(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            matched=[a + b for a, b in zip(self.matched, other.matched)],
            totals=[a + b for a, b in zip(self.totals, other.totals)],
            hyp_len=self.hyp_len + other.hyp_len,
            ref_len=self.ref_len + other.ref_len,
        )


def _bleu_from_stats(stats: CorpusStats, cfg: BleuConfig) -> MetricScore:
    hyp_len, ref_len = stats.hyp_len, stats.ref_len
    if hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len) if hyp_len > 0 else 0.0
    detail = {
        "bp": bp,
        "hyp_len": float(hyp_len),
        "ref_len": float(ref_len),
        "ratio": hyp_len / ref_len if ref_len > 0 else 0.0,
    }

    precisions = [0.0] * cfg.max_order
    if any(t == 0 for t in stats.totals):
        # An order with no hypothesis n-grams leaves BLEU undefined; score 0.
        for i, (m, t) in enumerate(zip(stats.matched, stats.totals)):
            if t > 0:
                precisions[i] = m / t
        return MetricScore(0.0, tuple(precisions), detail)

    smooth = 1.0
    for i, (m, t) in enumerate(zip(stats.matched, stats.totals)):
        if m > 0:
            precisions[i] = m / t
        elif cfg.smoothing == "exp":
            smooth *= 2.0
            precisions[i] = 1.0 / (smooth * t)
    if any(p == 0.0 for p in precisions):
        return MetricScore(0.0, tuple(precisions), detail)

    log_mean = math.fsum(math.log(p) for p in precisions) / cfg.max_order
    return MetricScore(bp * math.exp(log_mean) * 100.0, tuple(precisions), detail)


def _chrf_fscore(match, hyp_total, ref_total, beta: float):
    """chrF from accumulated per-order counts.

    Orders where both sides have no n-grams are skipped; an order where only
    one side is empty (or nothing matches) contributes F=0. Returns the score
    in [0, 1] and the per-order F vector (skipped orders reported as 0).
    """
    beta2 = beta * beta
    per_order = []
    used = []
    for m, ht, rt in zip(match, hyp_total, ref_total):
        if ht == 0 and rt == 0:
            per_order.append(0.0)
            continue
        precision = m / ht if ht > 0 else 0.0
        recall = m / rt if rt > 0 else 0.0
        denom = beta2 * precision + recall
        fscore = (1.0 + beta2) * precision * recall / denom if denom > 0 else 0.0
        per_order.append(fscore)
        used.append(fscore)
    if not used:
        return 0.0, tuple(per_order), 0
    return math.fsum(used) / len(used), tuple(per_order), len(used)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _rouge_n_pr(hyp: kernels.Profile, ref: kernels.Profile, n: int) -> tuple[float, float]:
    """ROUGE-N (precision, recall) of two profiles counted to order n or beyond."""
    (match,) = kernels.matches(hyp, ref, slice(n - 1, n))
    hyp_total, ref_total = hyp.totals[n - 1], ref.totals[n - 1]
    return (
        match / hyp_total if hyp_total > 0 else 0.0,
        match / ref_total if ref_total > 0 else 0.0,
    )


def _rouge_l_pr(hyp: kernels.Profile, ref: kernels.Profile) -> tuple[float, float]:
    """ROUGE-L (precision, recall) from the longest common subsequence."""
    lcs = kernels.lcs_length(hyp.tokens, ref.tokens)
    return (
        lcs / len(hyp.tokens) if hyp.tokens else 0.0,
        lcs / len(ref.tokens) if ref.tokens else 0.0,
    )


def _best_rouge(hyp, refs, order: int, pr, *args) -> MetricScore:
    """Max F1 over the references, with the precision and recall behind it."""
    if not refs:
        raise ValueError("at least one reference is required")
    hyp = kernels.Profile(tokens_of(hyp), order)
    best_f = 0.0
    best_pr = (0.0, 0.0)
    for ref in refs:
        precision, recall = pr(hyp, kernels.Profile(tokens_of(ref), order), *args)
        fscore = _f1(precision, recall)
        if fscore > best_f:
            best_f = fscore
            best_pr = (precision, recall)
    return MetricScore(
        best_f * 100.0, None, {"precision": best_pr[0], "recall": best_pr[1]}
    )


def rouge_n(hyp, refs, n: int) -> MetricScore:
    """ROUGE-N: max clipped-overlap F1 over the reference set."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return _best_rouge(hyp, refs, n, _rouge_n_pr, n)


def rouge_l(hyp, refs) -> MetricScore:
    """ROUGE-L: max LCS-based F1 over the reference set."""
    return _best_rouge(hyp, refs, 0, _rouge_l_pr)


# ------------------------------------------------- shared reference profiles

METRICS = ("bleu", "spbleu", "chrf", "rouge1", "rouge2", "rougeL")
_WORD_METRICS = ("bleu", "rouge1", "rouge2", "rougeL")
_ROUGE_N_ORDER = {"rouge1": 1, "rouge2": 2}


def _bleu_stats(hyp: kernels.Profile, refs, ref_lens, cfg: BleuConfig) -> CorpusStats:
    """Clipped-match statistics of a hypothesis profile against a reference profile or clip table."""
    hyp_len = len(hyp.tokens)
    return CorpusStats(
        matched=kernels.matches(hyp, refs, slice(cfg.max_order)),
        totals=hyp.totals[: cfg.max_order],
        hyp_len=hyp_len,
        ref_len=kernels.ref_len(hyp_len, ref_lens, cfg.effective_ref_length),
    )


class MultiRefScorer:
    """Scores several systems against shared references, one segment at a time.

    The one implementation of multi-reference BLEU, spBLEU and chrF: `score`
    runs on it, and `bleu_sentence`, `bleu_corpus`, `spbleu_corpus`,
    `chrf_sentence`, `chrf_corpus` and `corpus_stats_for_segment` are thin
    calls into it (a sentence score is the corpus score of one pair).
    `segment` builds every statistic of a segment once; `corpus` sums the
    per-segment parts that `SegmentScores.joint` returns into the corpus
    score. ROUGE values equal those of `rouge_n` and `rouge_l`, and ROUGE's
    corpus value is the mean segment value. `words` and `pieces` map a text
    (any hashable value they accept) to its word and subword tokens; the
    word-level metrics (bleu, rouge1, rouge2, rougeL) need `words` and
    spbleu needs `pieces`. chrF takes characters from `tokenize_chars`,
    honouring `lowercase`.
    """

    def __init__(
        self,
        metrics: Sequence[str],
        bleu_cfg: BleuConfig | None = None,
        chrf_order: int = 6,
        chrf_beta: float = 2.0,
        lowercase: bool = False,
        words: Callable[[str], Sequence[str]] | None = None,
        pieces: Callable[[str], Sequence[str]] | None = None,
    ):
        self.metrics = tuple(metrics)
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)}")
        if chrf_order < 1:
            raise ValueError(f"chrf_order must be >= 1, got {chrf_order}")
        if not (math.isfinite(chrf_beta) and chrf_beta >= 0):
            raise ValueError(f"chrf_beta must be finite and >= 0, got {chrf_beta}")
        self.bleu_cfg = bleu_cfg or BleuConfig()
        self.chrf_order = chrf_order
        self.chrf_beta = chrf_beta
        self.lowercase = lowercase
        # Highest word n-gram order any metric counts; None when no metric uses words.
        orders = [
            self.bleu_cfg.max_order if m == "bleu" else _ROUGE_N_ORDER.get(m, 0)
            for m in self.metrics
            if m in _WORD_METRICS
        ]
        self.word_order = max(orders) if orders else None
        if words is None and self.word_order is not None:
            raise ValueError("bleu and ROUGE need a word tokenizer")
        if pieces is None and "spbleu" in self.metrics:
            raise ValueError("spbleu needs a subword tokenizer")
        self.words = words
        self.pieces = pieces

    def segment(self, hyps: dict[str, str], refs: list[str]) -> "SegmentScores":
        """Statistics of each hypothesis (by system) against the references."""
        return SegmentScores(self, hyps, refs)

    def corpus(self, metric: str, parts: list) -> MetricScore:
        """Corpus score from the parts of each segment, in segment order."""
        if not parts:
            raise ValueError("at least one (hypothesis, references) pair is required")
        if metric in ("bleu", "spbleu"):
            stats = CorpusStats.zero(self.bleu_cfg.max_order)
            for part in parts:
                stats = stats + part
            return _bleu_from_stats(stats, self.bleu_cfg)
        if metric == "chrf":
            # Each part is the best reference's (match, hyp_total, ref_total).
            sums = [[sum(col) for col in zip(*lists)] for lists in zip(*parts)]
            score, per_order, used = _chrf_fscore(*sums, self.chrf_beta)
            return MetricScore(score * 100.0, per_order, {"orders_used": float(used)})
        # ROUGE has no closed corpus form; report the mean segment score.
        return MetricScore(sum(parts) / len(parts))


class SegmentScores:
    """Every system's statistics against every reference of one segment.

    Each distinct text is tokenized and counted once per granularity, and
    each (hypothesis, distinct reference) statistic is computed once; all
    systems and metrics share them. Character profiles are the largest, so
    chrF streams the references: one reference profile at a time is scored
    against every hypothesis and then dropped.
    """

    def __init__(self, scorer: MultiRefScorer, hyps: dict[str, str], refs: list[str]):
        if not refs:
            raise ValueError("at least one reference is required")
        self.scorer = scorer
        self.hyps = hyps
        self.refs = list(dict.fromkeys(refs))
        slot = {text: i for i, text in enumerate(self.refs)}
        self._slots = [slot[text] for text in refs]
        texts = list(dict.fromkeys([*hyps.values(), *self.refs]))
        self._profiles = {}
        if scorer.word_order is not None:
            self._profiles["words"] = {
                t: kernels.Profile(tuple(scorer.words(t)), scorer.word_order) for t in texts
            }
        if "spbleu" in scorer.metrics:
            self._profiles["pieces"] = {
                t: kernels.Profile(tuple(scorer.pieces(t)), scorer.bleu_cfg.max_order) for t in texts
            }
        self._clips = {}
        # metric -> system -> one statistic per distinct reference.
        self._pairs = {}
        for metric in scorer.metrics:
            if metric == "chrf":
                self._pairs[metric] = self._chrf_pairs()
            elif metric in _ROUGE_N_ORDER:
                self._pairs[metric] = self._word_pairs(_rouge_n_pr, _ROUGE_N_ORDER[metric])
            elif metric == "rougeL":
                self._pairs[metric] = self._word_pairs(_rouge_l_pr)

    def _word_pairs(self, pr, *args) -> dict[str, list[float]]:
        words = self._profiles["words"]
        refs = [words[text] for text in self.refs]
        return {
            system: [_f1(*pr(words[hyp], ref, *args)) for ref in refs]
            for system, hyp in self.hyps.items()
        }

    def _chrf_pairs(self) -> dict[str, list]:
        scorer = self.scorer

        def profile(text):
            chars = "".join(tokenize_chars(text, lowercase=scorer.lowercase))
            return kernels.Profile(chars, scorer.chrf_order)

        hyp_profiles = {text: profile(text) for text in dict.fromkeys(self.hyps.values())}
        pairs = {system: [] for system in self.hyps}
        for text in self.refs:
            ref = hyp_profiles[text] if text in hyp_profiles else profile(text)
            for system, hyp_text in self.hyps.items():
                hyp = hyp_profiles[hyp_text]
                stats = (kernels.matches(hyp, ref), hyp.totals, ref.totals)
                pairs[system].append((_chrf_fscore(*stats, scorer.chrf_beta)[0], stats))
        return pairs

    def _bleu_profiles(self, metric: str) -> dict:
        return self._profiles["words" if metric == "bleu" else "pieces"]

    def joint(self, system: str, metric: str, n_refs: int | None = None):
        """(segment value, corpus part) against the first `n_refs` references (default all).

        The part is what `MultiRefScorer.corpus` sums: `CorpusStats` for bleu
        and spbleu, the best reference's counts for chrF (the first among
        equal scores), and the segment value for ROUGE.
        """
        slots = self._slots[:n_refs]
        if metric in ("bleu", "spbleu"):
            profiles = self._bleu_profiles(metric)
            key = (metric, len(slots))
            if key not in self._clips:
                refs = [profiles[self.refs[i]] for i in dict.fromkeys(slots)]
                lens = [len(profiles[self.refs[i]].tokens) for i in slots]
                self._clips[key] = (kernels.clip_table(refs, self.scorer.bleu_cfg.max_order), lens)
            clip, lens = self._clips[key]
            stats = _bleu_stats(profiles[self.hyps[system]], clip, lens, self.scorer.bleu_cfg)
            return _bleu_from_stats(stats, self.scorer.bleu_cfg).value, stats
        pairs = self._pairs[metric][system]
        if metric == "chrf":
            best_score, best = -1.0, None
            for i in slots:
                score, stats = pairs[i]
                if score > best_score:
                    best_score, best = score, stats
            return MetricScore(best_score * 100.0).value, best
        value = MetricScore(max(0.0, *(pairs[i] for i in slots)) * 100.0).value
        return value, value

    def per_reference(self, system: str, metric: str) -> list[float]:
        """Single-reference segment values, one per reference as given."""
        if metric in ("bleu", "spbleu"):
            profiles = self._bleu_profiles(metric)
            hyp = profiles[self.hyps[system]]
            cfg = self.scorer.bleu_cfg
            values = []
            for text in self.refs:
                ref = profiles[text]
                stats = _bleu_stats(hyp, ref, [len(ref.tokens)], cfg)
                values.append(_bleu_from_stats(stats, cfg).value)
        elif metric == "chrf":
            values = [MetricScore(score * 100.0).value for score, _ in self._pairs[metric][system]]
        else:
            values = [MetricScore(f * 100.0).value for f in self._pairs[metric][system]]
        return [values[i] for i in self._slots]


# ------------------------------ sentence and corpus functions on the scorer


def _part(scorer: MultiRefScorer, metric: str, hyp, refs):
    """The corpus part of one (hypothesis, references) pair, scored as one segment."""
    return scorer.segment({"": hyp}, list(refs)).joint("", metric)[1]


def _corpus(scorer: MultiRefScorer, metric: str, pairs) -> MetricScore:
    """Corpus score of (hypothesis, references) pairs."""
    return scorer.corpus(metric, [_part(scorer, metric, hyp, refs) for hyp, refs in pairs])


def _bleu_scorer(cfg: BleuConfig | None) -> MultiRefScorer:
    return MultiRefScorer(["bleu"], bleu_cfg=cfg, words=tuple)


def _token_pair(hyp, refs) -> tuple:
    """A (hypothesis, references) pair of token tuples, hashable as the scorer needs."""
    return tokens_of(hyp), [tokens_of(ref) for ref in refs]


def corpus_stats_for_segment(hyp, refs, cfg: BleuConfig | None = None) -> CorpusStats:
    """Clipped-match statistics of one segment, ready for corpus summation."""
    return _part(_bleu_scorer(cfg), "bleu", *_token_pair(hyp, refs))


def bleu_sentence(hyp, refs, cfg: BleuConfig | None = None) -> MetricScore:
    """BLEU of one hypothesis against one or more references."""
    return bleu_corpus([(hyp, refs)], cfg)


def bleu_corpus(pairs, cfg: BleuConfig | None = None) -> MetricScore:
    """Micro-averaged corpus BLEU over (hypothesis, references) pairs."""
    return _corpus(_bleu_scorer(cfg), "bleu", [_token_pair(hyp, refs) for hyp, refs in pairs])


def spbleu_corpus(
    pairs,
    vocab=None,
    cfg: BleuConfig | None = None,
    pretokenized: bool = False,
    lowercase: bool = False,
) -> MetricScore:
    """Corpus BLEU over subword tokens.

    `pairs` holds raw text: (hyp_text, [ref_text, ...]) per segment. With
    `pretokenized=True` the texts are taken as already-segmented pieces
    joined by spaces and the vocabulary is not consulted.
    """
    if not pretokenized and vocab is None:
        raise ValueError("a subword vocabulary is required unless pretokenized=True")

    def pieces(text: str):
        if pretokenized:
            return text.split()
        return tokenize_subwords(text, vocab, lowercase=lowercase)

    return _corpus(MultiRefScorer(["spbleu"], bleu_cfg=cfg, pieces=pieces), "spbleu", pairs)


def chrf_sentence(
    hyp_text: str, ref_texts, n_max: int = 6, beta: float = 2.0, lowercase: bool = False
) -> MetricScore:
    """Character n-gram F-score of one segment against its best reference."""
    return chrf_corpus([(hyp_text, ref_texts)], n_max, beta, lowercase)


def chrf_corpus(
    pairs, n_max: int = 6, beta: float = 2.0, lowercase: bool = False
) -> MetricScore:
    """Corpus chrF. Each segment contributes the counts of its best reference."""
    scorer = MultiRefScorer(["chrf"], chrf_order=n_max, chrf_beta=beta, lowercase=lowercase)
    return _corpus(scorer, "chrf", pairs)
