"""Multi-reference n-gram metrics: BLEU, subword BLEU, chrF, and ROUGE.

All scores are reported on a 0-100 scale. Multi-reference handling follows
the native convention of each metric: BLEU clips each hypothesis n-gram at
the maximum count seen in any single reference, chrF scores each segment
against its best reference, and ROUGE takes the maximum F1 over references.
"""

import math
from functools import partial, reduce
from operator import add

from . import kernels
from .errors import CorpusFormatError
from .records import check_count, is_count, record
from .textproc import tokenize_chars, tokenize_pieces, tokenize_subwords, tokens_of

SMOOTHING_METHODS = ("none", "exp")
REF_LENGTH_MODES = ("closest", "shortest")
#: Default chrF character n-gram order and recall weight beta (chrF2).
DEFAULT_CHRF_ORDER = 6
DEFAULT_CHRF_BETA = 2.0


class BleuConfig(record("BleuConfig", "max_order smoothing effective_ref_length")):
    """BLEU scoring knobs.

    `smoothing="exp"` is the doubling scheme: a running factor s starts at 1
    and, for each order with a zero match count, doubles before that order's
    precision is replaced by 1 / (s * total). `effective_ref_length` picks
    the brevity-penalty reference length per segment: "closest" minimizes the
    absolute length difference (ties toward the shorter reference),
    "shortest" always takes the minimum.
    """

    __slots__ = ()

    def __new__(
        cls, max_order: int = 4, smoothing: str = "exp", effective_ref_length: str = "closest"
    ):
        kernels.check_order(max_order, "max_order")
        if smoothing not in SMOOTHING_METHODS:
            raise ValueError(f"unknown smoothing {smoothing!r}")
        if effective_ref_length not in REF_LENGTH_MODES:
            raise ValueError(f"unknown effective_ref_length {effective_ref_length!r}")
        return tuple.__new__(cls, (max_order, smoothing, effective_ref_length))


class MetricScore(record("MetricScore", "value per_order detail")):
    """A scalar metric value in [0, 100] plus per-order diagnostics.

    A value within 1e-9 outside [0, 100] is clamped into it; `detail`
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(
        cls, value: float, per_order: tuple[float, ...] | None = None, detail: dict | None = None
    ):
        if not math.isfinite(value):
            raise ValueError(f"metric value must be finite, got {value}")
        if value < -1e-9 or value > 100.0 + 1e-9:
            raise ValueError(f"metric value out of [0, 100]: {value}")
        if per_order is not None:
            for p in per_order:
                if p < -1e-12 or p > 1.0 + 1e-12:
                    raise ValueError(f"per-order entry out of [0, 1]: {p}")
        value = min(max(value, 0.0), 100.0)
        return tuple.__new__(cls, (value, per_order, {} if detail is None else detail))


class CorpusStats(record("CorpusStats", "matched totals hyp_len ref_len")):
    """Additive sufficient statistics for corpus-level BLEU.

    Segment stats combine by summation, so corpus aggregation is an
    associative, commutative reduction.
    """

    __slots__ = ()

    def __new__(cls, matched: list[int], totals: list[int], hyp_len: int = 0, ref_len: int = 0):
        if len(matched) != len(totals):
            raise ValueError("matched and totals must have the same length")
        for m, t in zip(matched, totals):
            if m < 0 or t < 0 or m > t:
                raise ValueError(f"invalid counts: matched={m}, total={t}")
        return tuple.__new__(cls, (matched, totals, hyp_len, ref_len))

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


def _fscore(match: int, hyp_total: int, ref_total: int, beta2: float = 1.0):
    """(F, (precision, recall)) of a match count, recall weighted by `beta2`; 0 on an empty side.

    chrF's per-order score and, with the default beta2 = 1, ROUGE's F1.
    """
    precision = match / hyp_total if hyp_total > 0 else 0.0
    recall = match / ref_total if ref_total > 0 else 0.0
    denom = beta2 * precision + recall
    return (1.0 + beta2) * precision * recall / denom if denom > 0 else 0.0, (precision, recall)


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
        fscore = _fscore(m, ht, rt, beta2)[0]
        per_order.append(fscore)
        used.append(fscore)
    if not used:
        return 0.0, tuple(per_order), 0
    return math.fsum(used) / len(used), tuple(per_order), len(used)


def rouge_n(hyp, refs, n: int) -> MetricScore:
    """ROUGE-N: max clipped-overlap F1 over the reference set."""
    kernels.check_order(n, "n-gram order")
    return _part(_token_scorer(f"rouge{n}"), *_token_pair(hyp, refs))


def rouge_l(hyp, refs) -> MetricScore:
    """ROUGE-L: max LCS-based F1 over the reference set."""
    return _part(_token_scorer("rougeL"), *_token_pair(hyp, refs))


# ------------------------------------------------- shared reference profiles

METRICS = ("bleu", "spbleu", "chrf", "rouge1", "rouge2", "rougeL")


def _rouge_n_order(metric: str) -> int | None:
    """n of a ROUGE-N name, "rouge<n>" with n >= 1 in ASCII digits; None for any other name."""
    digits = metric[5:]
    if metric[:5] == "rouge" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        return int(digits)
    return None


def _check_metrics(metrics: tuple) -> None:
    """Reject an unknown metric name, a ROUGE-N order above `kernels.MAX_ORDER`, and a name given twice."""
    for i, metric in enumerate(metrics):
        n = _rouge_n_order(metric)
        if metric not in METRICS and n is None:
            raise ValueError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)} or rouge<n>")
        if n is not None:
            kernels.check_order(n, f"the n-gram order of {metric!r}")
        if metric in metrics[:i]:
            raise ValueError(f"metric {metric!r} is named twice")


def _check_chrf_beta(beta: float) -> None:
    # chrF weighs recall by beta squared; where that overflows, every F-score is NaN.
    if not (beta >= 0 and math.isfinite(beta * beta)):
        raise ValueError(f"chrf_beta must be >= 0 with a finite square, got {beta}")


class MultiRefScorer:
    """Scores several systems against shared references, one segment at a time.

    The one implementation of multi-reference BLEU, spBLEU, chrF and ROUGE:
    `score_corpus` runs on it, and `bleu_sentence`, `bleu_corpus`,
    `spbleu_corpus`, `chrf_sentence`, `chrf_corpus`, `rouge_n` and `rouge_l`
    are thin calls into it (a sentence score is the corpus score of one
    pair). `segment` builds every statistic of a segment once; `corpus` sums
    the per-segment parts that `SegmentScores.joint` returns, at every
    reference count in one call, into the corpus score, and a segment's
    value is the corpus score of its one part. ROUGE's corpus value is the
    mean segment value.

    `settings`, a `ScoreSettings` (default `ScoreSettings()`), is the one
    record of what is scored and how: its metrics, BLEU config, chrF order
    and beta, and `lowercase`. The scorer keeps it as `self.settings`, so the
    object that computes a score also describes it, and holds no copy of any
    of its fields. `words` and `pieces` map a text (any hashable value they
    accept) to its word and subword tokens; the word-level metrics (bleu and
    ROUGE) need `words` and spbleu needs `pieces`. chrF takes characters from
    `tokenize_chars`, honouring `lowercase`.
    """

    def __init__(self, settings: "ScoreSettings | None" = None, words=None, pieces=None):
        self.settings = settings = ScoreSettings() if settings is None else settings
        # Highest word n-gram order any metric counts; None when no metric uses words.
        orders = [
            settings.bleu.max_order if m == "bleu" else _rouge_n_order(m) or 0
            for m in settings.metrics
            if m == "bleu" or m.startswith("rouge")
        ]
        self.word_order = max(orders) if orders else None
        if words is None and self.word_order is not None:
            raise ValueError("bleu and ROUGE need a word tokenizer")
        if pieces is None and "spbleu" in settings.metrics:
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
            cfg = self.settings.bleu
            stats = CorpusStats.zero(cfg.max_order)
            for part in parts:
                stats = stats + part
            return _bleu_from_stats(stats, cfg)
        if metric == "chrf":
            # Each part is the best reference's (match, hyp_total, ref_total).
            sums = [[sum(col) for col in zip(*lists)] for lists in zip(*parts)]
            score, per_order, used = _chrf_fscore(*sums, self.settings.chrf_beta)
            return MetricScore(score * 100.0, per_order, {"orders_used": float(used)})
        # ROUGE has no closed corpus form; report the mean segment score, added left to
        # right: `sum` compensates rounding from Python 3.12 on, so its mean varies by version.
        return MetricScore(reduce(add, (part.value for part in parts), 0.0) / len(parts))


class SegmentScores:
    """Every system's statistics against every reference of one segment.

    Each distinct text is tokenized and counted once per granularity, and
    each (hypothesis, distinct reference) statistic is computed once; all
    systems and metrics share them. Against one reference at a time, the
    hypotheses are counted in one packed pass (`_counts`): chrF on
    characters, ROUGE-N on words, and per-reference BLEU on words or pieces,
    built on the first `per_reference` call. Joint BLEU clips at the union
    of the references instead; `joint` keeps nothing between calls. ROUGE-L
    packs the references once and makes one LCS pass per distinct hypothesis.
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
        settings = scorer.settings
        self._profiles = {}
        if scorer.word_order is not None:
            self._profiles["words"] = {
                t: kernels.Profile(tuple(scorer.words(t)), scorer.word_order) for t in texts
            }
        if "spbleu" in settings.metrics:
            self._profiles["pieces"] = {
                t: kernels.Profile(tuple(scorer.pieces(t)), settings.bleu.max_order) for t in texts
            }
        # granularity -> what `_counts` returned for it.
        self._counted = {}
        # metric -> system -> (score in [0, 1], statistic) per distinct reference.
        self._pairs = {}
        for metric in settings.metrics:
            if metric == "chrf":
                beta = settings.chrf_beta
                self._pairs[metric] = {
                    system: [(_chrf_fscore(*stats, beta)[0], stats) for stats in counts]
                    for system, counts in self._counts("chars").items()
                }
            elif metric.startswith("rouge"):
                self._pairs[metric] = self._rouge_pairs(_rouge_n_order(metric))

    def _counts(self, granularity: str) -> dict[str, list]:
        """Per system and distinct reference, (matches, hyp totals, ref totals) by order-1.

        The distinct hypotheses are packed once, then each distinct reference
        is counted against all of them in one pass. "chars" profiles each
        reference only for its pass, as character profiles are the largest.
        """
        if granularity in self._counted:
            return self._counted[granularity]
        if granularity == "chars":
            settings = self.scorer.settings

            def profile(text):
                chars = "".join(tokenize_chars(text, lowercase=settings.lowercase))
                return kernels.Profile(chars, settings.chrf_order)
        else:
            profile = self._profiles[granularity].__getitem__
        hyps = {text: profile(text) for text in dict.fromkeys(self.hyps.values())}
        packed = kernels.PackedHypotheses(list(hyps.values()))
        index = {text: i for i, text in enumerate(hyps)}
        counts = {system: [] for system in self.hyps}
        for text in self.refs:
            ref = hyps[text] if text in hyps else profile(text)
            match = packed.matches(ref)
            for system, hyp_text in self.hyps.items():
                counts[system].append((match[index[hyp_text]], hyps[hyp_text].totals, ref.totals))
        self._counted[granularity] = counts
        return counts

    def _rouge_pairs(self, n: int | None) -> dict[str, list]:
        """Per system and distinct reference, ROUGE-N (ROUGE-L if n is None) as (F1, (P, R))."""
        if n is not None:
            return {
                system: [_fscore(match[n - 1], hyp[n - 1], ref[n - 1]) for match, hyp, ref in counts]
                for system, counts in self._counts("words").items()
            }
        # One packed LCS pass per distinct hypothesis covers every reference.
        words = self._profiles["words"]
        packed = kernels.PackedLcs([words[text].tokens for text in self.refs])
        hits = {text: packed.lengths(words[text].tokens) for text in dict.fromkeys(self.hyps.values())}
        lens = [len(words[text].tokens) for text in self.refs]
        return {
            system: [_fscore(hit, len(words[text].tokens), ref_len) for hit, ref_len in zip(hits[text], lens)]
            for system, text in self.hyps.items()
        }

    def joint(self, metric: str, n_refs=(None,)) -> dict[str, list]:
        """`{system: [part against the first n references for each n of n_refs]}`.

        `n_refs` ascends; None, all references, may only come last. A part is
        what `MultiRefScorer.corpus` sums: `CorpusStats` for bleu and spbleu,
        the best reference's counts for chrF (the first among equal scores),
        and for ROUGE the best reference's `MetricScore`, with its precision
        and recall in `detail` (the first among equal F1).
        """
        parts = {system: [] for system in self.hyps}
        if metric in ("bleu", "spbleu"):
            cfg = self.scorer.settings.bleu
            profiles = self._profiles["words" if metric == "bleu" else "pieces"]
            # The clip table for each count grows from the last one by the references it lacks.
            clip, lens, counted = None, [], 0
            for n in n_refs:
                added = [profiles[self.refs[i]] for i in self._slots[counted:n]]
                clip = kernels.clip_table(added, cfg.max_order, clip)
                lens += [len(ref.tokens) for ref in added]
                counted = n
                for system, text in self.hyps.items():
                    hyp = profiles[text]
                    hyp_len = len(hyp.tokens)
                    ref_len = kernels.ref_len(hyp_len, lens, cfg.effective_ref_length)
                    parts[system].append(CorpusStats(kernels.matches(hyp, clip), hyp.totals[: cfg.max_order],
                                                     hyp_len, ref_len))
            return parts
        for system, system_parts in parts.items():
            pairs = self._pairs[metric][system]
            best_score, best, counted = -1.0, None, 0
            for n in n_refs:
                for i in self._slots[counted:n]:
                    score, stats = pairs[i]
                    if score > best_score:
                        best_score, best = score, stats
                counted = n
                if metric == "chrf":
                    system_parts.append(best)
                else:
                    precision, recall = best
                    detail = {"precision": precision, "recall": recall}
                    system_parts.append(MetricScore(best_score * 100.0, None, detail))
        return parts

    def per_reference(self, system: str, metric: str) -> list[float]:
        """Single-reference segment values, one per reference as given."""
        if metric in ("bleu", "spbleu"):
            cfg = self.scorer.settings.bleu
            n = cfg.max_order
            # Against one reference, its length is the brevity-penalty length: totals[0].
            values = [
                _bleu_from_stats(CorpusStats(match[:n], hyp[:n], hyp[0], ref[0]), cfg).value
                for match, hyp, ref in self._counts("words" if metric == "bleu" else "pieces")[system]
            ]
        else:
            values = [MetricScore(score * 100.0).value for score, _ in self._pairs[metric][system]]
        return [values[i] for i in self._slots]


#: Reference modes of `score_corpus`, in the order `score --refs` lists them.
REF_MODES = ("gold", "generated", "both")


class ScoreSettings(record(
    "ScoreSettings",
    "metrics refs max_refs sweep_refs per_reference out generated_refs bleu chrf_order chrf_beta"
    " lowercase vocab pretokenized",
)):
    """Every setting of one `score` run, each field one of its flags, checked together.

    `metrics` is a non-empty tuple of metric names and `refs` one of `REF_MODES`.
    `max_refs` caps the generated references per segment (None keeps them
    all); `sweep_refs`, a (low, high) pair, scores each count from low to
    high instead; `counts` lists the counts asked for. `per_reference` makes the
    matrix cells single-reference values. `out` and `generated_refs` say
    whether a matrix is written and whether the corpus has generated
    references. `bleu` is a `BleuConfig` (default `BleuConfig()`),
    `chrf_order` and `chrf_beta` are chrF's, and a vocabulary `vocab` (its
    path on the CLI, the loaded vocabulary in `spbleu_corpus`), or
    `pretokenized`, picks spbleu's tokenizer. A `MultiRefScorer` scores by
    these settings and keeps them, and `score_corpus` reads the rest from it.
    Every rule of scoring and every rule that ties flags together is checked
    here, so the scorer checks none of them again, `score` fails before it
    reads a file, and each message names the flags as `score` spells them.
    """

    __slots__ = ()

    def __new__(
        cls, metrics=("bleu",), refs: str = "both", max_refs: int | None = None, sweep_refs=None,
        per_reference: bool = False, out: bool = False, generated_refs: bool = True,
        bleu: BleuConfig | None = None, chrf_order: int = DEFAULT_CHRF_ORDER,
        chrf_beta: float = DEFAULT_CHRF_BETA, lowercase: bool = False, vocab: str | None = None,
        pretokenized: bool = False,
    ):
        if isinstance(metrics, str):
            # tuple("chrf") would be four one-letter names.
            raise ValueError(f"metrics must be a sequence of metric names, got the str {metrics!r}")
        metrics = tuple(metrics)
        if not metrics:
            raise ValueError("--metrics names no metric")
        if vocab and pretokenized:
            raise ValueError("--vocab and --pretokenized are mutually exclusive")
        if "spbleu" not in metrics and (vocab or pretokenized):
            flag = "--vocab" if vocab else "--pretokenized"
            raise ValueError(f"{flag} sets spbleu's tokenizer; --metrics names no spbleu")
        if "spbleu" in metrics and not vocab and not pretokenized:
            raise ValueError("spbleu requires --vocab unless --pretokenized is set")
        if max_refs is not None:
            check_count(max_refs, "--max-refs")
        kernels.check_order(chrf_order, "--chrf-order")
        if refs not in REF_MODES:
            raise ValueError(f"unknown reference mode {refs!r}")
        if refs in ("generated", "both") and not generated_refs:
            raise ValueError(f"--refs {refs} requires --generated-refs")
        if refs == "gold" and max_refs is not None:
            raise ValueError("--max-refs caps generated references; it does not apply to --refs gold")
        if sweep_refs is not None:
            sweep_refs = tuple(sweep_refs)
            if len(sweep_refs) != 2 or not all(map(is_count, sweep_refs)):
                raise ValueError(f"--sweep-refs must be a pair of integers, got {sweep_refs!r}")
            if refs == "gold":
                raise ValueError("--sweep-refs varies generated references; use --refs generated or both")
            if max_refs is not None:
                raise ValueError("--sweep-refs and --max-refs are mutually exclusive")
            if per_reference or out:
                raise ValueError("--sweep-refs emits a score series; --per-reference/--out do not apply")
            low, high = sweep_refs
            if low < 1 or high < low:
                raise ValueError(f"invalid sweep range '{low}..{high}'")
        elif per_reference and not out:
            raise ValueError("--per-reference sets the cells of the --out matrix; it needs --out")
        _check_metrics(metrics)
        _check_chrf_beta(chrf_beta)
        return tuple.__new__(cls, (
            metrics, refs, max_refs, sweep_refs, per_reference, out, generated_refs,
            BleuConfig() if bleu is None else bleu, chrf_order, chrf_beta, lowercase, vocab, pretokenized,
        ))

    @property
    def counts(self):
        """The generated-reference counts asked for, ascending; None keeps every generated reference.

        A sweep's counts are a `range`, which holds only its bounds.
        """
        if self.sweep_refs is None:
            return (self.max_refs,)
        low, high = self.sweep_refs
        return range(low, high + 1)

    def scorer(self, words, vocab=None) -> MultiRefScorer:
        """The scorer of these settings.

        `words` is the word tokenizer, called as `words(text, lowercase=...)`,
        and `vocab` the loaded subword vocabulary of `self.vocab`. spbleu's
        tokenizer is `piece_tokenizer(vocab, pretokenized, lowercase)`.
        """
        pieces = None
        if "spbleu" in self.metrics:
            pieces = piece_tokenizer(vocab, self.pretokenized, self.lowercase)
        return MultiRefScorer(self, partial(words, lowercase=self.lowercase), pieces)


def score_corpus(scorer: MultiRefScorer, corpus):
    """Corpus scores at each generated-reference count, and the matrix rows of the largest.

    `corpus` is an `EvalCorpus`. The settings are the scorer's own: its
    metrics are scored, and its `refs`, `counts` and `per_reference`
    apply. A segment's references are its gold ones (none
    under refs "generated") followed by the first k of its generated ones
    (none under refs "gold") for each k of `counts`. A sweep stops at the
    most generated references a scored segment has, as every larger count
    scores the same, and one that starts past that number raises ValueError.
    A scored segment with no references raises CorpusFormatError.
    Returns
    `({(k, system, metric): MetricScore}` in (k, sorted system, metric)
    order, `[(metric, system, segment, cells)]` metric-major, then by system,
    then by segment id). A row's cells are `{"all": value}`, the corpus
    score of the segment's one part at the largest count, or, with
    `per_reference`, one single-reference value each under the id `gold:i`
    or `gen:i`. Each segment takes one `SegmentScores.joint` call per
    metric. A corpus without system outputs raises ValueError.
    """
    if not corpus.systems:
        raise ValueError("no system outputs to score")
    settings = scorer.settings
    mode, counts, per_reference = settings.refs, settings.counts, settings.per_reference
    metrics = settings.metrics
    systems = sorted(corpus.systems)
    segments_by_id = {segment.id: segment for segment in corpus.segments}
    segment_ids = sorted({sid for outputs in corpus.systems.values() for sid in outputs})
    if settings.sweep_refs is not None:
        most = max((len(segments_by_id[sid].generated_refs) for sid in segment_ids), default=0)
        if counts[0] > most:
            raise ValueError(
                f"--sweep-refs starts at {counts[0]}, but no segment has more than {most} generated references"
            )
        counts = counts[:most - counts[0] + 1]
    parts = {(k, system, metric): [] for k in counts for system in systems for metric in metrics}
    rows = {(metric, system): [] for metric in metrics for system in systems}
    for segment_id in segment_ids:
        segment = segments_by_id[segment_id]
        gold = () if mode == "generated" else segment.gold_refs
        generated = () if mode == "gold" else segment.generated_refs[:counts[-1]]
        n_gold = len(gold)
        refs = [*gold, *generated]
        if not refs:
            raise CorpusFormatError(f"segment {segment_id!r} has no references under --refs {mode}")
        hyps = {
            system: corpus.systems[system][segment_id]
            for system in systems
            if segment_id in corpus.systems[system]
        }
        scores = scorer.segment(hyps, refs)
        ref_ids = [f"gold:{i}" for i in range(n_gold)] + [f"gen:{i}" for i in range(len(generated))]
        # The references for count k are the first n_gold + k of those for the largest count.
        n_refs = [None if k is None else n_gold + k for k in counts]
        for metric in metrics:
            for system, system_parts in scores.joint(metric, n_refs).items():
                for k, part in zip(counts, system_parts):
                    parts[k, system, metric].append(part)
                if per_reference:
                    cells = dict(zip(ref_ids, scores.per_reference(system, metric)))
                else:
                    cells = {"all": scorer.corpus(metric, [system_parts[-1]]).value}
                rows[metric, system].append((metric, system, segment_id, cells))
        del scores  # drop this segment's profiles before the next segment's are built
    corpus_scores = {key: scorer.corpus(key[2], values) for key, values in parts.items()}
    return corpus_scores, [row for system_rows in rows.values() for row in system_rows]


# ------------------------------ sentence and corpus functions on the scorer


def _part(scorer: MultiRefScorer, hyp, refs):
    """The corpus part of one (hypothesis, references) pair under the scorer's one metric."""
    (metric,) = scorer.settings.metrics
    return scorer.segment({"": hyp}, list(refs)).joint(metric)[""][0]


def _corpus(scorer: MultiRefScorer, pairs) -> MetricScore:
    """Corpus score of (hypothesis, references) pairs under the scorer's one metric."""
    (metric,) = scorer.settings.metrics
    return scorer.corpus(metric, [_part(scorer, hyp, refs) for hyp, refs in pairs])


def _token_scorer(metric: str, cfg: BleuConfig | None = None) -> MultiRefScorer:
    """The scorer of one word-level metric on texts given as token tuples."""
    return MultiRefScorer(ScoreSettings([metric], bleu=cfg), words=tuple)


def _token_pair(hyp, refs) -> tuple:
    """A (hypothesis, references) pair of token tuples, hashable as the scorer needs."""
    return tokens_of(hyp), [tokens_of(ref) for ref in refs]


def bleu_sentence(hyp, refs, cfg: BleuConfig | None = None) -> MetricScore:
    """BLEU of one hypothesis against one or more references."""
    return bleu_corpus([(hyp, refs)], cfg)


def bleu_corpus(pairs, cfg: BleuConfig | None = None) -> MetricScore:
    """Micro-averaged corpus BLEU over (hypothesis, references) pairs."""
    return _corpus(_token_scorer("bleu", cfg), [_token_pair(hyp, refs) for hyp, refs in pairs])


def piece_tokenizer(vocab=None, pretokenized: bool = False, lowercase: bool = False):
    """spBLEU's tokenizer: `vocab`'s subwords, or with `pretokenized` the space-joined pieces as given.

    The one place that picks it; `spbleu_corpus` and `score` both call this.
    Raises ValueError unless exactly one of `vocab` and `pretokenized` is given.
    """
    if pretokenized:
        if vocab is not None:
            raise ValueError("a subword vocabulary does not apply when pretokenized=True")
        return partial(tokenize_pieces, lowercase=lowercase)
    if vocab is None:
        raise ValueError("a subword vocabulary is required unless pretokenized=True")
    return partial(tokenize_subwords, vocab=vocab, lowercase=lowercase)


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
    joined by spaces instead of being segmented against `vocab`; either way
    they are NFC-normalized and, with `lowercase`, lowercased. Raises
    ValueError unless exactly one of `vocab` and `pretokenized` is given.
    """
    # piece_tokenizer first, so that its messages name these parameters rather than score's flags.
    pieces = piece_tokenizer(vocab, pretokenized, lowercase)
    settings = ScoreSettings(["spbleu"], bleu=cfg, lowercase=lowercase, vocab=vocab, pretokenized=pretokenized)
    return _corpus(MultiRefScorer(settings, pieces=pieces), pairs)


def chrf_sentence(
    hyp_text: str, ref_texts, n_max: int = DEFAULT_CHRF_ORDER, beta: float = DEFAULT_CHRF_BETA,
    lowercase: bool = False,
) -> MetricScore:
    """Character n-gram F-score of one segment against its best reference."""
    return chrf_corpus([(hyp_text, ref_texts)], n_max, beta, lowercase)


def chrf_corpus(
    pairs, n_max: int = DEFAULT_CHRF_ORDER, beta: float = DEFAULT_CHRF_BETA, lowercase: bool = False
) -> MetricScore:
    """Corpus chrF. Each segment contributes the counts of its best reference."""
    # Checked here as well, so that the message names no --chrf-order flag.
    kernels.check_order(n_max, "chrf_order")
    settings = ScoreSettings(["chrf"], chrf_order=n_max, chrf_beta=beta, lowercase=lowercase)
    return _corpus(MultiRefScorer(settings), pairs)
