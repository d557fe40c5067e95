"""Correlation of metric scores with human judgments.

System-level pairwise accuracy and Pearson, segment-level Kendall tau-b,
sample-level Spearman, and the leakage-gap report. Degenerate inputs (all
ties, zero variance) raise DegenerateDataError instead of returning NaN.
`human_score_tables` sorts human judgments into their three classes in one
walk: system level, overall segment level and per dimension.
"""

import math
from collections import Counter
from itertools import combinations, groupby, repeat
from operator import itemgetter
from pathlib import Path

from .combine import mean, system_scores
from .corpus_io import ChunkRejected, id_field, number_field, read_jsonl, read_jsonl_chunks
from .errors import CorpusFormatError, DegenerateDataError
from .records import record


class HumanJudgment(record("HumanJudgment", "system score segment dimension")):
    """One human quality score, at system level (segment None) or segment level."""

    __slots__ = ()

    def __new__(
        cls, system: str, score: float, segment: str | None = None, dimension: str | None = None
    ):
        if not math.isfinite(score):
            raise ValueError(f"human score must be finite, got {score}")
        return tuple.__new__(cls, (system, score, segment, dimension))


class MetaEvalReport(
    record(
        "MetaEvalReport",
        "metric pairwise_accuracy n_pairs_used pearson kendall spearman name n_systems n_segments",
    )
):
    """Agreement of one metric with human judgments on one language pair / task."""

    __slots__ = ()

    def __new__(
        cls,
        metric: str,
        pairwise_accuracy: float,
        n_pairs_used: int,
        pearson: float,
        kendall: float | None = None,
        spearman: dict[str, float] | None = None,
        name: str | None = None,
        n_systems: int = 0,
        n_segments: int = 0,
    ):
        if not 0.0 <= pairwise_accuracy <= 1.0:
            raise ValueError(f"accuracy out of [0, 1]: {pairwise_accuracy}")
        correlations = [pearson]
        if kendall is not None:
            correlations.append(kendall)
        if spearman:
            correlations.extend(spearman.values())
        for value in correlations:
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"correlation out of [-1, 1]: {value}")
        return tuple.__new__(
            cls,
            (metric, pairwise_accuracy, n_pairs_used, pearson, kendall, spearman, name, n_systems, n_segments),
        )


class GapOverflowError(ValueError):
    """A leakage gap, or gap ratio, of finite scores that is past the float range."""

    def __init__(self, field: str, value: float, a: str, b: str):
        super().__init__(f"{field} of {a!r} over {b!r} overflows to {value}")
        self.field = field
        self.value = value


class LeakageGapReport(record("LeakageGapReport", "system_a system_b delta_single delta_multi")):
    """How much a between-system score gap changes from single- to multi-reference."""

    __slots__ = ()

    @property
    def shrinkage(self) -> float:
        return self.delta_multi - self.delta_single

    @property
    def ratio(self) -> float | None:
        if self.delta_single == 0.0:
            return None
        return self.delta_multi / self.delta_single


def _check_paired(x, y):
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two paired observations")


def pearson(x, y) -> float:
    """Sample Pearson product-moment correlation."""
    _check_paired(x, y)
    mean_x = mean(x)
    mean_y = mean(y)
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("pearson is undefined for zero-variance input")
    product = sxx * syy
    if product == 0.0:
        # The product underflows. Dividing each side by its largest deviation
        # leaves r as it is and brings both sums to at least 1.
        scale_x = max(map(abs, dx))
        scale_y = max(map(abs, dy))
        dx = [a / scale_x for a in dx]
        dy = [b / scale_y for b in dy]
        product = math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy)
    if not math.isfinite(product):
        # A deviation, sxx or syy past the float range makes this infinite too.
        raise ValueError(f"pearson of {len(x)} pairs overflows the float range")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(product)
    return min(max(r, -1.0), 1.0)


def _tie_pairs(values) -> int:
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def _kendall_pair_counts(x, y):
    """Concordant/discordant pair counts and the pairs tied in x, exact, in O(n log n).

    Walks the sorted (x, y) pairs one equal-x block at a time. A Fenwick tree
    over rank-compressed y, and `at_rank` per rank, count the items of the
    earlier blocks (strictly smaller x): an item of y rank r is concordant
    with the ones below r and discordant with the rest but those at r.
    """
    rank = {v: r for r, v in enumerate(sorted(set(y)), 1)}
    size = len(rank)
    tree = [0] * (size + 1)
    at_rank = [0] * (size + 1)
    concordant = discordant = inserted = ties_x = 0
    for _x, block in groupby(sorted(zip(x, y)), key=itemgetter(0)):
        block_ranks = [rank[v] for _, v in block]
        for r in block_ranks:
            below = 0
            i = r - 1
            while i:
                below += tree[i]
                i &= i - 1
            concordant += below
            discordant += inserted - below - at_rank[r]
        for r in block_ranks:
            at_rank[r] += 1
            while r <= size:
                tree[r] += 1
                r += r & -r
        count = len(block_ranks)
        inserted += count
        ties_x += count * (count - 1) // 2
    return concordant, discordant, ties_x


def kendall_tau(x, y, ties_y: int | None = None) -> float:
    """Tie-corrected Kendall tau-b.

    `ties_y`, the number of pairs tied in `y`, is counted from `y` when not given.
    """
    _check_paired(x, y)
    concordant, discordant, ties_x = _kendall_pair_counts(list(x), list(y))
    if ties_y is None:
        ties_y = _tie_pairs(y)
    n0 = len(x) * (len(x) - 1) // 2
    if ties_x == n0 or ties_y == n0:
        raise DegenerateDataError("kendall tau is undefined when one side is all ties")
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def midranks(values) -> list[float]:
    """Ranks starting at 1, with tied values receiving their average rank."""
    counts = Counter(values)
    rank = {}
    start = 0
    for value in sorted(counts):
        count = counts[value]
        rank[value] = (2 * start + 1 + count) / 2.0
        start += count
    return [rank[value] for value in values]


def spearman(x, y, y_ranks: list[float] | None = None) -> float:
    """Pearson correlation of mid-ranks.

    `y_ranks`, the `midranks` of `y`, are computed when not given.
    """
    _check_paired(x, y)
    try:
        return pearson(midranks(x), midranks(y) if y_ranks is None else y_ranks)
    except DegenerateDataError:
        raise DegenerateDataError("spearman is undefined for zero rank-variance input")


def pairwise_accuracy(metric_scores, human_scores) -> tuple[float, int]:
    """Fraction of system pairs whose metric delta matches the human delta in sign.

    Pairs with tied human scores are excluded from the denominator; a tied
    metric delta counts as incorrect. Returns (accuracy, pairs_used).
    """
    common = sorted(set(metric_scores) & set(human_scores))
    if len(common) < 2:
        raise ValueError("pairwise accuracy needs at least two common systems")
    correct = 0
    used = 0
    for a, b in combinations(common, 2):
        human_delta = human_scores[a] - human_scores[b]
        if human_delta == 0.0:
            continue
        used += 1
        metric_delta = metric_scores[a] - metric_scores[b]
        if metric_delta != 0.0 and (metric_delta > 0.0) == (human_delta > 0.0):
            correct += 1
    if used == 0:
        raise DegenerateDataError("all human score pairs are tied")
    return correct / used, used


def leakage_gap(scores_single, scores_multi, a: str, b: str) -> LeakageGapReport:
    """Score gap of system a over system b under single- vs multi-reference scoring.

    Raises GapOverflowError where finite scores give a gap, shrinkage or
    ratio past the float range.
    """
    for name, scores in (("single", scores_single), ("multi", scores_multi)):
        for system in (a, b):
            if system not in scores:
                raise ValueError(f"system {system!r} missing from {name}-reference scores")
    report = LeakageGapReport(
        system_a=a,
        system_b=b,
        delta_single=scores_single[a] - scores_single[b],
        delta_multi=scores_multi[a] - scores_multi[b],
    )
    for field in ("delta_single", "delta_multi", "shrinkage", "ratio"):
        value = getattr(report, field)
        if value is not None and not math.isfinite(value):
            raise GapOverflowError(field, value, a, b)
    return report


def _judgment(record: dict) -> HumanJudgment:
    return HumanJudgment(
        system=id_field(record["system"], "system"),
        score=number_field(record["score"], "score"),
        segment=None if record.get("segment") is None else id_field(record["segment"], "segment"),
        dimension=None if record.get("dimension") is None else id_field(record["dimension"], "dimension"),
    )


def _judgments_by_line(path: str | Path) -> list[HumanJudgment]:
    """`load_human_judgments`, one line at a time: the path that reports every error."""
    judgments: list[HumanJudgment] = []
    seen = set()
    for lineno, judgment in read_jsonl(path, _judgment, "judgment"):
        key = (judgment.system, judgment.segment, judgment.dimension)
        if key in seen:
            raise CorpusFormatError(f"duplicate judgment for {key}", str(path), lineno)
        seen.add(key)
        judgments.append(judgment)
    return judgments


_SCORE_TYPES = frozenset({float, int})
_ID_TYPES = frozenset({str, int})
_OPTIONAL_ID_TYPES = frozenset({str, int, type(None)})


def _id_column(values: list, allowed) -> list:
    """The `id_field` of each of `values` (None kept); ChunkRejected where one would fail it."""
    types = {*map(type, values)}
    if not types <= allowed:
        raise ChunkRejected
    if int in types:
        return [None if v is None else str(v) for v in values]
    return values


def _judgment_chunk(records: list[dict], keys: set) -> list[HumanJudgment]:
    """The `_judgment` of every record of a chunk, checked a column at a time.

    Adds each judgment's (system, segment, dimension) to `keys`. Raises
    ChunkRejected where `_judgment` might reject a record.
    """
    try:
        systems = list(map(itemgetter("system"), records))
        scores = list(map(itemgetter("score"), records))
    except KeyError:
        raise ChunkRejected from None
    systems = _id_column(systems, _ID_TYPES)
    segments = _id_column(list(map(dict.get, records, repeat("segment"))), _OPTIONAL_ID_TYPES)
    dimensions = _id_column(list(map(dict.get, records, repeat("dimension"))), _OPTIONAL_ID_TYPES)
    score_types = {*map(type, scores)}
    if not score_types <= _SCORE_TYPES:
        raise ChunkRejected
    if int in score_types:
        try:
            scores = list(map(float, scores))
        except OverflowError:
            raise ChunkRejected from None
    # Not finite where a score is not, or where finite ones overflow together.
    if not math.isfinite(sum(scores)):
        raise ChunkRejected
    keys.update(zip(systems, segments, dimensions))
    # `HumanJudgment` without its `__new__`, whose one check is done above.
    return list(map(tuple.__new__, repeat(HumanJudgment), zip(systems, scores, segments, dimensions)))


def load_human_judgments(path: str | Path) -> list[HumanJudgment]:
    """Read human.jsonl: `{"system", "segment"|null, "dimension"|null, "score"}`.

    Records are decoded and checked a chunk of lines at a time. Where a
    chunk holds anything `_judgment` might reject, or two judgments share a
    key, the file is read again one line at a time, and that path alone
    raises the error, at its line.
    """
    judgments: list[HumanJudgment] = []
    keys = set()
    try:
        for records in read_jsonl_chunks(path):
            judgments += _judgment_chunk(records, keys)
    except ChunkRejected:
        return _judgments_by_line(path)
    if len(keys) != len(judgments):
        return _judgments_by_line(path)
    return judgments


def human_score_tables(judgments):
    """System-level human scores, the overall segment-level table and one table per dimension.

    System scores: explicit system-level judgments (segment None, dimension
    None) win; systems without one fall back to the mean of their overall
    segment-level scores. When a corpus carries only per-dimension judgments,
    the mean across all dimensions and samples serves as the overall proxy.
    The segment tables are keyed by (system, segment). Dimensions come in
    sorted order; one with only system-level judgments gets an empty table.
    """
    explicit: dict[str, float] = {}
    segment_sums: dict[str, list[float]] = {}
    dimension_sums: dict[str, list[float]] = {}
    overall: dict[tuple[str, str], float] = {}
    by_dimension: dict[str, dict[tuple[str, str], float]] = {}
    for j in judgments:
        if j.dimension is not None:
            dimension_sums.setdefault(j.system, []).append(j.score)
            table = by_dimension.setdefault(j.dimension, {})
            if j.segment is not None:
                table[(j.system, j.segment)] = j.score
        elif j.segment is None:
            explicit[j.system] = j.score
        else:
            segment_sums.setdefault(j.system, []).append(j.score)
            overall[(j.system, j.segment)] = j.score
    if not explicit and not segment_sums:
        segment_sums = dimension_sums
    scores = {}
    for system, values in segment_sums.items():
        try:
            scores[system] = mean(values)
        except ValueError as exc:
            raise ValueError(f"cannot average the human scores of system {system!r}: {exc}") from None
    scores.update(explicit)
    return scores, overall, {dim: by_dimension[dim] for dim in sorted(by_dimension)}


def meta_evaluate_all(
    scores_by_metric, judgments, name: str | None = None
) -> list[MetaEvalReport]:
    """One agreement report per metric, in sorted metric order.

    `scores_by_metric` maps a metric name to its per-(system, segment)
    scores. The human side is built from `judgments` once and shared by
    every metric: the human scores on the keys a metric shares, with their
    Kendall tie count or their ranks, are computed once per set of keys.
    """
    human_system, human_segment, human_dimensions = human_score_tables(judgments)
    # Sorted once; each metric keeps the keys it shares, still in sorted order.
    segment_keys = sorted(human_segment)
    dimension_keys = {dim: sorted(table) for dim, table in human_dimensions.items()}
    shared = {}

    def human_side(dim, table, keys, summary):
        """The human scores of `table` on `keys`, and their `summary`, once per dimension and keys."""
        if (dim, keys) not in shared:
            values = [table[k] for k in keys]
            shared[dim, keys] = values, summary(values)
        return shared[dim, keys]

    reports = []
    for metric_name in sorted(scores_by_metric):
        metric_segment_scores = scores_by_metric[metric_name]
        if not metric_segment_scores:
            raise ValueError("no metric scores given")
        metric_system = system_scores(metric_segment_scores, metric_name)

        accuracy, pairs_used = pairwise_accuracy(metric_system, human_system)
        common_systems = sorted(set(metric_system) & set(human_system))
        rho = pearson(
            [metric_system[s] for s in common_systems],
            [human_system[s] for s in common_systems],
        )

        tau = None
        if human_segment:
            keys = tuple(k for k in segment_keys if k in metric_segment_scores)
            if len(keys) < 2:
                raise ValueError("segment kendall needs at least two common (system, segment) keys")
            human, ties = human_side(None, human_segment, keys, _tie_pairs)
            tau = kendall_tau([metric_segment_scores[k] for k in keys], human, ties)

        spearman_by_dim = None
        if human_dimensions:
            spearman_by_dim = {}
            for dim, human_dim in human_dimensions.items():
                keys = tuple(k for k in dimension_keys[dim] if k in metric_segment_scores)
                if len(keys) < 2:
                    raise ValueError(f"dimension {dim!r} shares fewer than two samples")
                human, ranks = human_side(dim, human_dim, keys, midranks)
                spearman_by_dim[dim] = spearman([metric_segment_scores[k] for k in keys], human, ranks)

        segments = {segment for (_system, segment) in metric_segment_scores}
        reports.append(
            MetaEvalReport(
                metric=metric_name,
                pairwise_accuracy=accuracy,
                n_pairs_used=pairs_used,
                pearson=rho,
                kendall=tau,
                spearman=spearman_by_dim,
                name=name,
                n_systems=len(common_systems),
                n_segments=len(segments),
            )
        )
    return reports


def meta_evaluate(
    metric_segment_scores,
    judgments,
    metric_name: str,
    name: str | None = None,
) -> MetaEvalReport:
    """Build a full agreement report from per-(system, segment) metric scores.

    `metaeval` runs `meta_evaluate_all`, which this calls for one metric; it
    stays only because pipebench/tracer.py wraps it.
    """
    (report,) = meta_evaluate_all({metric_name: metric_segment_scores}, judgments, name)
    return report
