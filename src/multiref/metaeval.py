"""Correlation of metric scores with human judgments.

System-level pairwise accuracy and Pearson, segment-level Kendall tau-b,
sample-level Spearman, and the leakage-gap report. Degenerate inputs (all
ties, zero variance) raise DegenerateDataError instead of returning NaN.
`load_human_judgments` reads a human file into `HumanTables`, its three
classes of judgment: system level, overall segment level and per dimension;
`human_score_tables` builds the same tables from a list of judgments.
"""

import math
from collections import Counter
from itertools import combinations, count, groupby, repeat
from operator import itemgetter, mul
from pathlib import Path

from .combine import mean, system_scores
from .corpus_io import id_field, number_field, parse_record, read_jsonl_records
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
    sxx = math.fsum(map(mul, dx, dx))
    syy = math.fsum(map(mul, dy, dy))
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
        product = math.fsum(map(mul, dx, dx)) * math.fsum(map(mul, dy, dy))
    if not math.isfinite(product):
        # A deviation, sxx or syy past the float range makes this infinite too.
        raise ValueError(f"pearson of {len(x)} pairs overflows the float range")
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(product)
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


def spearman(x, y, y_ranks: list[float] | None = None, x_ranks: list[float] | None = None) -> float:
    """Pearson correlation of mid-ranks.

    `y_ranks` and `x_ranks`, the `midranks` of `y` and `x`, are computed when not given.
    """
    _check_paired(x, y)
    try:
        return pearson(midranks(x) if x_ranks is None else x_ranks, midranks(y) if y_ranks is None else y_ranks)
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


# `load_human_judgments` checks this many records together: enough to make
# its per-batch work small, few enough to hold only a small part of a large
# file's records at a time.
JUDGMENT_BATCH = 1000


class _BatchRejected(Exception):
    """A batch of records that `_judgment` might reject: each is then checked on its own, at its line."""


_SCORE_TYPES = frozenset({float, int})
_ID_TYPES = frozenset({str, int})
_OPTIONAL_ID_TYPES = frozenset({str, int, type(None)})


def _id_column(values: list, allowed) -> list:
    """The `id_field` of each of `values` (None kept); _BatchRejected where one would fail it."""
    types = {*map(type, values)}
    if not types <= allowed:
        raise _BatchRejected
    if int in types:
        return [None if v is None else str(v) for v in values]
    return values


def _judgment_columns(records: list[dict]) -> tuple[list, list, list, list]:
    """The systems, segments, dimensions and scores of a batch's records, as `_judgment` reads them.

    Raises _BatchRejected where `_judgment` might reject a record.
    """
    try:
        systems = list(map(itemgetter("system"), records))
        scores = list(map(itemgetter("score"), records))
    except KeyError:
        raise _BatchRejected from None
    systems = _id_column(systems, _ID_TYPES)
    segments = _id_column(list(map(dict.get, records, repeat("segment"))), _OPTIONAL_ID_TYPES)
    dimensions = _id_column(list(map(dict.get, records, repeat("dimension"))), _OPTIONAL_ID_TYPES)
    score_types = {*map(type, scores)}
    if not score_types <= _SCORE_TYPES:
        raise _BatchRejected
    if int in score_types:
        try:
            scores = list(map(float, scores))
        except OverflowError:
            raise _BatchRejected from None
    # Not finite where a score is not, or where finite ones overflow together.
    if not math.isfinite(sum(scores)):
        raise _BatchRejected
    return systems, segments, dimensions, scores


def _columns(judgments) -> tuple:
    """The systems, segments, dimensions and scores of `HumanJudgment`s."""
    systems, scores, segments, dimensions = list(zip(*judgments)) or [(), (), (), ()]
    return systems, segments, dimensions, scores


class HumanTables(record("HumanTables", "system segment dimensions")):
    """The human side of a meta-evaluation: system scores, the overall segment table and one table per dimension.

    `system` maps each system to its score. An explicit system-level
    judgment (segment None, dimension None) wins; a system without one takes
    the mean of its overall segment-level scores. When a corpus carries only
    per-dimension judgments, the mean across all of a system's dimensions
    and samples serves as the overall proxy. `segment` maps each (system,
    segment) to its overall score, and `dimensions` each dimension, in sorted
    order, to its own `{(system, segment): score}` table; a dimension with
    only system-level judgments gets an empty table.
    """

    __slots__ = ()


class _TableBuilder:
    """`HumanTables` built from judgments added a column at a time."""

    __slots__ = ("systems", "ids", "keys", "explicit", "overall", "by_dimension", "system_dimension")

    def __init__(self):
        self.systems = {}  # each system id, kept once, in first-seen order
        self.ids = {}  # each segment and dimension id, kept once
        self.keys = {}  # each (system, segment) key, made once and shared by every table
        self.explicit = {}  # system -> its system-level score
        self.overall = {}
        self.by_dimension = {}
        self.system_dimension = {}  # (system, dimension) -> its system-level score

    def add(self, systems, segments, dimensions, scores):
        """Add the judgments of these columns; `(position, key)` of the first that repeats one added before, else None.

        The judgments before that first repeat are added; it and those after are not.
        """
        system_id, other_id, shared_key = self.systems.setdefault, self.ids.setdefault, self.keys.setdefault
        explicit, overall, by_dimension = self.explicit, self.overall, self.by_dimension
        for position, system, segment, dimension, score in zip(
            count(), map(system_id, systems, systems), map(other_id, segments, segments),
            map(other_id, dimensions, dimensions), scores,
        ):
            if segment is None:
                if dimension is None:
                    table, key = explicit, system
                else:
                    table, key = self.system_dimension, (system, dimension)
                    by_dimension.setdefault(dimension, {})
            else:
                key = (system, segment)
                key = shared_key(key, key)
                if dimension is None:
                    table = overall
                else:
                    table = by_dimension.get(dimension)
                    if table is None:
                        table = by_dimension[dimension] = {}
            if key in table:
                return position, (system, segment, dimension)
            table[key] = score
        return None

    def tables(self) -> HumanTables:
        """The tables of the judgments added; ValueError where a system's scores sum past the float range."""
        explicit, overall, by_dimension = self.explicit, self.overall, self.by_dimension
        # Each mean's scores, by system in the order the scores were first
        # seen: every judgment is a dimension one where the fallback applies.
        if explicit or overall:
            sources, by_system = [overall], {}
        else:
            sources, by_system = [*by_dimension.values(), self.system_dimension], {s: [] for s in self.systems}
        for table in sources:
            for (system, _), score in table.items():
                by_system.setdefault(system, []).append(score)
        scores = {}
        for system, values in by_system.items():
            try:
                scores[system] = mean(values)
            except ValueError as exc:
                raise ValueError(f"cannot average the human scores of system {system!r}: {exc}") from None
        scores.update(explicit)
        return HumanTables(scores, overall, {dim: by_dimension[dim] for dim in sorted(by_dimension)})


def _record_batches(path: str | Path):
    """Yield `(linenos, records)` for `read_jsonl_records(path, "judgment")`, `JUDGMENT_BATCH` records at a time.

    A line that fails to decode is raised after the records before it are yielded.
    """
    linenos, records = [], []
    try:
        for lineno, record in read_jsonl_records(path, "judgment"):
            linenos.append(lineno)
            records.append(record)
            if len(records) == JUDGMENT_BATCH:
                yield linenos, records
                linenos, records = [], []
    except CorpusFormatError:
        if records:
            yield linenos, records
        raise
    if records:
        yield linenos, records


def _add_rows(builder: _TableBuilder, columns, linenos, path: str | Path) -> None:
    """`builder.add(*columns)`, failing at the line of the first judgment that repeats an earlier one."""
    duplicate = builder.add(*columns)
    if duplicate is not None:
        position, key = duplicate
        raise CorpusFormatError(f"duplicate judgment for {key}", str(path), linenos[position])


def load_human_judgments(path: str | Path) -> HumanTables:
    """Read human.jsonl, `{"system", "segment"|null, "dimension"|null, "score"}` per line, as its `HumanTables`.

    The file is read once. Its records are checked in batches of
    `JUDGMENT_BATCH`, and added to the tables a column at a time. A batch
    that holds anything `_judgment` might reject is checked one record at a
    time, so each error is raised at its line: the first bad or repeated
    judgment, or a line that fails to decode, in file order. A system whose
    scores sum past the float range fails at `path`.
    """
    builder = _TableBuilder()
    for linenos, records in _record_batches(path):
        try:
            columns = _judgment_columns(records)
        except _BatchRejected:
            for lineno, record in zip(linenos, records):
                judgment = parse_record(_judgment, record, "judgment", path, lineno)
                _add_rows(builder, _columns([judgment]), [lineno], path)
        else:
            _add_rows(builder, columns, linenos, path)
    try:
        return builder.tables()
    except ValueError as exc:
        raise CorpusFormatError(str(exc), str(path)) from None


def human_score_tables(judgments) -> HumanTables:
    """The `HumanTables` of a sequence of `HumanJudgment`s, as `load_human_judgments` builds them from a file.

    Raises ValueError where two judgments share a (system, segment,
    dimension), or a system's scores sum past the float range.
    """
    builder = _TableBuilder()
    duplicate = builder.add(*_columns(judgments))
    if duplicate is not None:
        raise ValueError(f"duplicate judgment for {duplicate[1]}")
    return builder.tables()


def meta_evaluate_all(scores_by_metric, human: HumanTables, name: str | None = None) -> list[MetaEvalReport]:
    """One agreement report per metric, in sorted metric order.

    `scores_by_metric` maps a metric name to its per-(system, segment)
    scores, and `human` is the `HumanTables` every metric is compared with.
    Human tables with the same keys share one sorted key tuple. On each such
    key set, a metric's scores are gathered, and ranked, once; the human
    scores on the keys a metric shares, with their Kendall tie count or
    their ranks, are computed once per table and keys.
    """
    human_system, human_segment, human_dimensions = human
    # The overall table, then each dimension's: the order of the statistics, and of their errors.
    tables = {None: human_segment} if human_segment else {}
    tables.update(human_dimensions)
    # Key set -> (the first equal key set, its keys sorted): equal key sets
    # then meet as one object, which dict lookups compare by identity.
    sorted_keys = {}
    table_keys = {}
    for dim, table in tables.items():
        key_set = frozenset(table)
        if key_set not in sorted_keys:
            sorted_keys[key_set] = key_set, tuple(sorted(table))
        table_keys[dim] = sorted_keys[key_set]
    human_sides = {}

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
        spearman_by_dim = {} if human_dimensions else None
        gathered = {}  # key set -> [the keys the metric shares, its scores on them, their ranks]
        for dim, table in tables.items():
            key_set, all_keys = table_keys[dim]
            side = gathered.get(key_set)
            if side is None:
                keys = all_keys
                if not key_set <= metric_segment_scores.keys():
                    keys = tuple(filter(metric_segment_scores.__contains__, all_keys))
                side = gathered[key_set] = [keys, list(map(metric_segment_scores.__getitem__, keys)), None]
            keys, scores = side[0], side[1]
            if len(keys) < 2:
                if dim is None:
                    raise ValueError("segment kendall needs at least two common (system, segment) keys")
                raise ValueError(f"dimension {dim!r} shares fewer than two samples")
            # A full key tuple is shared by every metric, and not hashed.
            human_key = (dim, None if keys is all_keys else keys)
            if human_key not in human_sides:
                values = list(map(table.__getitem__, keys))
                human_sides[human_key] = values, (_tie_pairs if dim is None else midranks)(values)
            human_scores, summary = human_sides[human_key]
            if dim is None:
                tau = kendall_tau(scores, human_scores, summary)
            else:
                if side[2] is None:
                    side[2] = midranks(scores)
                spearman_by_dim[dim] = spearman(scores, human_scores, summary, side[2])

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
    human: HumanTables,
    metric_name: str,
    name: str | None = None,
) -> MetaEvalReport:
    """Build a full agreement report from per-(system, segment) metric scores and the human tables.

    `metaeval` runs `meta_evaluate_all`, which this calls for one metric; it
    stays only because pipebench/tracer.py wraps it.
    """
    (report,) = meta_evaluate_all({metric_name: metric_segment_scores}, human, name)
    return report
