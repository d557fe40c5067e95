"""Combine per-reference scores into one score per hypothesis.

This is the integration point for externally produced neural-metric score
matrices: one row per (system, segment) hypothesis, one column per reference,
combined with max (the default), mean, or top-k mean. The row scores average
into a system-level score.
"""

import math
from pathlib import Path

from .corpus_io import id_field, number_field, read_jsonl, write_jsonl
from .errors import CorpusFormatError
from .records import record

COMBINE_KINDS = ("max", "mean", "top_k_mean")


class CombinePolicy(record("CombinePolicy", "kind k")):
    __slots__ = ()

    def __new__(cls, kind: str = "max", k: int | None = None):
        if kind not in COMBINE_KINDS:
            raise ValueError(f"unknown combine kind {kind!r}")
        if kind == "top_k_mean":
            if k is None or k < 1:
                raise ValueError("top_k_mean requires k >= 1")
        elif k is not None:
            raise ValueError(f"k is only valid for top_k_mean, not {kind!r}")
        return tuple.__new__(cls, (kind, k))


def mean(scores) -> float:
    """The mean of a non-empty list of finite scores: their `math.fsum` over their number.

    Raises ValueError, not OverflowError, where finite scores sum past the
    float range, so that callers report it as bad input.
    """
    try:
        return math.fsum(scores) / len(scores)
    except OverflowError:
        raise ValueError(f"the sum of {len(scores)} scores overflows") from None


def _reducer(policy: CombinePolicy | None):
    """The policy's reduction of one non-empty list of row scores."""
    policy = policy or CombinePolicy()
    if policy.kind == "max":
        return max
    if policy.kind == "mean":
        return mean
    k = policy.k

    def top_k_mean(scores):
        if k > len(scores):
            raise ValueError(f"k={k} exceeds the {len(scores)} available scores")
        return mean(sorted(scores, reverse=True)[:k])

    return top_k_mean


def combine_row(scores, policy: CombinePolicy | None = None) -> float:
    """Reduce one row's per-reference scores to a single value."""
    reduce = _reducer(policy)
    scores = list(scores)
    if not scores:
        raise ValueError("cannot combine an empty score list")
    return reduce(scores)


def combine_matrix(
    rows: dict[tuple[str, str], dict[str, float]], policy: CombinePolicy | None = None
) -> dict[tuple[str, str], float]:
    """Apply combine_row to each `{(system, segment): {ref: score}}` row, keeping the keys."""
    if not rows:
        raise ValueError("cannot combine an empty matrix")
    return {key: combine_row(cells.values(), policy) for key, cells in rows.items()}


def system_score(per_segment) -> float:
    """Arithmetic mean of per-segment scores; the system-level score."""
    if not per_segment:
        raise ValueError("cannot average an empty score map")
    return mean(list(per_segment.values()))


def system_scores(combined: dict[tuple[str, str], float], metric: str) -> dict[str, float]:
    """The mean score of each system of `{(system, segment): score}`, in first-seen order.

    Raises ValueError naming the system and `metric` where the mean overflows.
    """
    by_system: dict[str, list[float]] = {}
    for (system, _segment), score in combined.items():
        by_system.setdefault(system, []).append(score)
    scores = {}
    for system, values in by_system.items():
        try:
            scores[system] = mean(values)
        except ValueError as exc:
            raise ValueError(f"cannot score system {system!r} on metric {metric!r}: {exc}") from None
    return scores


# Exact types, as `json.loads` builds numbers: a bool is no number.
_NUMBER_TYPES = frozenset({int, float})
_FLOAT = frozenset({float})


def _matrix_row(record: dict):
    """(metric, (system, segment), cells, values) of one matrix line."""
    metric = id_field(record["metric"], "metric")
    system = id_field(record["system"], "system")
    segment = id_field(record["segment"], "segment")
    cells = record["scores"]
    values = cells.values()
    types = {*map(type, values)}
    # A row of floats is used through its view, uncopied; any other row is
    # checked, and copied with its integers as floats.
    if types != _FLOAT:
        if not types <= _NUMBER_TYPES:
            for ref_id, value in cells.items():
                number_field(value, f"score {ref_id!r}")
        values = list(map(float, values))
        if not values:
            raise ValueError("matrix row must have at least one score")
    # A finite sum proves every value finite; a sum that is not may still
    # come from finite values that overflow together.
    if not math.isfinite(sum(values)):
        for ref_id, value in zip(cells, values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite score for ({system}, {segment}, {ref_id})")
    return metric, (system, segment), cells, values


def _read_matrix(path: str | Path, reduce) -> dict[str, dict[tuple[str, str], object]]:
    """Read a matrix JSONL file row by row, keeping only `reduce(cells, values)`.

    Each line holds `{"system": str, "segment": str, "scores": {ref: num},
    "metric": str}`. `cells` is the parsed `scores` object and `values` its
    scores as floats, at least one and all finite. Malformed lines, duplicate
    (system, segment) rows of a metric and rows `reduce` rejects are reported
    with file and line number.
    """
    matrices: dict[str, dict[tuple[str, str], object]] = {}
    for lineno, (metric, key, cells, values) in read_jsonl(path, _matrix_row, "matrix row"):
        rows = matrices.setdefault(metric, {})
        if key in rows:
            raise CorpusFormatError(f"duplicate matrix row for {key}", str(path), lineno)
        try:
            rows[key] = reduce(cells, values)
        except ValueError as exc:
            raise CorpusFormatError(f"cannot combine row: {exc}", str(path), lineno)
    return matrices


def load_score_matrices(path: str | Path) -> dict[str, dict[tuple[str, str], dict[str, float]]]:
    """Read a matrix JSONL file as `{metric: {(system, segment): {ref: score}}}`, in file order."""
    return _read_matrix(path, lambda cells, values: dict(zip(cells, values)))


def load_combined(
    path: str | Path, policy: CombinePolicy | None = None
) -> dict[str, dict[tuple[str, str], float]]:
    """Read a matrix JSONL file, combining each row with `policy` as it is read.

    Returns `{metric: {(system, segment): score}}` in file order, the same as
    `combine_matrix` over `load_score_matrices`, without holding the matrix.
    """
    reduce = _reducer(policy)
    return _read_matrix(path, lambda _cells, values: reduce(values))


def write_score_matrix(path: str | Path, rows) -> None:
    """Write `(metric, system, segment, {ref: score})` rows as a matrix JSONL file, in order."""
    write_jsonl(path, (
        {"system": system, "segment": segment, "scores": cells, "metric": metric}
        for metric, system, segment, cells in rows
    ))
