"""Combine per-reference scores into one score per hypothesis.

This is the integration point for externally produced neural-metric score
matrices: one row per (system, segment) hypothesis, one column per reference,
combined with max (the default), mean, or top-k mean. The row scores average
into a system-level score.
"""

import json
import math
from pathlib import Path

from .corpus_io import (
    id_field,
    number_field,
    parse_record,
    read_jsonl_records,
    write_all_or_nothing,
    write_jsonl,
)
from .errors import CorpusFormatError
from .records import check_count, record

COMBINE_KINDS = ("max", "mean", "top_k_mean")


class CombinePolicy(record("CombinePolicy", "kind k")):
    __slots__ = ()

    def __new__(cls, kind: str = "max", k: int | None = None):
        if kind not in COMBINE_KINDS:
            raise ValueError(f"unknown combine kind {kind!r}")
        if kind == "top_k_mean":
            if k is None:
                raise ValueError("top_k_mean requires k >= 1")
            check_count(k, "k")
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


def combine_matrix(
    rows: dict[tuple[str, str], dict[str, float]], policy: CombinePolicy | None = None
) -> dict[tuple[str, str], float]:
    """Reduce each `{(system, segment): {ref: score}}` row with `policy`, keeping the keys.

    `combine` and `metaeval` run `load_combined`, which reduces each row as it
    is read; this stays only because pipebench/tracer.py wraps it.
    """
    if not rows:
        raise ValueError("cannot combine an empty matrix")
    reduce = _reducer(policy)
    combined = {}
    for key, cells in rows.items():
        if not cells:
            raise ValueError("cannot combine an empty score list")
        combined[key] = reduce(list(cells.values()))
    return combined


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
    if not {*map(type, cells.values())} <= _NUMBER_TYPES:
        for ref_id, value in cells.items():
            number_field(value, f"score {ref_id!r}")
    values = list(map(float, cells.values()))
    if not values:
        raise ValueError("matrix row must have at least one score")
    # A finite sum proves every value finite; a sum that is not may still
    # come from finite values that overflow together.
    if not math.isfinite(sum(values)):
        for ref_id, value in zip(cells, values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite score for ({system}, {segment}, {ref_id})")
    return metric, (system, segment), cells, values


def _read_matrix(path: str | Path, reduce=None) -> dict[str, dict[tuple[str, str], object]]:
    """Read a matrix JSONL file row by row, keeping `reduce(values)` of each, or without `reduce` its cells.

    Each line holds `{"system": str, "segment": str, "scores": {ref: num},
    "metric": str}`. `values` are a row's scores as floats, at least one and
    all finite, and its cells `{ref: score}` of them. Malformed lines, duplicate
    (system, segment) rows of a metric and rows `reduce` rejects are reported
    with file and line number.
    """
    matrices: dict[str, dict[tuple[str, str], object]] = {}
    for lineno, record in read_jsonl_records(path, "matrix row"):
        # `_matrix_row`'s checks for the common row: string ids and at least
        # one score, every one a float, with a finite sum. Any other row goes
        # through `_matrix_row`, which converts it or words its error.
        values = None
        try:
            metric, system, segment, cells = record["metric"], record["system"], record["segment"], record["scores"]
        except KeyError:
            pass
        else:
            if type(metric) is str and type(system) is str and type(segment) is str and type(cells) is dict:
                values = cells.values()
                if {*map(type, values)} != _FLOAT or not math.isfinite(sum(values)):
                    values = None
        if values is None:
            metric, key, cells, values = parse_record(_matrix_row, record, "matrix row", path, lineno)
        else:
            key = (system, segment)
        rows = matrices.get(metric)
        if rows is None:
            rows = matrices[metric] = {}
        if key in rows:
            raise CorpusFormatError(f"duplicate matrix row for {key}", str(path), lineno)
        if reduce is None:
            rows[key] = dict(zip(cells, values))
            continue
        try:
            rows[key] = reduce(values)
        except ValueError as exc:
            raise CorpusFormatError(f"cannot combine row: {exc}", str(path), lineno)
    return matrices


def load_score_matrices(path: str | Path) -> dict[str, dict[tuple[str, str], dict[str, float]]]:
    """Read a matrix JSONL file as `{metric: {(system, segment): {ref: score}}}`, in file order."""
    return _read_matrix(path)


def load_combined(
    path: str | Path, policy: CombinePolicy | None = None
) -> dict[str, dict[tuple[str, str], float]]:
    """Read a matrix JSONL file, combining each row with `policy` as it is read.

    Returns `{metric: {(system, segment): score}}` in file order, the same as
    `combine_matrix` over `load_score_matrices`, without holding the matrix.
    """
    return _read_matrix(path, _reducer(policy))


def write_score_matrix(path: str | Path, rows) -> None:
    """Write `(metric, system, segment, {ref: score})` rows as a matrix JSONL file, in order."""
    write_jsonl(path, (
        {"system": system, "segment": segment, "scores": cells, "metric": metric}
        for metric, system, segment, cells in rows
    ))


def write_combined(path: str | Path, combined_by_metric: dict[str, dict[tuple[str, str], float]]) -> None:
    """Write `{metric: {(system, segment): score}}` as combined-score JSONL, metrics sorted, all or nothing.

    Each line is what `json.dumps({"system", "segment", "score", "metric"},
    ensure_ascii=False)` writes for string ids and a finite float score,
    written from one template per metric: each id through `json`'s string
    encoder and the score through `float.__repr__`, as `json` writes them.
    """
    encode = json.encoder.encode_basestring

    def chunks():
        for metric in sorted(combined_by_metric):
            tail = f', "metric": {encode(metric)}}}\n'
            yield "".join([
                f'{{"system": {encode(system)}, "segment": {encode(segment)}, "score": {float.__repr__(score)}{tail}'
                for (system, segment), score in combined_by_metric[metric].items()
            ])

    write_all_or_nothing(path, chunks())
