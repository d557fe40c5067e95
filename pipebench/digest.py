"""Canonical digests of stage outputs: the benchmark's behaviour gate.

A digest covers result content only, keyed and sorted so that it ignores
record order, timestamps and keys it does not know (run signatures or stats
a later version may add). Two outputs with the same digest carry the same
scores, candidates and statistics.
"""

import hashlib
import json
from pathlib import Path

#: Numeric fields of a metaeval report entry.
METAEVAL_FIELDS = ("pairwise_accuracy", "n_pairs_used", "pearson", "kendall", "spearman",
                   "n_systems", "n_segments")


def read_jsonl(path: Path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _nest(table: dict, keys, value) -> None:
    for key in keys[:-1]:
        table = table.setdefault(key, {})
    table[keys[-1]] = value


def canonical_matrix(path: Path) -> dict:
    """metric -> system -> segment -> reference cells, from a score matrix."""
    table: dict = {}
    for row in read_jsonl(path):
        _nest(table, (row["metric"], row["system"], row["segment"]), row["scores"])
    return table


def canonical_summary(path: Path) -> dict:
    return {"metrics": read_json(path)["metrics"]}


def canonical_generation(path: Path) -> dict:
    """segment_id -> candidates and error, from generate or select output."""
    return {
        record["segment_id"]: {"candidates": record["candidates"], "error": record.get("error")}
        for record in read_jsonl(path)
    }


def canonical_select_report(path: Path) -> dict:
    return {segment: {"self_bleu": entry["self_bleu"]} for segment, entry in read_json(path).items()}


def canonical_combined(path: Path) -> dict:
    table: dict = {}
    for row in read_jsonl(path):
        _nest(table, (row["metric"], row["system"], row["segment"]), row["score"])
    return table


def canonical_metaeval(path: Path) -> dict:
    return {
        entry["metric"]: {field: entry.get(field) for field in METAEVAL_FIELDS}
        for entry in read_json(path)
    }


CANONICAL = {
    "matrix": canonical_matrix,
    "summary": canonical_summary,
    "generation": canonical_generation,
    "select_report": canonical_select_report,
    "combined": canonical_combined,
    "metaeval": canonical_metaeval,
}


def digest_of(content) -> str:
    text = json.dumps(content, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_file(kind: str, path: Path) -> str:
    """Digest of one output file read as `kind` (a key of CANONICAL)."""
    return digest_of(CANONICAL[kind](path))
