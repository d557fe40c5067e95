"""Ingestion and persistence of test sets, system outputs, and reference sets.

This module alone encodes and decodes files. `read_lines` skips one leading
byte-order mark and decodes each line as UTF-8 on its own; `read_jsonl` (one
JSON object per line) and the subword vocabulary read through it, and JSON
documents through `read_json`:

- segments.jsonl: ``{"id", "source", "gold_refs": [..]}``
- outputs.jsonl:  ``{"system", "segment", "hypothesis"}``
- refs.jsonl:     generation records (see refgen)
- human.jsonl:    human judgments (see metaeval)
- matrix.jsonl:   score matrices (see combine)

Outputs are UTF-8 JSON with non-ASCII text unescaped, through `write_jsonl`
(one record per line) or `write_json` (one document, indented by 2).

Loaded corpora are fully cross-validated (every hypothesis keyed to a known
segment) and treated as immutable afterwards.
"""

import codecs
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import CorpusFormatError


@dataclass(frozen=True)
class Segment:
    """One source item with its gold and generated references."""

    id: str
    source: str
    gold_refs: tuple[str, ...] = ()
    generated_refs: tuple[str, ...] = ()

    def scoring_refs(self, mode: str = "both", max_generated: int | None = None):
        """Reference texts used for scoring: 'gold', 'generated', or 'both'.

        `max_generated` caps the generated list (generation order) for
        reference-count sweeps; gold references are never capped.
        """
        if mode not in ("gold", "generated", "both"):
            raise ValueError(f"unknown reference mode {mode!r}")
        generated = list(self.generated_refs)
        if max_generated is not None:
            generated = generated[:max_generated]
        if mode == "gold":
            return list(self.gold_refs)
        if mode == "generated":
            return generated
        return list(self.gold_refs) + generated


@dataclass
class EvalCorpus:
    """Segments plus per-system hypotheses for one language pair or task."""

    segments: list[Segment] = field(default_factory=list)
    systems: dict[str, dict[str, str]] = field(default_factory=dict)

    def segment_ids(self) -> list[str]:
        return [segment.id for segment in self.segments]

    def segment(self, segment_id: str) -> Segment:
        for segment in self.segments:
            if segment.id == segment_id:
                return segment
        raise KeyError(segment_id)


_JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def text_field(value, name: str) -> str:
    """`value` if it is a string; a TypeError naming the field otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {_json_type(value)}")
    return value


def id_field(value, name: str) -> str:
    """`value` if it is a string, `str(value)` if it is a JSON integer; a TypeError naming the field otherwise."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a string or an integer, got {_json_type(value)}")
    return str(value)


def number_field(value, name: str) -> float:
    """`value` as a float if it is a finite JSON number, not a boolean or string; an error naming it otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {_json_type(value)}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


def bool_field(value, name: str) -> bool:
    """`value` if it is true or false; a TypeError naming the field otherwise."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a boolean, got {_json_type(value)}")
    return value


def text_list(value, name: str) -> tuple[str, ...]:
    """`value` as a tuple if it is a list of strings; a TypeError naming the field otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of strings, got {_json_type(value)}")
    return tuple(text_field(item, f"{name}[{i}]") for i, item in enumerate(value))


def json_object(value, name: str) -> dict:
    """`value` if it is a JSON object; a TypeError naming it otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {_json_type(value)}")
    return value


# What decoding, `json.loads` (RecursionError for nesting too deep) or a
# `parse` callback raise for input they reject.
_PARSE_ERRORS = (KeyError, TypeError, AttributeError, ValueError, OverflowError, RecursionError)


def _reason(exc: Exception) -> str:
    return f"bad JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else str(exc)


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CorpusFormatError(f"cannot open: {exc.strerror}", str(path)) from None


def read_lines(path: str | Path, what: str):
    """Yield `(lineno, line)` for each `\\n`-ended line of a file, decoded as UTF-8 with its end kept.

    One leading byte-order mark is skipped. A file that cannot be opened
    fails at `path`; a line that is not UTF-8 fails as
    `invalid <what>: <reason>` at `path:lineno`.
    """
    with _open(path) as handle:
        if handle.peek(3).startswith(codecs.BOM_UTF8):
            handle.read(3)
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"invalid {what}: {exc}", str(path), lineno) from None
            yield lineno, line


def read_jsonl(path: str | Path, parse, what: str):
    """Yield `(lineno, parse(record))` for each non-blank line of a JSONL file.

    Each line from `read_lines` must hold one JSON object, which `parse`
    turns into a value; one that does not, or that `parse` rejects with one of
    `_PARSE_ERRORS`, fails as `read_lines` errors do.
    """
    for lineno, line in read_lines(path, what):
        line = line.strip()
        if not line:
            continue
        try:
            value = parse(json_object(json.loads(line), "record"))
        except _PARSE_ERRORS as exc:
            raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path), lineno) from None
        yield lineno, value


def read_json(path: str | Path, parse, what: str):
    """`parse(document)` of a UTF-8 file holding one JSON object, a leading BOM skipped.

    Errors are `read_jsonl`'s, at `path`.
    """
    with _open(path) as handle:
        data = handle.read()
    try:
        return parse(json_object(json.loads(data.decode("utf-8-sig")), "document"))
    except _PARSE_ERRORS as exc:
        raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path)) from None


_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def jsonl_line(record) -> str:
    """`record` as one compact JSONL line, non-ASCII text unescaped, newline included."""
    return _encode_line(record) + "\n"


def write_jsonl(path: str | Path, records, append: bool = False) -> None:
    """Write each of `records` (any iterable, consumed once) as one UTF-8 JSONL line."""
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        handle.writelines(map(jsonl_line, records))


def write_json(path: str | Path, document) -> None:
    """Write `document` as UTF-8 JSON indented by 2, with no trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, ensure_ascii=False, indent=2))


def _segment(record: dict) -> Segment:
    return Segment(
        id=id_field(record["id"], "id"),
        source=text_field(record["source"], "source"),
        gold_refs=text_list(record.get("gold_refs", []), "gold_refs"),
    )


def load_segments(path: str | Path) -> list[Segment]:
    segments: list[Segment] = []
    seen: set[str] = set()
    for lineno, segment in read_jsonl(path, _segment, "segment"):
        if segment.id in seen:
            raise CorpusFormatError(f"duplicate segment id {segment.id!r}", str(path), lineno)
        seen.add(segment.id)
        segments.append(segment)
    if not segments:
        raise CorpusFormatError("no segments found", str(path))
    return segments


def _output(record: dict) -> tuple[str, str, str]:
    return (
        id_field(record["system"], "system"),
        id_field(record["segment"], "segment"),
        text_field(record["hypothesis"], "hypothesis"),
    )


def load_outputs(
    path: str | Path, known_ids: set[str] | None = None
) -> dict[str, dict[str, str]]:
    """Load outputs.jsonl; segment ids are validated when known_ids is given."""
    systems: dict[str, dict[str, str]] = {}
    for lineno, (system, segment, hypothesis) in read_jsonl(path, _output, "output record"):
        if known_ids is not None and segment not in known_ids:
            raise CorpusFormatError(
                f"hypothesis references unknown segment {segment!r}", str(path), lineno
            )
        per_system = systems.setdefault(system, {})
        if segment in per_system:
            raise CorpusFormatError(
                f"duplicate hypothesis for ({system!r}, {segment!r})", str(path), lineno
            )
        per_system[segment] = hypothesis
    return systems


def load_corpus(
    segments_path: str | Path,
    outputs_path: str | Path | None = None,
) -> EvalCorpus:
    """Load and cross-validate a corpus from its JSONL files."""
    segments = load_segments(segments_path)
    systems = {}
    if outputs_path is not None:
        systems = load_outputs(outputs_path, {s.id for s in segments})
    return EvalCorpus(segments=segments, systems=systems)


def merge_references(corpus: EvalCorpus, records) -> EvalCorpus:
    """Attach generated candidates to segments.

    Successful records populate generated_refs; `Segment.scoring_refs`
    chooses between gold and generated references. Records for unknown
    segment ids are an error; segments without a record keep an empty
    generated list.
    """
    known = set(corpus.segment_ids())
    by_segment: dict[str, tuple[str, ...]] = {}
    for record in records:
        if record.segment_id not in known:
            raise ValueError(f"record references unknown segment {record.segment_id!r}")
        if record.succeeded:
            by_segment[record.segment_id] = tuple(record.candidates)
    merged = [
        replace(segment, generated_refs=by_segment.get(segment.id, ()))
        for segment in corpus.segments
    ]
    return EvalCorpus(segments=merged, systems=dict(corpus.systems))

