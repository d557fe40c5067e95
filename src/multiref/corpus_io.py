"""Ingestion and persistence of test sets, system outputs, and reference sets.

This module alone encodes and decodes files. Each line reader skips one
leading byte-order mark and decodes each line as UTF-8 on its own:
`read_lines` for the subword vocabulary, and `read_jsonl` (one JSON object
per line) for the JSONL files; JSON documents go through `read_json`:

- segments.jsonl: ``{"id", "source", "gold_refs": [..]}``
- outputs.jsonl:  ``{"system", "segment", "hypothesis"}``
- refs.jsonl:     generation records (see refgen)
- human.jsonl:    human judgments (see metaeval)
- matrix.jsonl:   score matrices (see combine)

`read_jsonl` strips each line and decodes it with one call of the C scanner
under `json.loads`. A line that `json.loads` rejects fails with the same
message, position included. `read_jsonl` is the one path that reports a
bad line. `read_jsonl_chunks`, which only `metaeval.load_human_judgments`
uses, decodes about `JSONL_CHUNK_BYTES` of lines at a time with no Python
code per line; it reports nothing itself, and a chunk it cannot decode
cleanly sends its caller back to `read_jsonl`.

Outputs are UTF-8 JSON with non-ASCII text unescaped, through `write_jsonl`
(one record per line) or `write_json` (one document, indented by 2).

Loaded corpora are fully cross-validated (every hypothesis keyed to a known
segment) and treated as immutable afterwards.
"""

import codecs
import json
import math
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from .errors import CorpusFormatError
from .records import record


class Segment(record("Segment", "id source gold_refs generated_refs", defaults=((), ()))):
    """One source item with its gold and generated references."""

    __slots__ = ()


class EvalCorpus(record("EvalCorpus", "segments systems")):
    """Segments plus per-system hypotheses for one language pair or task; each defaults to a new empty one."""

    __slots__ = ()

    def __new__(
        cls,
        segments: list[Segment] | None = None,
        systems: dict[str, dict[str, str]] | None = None,
    ):
        return tuple.__new__(cls, ([] if segments is None else segments, {} if systems is None else systems))

    def segment_ids(self) -> list[str]:
        return [segment.id for segment in self.segments]


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


# What decoding (RecursionError for nesting too deep) or a `parse` callback
# raise for input they reject.
_PARSE_ERRORS = (KeyError, TypeError, AttributeError, ValueError, OverflowError, RecursionError)

# The C scanner under `json.loads`: `(value, end)` of the JSON value at an index.
_scan_once = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match

# `read_jsonl_chunks` decodes lines of about this many bytes together: enough
# to make its per-chunk work small, few enough to hold only a small part of a
# large file's records at a time.
JSONL_CHUNK_BYTES = 1 << 16


def _no_value(line: str, stopped_at: int) -> json.JSONDecodeError:
    """The error `json.loads(line)` raises where `_scan_once` found no value at `stopped_at`."""
    if line.startswith("\ufeff"):
        return json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    return json.JSONDecodeError("Expecting value", line, stopped_at)


def _reason(exc: Exception) -> str:
    return f"bad JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else str(exc)


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CorpusFormatError(f"cannot open: {exc.strerror}", str(path)) from None


def _open_lines(path):
    """`path` opened for reading its lines, past one leading byte-order mark."""
    handle = _open(path)
    if handle.peek(3).startswith(codecs.BOM_UTF8):
        handle.read(3)
    return handle


def read_lines(path: str | Path, what: str):
    """Yield `(lineno, line)` for each `\\n`-ended line of a file, decoded as UTF-8 with its end kept.

    One leading byte-order mark is skipped. A file that cannot be opened
    fails at `path`; a line that is not UTF-8 fails as
    `invalid <what>: <reason>` at `path:lineno`.
    """
    with _open_lines(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"invalid {what}: {exc}", str(path), lineno) from None
            yield lineno, line


def read_jsonl(path: str | Path, parse, what: str):
    """Yield `(lineno, parse(record))` for each non-blank line of a JSONL file.

    Lines are read as `read_lines` reads them, and fail as it does. Each
    must hold one JSON object, which `parse` turns into a value; one that
    does not, or that `parse` rejects with one of `_PARSE_ERRORS`, fails as
    `invalid <what>: <reason>` at `path:lineno`.
    """
    # `read_lines`' loop, inlined: each line passes through one generator.
    with _open_lines(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                # `json.loads(line)`, values and errors alike, in one C call:
                # the line has no JSON whitespace at either end.
                try:
                    record, end = _scan_once(line, 0)
                except StopIteration as stop:
                    raise _no_value(line, stop.value) from None
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, _skip_space(line, end).end())
                value = parse(json_object(record, "record"))
            except _PARSE_ERRORS as exc:
                raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path), lineno) from None
            yield lineno, value


class ChunkRejected(Exception):
    """A chunk of lines that only `read_jsonl` may reject: it alone words the error and finds the line."""


def read_jsonl_chunks(path: str | Path):
    """Yield the JSON objects of a JSONL file's non-blank lines, a list per `JSONL_CHUNK_BYTES` of lines.

    Each chunk is decoded as `read_jsonl` decodes each line, in C-level
    passes over all of its lines, with no Python code per line. Where any
    line of a chunk would fail `read_jsonl` (not UTF-8, not exactly one JSON
    value, not an object), this raises ChunkRejected, and the caller reads
    the file with `read_jsonl` to report the error at its line. A file that
    cannot be opened fails as in `read_jsonl`.
    """
    with _open_lines(path) as handle:
        while raws := handle.readlines(JSONL_CHUNK_BYTES):
            try:
                lines = list(filter(None, map(str.strip, map(bytes.decode, raws))))
                scanned = list(map(_scan_once, lines, repeat(0)))
            except (ValueError, RecursionError):  # not UTF-8, bad JSON, nesting too deep
                raise ChunkRejected from None
            # Each value must end its line. A line with no value raises
            # StopIteration, which ends `map` early and leaves a shorter list.
            if list(map(itemgetter(1), scanned)) != list(map(len, lines)):
                raise ChunkRejected
            records = list(map(itemgetter(0), scanned))
            if not {*map(type, records)} <= {dict}:
                raise ChunkRejected
            yield records


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


# The C encoder under `json.dumps(value, ensure_ascii=False)`, built once; it
# returns the encoded chunks. It keeps no circular-reference markers: a shared
# markers dict would keep the containers of a failed encode, and encoding one
# of them again would report a false cycle.
_encode_chunks = json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,
    json.encoder.encode_basestring,
    None,  # indent
    ": ",
    ", ",
    False,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def jsonl_line(record) -> str:
    """`record` as one JSONL line, as `json.dumps(record, ensure_ascii=False)` writes it, newline included."""
    return "".join(_encode_chunks(record, 0)) + "\n"


def write_jsonl(path: str | Path, records) -> None:
    """Write each of `records` (any iterable, consumed once) as one UTF-8 JSONL line."""
    with open(path, "w", encoding="utf-8") as handle:
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

    Successful records populate generated_refs; `metrics.score_corpus`
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
        segment._replace(generated_refs=by_segment.get(segment.id, ()))
        for segment in corpus.segments
    ]
    return EvalCorpus(segments=merged, systems=dict(corpus.systems))

