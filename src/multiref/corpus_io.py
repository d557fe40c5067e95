"""Ingestion and persistence of test sets, system outputs, and reference sets.

This module is the package's one JSON codec, and `PARSE_ERRORS` the errors
by which it rejects input. Each line reader skips one leading byte-order
mark and decodes each line as UTF-8 on its own:
`read_lines` for the subword vocabulary, and `read_jsonl_records` (one JSON
object per line) for the JSONL files; JSON documents go through `read_json`:

- segments.jsonl: ``{"id", "source", "gold_refs": [..]}``
- outputs.jsonl:  ``{"system", "segment", "hypothesis"}``
- refs.jsonl:     generation records (see refgen)
- human.jsonl:    human judgments (see metaeval)
- matrix.jsonl:   score matrices (see combine)

`read_jsonl_records` strips each line and decodes it with one call of the
scanner under `json.loads`. A line that `json.loads` rejects fails with the
same message, position included. It is the one decoder of JSONL lines in
the package, and each file goes through it once. `read_jsonl` turns each
record into a value through a `parse` callback, and `parse_record` words
what `parse` rejects at its line. `combine` checks the common matrix row
itself, and `metaeval` a batch of human judgments at a time; each hands
any other row to `parse_record`. `repair_truncated_tail` mends the last
line a kill mid-append left without its newline.

Outputs are UTF-8 JSON with non-ASCII text unescaped, through `write_jsonl`
(one `jsonl_line` per record), `write_json` (one document, indented by 2)
or, for text a caller has encoded itself (`combine.write_combined`),
`write_all_or_nothing`. Each writes a temporary file and renames it onto
its target, so a failed or killed run leaves the old output whole.
Outside this module only `refgen.generate_references` writes a file: it
appends its own log.

Loaded corpora are fully cross-validated (every hypothesis keyed to a known
segment) and treated as immutable afterwards.
"""

import codecs
import json
import math
import os
import stat
import sys
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


# What decoding (UnicodeDecodeError for bad UTF-8, RecursionError for nesting
# too deep) or a `parse` callback raise for input they reject.
PARSE_ERRORS = (LookupError, TypeError, AttributeError, ValueError, OverflowError, RecursionError)

# The scanner under `json.loads` (C where CPython's `_json` is built): `(value, end)`
# of the JSON value at an index.
_scan_once = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match

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


def read_jsonl_records(path: str | Path, what: str):
    """Yield `(lineno, record)` for each non-blank line of a JSONL file, `record` its decoded JSON object.

    Lines are read as `read_lines` reads them, and fail as it does. Each
    must hold one JSON object; one that does not fails as
    `invalid <what>: <reason>` at `path:lineno`.
    """
    # `read_lines`' loop, inlined: each line passes through one generator.
    with _open_lines(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                # `json.loads(line)`, values and errors alike, in one scanner call:
                # the line has no JSON whitespace at either end.
                try:
                    record, end = _scan_once(line, 0)
                except StopIteration as stop:
                    raise _no_value(line, stop.value) from None
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, _skip_space(line, end).end())
                if type(record) is not dict:
                    json_object(record, "record")  # raises, naming what the line holds
            except PARSE_ERRORS as exc:
                raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path), lineno) from None
            yield lineno, record


def repair_truncated_tail(path: str | Path) -> None:
    """End a final line that lacks its newline, left behind by a crash mid-append.

    A final line that decodes as a JSON object is a whole record and gets
    its newline; no proper prefix of a JSON object is itself one, so a
    partial write cannot pass for one. Any other unterminated final line
    (bad UTF-8, bad JSON, nesting too deep, a value that is no object) is
    dropped. Only the final line is ever touched; corruption anywhere else
    still surfaces as a load error.
    """
    data = Path(path).read_bytes()
    if data and not data.endswith(b"\n"):
        start = data.rfind(b"\n") + 1
        try:
            whole = isinstance(json.loads(data[start:].decode("utf-8")), dict)
        except PARSE_ERRORS:
            whole = False
        with open(path, "r+b") as handle:
            if whole:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            else:
                handle.truncate(start)


def parse_record(parse, record: dict, what: str, path: str | Path, lineno: int):
    """`parse(record)` for the record at `path:lineno`, failing as `read_jsonl` fails where `parse` rejects it."""
    try:
        return parse(record)
    except PARSE_ERRORS as exc:
        raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path), lineno) from None


def read_jsonl(path: str | Path, parse, what: str):
    """Yield `(lineno, parse(record))` for each `(lineno, record)` of `read_jsonl_records(path, what)`.

    A record that `parse` rejects with one of `PARSE_ERRORS` fails as
    `invalid <what>: <reason>` at `path:lineno`.
    """
    for lineno, record in read_jsonl_records(path, what):
        yield lineno, parse_record(parse, record, what, path, lineno)


def read_json(path: str | Path, parse, what: str):
    """`parse(document)` of a UTF-8 file holding one JSON object, a leading BOM skipped.

    Errors are `read_jsonl`'s, at `path`.
    """
    with _open(path) as handle:
        data = handle.read()
    try:
        return parse(json_object(json.loads(data.decode("utf-8-sig")), "document"))
    except PARSE_ERRORS as exc:
        raise CorpusFormatError(f"invalid {what}: {_reason(exc)}", str(path)) from None


def jsonl_line(record) -> str:
    """`record` as one JSONL line, non-ASCII text unescaped, newline included."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def std_stream(path: str | Path):
    """`sys.stdout` or `sys.stderr` if `path` names the same file as descriptor 1 or 2, else None."""
    try:
        target = os.stat(path)
    except OSError:
        return None
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        try:
            if os.path.samestat(target, os.fstat(fd)):
                return stream
        except OSError:
            pass
    return None


def write_all_or_nothing(path: str | Path, chunks) -> None:
    """Write the strings `chunks` to `path` as UTF-8: all of them, or leave `path` as it was.

    They go to `.<name>.<random>.tmp` in `path`'s directory, made as `open`
    makes a new file (and given the mode of an existing `path`), which is
    then renamed onto `path`. An error while writing removes it; a kill can
    leave it behind, but never a part-written `path`. A `path` that is the
    file of the standard output or error (such as `/dev/stdout`) is written
    through `sys.stdout` or `sys.stderr`, after what was printed before it:
    opening it anew would truncate a redirected file. Any other `path` that
    exists and is not itself a regular file (a symlink, a FIFO) is written
    in place, as a rename would replace it instead of writing through it.
    """
    stream = std_stream(path)
    if stream is not None:
        sys.stdout.flush()
        stream.writelines(chunks)
        stream.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # Name the target, as opening it would have.
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_jsonl(path: str | Path, records) -> None:
    """Write each of `records` (any iterable, consumed once) as one UTF-8 JSONL line, all or nothing."""
    write_all_or_nothing(path, map(jsonl_line, records))


def write_json(path: str | Path, document) -> None:
    """Write `document` as UTF-8 JSON indented by 2, with no trailing newline, all or nothing."""
    write_all_or_nothing(path, [json.dumps(document, ensure_ascii=False, indent=2)])


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
    """Load outputs.jsonl; segment ids are validated when known_ids is given. A file with no outputs fails."""
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
    if not systems:
        raise CorpusFormatError(f"no system outputs found in {path}")
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

