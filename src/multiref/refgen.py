"""Reference-candidate generation through an OpenAI-compatible chat endpoint.

A prompt is a deterministic concatenation of a rules block, a task
description parameterized by the number of requested candidates, the source
text, and an optional labeled ground-truth block. All candidates for a
segment are requested in a single completion (asking for many at once
measurably improves their quality), parsed from a numbered list, and
persisted append-only so interrupted runs resume where they stopped.
`generate_references` sends the requests from `cfg.concurrency` plain
worker threads, which take segments in order and each write their own
record; the first failure stops every worker before its next segment.
"""

import email.utils
import http.client
import json
import math
import os
import ssl
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

from .corpus_io import bool_field, id_field, jsonl_line, read_json, read_jsonl, text_field, text_list
from .errors import CorpusFormatError, MalformedResponseError, TransportError
from .records import check_count, record

#: Environment variables consulted for the API key, in order.
API_KEY_ENV_VARS = ("MULTIREF_API_KEY", "OPENAI_API_KEY")

N_PLACEHOLDER = "{n}"
SOURCE_PLACEHOLDER = "{source}"
GROUND_TRUTH_LABEL = "Ground Truth:"

#: Longest sleep before a retry, in seconds, whatever `Retry-After` asks for.
MAX_RETRY_SLEEP_S = 60.0


class PromptTemplate(record("PromptTemplate", "rules task_description include_ground_truth")):
    """Rules + parameterized task description; `include_ground_truth` None means the template does not say."""

    __slots__ = ()

    def __new__(cls, rules: str, task_description: str, include_ground_truth: bool | None = None):
        for placeholder in (N_PLACEHOLDER, SOURCE_PLACEHOLDER):
            if task_description.count(placeholder) != 1:
                raise ValueError(f"task_description must contain exactly one {placeholder!r}")
        return tuple.__new__(cls, (rules, task_description, include_ground_truth))

    @classmethod
    def from_json(cls, spec: dict) -> "PromptTemplate":
        """A template from a `{"rules", "task_description", "include_ground_truth"?}` object."""
        key = "include_ground_truth"
        return cls(
            rules=text_field(spec["rules"], "rules"),
            task_description=text_field(spec["task_description"], "task_description"),
            include_ground_truth=bool_field(spec[key], key) if key in spec else None,
        )


ENGLISH_TRANSLATION = PromptTemplate(
    rules=(
        "You are a professional translator fluent in the source and target "
        "languages. Produce accurate, natural translations that differ from "
        "each other in wording. Output a numbered list, one translation per "
        "line, with no commentary."
    ),
    task_description=(
        "Please provide {n} high-quality, diverse translations of the "
        "following source text:\n{source}"
    ),
)

ENGLISH_SUMMARIZATION = PromptTemplate(
    rules=(
        "You are a professional editor. Write faithful, fluent summaries that "
        "differ from each other in wording. Output a numbered list, one "
        "summary per line, with no commentary."
    ),
    task_description=(
        "Please provide {n} high-quality, diverse summaries of the following "
        "text:\n{source}"
    ),
)

CHINESE_TRANSLATION = PromptTemplate(
    rules=(
        "你是一位精通源语言和目标语言的专业翻译。请给出准确、自然且措辞各不相同"
        "的译文。按编号列表输出，每行一条，不要附加任何说明。"
    ),
    task_description="请为下面的原文提供{n}条高质量且多样化的译文：\n{source}",
)

BUILTIN_TEMPLATES = {
    ("translation", "english"): ENGLISH_TRANSLATION,
    ("translation", "chinese"): CHINESE_TRANSLATION,
    ("summarization", "english"): ENGLISH_SUMMARIZATION,
}

#: The built-in template `generate` uses unless told otherwise.
DEFAULT_TEMPLATE = "english"

#: Candidates requested per segment, per task.
DEFAULT_N_REFERENCES = {"translation": 40, "summarization": 10}

#: The most candidates one request may ask for: the paper asks for 10-40, and 1000 one-line
#: candidates pass the output limit of common chat models. 10**30 made `MockTransport` run out of memory.
MAX_REFERENCES = 1000


def choose_template(
    task: str = "translation", name: str | None = None, path: str | None = None, ground_truth: bool | None = None
) -> PromptTemplate:
    """`generate`'s template: the JSON file at `path`, else the built-in `name` for `task`.

    `name` defaults to `DEFAULT_TEMPLATE`, and a `ground_truth` that is not None replaces
    `include_ground_truth`. A `name` with a `path`, or one that `task` has no built-in
    template for, raises ValueError before any file is read.
    """
    if path:
        if name is not None:
            raise ValueError("--template and --template-file are mutually exclusive")
        template = read_json(path, PromptTemplate.from_json, "template")
    else:
        name = name or DEFAULT_TEMPLATE
        try:
            template = BUILTIN_TEMPLATES[(task, name)]
        except KeyError:
            raise ValueError(f"no built-in {name} template for task {task!r}") from None
    if ground_truth is not None:
        template = template._replace(include_ground_truth=ground_truth)
    return template


class GenerationConfig(
    record("GenerationConfig", "model_name n_references endpoint_url max_retries timeout concurrency")
):
    """Every setting of one `generate` run but its template, checked together before any file is read.

    Each message names a field as `generate`'s flag: `--n-references` (1..`MAX_REFERENCES`),
    `--max-retries` (>= 0), `--timeout` (seconds, finite and > 0) and, for `concurrency`, `--jobs` (>= 1).
    """

    __slots__ = ()

    def __new__(
        cls,
        model_name: str = "gpt-3.5-turbo",
        n_references: int = DEFAULT_N_REFERENCES["translation"],
        endpoint_url: str = "https://api.openai.com/v1/chat/completions",
        max_retries: int = 3,
        timeout: float = 120.0,
        concurrency: int = 1,
    ):
        check_count(concurrency, "--jobs")
        check_count(n_references, "--n-references", 1, MAX_REFERENCES)
        check_count(max_retries, "--max-retries", 0)
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"--timeout must be a finite number of seconds > 0, got {timeout}")
        return tuple.__new__(cls, (model_name, n_references, endpoint_url, max_retries, timeout, concurrency))


class GenerationRecord(
    record(
        "GenerationRecord",
        "segment_id prompt_used raw_response candidates attempt_count timestamp error",
        defaults=(None,),
    )
):
    """Audit record of one segment's generation attempt(s)."""

    __slots__ = ()

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @classmethod
    def from_json(cls, record: dict) -> "GenerationRecord":
        """A record from its JSON object; a successful one (`error` null) must hold candidates.

        `attempt_count` is a whole number >= 1, `3` or `3.0` (JSON Schema's "integer").
        """
        error = record.get("error")
        candidates = text_list(record.get("candidates", []), "candidates")
        if error is None and not candidates:
            raise ValueError("a record without an error must hold candidates")
        attempts = record.get("attempt_count", 1)
        number = isinstance(attempts, (int, float)) and not isinstance(attempts, bool)
        if not (number and int(attempts) == attempts and attempts >= 1):
            raise ValueError(f"attempt_count must be an integer >= 1, got {json.dumps(attempts)}")
        return cls(
            segment_id=id_field(record["segment_id"], "segment_id"),
            prompt_used=text_field(record.get("prompt_used", ""), "prompt_used"),
            raw_response=text_field(record.get("raw_response", ""), "raw_response"),
            candidates=candidates,
            attempt_count=int(attempts),
            timestamp=text_field(record.get("timestamp", ""), "timestamp"),
            error=error if error is None else text_field(error, "error"),
        )


def build_prompt(template: PromptTemplate, source: str, ground_truth: str | None, n: int) -> str:
    """Deterministically assemble the full prompt; it has a gold block exactly when `ground_truth` is given."""
    check_count(n, "n")
    task = template.task_description.replace(N_PLACEHOLDER, str(n)).replace(SOURCE_PLACEHOLDER, source)
    parts = [template.rules, task]
    if ground_truth is not None:
        parts.append(f"{GROUND_TRUTH_LABEL}\n{ground_truth}")
    return "\n\n".join(parts)


def parse_candidates(raw: str, expected_n: int) -> list[str]:
    """Extract exactly expected_n candidates from a model response.

    Primary format is a numbered list ("1. ..." or "1) ..."); lines that do
    not start a new item continue the previous one. When no numbering is
    found at all, each non-empty line counts as one candidate. Any other
    shape raises MalformedResponseError.
    """
    if not raw.strip():
        raise MalformedResponseError("empty response")
    items: list[str] = []
    numbered = False
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        head, sep, rest = _split_numbering(stripped)
        if sep:
            numbered = True
            items.append(rest.strip())
        elif numbered and items:
            items[-1] = f"{items[-1]} {stripped}".strip()
        else:
            items.append(stripped)
    items = [item for item in items if item]
    if len(items) != expected_n:
        raise MalformedResponseError(
            f"expected {expected_n} candidates, parsed {len(items)}"
        )
    return items


def _split_numbering(line: str):
    i = 0
    while i < len(line) and line[i].isdigit():
        i += 1
    if 0 < i and i < len(line) and line[i] in ".)":
        return line[:i], line[i], line[i + 1 :]
    return line, "", ""


class MockTransport:
    """Deterministic in-process stand-in for a chat endpoint.

    Responds with a numbered list of word rotations of the prompt's last
    line: the gold reference when the prompt carries one, else, under the
    built-in templates, the source's last line. A sequence of canned
    responses (or exceptions) can be scripted for tests.
    """

    def __init__(self, scripted=None):
        self.scripted = list(scripted) if scripted is not None else None
        self.calls: list[str] = []

    def complete(self, prompt: str, cfg: GenerationConfig) -> str:
        self.calls.append(prompt)
        if self.scripted is not None:
            if not self.scripted:
                raise TransportError("mock transport script exhausted")
            item = self.scripted.pop(0)
            if isinstance(item, Exception):
                raise item
            return item
        return self._synthesize(prompt, cfg.n_references)

    @staticmethod
    def _synthesize(prompt: str, n: int) -> str:
        source = prompt.splitlines()[-1] if prompt else ""
        words = source.split() or ["output"]
        lines = []
        for i in range(n):
            rotated = words[i % len(words) :] + words[: i % len(words)]
            lines.append(f"{i + 1}. {' '.join(rotated)} (v{i + 1})")
        return "\n".join(lines)


class _SharedContextHTTPSHandler(urllib.request.HTTPSHandler):
    """An HTTPS handler whose requests share one TLS context, made on the first of them.

    A default context loads the CA store, tens of ms with a system bundle.
    `urlopen` without a context made one per request up to Python 3.11, and
    `HTTPSHandler()` makes one as it is built from 3.12 on, which an
    `http://` endpoint would pay for and never use.
    """

    def __init__(self):
        urllib.request.AbstractHTTPHandler.__init__(self)
        self._context = None
        self._lock = threading.Lock()  # two workers may send the first request together

    def https_open(self, req):
        with self._lock:
            if self._context is None:
                self._context = ssl.create_default_context()
                # As the context http.client makes when it is given none.
                self._context.set_alpn_protocols(["http/1.1"])
        return self.do_open(http.client.HTTPSConnection, req, context=self._context)


class HttpChatTransport:
    """Minimal OpenAI-compatible chat completions client (stdlib only).

    Rate-limit (429) and transient server errors are retried with exponential
    backoff, or after the wait the server's `Retry-After` header asks for.
    Read timeouts, truncated bodies and connection resets, whether the
    request is being sent or the reply read, are retried with the same
    backoff and budget. Authentication and client errors, and an endpoint
    that cannot be reached at all (a refused connection, a name that does
    not resolve, a connect timeout), abort immediately. Requests go
    through one opener per transport, with the default handlers (so the
    `*_proxy` variables apply), and HTTPS requests share one TLS context.
    """

    TRANSIENT_STATUS = {429, 500, 502, 503, 504}
    TRANSIENT_ERRORS = (TimeoutError, ConnectionResetError, http.client.IncompleteRead)
    MAX_TRANSIENT_RETRIES = 5

    def __init__(self, api_key: str | None = None):
        self.api_key = api_key if api_key is not None else resolve_api_key()
        if not self.api_key:
            raise TransportError(
                "no API key: set MULTIREF_API_KEY (or OPENAI_API_KEY)"
            )
        self._opener = urllib.request.build_opener(_SharedContextHTTPSHandler())

    def complete(self, prompt: str, cfg: GenerationConfig) -> str:
        body = json.dumps(
            {
                "model": cfg.model_name,
                "messages": [{"role": "user", "content": prompt}],
            }
        ).encode("utf-8")
        delay = 1.0
        for attempt in range(self.MAX_TRANSIENT_RETRIES + 1):
            request = urllib.request.Request(
                cfg.endpoint_url,
                data=body,
                headers={
                    "Content-Type": "application/json",
                    "Authorization": f"Bearer {self.api_key}",
                },
                method="POST",
            )
            try:
                with self._opener.open(request, timeout=cfg.timeout) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                return _reply_text(payload["choices"][0]["message"]["content"])
            except urllib.error.HTTPError as exc:
                failure = f"endpoint returned HTTP {exc.code}: {exc.reason}"
                if exc.code not in self.TRANSIENT_STATUS:
                    raise TransportError(failure)
                wait = _retry_wait(exc.headers.get("Retry-After"), delay)
            except urllib.error.URLError as exc:
                # A reset while the request is sent comes wrapped; one while the reply is read does not.
                if not isinstance(exc.reason, ConnectionError) or isinstance(exc.reason, ConnectionRefusedError):
                    raise TransportError(f"cannot reach endpoint: {exc.reason}")
                failure = f"connection failed: {exc.reason!r}"
                wait = delay
            except self.TRANSIENT_ERRORS as exc:
                failure = f"connection failed: {exc!r}"
                wait = delay
            except (KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
                raise TransportError(f"unexpected response payload: {exc}")
            if attempt == self.MAX_TRANSIENT_RETRIES:
                raise TransportError(f"{failure} (gave up after {attempt + 1} attempts)")
            time.sleep(wait)
            delay *= 2.0


def _reply_text(content) -> str:
    """A reply's `content` if it is a string; a MalformedResponseError naming its JSON type otherwise."""
    try:
        return text_field(content, "reply content")
    except TypeError as exc:
        raise MalformedResponseError(str(exc)) from None


def _retry_wait(retry_after: str | None, backoff: float) -> float:
    """Seconds to sleep before a retry, at most `MAX_RETRY_SLEEP_S`.

    `Retry-After` is either a number of seconds or an HTTP date; a date in
    the past means no wait. A missing or unparsable header falls back to the
    backoff delay.
    """
    wait = backoff
    if retry_after:
        try:
            wait = float(retry_after)
        except ValueError:
            try:
                when = email.utils.parsedate_to_datetime(retry_after)
            except (TypeError, ValueError):
                pass
            else:
                if when.tzinfo is None:
                    when = when.replace(tzinfo=timezone.utc)
                wait = (when - datetime.now(timezone.utc)).total_seconds()
        if math.isnan(wait):
            wait = backoff
    return min(max(wait, 0.0), MAX_RETRY_SLEEP_S)


def resolve_api_key() -> str | None:
    for var in API_KEY_ENV_VARS:
        value = os.environ.get(var)
        if value:
            return value
    return None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def generate_for_segment(
    segment_id: str,
    source: str,
    gold: str | None,
    template: PromptTemplate,
    cfg: GenerationConfig,
    transport,
) -> GenerationRecord:
    """One segment: a single call for all candidates, retried on a malformed reply."""
    prompt = build_prompt(template, source, gold, cfg.n_references)
    for attempts in range(1, cfg.max_retries + 2):
        raw, candidates, error = "", (), None
        try:
            raw = transport.complete(prompt, cfg)
            candidates = tuple(parse_candidates(raw, cfg.n_references))
            break
        except MalformedResponseError as exc:
            error = str(exc)
    return GenerationRecord(
        segment_id=segment_id,
        prompt_used=prompt,
        raw_response=raw,
        candidates=candidates,
        attempt_count=attempts,
        timestamp=_now(),
        error=error,
    )


class MissingGoldError(ValueError):
    """Segments still to generate lack the gold reference their prompts must carry."""


def generate_references(
    segments,
    template: PromptTemplate,
    cfg: GenerationConfig,
    transport,
    out_path: str | Path | None = None,
) -> list[GenerationRecord]:
    """Generate candidates for every segment without a successful record in out_path.

    `segments` yields (segment_id, source, gold_or_None). Every prompt
    carries its segment's gold reference when `template.include_ground_truth`
    is true, or when it is None and every segment, done or not, has one; a
    segment still to do without one then raises ValueError before any
    request. `cfg.concurrency`
    worker threads send the requests, each taking the next segment in
    segment order. Each worker appends its own record to out_path as its
    call completes (one JSON object per line, flushed per record), so a kill
    mid-run loses at most the in-flight segments, and a rerun on the same
    out_path resumes: its completed segments are neither requested nor
    written again, and only this run's records are returned, in the order
    they were written. A transport failure or a failed write stops every
    worker before its next segment; an exception in the calling thread, such
    as KeyboardInterrupt, does the same once the calling thread sees it,
    which it does when the next call ends at the latest. The records of the
    calls in flight are still written, then the first failure is raised.
    Malformed replies only mark their own segment as failed.
    """
    segments = list(segments)
    include = template.include_ground_truth
    if include is None:
        include = all(gold is not None for _sid, _src, gold in segments)
    done = completed_segment_ids(out_path) if out_path is not None else set()
    todo = [(sid, src, gold if include else None) for sid, src, gold in segments if sid not in done]
    if include:
        missing = [sid for sid, _src, gold in todo if gold is None]
        if missing:
            raise MissingGoldError(
                f"template expects ground truth but segments lack gold refs: {missing[:5]}"
            )
    records: list[GenerationRecord] = []
    # Guards every name below, `records` and the output file; notified as each call ends.
    changed = threading.Condition()
    taken = busy = 0  # segments handed to a worker; those whose call or write is not over
    failure = None  # the first exception raised; no segment is taken once it is set

    def work():
        nonlocal taken, busy, failure
        while True:
            with changed:
                if failure is not None or taken == len(todo):
                    return
                item = todo[taken]
                taken += 1
                busy += 1
            try:
                record = generate_for_segment(*item, template, cfg, transport)
                with changed:
                    records.append(record)
                    if handle is not None:
                        handle.write(jsonl_line(record._asdict()))
                        handle.flush()
            except BaseException as exc:  # the calling thread raises the first one
                with changed:
                    if failure is None:
                        failure = exc
            finally:
                with changed:
                    busy -= 1
                    changed.notify()

    sink = open(out_path, "a", encoding="utf-8") if out_path is not None else nullcontext()
    with sink as handle, changed:
        # Wait on the Condition, which wakes this thread as each call ends, so
        # it sees an interrupt between two records; not in Thread.join, where
        # an interrupt can mark a running worker as stopped (Python 3.11).
        try:
            for _ in range(min(cfg.concurrency, len(todo))):
                threading.Thread(target=work).start()
            while busy or (failure is None and taken < len(todo)):
                changed.wait()
        except BaseException as exc:  # KeyboardInterrupt: take no further segment
            if failure is None:
                failure = exc
            while busy:
                changed.wait()
    if failure is not None:
        raise failure
    return records


def repair_truncated_tail(path: Path) -> None:
    """End a final line that lacks its newline, left behind by a crash mid-append.

    A final line that decodes as a JSON object is a whole record and gets
    its newline; no proper prefix of a JSON object is itself one, so a
    partial write cannot pass for one. Any other unterminated final line is
    dropped. Only the final line is ever touched; corruption anywhere else
    still surfaces as a load error.
    """
    data = path.read_bytes()
    if data and not data.endswith(b"\n"):
        start = data.rfind(b"\n") + 1
        try:
            whole = isinstance(json.loads(data[start:].decode("utf-8")), dict)
        except ValueError:  # bad JSON or bad UTF-8
            whole = False
        with open(path, "r+b") as handle:
            if whole:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            else:
                handle.truncate(start)


def load_generation_records(
    path: str | Path, known_ids: set[str] | None = None
) -> list[GenerationRecord]:
    """Read a refs.jsonl file of GenerationRecord objects.

    Segment ids are validated when `known_ids` is given. A segment may have
    any number of failed records (a resumed run writes them), but at most
    one successful record.
    """
    records = []
    succeeded = set()
    for lineno, record in read_jsonl(path, GenerationRecord.from_json, "generation record"):
        if known_ids is not None and record.segment_id not in known_ids:
            raise CorpusFormatError(
                f"record references unknown segment {record.segment_id!r}", str(path), lineno
            )
        if record.succeeded:
            if record.segment_id in succeeded:
                raise CorpusFormatError(
                    f"duplicate successful record for segment {record.segment_id!r}", str(path), lineno
                )
            succeeded.add(record.segment_id)
        records.append(record)
    return records


def completed_segment_ids(path: str | Path) -> set[str]:
    """Segment ids with a successful record already present in the output file.

    A final line without its newline (crash artifact) is repaired first, so
    resuming an interrupted run never trips over its own last write.
    """
    path = Path(path)
    if not path.exists():
        return set()
    repair_truncated_tail(path)
    return {r.segment_id for r in load_generation_records(path) if r.succeeded}
