"""Spans and counters around the package's functions, installed from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
traced name in the namespace where the package looks it up, and
``Tracer.uninstall`` puts the original objects back. A name the package no
longer has is skipped and listed in ``missing``.

A span's self time is its duration minus the time of the wrapped calls it
made. A stage's self time is its wall time minus the union of the intervals
of its top-level spans on every thread, so overlapping transport calls made
by worker threads are not counted twice.
"""

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _text_key(args, kwargs):
    """Distinct-input key of a tokenizer call: its text and lowercase flag."""
    lowercase = kwargs.get("lowercase")
    if lowercase is None:
        lowercase = next((a for a in args[1:] if isinstance(a, bool)), False)
    return (args[0], lowercase) if args and isinstance(args[0], str) else None


def _seq(value):
    return value if isinstance(value, (list, tuple, str)) else None


def _grams(length: int, order: int) -> int:
    return sum(max(0, length - n + 1) for n in range(1, order + 1))


def _bleu_kernel(args, kwargs):
    """(key, n-grams counted) of bleu_segment_stats(hyp, refs, max_order)."""
    hyp, refs, order = (list(args) + [None] * 3)[:3]
    if _seq(hyp) is None or _seq(refs) is None or not isinstance(order, int):
        return None, 0
    if any(_seq(r) is None for r in refs):
        return None, 0
    key = (tuple(hyp), tuple(tuple(r) for r in refs), order)
    return key, _grams(len(hyp), order) + sum(_grams(len(r), order) for r in refs)


def _chrf_kernel(args, kwargs):
    """(key, n-grams counted) of chrf_segment_stats(hyp, ref, n_max)."""
    hyp, ref, order = (list(args) + [None] * 3)[:3]
    if _seq(hyp) is None or _seq(ref) is None or not isinstance(order, int):
        return None, 0
    key = (tuple(hyp), tuple(ref), order)
    return key, _grams(len(hyp), order) + _grams(len(ref), order)


def _lcs_kernel(args, kwargs):
    """(no key, DP cells filled) of lcs_length(a, b)."""
    a, b = (list(args) + [None] * 2)[:2]
    if _seq(a) is None or _seq(b) is None:
        return None, 0
    return None, len(a) * len(b)


def _rows_loaded(result):
    """Matrix rows returned by load_score_matrices."""
    try:
        return sum(len(matrix.rows) for matrix in result.values())
    except (AttributeError, TypeError):
        return 0


#: (module, owner attribute or None, name, span name, options). The owner is
#: a class inside the module when the traced name is a method.
WRAP_POINTS = [
    ("multiref.cli", None, "tokenize_words", "textproc.tokenize_words", {"key": _text_key}),
    ("multiref.cli", None, "tokenize_subwords", "textproc.tokenize_subwords", {"key": _text_key}),
    ("multiref.cli", None, "load_subword_vocab", "textproc.load_subword_vocab", {}),
    ("multiref.cli", None, "bleu_sentence", "metrics.bleu_sentence", {}),
    ("multiref.cli", None, "bleu_corpus", "metrics.bleu_corpus", {}),
    ("multiref.cli", None, "chrf_sentence", "metrics.chrf_sentence", {}),
    ("multiref.cli", None, "chrf_corpus", "metrics.chrf_corpus", {}),
    ("multiref.cli", None, "rouge_l", "metrics.rouge_l", {}),
    ("multiref.cli", None, "load_score_matrices", "combine.load_score_matrices", {"rows": _rows_loaded}),
    ("multiref.cli", None, "combine_matrix", "combine.combine_matrix", {}),
    ("multiref.cli", None, "write_score_matrix", "combine.write_score_matrix", {}),
    ("multiref.metrics", None, "tokenize_chars", "textproc.tokenize_chars", {"key": _text_key}),
    ("multiref.metrics", None, "tokenize_subwords", "textproc.tokenize_subwords", {"key": _text_key}),
    ("multiref.diversity", None, "bleu_sentence", "metrics.bleu_sentence", {}),
    ("multiref.diversity", None, "tokenize_words", "textproc.tokenize_words", {"key": _text_key}),
    ("multiref.diversity", None, "self_bleu", "diversity.self_bleu", {}),
    ("multiref.kernels", None, "bleu_segment_stats", "kernels.bleu_segment_stats", {"work": _bleu_kernel}),
    ("multiref.kernels", None, "chrf_segment_stats", "kernels.chrf_segment_stats", {"work": _chrf_kernel}),
    ("multiref.kernels", None, "lcs_length", "kernels.lcs_length", {"work": _lcs_kernel}),
    ("multiref.refgen", "HttpChatTransport", "complete", "refgen.transport.complete", {"intervals": True}),
    ("multiref.refgen", None, "parse_candidates", "refgen.parse_candidates", {}),
    ("multiref.refgen", None, "load_generation_records", "refgen.load_generation_records", {}),
    ("multiref.corpus_io", None, "load_corpus", "corpus_io.load_corpus", {}),
    ("multiref.corpus_io", None, "merge_references", "corpus_io.merge_references", {}),
    ("multiref.metaeval", None, "load_human_judgments", "metaeval.load_human_judgments", {}),
    ("multiref.metaeval", None, "meta_evaluate", "metaeval.meta_evaluate", {}),
    ("multiref.metaeval", None, "kendall_tau", "metaeval.kendall_tau", {}),
    ("multiref.metaeval", None, "spearman", "metaeval.spearman", {}),
]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


class Tracer:
    """Per-name call counts, span and self times, work counts and distinct inputs."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = Counter()
        self.keyed = Counter()
        self.distinct = defaultdict(set)
        self.raised = Counter()
        self.rows = Counter()
        self.intervals = defaultdict(list)
        self.roots: list[tuple[float, float]] = []
        self.stages: dict[str, dict] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, span, options in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, own, original))
            setattr(owner, attr, self.wrap(span, original, **options))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn, key=None, work=None, rows=None, intervals=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer._record(name, start, end, duration - frame[0], not stack, failed,
                               key(args, kwargs) if key else None,
                               work(args, kwargs) if work else None,
                               rows(result) if rows and not failed else 0,
                               intervals)

        return traced

    def _record(self, name, start, end, self_time, root, failed, key, work, rows, intervals):
        with self.lock:
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += self_time
            if failed:
                self.raised[name] += 1
            if root:
                self.roots.append((start, end))
            if intervals:
                self.intervals[name].append((start, end))
            if rows:
                self.rows[name] += rows
            if work is not None:
                work_key, count = work
                self.work[name] += count
                key = key if key is not None else work_key
            if key is not None:
                self.keyed[name] += 1
                self.distinct[name].add(hash(key))

    @contextmanager
    def stage(self, name: str):
        """Time one CLI stage; its self time excludes every top-level span."""
        with self.lock:
            self.roots = []
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            with self.lock:
                covered = union_length(self.roots)
                self.roots = []
            self.stages[name] = {"wall_s": wall, "self_s": wall - covered}

    def report(self) -> dict:
        """Plain-JSON summary of everything recorded."""
        names = sorted(self.calls)
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                    "work": self.work[name],
                    "keyed": self.keyed[name],
                    "distinct": len(self.distinct[name]),
                    "raised": self.raised[name],
                    "rows": self.rows[name],
                }
                for name in names
            },
            "intervals": {name: sorted(v) for name, v in self.intervals.items()},
            "stages": self.stages,
            "missing": self.missing,
        }
