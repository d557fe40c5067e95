"""`score` and `metrics.score_corpus` on shared reference profiles, checked
against the brute-force oracles.

Texts are single-space-joined words without punctuation, so the word
tokenizer is `str.split` (after lowercasing under --lowercase) and the
oracles can tokenize on their own.
"""

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multiref.cli
import multiref.metrics
from multiref import kernels
from multiref.cli import main
from multiref.corpus_io import EvalCorpus, Segment
from multiref.metrics import BleuConfig, MultiRefScorer, ScoreSettings, score_corpus

import oracles

ALL_METRICS = ("bleu", "spbleu", "chrf", "rouge1", "rouge2", "rougeL")
WORDS = ("a", "b", "ab", "the", "A", "The", "cat", "Cat")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_corpus(directory, corpus):
    """corpus: {segment id: (gold refs, generated refs, {system: hypothesis})}."""
    paths = {name: directory / f"{name}.jsonl" for name in ("segments", "outputs", "refs")}
    write_jsonl(paths["segments"], [
        {"id": sid, "source": "src", "gold_refs": gold} for sid, (gold, _, _) in corpus.items()
    ])
    write_jsonl(paths["outputs"], [
        {"system": system, "segment": sid, "hypothesis": hyp}
        for sid, (_, _, hyps) in corpus.items()
        for system, hyp in hyps.items()
    ])
    write_jsonl(paths["refs"], [
        {"segment_id": sid, "prompt_used": "p", "raw_response": "r", "candidates": generated,
         "attempt_count": 1, "timestamp": "2024-01-01T00:00:00+00:00", "error": None}
        for sid, (_, generated, _) in corpus.items()
    ])
    return paths


def run_score(directory, paths, flags, global_flags=()):
    """Run `score`; return (matrix rows by (metric, system, segment) or None, summary)."""
    matrix = directory / "matrix.jsonl"
    summary = directory / "summary.json"
    argv = [*global_flags, "score", "--segments", str(paths["segments"]),
            "--outputs", str(paths["outputs"]), "--generated-refs", str(paths["refs"]),
            "--summary", str(summary), *flags]
    if "--sweep-refs" not in flags:
        argv += ["--out", str(matrix)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    rows = None
    if "--sweep-refs" not in flags:
        rows = {}
        for line in matrix.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            rows[row["metric"], row["system"], row["segment"]] = row["scores"]
    return rows, json.loads(summary.read_text(encoding="utf-8"))


def scoring_refs(gold, generated, mode, max_refs):
    """(column id, text) pairs in the order `score` uses them."""
    generated = generated[:max_refs] if max_refs is not None else generated
    pairs = []
    if mode == "both":
        pairs += [(f"gold:{i}", text) for i, text in enumerate(gold)]
    pairs += [(f"gen:{i}", text) for i, text in enumerate(generated)]
    return pairs


class Oracle:
    """Expected segment and corpus values of each metric, from tests/oracles.py."""

    def __init__(self, max_order, smoothing, ref_length, chrf_order, chrf_beta, lowercase):
        self.max_order = max_order
        self.smoothing = smoothing
        self.ref_length = ref_length
        self.chrf_order = chrf_order
        self.chrf_beta = chrf_beta
        self.lowercase = lowercase

    def norm(self, text):
        return text.lower() if self.lowercase else text

    def tokens(self, metric, text):
        # Words, and spbleu's pieces under --pretokenized, split the lowercased text alike.
        return self.norm(text).split()

    def segment(self, metric, hyp, refs):
        if metric == "chrf":
            return oracles.chrf_sentence(
                self.norm(hyp), [self.norm(r) for r in refs], self.chrf_order, self.chrf_beta
            )
        h = self.tokens(metric, hyp)
        rs = [self.tokens(metric, r) for r in refs]
        if metric in ("bleu", "spbleu"):
            return oracles.bleu(h, rs, self.max_order, self.smoothing, self.ref_length)
        if metric == "rougeL":
            return oracles.rouge_l(h, rs)
        return oracles.rouge_n(h, rs, int(metric[-1]))

    def corpus(self, metric, pairs):
        if metric == "chrf":
            return oracles.chrf_corpus(
                [(self.norm(h), [self.norm(r) for r in refs]) for h, refs in pairs],
                self.chrf_order, self.chrf_beta,
            )
        if metric in ("bleu", "spbleu"):
            return oracles.corpus_bleu(
                [(self.tokens(metric, h), [self.tokens(metric, r) for r in refs])
                 for h, refs in pairs],
                self.max_order, self.smoothing, self.ref_length,
            )
        values = [self.segment(metric, h, refs) for h, refs in pairs]
        return sum(values) / len(values)


text = st.lists(st.sampled_from(WORDS), min_size=1, max_size=7).map(" ".join)
hypothesis_text = st.lists(st.sampled_from(WORDS), min_size=0, max_size=7).map(" ".join)


@st.composite
def corpora(draw):
    systems = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True))
    corpus = {}
    for i in range(draw(st.integers(1, 3))):
        gold = draw(st.lists(text, min_size=0, max_size=1))
        generated = draw(st.lists(text, min_size=1, max_size=3))
        if draw(st.booleans()):
            generated.append(draw(st.sampled_from(gold + generated)))  # a duplicate reference
        hyps = {}
        for system in systems:
            if draw(st.booleans()):
                hyps[system] = draw(st.sampled_from(gold + generated))  # a hypothesis equal to a reference
            else:
                hyps[system] = draw(hypothesis_text)
        corpus[f"s{i}"] = (gold, generated, hyps)
    return corpus


@settings(max_examples=120, deadline=None)
@given(
    corpus=corpora(),
    mode=st.sampled_from(("generated", "both")),
    max_refs=st.sampled_from((None, 1, 2)),
    max_order=st.integers(1, 4),
    smoothing=st.sampled_from(("exp", "none")),
    ref_length=st.sampled_from(("closest", "shortest")),
    chrf_order=st.integers(1, 6),
    chrf_beta=st.sampled_from((1.0, 2.0, 3.0)),
    lowercase=st.booleans(),
    per_reference=st.booleans(),
)
def test_matrix_and_summary_match_oracles(
    corpus, mode, max_refs, max_order, smoothing, ref_length, chrf_order, chrf_beta,
    lowercase, per_reference,
):
    oracle = Oracle(max_order, smoothing, ref_length, chrf_order, chrf_beta, lowercase)
    flags = ["--refs", mode, "--metrics", ",".join(ALL_METRICS), "--pretokenized",
             "--max-order", str(max_order), "--smoothing", smoothing,
             "--ref-length", ref_length, "--chrf-order", str(chrf_order),
             "--chrf-beta", str(chrf_beta)]
    if max_refs is not None:
        flags += ["--max-refs", str(max_refs)]
    if per_reference:
        flags.append("--per-reference")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        rows, summary = run_score(
            directory, write_corpus(directory, corpus), flags,
            ["--lowercase"] if lowercase else [],
        )

    systems = sorted({system for _, _, hyps in corpus.values() for system in hyps})
    for metric in ALL_METRICS:
        for system in systems:
            pairs = []
            for sid, (gold, generated, hyps) in sorted(corpus.items()):
                refs = scoring_refs(gold, generated, mode, max_refs)
                hyp = hyps[system]
                pairs.append((hyp, [r for _, r in refs]))
                cells = rows[metric, system, sid]
                if per_reference:
                    expected = {
                        ref_id: oracle.segment(metric, hyp, [ref]) for ref_id, ref in refs
                    }
                else:
                    expected = {"all": oracle.segment(metric, hyp, [r for _, r in refs])}
                assert cells == pytest.approx(expected, abs=1e-9), (metric, system, sid)
            assert summary["metrics"][metric][system] == pytest.approx(
                oracle.corpus(metric, pairs), abs=1e-9
            ), (metric, system)


def eval_corpus(corpus):
    """The EvalCorpus of a {segment id: (gold, generated, {system: hypothesis})} corpus."""
    segments = [Segment(sid, "src", tuple(gold), tuple(generated))
                for sid, (gold, generated, _) in corpus.items()]
    systems = {}
    for sid, (_, _, hyps) in corpus.items():
        for system, hyp in hyps.items():
            systems.setdefault(system, {})[sid] = hyp
    return EvalCorpus(segments, systems)


def check_score_corpus(oracle, scorer, corpus):
    """score_corpus against the oracle, and a sweep against one call per count.

    score_corpus reads everything from the scorer's settings: its metrics,
    the reference mode, the counts and `per_reference`.
    """
    score_settings = scorer.settings
    mode, counts, per_reference = score_settings.refs, score_settings.counts, score_settings.per_reference
    if score_settings.sweep_refs is not None:
        # A sweep stops at the most generated references a segment has.
        most = max(len(generated) for _, generated, _ in corpus.values())
        counts = [k for k in counts if k <= most]
    scores, rows = score_corpus(scorer, eval_corpus(corpus))
    systems = sorted({system for _, _, hyps in corpus.values() for system in hyps})
    assert list(scores) == [(k, system, metric)
                            for k in counts for system in systems for metric in ALL_METRICS]
    expected_rows = []
    for metric in ALL_METRICS:
        for system in systems:
            for k in counts:
                pairs = []
                for sid, (gold, generated, hyps) in sorted(corpus.items()):
                    # Gold first (none under "generated"), then the first k generated (none under "gold").
                    refs = scoring_refs(gold, [] if mode == "gold" else generated,
                                        "generated" if mode == "generated" else "both", k)
                    pairs.append((hyps[system], [r for _, r in refs]))
                    if k == counts[-1]:
                        if per_reference:
                            cells = {ref_id: oracle.segment(metric, hyps[system], [ref])
                                     for ref_id, ref in refs}
                        else:
                            cells = {"all": oracle.segment(metric, hyps[system], [r for _, r in refs])}
                        expected_rows.append((metric, system, sid, cells))
                assert scores[k, system, metric].value == pytest.approx(
                    oracle.corpus(metric, pairs), abs=1e-9
                ), (mode, k, metric, system)
    # Metric-major, then by system, then by segment; keys and ids exactly, values to 1e-9.
    assert [row[:3] for row in rows] == [row[:3] for row in expected_rows]
    for row, expected in zip(rows, expected_rows):
        assert list(row[3]) == list(expected[3])
        assert row[3] == pytest.approx(expected[3], abs=1e-9), (mode, *row[:3])

    # Counts 1..K in one call give what K one-count calls give.
    if score_settings.sweep_refs is not None:
        for k in counts:
            one_count = MultiRefScorer(score_settings._replace(sweep_refs=None, max_refs=k),
                                       scorer.words, scorer.pieces)
            alone, alone_rows = score_corpus(one_count, eval_corpus(corpus))
            assert alone == {key: value for key, value in scores.items() if key[0] == k}
            if k == counts[-1]:
                assert alone_rows == rows


@settings(max_examples=100, deadline=None)
@given(
    corpus=corpora(),
    high=st.one_of(st.none(), st.integers(1, 3)),
    max_order=st.integers(1, 4),
    smoothing=st.sampled_from(("exp", "none")),
    ref_length=st.sampled_from(("closest", "shortest")),
    chrf_order=st.integers(1, 6),
    chrf_beta=st.sampled_from((1.0, 2.0, 3.0)),
    lowercase=st.booleans(),
    per_reference=st.booleans(),
)
def test_score_corpus_matches_oracles_without_the_cli(
    corpus, high, max_order, smoothing, ref_length, chrf_order, chrf_beta, lowercase, per_reference,
):
    oracle = Oracle(max_order, smoothing, ref_length, chrf_order, chrf_beta, lowercase)

    def scorer(**counts):
        # The oracle lowercases on its own, and splits words and pieces alike, as --pretokenized does.
        score_settings = ScoreSettings(
            ALL_METRICS, bleu=BleuConfig(max_order, smoothing, ref_length), chrf_order=chrf_order,
            chrf_beta=chrf_beta, lowercase=lowercase, pretokenized=True, **counts,
        )
        return MultiRefScorer(score_settings, words=lambda text: oracle.tokens("bleu", text),
                              pieces=lambda text: oracle.tokens("spbleu", text))

    cells = {"per_reference": per_reference, "out": per_reference}
    for mode in ("generated", "both"):
        # A sweep takes no per-reference cells, so they are checked on its largest count alone.
        if high is not None:
            check_score_corpus(oracle, scorer(refs=mode, sweep_refs=(1, high)), corpus)
        check_score_corpus(oracle, scorer(refs=mode, max_refs=high, **cells), corpus)
    gold = scorer(refs="gold", **cells)
    if all(gold_refs for gold_refs, _, _ in corpus.values()):
        check_score_corpus(oracle, gold, corpus)
    else:
        with pytest.raises(ValueError, match="has no references under --refs gold"):
            score_corpus(gold, eval_corpus(corpus))


# Two symbols, so that n-grams repeat and fill a hypothesis's bit field in the packed pass.
two_symbols = st.lists(st.sampled_from(("a", "b")), max_size=8).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    hyps=st.lists(two_symbols, min_size=1, max_size=8),
    refs=st.lists(two_symbols, min_size=1, max_size=5),
    max_order=st.integers(1, 4),
    smoothing=st.sampled_from(("exp", "none")),
)
@example(hyps=["a b", "b"], refs=["a b"], max_order=1, smoothing="exp")  # a full 2-bit field
@example(hyps=["a", "b a b"], refs=["a a", "b a b a"], max_order=2, smoothing="exp")  # brevity penalty
def test_per_reference_cells_at_up_to_eight_systems(hyps, refs, max_order, smoothing):
    """Every system's per-reference cell is its single-reference oracle score.

    Each of up to 8 systems, empty hypotheses included, is one field of the
    packed pass per reference, so a miscounted field shows in its own cells.
    """
    metrics = ("bleu", "spbleu", "chrf", "rouge1", "rouge3", "rougeL")
    oracle = Oracle(max_order, smoothing, "closest", 6, 2.0, False)
    score_settings = ScoreSettings(metrics, refs="generated", per_reference=True, out=True,
                                   bleu=BleuConfig(max_order, smoothing), pretokenized=True)
    scorer = MultiRefScorer(score_settings, words=str.split, pieces=str.split)
    systems = {f"sys{i}": hyp for i, hyp in enumerate(hyps)}
    corpus = EvalCorpus([Segment("s1", "src", (), tuple(refs))],
                        {system: {"s1": hyp} for system, hyp in systems.items()})
    _, rows = score_corpus(scorer, corpus)
    assert len(rows) == len(metrics) * len(systems)
    for metric, system, _, cells in rows:
        expected = {f"gen:{i}": oracle.segment(metric, systems[system], [ref]) for i, ref in enumerate(refs)}
        assert list(cells) == list(expected)
        assert cells == pytest.approx(expected, abs=1e-9), (metric, system)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), counts=st.lists(st.integers(1, 6), min_size=1, max_size=8))
def test_joint_in_any_count_order_matches_a_fresh_segment(corpus, counts):
    # A BLEU clip table grows while counts ascend and starts over when one falls.
    score_settings = ScoreSettings(["bleu", "spbleu"], pretokenized=True)
    scorer = MultiRefScorer(score_settings, words=str.split, pieces=str.split)
    for gold, generated, hyps in corpus.values():
        refs = gold + generated
        scores = scorer.segment(hyps, refs)
        for n_refs in counts:
            fresh = scorer.segment(hyps, refs)
            for system in hyps:
                for metric in scorer.settings.metrics:
                    expected = fresh.joint(system, metric, n_refs)
                    assert scores.joint(system, metric, n_refs) == expected, (n_refs, metric)


def test_cli_leaves_the_scoring_loop_to_the_library():
    # score_corpus owns the reference rule and the per-segment loop; cli.py only calls it.
    source = Path(multiref.cli.__file__).read_text(encoding="utf-8")
    calls = [
        (node.func.attr, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    loop_methods = {"segment", "joint", "per_reference", "corpus", "scoring_refs"}
    assert [(name, line) for name, line in calls if name in loop_methods] == []
    # The walk sees attribute calls, so it is not blind.
    assert {"load_corpus", "merge_references"} <= {name for name, _ in calls}


def test_each_scoring_rule_runs_once_per_score_run(tmp_path, monkeypatch):
    # The scorer keeps the settings it is built from and checks none of their rules again.
    calls = []

    def counted(name, check):
        def call(*args):
            calls.append((name, *args))
            return check(*args)
        return call

    for module, name in [(multiref.metrics, "_check_metrics"), (multiref.metrics, "_check_chrf_beta"),
                         (kernels, "check_order")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    corpus = {"s1": (["the cat sat"], ["a cat sat"], {"A": "the cat sat down"})}
    flags = ["--metrics", "bleu,chrf,rouge2", "--max-order", "3", "--chrf-order", "5", "--chrf-beta", "1.5"]
    rows, _ = run_score(tmp_path, write_corpus(tmp_path, corpus), flags)
    assert len(rows) == 3
    # The parser checks the library's default BleuConfig once, to show its defaults as the flags'.
    assert sorted(calls, key=repr) == sorted([
        ("_check_metrics", ("bleu", "chrf", "rouge2")),
        ("_check_chrf_beta", 1.5),
        ("check_order", 4, "max_order"),
        ("check_order", 3, "max_order"),
        ("check_order", 5, "--chrf-order"),
        ("check_order", 2, "the n-gram order of 'rouge2'"),
    ], key=repr)


def test_chrf_tie_picks_first_reference_for_corpus_counts(tmp_path):
    # With beta 1 and order 1, hypothesis "aabb" scores F = 2/3 against both
    # "ab" (P 1/2, R 1) and "aabbcccc" (P 1, R 1/2). The segment scores tie;
    # the corpus sum takes the counts of whichever reference comes first.
    results = {}
    for order in ("short-first", "long-first"):
        refs = ["ab", "aabbcccc"] if order == "short-first" else ["aabbcccc", "ab"]
        corpus = {"s1": ([], refs, {"p": "aabb"}), "s2": ([], ["ab"], {"p": "ab"})}
        directory = tmp_path / order
        directory.mkdir()
        rows, summary = run_score(
            directory, write_corpus(directory, corpus),
            ["--refs", "generated", "--metrics", "chrf", "--chrf-order", "1", "--chrf-beta", "1"],
        )
        pairs = [("aabb", refs), ("ab", ["ab"])]
        assert rows["chrf", "p", "s1"]["all"] == pytest.approx(200 / 3, abs=1e-9)
        assert summary["metrics"]["chrf"]["p"] == pytest.approx(
            oracles.chrf_corpus(pairs, 1, 1.0), abs=1e-9
        )
        results[order] = summary["metrics"]["chrf"]["p"]
    assert results["short-first"] == pytest.approx(80.0)
    assert results["long-first"] == pytest.approx(75.0)


def test_closest_reference_length_ties_go_to_the_shorter_reference(tmp_path):
    # Both references are one token away from the 3-token hypothesis; the
    # shorter one sets the brevity penalty, so there is none.
    corpus = {"s1": ([], ["a b c d", "a b"], {"p": "a b c"})}
    rows, summary = run_score(
        tmp_path, write_corpus(tmp_path, corpus), ["--refs", "generated", "--max-order", "1"]
    )
    assert oracles.bleu(["a", "b", "c"], [["a", "b", "c", "d"], ["a", "b"]], 1) == 100.0
    assert rows["bleu", "p", "s1"]["all"] == pytest.approx(100.0)
    assert summary["metrics"]["bleu"]["p"] == pytest.approx(100.0)


def random_corpus(seed, segments=4, systems=3, generated=None):
    """Random segments; each has `generated` generated references (3-7 if None), one a duplicate."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(12)]

    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 9)))

    corpus = {}
    for i in range(segments):
        gold = [sentence()]
        refs = [sentence() for _ in range(rng.randint(2, 6) if generated is None else generated - 1)]
        refs.insert(1, refs[0])  # duplicate reference
        hyps = {f"sys{j}": sentence() for j in range(systems)}
        hyps["sys0"] = gold[0]
        corpus[f"seg{i}"] = (gold, refs, hyps)
    return corpus


@pytest.mark.parametrize("mode", ["generated", "both"])
def test_sweep_matches_separate_max_refs_runs(tmp_path, mode):
    # The sweep grows each BLEU clip table by the references each count adds.
    paths = write_corpus(tmp_path, random_corpus(3, generated=20))
    common = ["--refs", mode, "--metrics", ",".join(ALL_METRICS), "--pretokenized"]
    _, sweep = run_score(tmp_path, paths, common + ["--sweep-refs", "1..20"])
    series = {(r["refs"], r["metric"], r["system"]): r["score"] for r in sweep["sweep"]}
    assert len(series) == 20 * len(ALL_METRICS) * 3
    for k in range(1, 21):
        _, summary = run_score(tmp_path, paths, common + ["--max-refs", str(k)])
        for metric, per_system in summary["metrics"].items():
            for system, score in per_system.items():
                assert series[k, metric, system] == score, (k, metric, system)


def run_sweep(paths, spec):
    """(exit code, stdout, stderr) of `score --sweep-refs spec` on `write_corpus` paths."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["score", "--segments", str(paths["segments"]), "--outputs", str(paths["outputs"]),
                     "--generated-refs", str(paths["refs"]), "--metrics", "bleu,chrf", "--sweep-refs", spec])
    return code, out.getvalue(), err.getvalue()


def test_a_sweep_stops_at_the_most_generated_references(tmp_path):
    # Every count past a segment's largest reference set scores the same, so
    # 1..25 used to print counts 21..25 as copies of 20.
    corpus = random_corpus(5, segments=3, generated=20)
    corpus["seg0"] = (corpus["seg0"][0], corpus["seg0"][1][:7], corpus["seg0"][2])
    paths = write_corpus(tmp_path, corpus)
    code, table, _ = run_sweep(paths, "1..25")
    assert code == 0
    assert (code, table) == run_sweep(paths, "1..20")[:2]
    assert {int(line.split()[2]) for line in table.splitlines()[2:]} == set(range(1, 21))


def test_a_sweep_past_every_segment_is_rejected(tmp_path):
    paths = write_corpus(tmp_path, random_corpus(5, segments=2, generated=4))
    assert run_sweep(paths, "5..9") == (
        1, "", "multiref: error: --sweep-refs starts at 5, but no segment has more than 4 generated references\n"
    )


def test_a_huge_sweep_ends_at_once_under_a_memory_cap(tmp_path):
    # `--sweep-refs 1..1000000000` listed every count first: under this cap it
    # ended in a MemoryError traceback, and without one it ran out of memory.
    resource = pytest.importorskip("resource")
    paths = write_corpus(tmp_path, random_corpus(6, segments=2, generated=4))
    cap = 1_500_000_000
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    # The command must finish within a 1-s timer, whose signal ends the process.
    child = (
        "import resource, signal, sys\n"
        "from multiref.cli import main\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
        "signal.setitimer(signal.ITIMER_REAL, 1.0)\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = Path(multiref.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", child, "score", "--segments", str(paths["segments"]),
         "--outputs", str(paths["outputs"]), "--generated-refs", str(paths["refs"]),
         "--metrics", "bleu", "--sweep-refs", "1..1000000000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert {int(line.split()[2]) for line in proc.stdout.splitlines()[2:]} == {1, 2, 3, 4}


def test_each_text_tokenized_once_and_each_statistic_computed_once(tmp_path, monkeypatch):
    seen = []

    def counting(granularity, fn):
        def wrapped(text, *args, **kwargs):
            seen.append((granularity, text))
            return fn(text, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(multiref.cli, "tokenize_words",
                        counting("word", multiref.cli.tokenize_words))
    monkeypatch.setattr(multiref.metrics, "tokenize_subwords",
                        counting("subword", multiref.metrics.tokenize_subwords))
    monkeypatch.setattr(multiref.metrics, "tokenize_chars",
                        counting("char", multiref.metrics.tokenize_chars))
    lcs_passes = []  # per packed reference set, the hypotheses passed over it

    class CountingLcs(kernels.PackedLcs):
        def __init__(self, seqs):
            super().__init__(seqs)
            lcs_passes.append([])

        def lengths(self, a):
            lcs_passes[-1].append(a)
            return super().lengths(a)

    monkeypatch.setattr(kernels, "PackedLcs", CountingLcs)
    packs = []  # each packed hypothesis set, with the references counted against it

    class CountingPacked(kernels.PackedHypotheses):
        def __init__(self, hyps):
            super().__init__(hyps)
            tokens = hyps[0].tokens
            self.segment = "seg1" if "s1" in "".join(tokens) else "seg0"
            self.granularity = ("char" if isinstance(tokens, str)
                                else "subword" if tokens[0].startswith("▁") else "word")
            self.passes = []
            packs.append(self)

        def matches(self, ref):
            self.passes.append(ref.tokens)
            return super().matches(ref)

    monkeypatch.setattr(kernels, "PackedHypotheses", CountingPacked)
    clip_tables = []
    clip_table = kernels.clip_table
    monkeypatch.setattr(kernels, "clip_table", lambda *a: clip_tables.append(a) or clip_table(*a))
    segment_stat_calls = []
    for name in ("bleu_segment_stats", "chrf_segment_stats"):
        monkeypatch.setattr(kernels, name, lambda *a, name=name: segment_stat_calls.append(name))

    # Texts differ between segments, so "once per segment" means once overall.
    corpus = {}
    for i in range(2):
        words = [f"s{i}w{j}" for j in range(10)]
        refs = [" ".join(words[j:j + 5]) for j in range(4)]
        gold, generated = refs[:1], refs[1:] + [refs[1]] * i  # segment 1 repeats a reference
        hyps = {"copy": gold[0], "p": " ".join(words[::2]), "q": " ".join(words[1::2])}
        hyps["r"] = hyps["p"] if i else " ".join(words[::3])  # segment 1 repeats a hypothesis
        corpus[f"seg{i}"] = (gold, generated, hyps)
    paths = write_corpus(tmp_path, corpus)
    vocab = tmp_path / "pieces.txt"
    vocab.write_text("\n".join(sorted({f"▁s{i}w" for i in range(2)} | set("0123456789"))) + "\n",
                     encoding="utf-8")

    expected = []
    distinct_hyps = []
    distinct_refs = {}
    for sid, (gold, generated, hyps) in corpus.items():
        texts = set(gold) | set(generated) | set(hyps.values())
        expected += [(g, t) for g in ("word", "subword", "char") for t in texts]
        distinct_hyps.append(len(set(hyps.values())))
        distinct_refs[sid] = len(set(gold + generated))

    clip_table_calls = []
    for per_reference in ([], ["--per-reference"]):
        for calls in (seen, lcs_passes, packs, clip_tables):
            calls.clear()
        run_score(tmp_path, paths, ["--refs", "both", "--metrics", "bleu,spbleu,chrf,rougeL",
                                    "--vocab", str(vocab), *per_reference])

        assert sorted(seen) == sorted(expected)
        # ROUGE-L: each segment packs its references once and makes one pass per
        # distinct hypothesis, none of them repeated.
        assert [len(passes) for passes in lcs_passes] == distinct_hyps == [4, 3]
        assert [len(set(passes)) for passes in lcs_passes] == distinct_hyps
        # chrF, and per-reference BLEU and spBLEU: each segment packs its hypotheses
        # once per granularity and makes one pass per distinct reference.
        granularities = ["char", "subword", "word"] if per_reference else ["char"]
        assert sorted((pack.segment, pack.granularity) for pack in packs) == [
            (sid, g) for sid in corpus for g in granularities
        ]
        for pack in packs:
            assert len(set(pack.passes)) == len(pack.passes) == distinct_refs[pack.segment]
        clip_table_calls.append(len(clip_tables))
        assert segment_stat_calls == []
    # Only joint BLEU builds clip tables, with or without per-reference cells.
    assert clip_table_calls[0] == clip_table_calls[1] > 0


def test_scorer_rejects_bad_configuration():
    # The settings check every scoring rule; the scorer checks only that it was given the tokenizers they need.
    with pytest.raises(ValueError, match="unknown metric"):
        ScoreSettings(("meteor",))
    with pytest.raises(ValueError, match="--chrf-order must be >= 1, got 0"):
        ScoreSettings(("chrf",), chrf_order=0)
    with pytest.raises(ValueError, match="word tokenizer"):
        MultiRefScorer(ScoreSettings(("rougeL",)))
    with pytest.raises(ValueError, match="word tokenizer"):
        MultiRefScorer()
    with pytest.raises(ValueError, match="subword tokenizer"):
        MultiRefScorer(ScoreSettings(("spbleu",), pretokenized=True))
    scorer = MultiRefScorer(ScoreSettings(("chrf",)))
    with pytest.raises(ValueError, match="at least one reference"):
        scorer.segment({"p": "a"}, [])


def test_scorer_rejects_a_metric_named_twice():
    with pytest.raises(ValueError, match="metric 'bleu' is named twice"):
        ScoreSettings(["bleu", "bleu"])


def test_the_scorer_holds_its_settings_and_no_copy():
    score_settings = ScoreSettings(["bleu", "chrf"], bleu=BleuConfig(2), chrf_order=3, lowercase=True)
    scorer = score_settings.scorer(multiref.cli.tokenize_words)
    assert scorer.settings is score_settings
    assert set(vars(scorer)) == {"settings", "word_order", "words", "pieces"}
    assert scorer.words("The Cat") == ("the", "cat")


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"sweep_refs": (2, 1)}, "invalid sweep range '2..1'"),
        ({"sweep_refs": (None, None)}, "--sweep-refs must be a pair of integers, got (None, None)"),
        ({"sweep_refs": ()}, "--sweep-refs must be a pair of integers, got ()"),
        ({"max_refs": -1}, "--max-refs must be >= 1, got -1"),
        ({"max_refs": True}, "--max-refs must be an integer, got True"),
    ],
    ids=["descending", "none-twice", "empty", "negative", "bool"],
)
def test_score_settings_rejects_bad_counts(counts, message):
    # The counts score_corpus scores come from ScoreSettings, which checks them once.
    with pytest.raises(ValueError) as info:
        ScoreSettings(**counts)
    assert str(info.value) == message


def test_score_settings_counts():
    assert ScoreSettings().counts == (None,)
    assert ScoreSettings(max_refs=3).counts == (3,)
    assert list(ScoreSettings(sweep_refs=[2, 4]).counts) == [2, 3, 4]
    assert len(ScoreSettings(sweep_refs=(1, 10**18)).counts) == 10**18
    assert ScoreSettings(refs="gold", generated_refs=False).counts == (None,)


class TestScoreCorpusReferences:
    """The gold-then-generated reference rule, which `score_corpus` alone applies."""

    segment = Segment("s", "x", gold_refs=("g1", "g2"), generated_refs=("c1", "c2", "c3"))

    def scored_refs(self, mode, max_refs=None):
        """(reference id, reference text) of the segment's per-reference row, in cell order.

        Each text is a system's hypothesis, so a text's ROUGE-1 is 100 only
        against the reference that equals it.
        """
        texts = self.segment.gold_refs + self.segment.generated_refs
        corpus = EvalCorpus([self.segment], {text: {"s": text} for text in texts})
        score_settings = ScoreSettings(["rouge1"], refs=mode, max_refs=max_refs, per_reference=True, out=True)
        _, rows = score_corpus(MultiRefScorer(score_settings, words=str.split), corpus)
        text_of = {ref_id: system for _, system, _, cells in rows
                   for ref_id, value in cells.items() if value == 100.0}
        return [(ref_id, text_of[ref_id]) for ref_id in rows[0][3]]

    def test_modes(self):
        assert self.scored_refs("gold") == [("gold:0", "g1"), ("gold:1", "g2")]
        assert self.scored_refs("generated") == [("gen:0", "c1"), ("gen:1", "c2"), ("gen:2", "c3")]
        assert self.scored_refs("both") == [
            ("gold:0", "g1"), ("gold:1", "g2"), ("gen:0", "c1"), ("gen:1", "c2"), ("gen:2", "c3"),
        ]

    def test_cap_applies_only_to_generated_references(self):
        assert self.scored_refs("both", 1) == [("gold:0", "g1"), ("gold:1", "g2"), ("gen:0", "c1")]
        assert self.scored_refs("generated", 2) == [("gen:0", "c1"), ("gen:1", "c2")]
        # A cap with no generated references to cap is rejected, as `score --refs gold --max-refs` is.
        with pytest.raises(ValueError, match="it does not apply to --refs gold"):
            self.scored_refs("gold", 1)

    def test_a_corpus_without_outputs_is_rejected(self):
        scorer = MultiRefScorer(ScoreSettings(["bleu"]), words=str.split)
        with pytest.raises(ValueError, match="no system outputs to score"):
            score_corpus(scorer, EvalCorpus([self.segment]))

    def test_unknown_mode_rejected(self):
        # The mode is checked when the settings are built, before any corpus.
        with pytest.raises(ValueError, match="unknown reference mode 'everything'"):
            ScoreSettings(refs="everything")
