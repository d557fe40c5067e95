"""Subcommand interface orchestrating the evaluation pipeline end to end.

Stages communicate only through files (JSONL formats documented in
corpus_io), so each can be rerun independently: generate once, rescore and
re-evaluate as often as needed.
"""

import argparse
import functools
import json
import shutil
import sys

from . import corpus_io, diversity, metaeval, refgen
from .corpus_io import json_object, number_field, read_json, write_json, write_jsonl
# pipebench/tracer.py wraps each name it traces in the module where the
# package looks it up. load_score_matrices, combine_matrix, bleu_sentence,
# bleu_corpus, chrf_sentence, chrf_corpus, rouge_l and tokenize_subwords
# have no caller here: they are imported only so that the tracer finds them
# under this module (score's subword tokenizer comes from
# metrics.piece_tokenizer). score passes tokenize_words and the vocabulary
# from load_subword_vocab, and calls write_score_matrix, through this module,
# so the tracer's spans still count them.
from .combine import (  # noqa: F401
    COMBINE_KINDS,
    CombinePolicy,
    combine_matrix,
    load_combined,
    load_score_matrices,
    system_scores,
    write_combined,
    write_score_matrix,
)
from .errors import CorpusFormatError, MultirefError
from .kernels import MAX_ORDER, check_order
from .metrics import (  # noqa: F401
    DEFAULT_CHRF_BETA,
    DEFAULT_CHRF_ORDER,
    METRICS,
    REF_LENGTH_MODES,
    REF_MODES,
    SMOOTHING_METHODS,
    BleuConfig,
    ScoreSettings,
    bleu_corpus,
    bleu_sentence,
    chrf_corpus,
    chrf_sentence,
    rouge_l,
    score_corpus,
)
from .textproc import load_subword_vocab, tokenize_subwords, tokenize_words  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a HelpFormatter in every add_argument, and each one reads
    # the terminal width; read it once here, as HelpFormatter reads it.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    # Flag defaults are the library's own, so each is stated once.
    generation, bleu, policy = refgen.GenerationConfig(), BleuConfig(), CombinePolicy()
    parser = argparse.ArgumentParser(
        prog="multiref",
        description="Multi-reference evaluation pipeline for NLG systems.",
        formatter_class=formatter,
    )
    parser.add_argument("--config", help="JSON file with default values for flags")
    parser.add_argument("--jobs", type=int, default=generation.concurrency,
                        help="concurrent requests in generate; other stages ignore it")
    parser.add_argument(
        "--lowercase", action="store_true", help="lowercase text before tokenization"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("generate", help="generate reference candidates via an LLM endpoint")
    p.add_argument("--segments", required=True, help="segments.jsonl")
    p.add_argument("--out", required=True, help="refs.jsonl to write/append")
    p.add_argument("--task", choices=tuple(refgen.DEFAULT_N_REFERENCES), default="translation")
    p.add_argument("--template", choices=tuple(dict.fromkeys(name for _, name in refgen.BUILTIN_TEMPLATES)),
                   help=f"built-in template (default: {refgen.DEFAULT_TEMPLATE})")
    p.add_argument("--template-file", help="JSON template to use instead of a built-in one")
    p.add_argument("--model", default=generation.model_name)
    p.add_argument("--endpoint", default=generation.endpoint_url)
    counts = ", ".join(f"{n} {task}" for task, n in refgen.DEFAULT_N_REFERENCES.items())
    p.add_argument("--n-references", type=int, help=f"candidates per segment ({counts})")
    p.add_argument("--max-retries", type=int, default=generation.max_retries)
    p.add_argument("--timeout", type=float, default=generation.timeout)
    p.add_argument(
        "--ground-truth",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include the gold reference in the prompt (default: yes when every segment has one)",
    )
    p.add_argument("--mock", action="store_true", help="use the built-in offline mock endpoint")
    p.set_defaults(func=cmd_generate)

    p = add_parser("select", help="filter candidates by diversity")
    p.add_argument("--refs", required=True, help="refs.jsonl to filter")
    p.add_argument("--out", required=True, help="filtered refs.jsonl")
    p.add_argument("--threshold", type=float, default=diversity.DEFAULT_SELF_BLEU_THRESHOLD)
    p.add_argument("--report", help="write the per-segment diversity-score report JSON here")
    p.set_defaults(func=cmd_select)

    p = add_parser("score", help="score system outputs with n-gram metrics")
    p.add_argument("--segments", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--generated-refs", help="refs.jsonl from generate/select")
    p.add_argument(
        "--refs",
        choices=REF_MODES,
        default=None,
        help="reference set (default: generated when --generated-refs is given, else gold)",
    )
    p.add_argument("--max-refs", type=int, help="cap on generated references per segment")
    p.add_argument("--sweep-refs", help="A..B: emit one score series per generated-reference count")
    p.add_argument("--metrics", default="bleu",
                   help=f"comma list of {','.join(METRICS)} or rouge<n> (n <= {MAX_ORDER})")
    p.add_argument("--vocab", help="subword vocabulary file (required for spbleu)")
    p.add_argument("--pretokenized", action="store_true", help="treat text as subword pieces joined by spaces")
    p.add_argument("--max-order", type=int, default=bleu.max_order, help=f"BLEU n-gram order, 1..{MAX_ORDER}")
    p.add_argument("--smoothing", choices=SMOOTHING_METHODS, default=bleu.smoothing)
    p.add_argument("--ref-length", choices=REF_LENGTH_MODES, default=bleu.effective_ref_length)
    p.add_argument("--chrf-order", type=int, default=DEFAULT_CHRF_ORDER,
                   help=f"chrF character n-gram order, 1..{MAX_ORDER}")
    p.add_argument("--chrf-beta", type=float, default=DEFAULT_CHRF_BETA)
    p.add_argument("--per-reference", action="store_true",
                   help="matrix cells hold single-reference scores instead of one joint multi-reference column")
    p.add_argument("--out", help="matrix.jsonl to write")
    p.add_argument("--summary", help="per-system summary JSON to write")
    p.set_defaults(func=cmd_score)

    p = add_parser("combine", help="combine per-reference score matrices")
    p.add_argument("--matrix", required=True, help="matrix.jsonl")
    p.add_argument("--policy", choices=COMBINE_KINDS, default=policy.kind)
    p.add_argument("--k", type=int, help="k for top_k_mean")
    p.add_argument("--out", help="combined per-segment scores JSONL")
    p.add_argument("--summary", help="per-system summary JSON")
    p.set_defaults(func=cmd_combine)

    p = add_parser("metaeval", help="correlate metric scores with human judgments")
    p.add_argument("--matrix", required=True, help="matrix.jsonl of metric scores")
    p.add_argument("--human", required=True, help="human.jsonl")
    p.add_argument("--policy", choices=COMBINE_KINDS, default=policy.kind)
    p.add_argument("--k", type=int)
    p.add_argument("--name", help="language pair / task label for the report")
    p.add_argument("--out", help="report JSON")
    p.set_defaults(func=cmd_metaeval)

    p = add_parser("diversity", help="per-system lexical diversity table")
    p.add_argument("--outputs", required=True)
    p.add_argument("--segments", help="validate output segment ids against this file")
    p.add_argument("--n", type=int, default=diversity.DEFAULT_DISTINCT_N,
                   help=f"n-gram order for the distinct-n ratio, 1..{MAX_ORDER}")
    p.add_argument("--out", help="report JSON")
    p.set_defaults(func=cmd_diversity)

    p = add_parser("leakage-report", help="score-gap shift from single- to multi-reference scoring")
    p.add_argument("--single", required=True, help="summary JSON scored with the single gold reference")
    p.add_argument("--multi", required=True, help="summary JSON scored with multiple references")
    p.add_argument("--metric", help="metric to compare (required when summaries hold several)")
    p.add_argument("--pair", action="append", required=True, metavar="A,B",
                   help="system pair to compare; repeatable")
    p.add_argument("--out", help="report JSON")
    p.set_defaults(func=cmd_leakage_report)

    return parser


# The JSON types a config value may have, by the argparse `type` of its flag;
# any other `type` gets a string, as on the command line.
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_scalar(action: argparse.Action, value):
    """One config value, converted as argparse converts the flag's argument."""
    accepted, expected = _CONFIG_TYPES.get(action.type, ((str,), "a string"))
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"expected {expected}, got {json.dumps(value)}")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"invalid choice {json.dumps(value)} (choose from {', '.join(map(str, action.choices))})"
        )
    return value


def _config_value(action: argparse.Action, value):
    """A config value checked against the flag's argparse action, as the flag would store it."""
    if action.nargs == 0:  # store_true and --flag/--no-flag
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {json.dumps(value)}")
        return value
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {json.dumps(value)}")
        return [_config_scalar(action, item) for item in value]
    return _config_scalar(action, value)


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the --config JSON values the defaults of their flags; parse argv again to apply them.

    One map, `{dest: (parser, action)}` over the top-level parser and the
    running command, gives each key the argparse action that checks its
    value and the parser that owns its default. A bad value, an integer too
    large for a float flag included, fails as `<config path>: <key>: <reason>`.
    A key for another command's flag is skipped, so one config can serve
    every command; a key that names no flag of any command fails. A
    required flag is always given, so its value is checked but not used.
    """
    config = read_json(args.config, dict, "config")
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    owners = {action.dest: (p, action) for p in (parser, commands[args.command]) for action in p._actions}
    dests = {action.dest for p in (parser, *commands.values()) for action in p._actions}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise CorpusFormatError(f"{key}: names no flag of any command", args.config)
        if not hasattr(args, dest):
            continue
        owner, action = owners[dest]
        try:
            value = _config_value(action, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CorpusFormatError(f"{key}: {exc}", args.config) from None
        if not action.required:
            owner.set_defaults(**{dest: value})


def _print_summary(summary: dict[str, dict[str, float]]) -> None:
    """Print the metric/system/score table of a {metric: {system: score}} summary."""
    table = [
        [metric, system, f"{score:.2f}"]
        for metric, per_system in summary.items()
        for system, score in sorted(per_system.items())
    ]
    print(_format_table(["metric", "system", "score"], table))


def _format_table(headers, rows) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    # GenerationConfig and choose_template check every rule of the flags before any file is read.
    cfg = refgen.GenerationConfig(
        model_name=args.model,
        n_references=refgen.DEFAULT_N_REFERENCES[args.task] if args.n_references is None else args.n_references,
        endpoint_url=args.endpoint,
        max_retries=args.max_retries,
        timeout=args.timeout,
        concurrency=args.jobs,
    )
    template = refgen.choose_template(args.task, args.template, args.template_file, args.ground_truth)
    segments = corpus_io.load_segments(args.segments)
    transport = refgen.MockTransport() if args.mock else refgen.HttpChatTransport()

    items = [
        (s.id, s.source, s.gold_refs[0] if s.gold_refs else None) for s in segments
    ]
    try:
        records = refgen.generate_references(items, template, cfg, transport, out_path=args.out)
    except refgen.MissingGoldError as exc:
        raise CorpusFormatError(str(exc), args.segments) from None
    failed = [r.segment_id for r in records if not r.succeeded]
    print(
        f"generate: {len(records) - len(failed)} segments done, "
        f"{len(items) - len(records)} skipped (already complete), {len(failed)} failed"
    )
    if failed:
        print(f"generate: failed segments: {', '.join(failed[:10])}", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ select


def cmd_select(args) -> int:
    diversity.check_threshold(args.threshold)
    records = refgen.load_generation_records(args.refs)
    report: dict[str, dict] = {}
    kept_total = 0
    candidate_total = 0
    rows = []
    selected = []
    for record in records:
        if record.succeeded:
            candidates = list(record.candidates)
            scores, kept = diversity.score_and_select(candidates, args.threshold, args.lowercase)
            record = record._replace(candidates=tuple(candidates[i] for i in kept))
            report[record.segment_id] = {"self_bleu": scores, "kept_indices": kept}
            kept_total += len(kept)
            candidate_total += len(candidates)
            low, high = (f"{min(scores):.2f}", f"{max(scores):.2f}") if scores else ("-", "-")
            rows.append([record.segment_id, len(candidates), len(kept), low, high])
        selected.append(record)
    write_jsonl(args.out, (record._asdict() for record in selected))
    shown = rows[:40]
    print(_format_table(["segment", "in", "kept", "min self-bleu", "max self-bleu"], shown))
    if len(rows) > len(shown):
        print(f"... {len(rows) - len(shown)} more segments (full report via --report)")
    print(f"select: kept {kept_total}/{candidate_total} candidates (threshold {args.threshold})")
    if args.report:
        write_json(args.report, report)
    return 0


# ------------------------------------------------------------------- score


def _parse_sweep(spec: str) -> tuple[int, int]:
    try:
        low, high = spec.split("..", 1)
        return int(low), int(high)
    except ValueError:
        raise ValueError(f"--sweep-refs expects A..B, got {spec!r}")


def cmd_score(args) -> int:
    # ScoreSettings checks every rule of the flags, so a bad one fails before any file is read.
    settings = ScoreSettings(
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        refs=args.refs or ("generated" if args.generated_refs else "gold"),
        max_refs=args.max_refs,
        sweep_refs=_parse_sweep(args.sweep_refs) if args.sweep_refs else None,
        per_reference=args.per_reference,
        out=bool(args.out),
        generated_refs=bool(args.generated_refs),
        bleu=BleuConfig(args.max_order, args.smoothing, args.ref_length),
        chrf_order=args.chrf_order,
        chrf_beta=args.chrf_beta,
        lowercase=args.lowercase,
        vocab=args.vocab,
        pretokenized=args.pretokenized,
    )
    scorer = settings.scorer(tokenize_words, load_subword_vocab(settings.vocab) if settings.vocab else None)

    corpus = corpus_io.load_corpus(args.segments, args.outputs)
    if args.generated_refs:
        records = refgen.load_generation_records(args.generated_refs, set(corpus.segment_ids()))
        corpus = corpus_io.merge_references(corpus, records)

    try:
        scores, rows = score_corpus(scorer, corpus)
    except CorpusFormatError as exc:  # a segment with no references; it is named in --segments
        raise CorpusFormatError(str(exc), args.segments) from None
    if settings.sweep_refs is not None:
        series = [
            {"metric": metric, "system": system, "refs": k, "score": score.value}
            for (k, system, metric), score in scores.items()
        ]
        print(_format_table(
            ["metric", "system", "refs", "score"],
            [[r["metric"], r["system"], r["refs"], f"{r['score']:.2f}"] for r in series],
        ))
        if args.summary:
            write_json(args.summary, {"sweep": series})
        return 0

    summary = {metric: {} for metric in settings.metrics}
    for (_k, system, metric), score in scores.items():
        summary[metric][system] = score.value
    _print_summary(summary)
    if args.out:
        write_score_matrix(args.out, rows)
    if args.summary:
        write_json(args.summary, {"metrics": summary, "refs_mode": settings.refs, "max_refs": args.max_refs})
    return 0


# ----------------------------------------------------------------- combine


def _combined_matrix(args) -> dict:
    """The --matrix file combined under the --policy/--k flags, by metric."""
    combined_by_metric = load_combined(args.matrix, CombinePolicy(args.policy, args.k))
    if not combined_by_metric:
        raise ValueError(f"no rows found in {args.matrix}")
    return combined_by_metric


def cmd_combine(args) -> int:
    combined_by_metric = _combined_matrix(args)
    metrics = sorted(combined_by_metric)
    # The summary comes first, so that a matrix it fails on writes nothing.
    try:
        summary = {metric: system_scores(combined_by_metric[metric], metric) for metric in metrics}
    except ValueError as exc:
        raise CorpusFormatError(str(exc), args.matrix) from None
    if args.out:
        write_combined(args.out, combined_by_metric)
    _print_summary(summary)
    if args.summary:
        write_json(args.summary, {"metrics": summary, "policy": args.policy, "k": args.k})
    return 0


# ---------------------------------------------------------------- metaeval


def cmd_metaeval(args) -> int:
    combined_by_metric = _combined_matrix(args)
    human = metaeval.load_human_judgments(args.human)
    if not human.system:
        raise ValueError(f"no judgments found in {args.human}")
    try:
        reports = metaeval.meta_evaluate_all(combined_by_metric, human, name=args.name)
    except ValueError as exc:
        # Both files are well-formed; what the matrix's metrics share with the
        # human judgments does not support a statistic.
        raise CorpusFormatError(f"cannot evaluate against {args.human}: {exc}", args.matrix) from None
    rows = []
    for report in reports:
        rows.append(
            [
                report.metric,
                report.name or "-",
                f"{report.pairwise_accuracy:.3f}",
                str(report.n_pairs_used),
                f"{report.pearson:.3f}",
                f"{report.kendall:.3f}" if report.kendall is not None else "-",
                ";".join(f"{d}={v:.3f}" for d, v in (report.spearman or {}).items()) or "-",
            ]
        )
    print(
        _format_table(
            ["metric", "name", "accuracy", "pairs", "pearson", "kendall", "spearman"], rows
        )
    )
    if args.out:
        write_json(args.out, [{"metric": r.metric, "name": r.name, **r._asdict()} for r in reports])
    return 0


# --------------------------------------------------------------- diversity


def cmd_diversity(args) -> int:
    check_order(args.n, "--n")
    known = None
    if args.segments:
        known = {s.id for s in corpus_io.load_segments(args.segments)}
    systems = corpus_io.load_outputs(args.outputs, known)
    rows = []
    report = {}
    for system in sorted(systems):
        tokenized = [
            tokenize_words(text, lowercase=args.lowercase)
            for _segment, text in sorted(systems[system].items())
        ]
        summary = diversity.diversity_report(tokenized, n=args.n)
        report[system] = summary._asdict()
        rows.append([system, f"{summary.distinct_n:.4f}", str(summary.unique_tokens)])
    print(_format_table(["system", f"distinct-{args.n}", "unique tokens"], rows))
    if args.out:
        write_json(args.out, report)
    return 0


# ---------------------------------------------------------- leakage-report


def _load_system_scores(path: str, metric: str | None, systems) -> tuple[str, dict[str, float]]:
    """(metric, score by system) from a `score`/`combine` summary or a flat `{system: score}` object.

    The scores must include each of `systems`.
    """

    def parse(data: dict):
        if "sweep" in data:
            raise ValueError("holds a --sweep-refs series, not one score per system")
        name, scores = metric or "score", data
        if "metrics" in data:
            metrics = json_object(data["metrics"], "metrics")
            if metric is None:
                if len(metrics) != 1:
                    raise ValueError(f"holds {sorted(metrics)}; pick one with --metric")
                name = next(iter(metrics))
            if name not in metrics:
                raise ValueError(f"metric {name!r} not present")
            scores = json_object(metrics[name], f"metrics[{name!r}]")
        scores = {system: number_field(v, f"score of {system!r}") for system, v in scores.items()}
        for system in systems:
            if system not in scores:
                raise ValueError(f"no score for system {system!r}")
        return name, scores

    return read_json(path, parse, "summary")


def cmd_leakage_report(args) -> int:
    pairs = []
    for pair in args.pair:
        try:
            a, b = (part.strip() for part in pair.split(",", 1))
        except ValueError:
            raise ValueError(f"--pair expects A,B, got {pair!r}")
        pairs.append((a, b))
    systems = list(dict.fromkeys(system for pair in pairs for system in pair))
    metric, single = _load_system_scores(args.single, args.metric, systems)
    _, multi = _load_system_scores(args.multi, args.metric or metric, systems)
    rows = []
    out = []
    for a, b in pairs:
        try:
            report = metaeval.leakage_gap(single, multi, a, b)
        except metaeval.GapOverflowError as exc:
            # A gap is one summary's fault; the shrinkage and the ratio are both summaries'.
            path = args.multi if exc.field == "delta_multi" else args.single
            against = f" against {args.multi}" if exc.field in ("shrinkage", "ratio") else ""
            raise CorpusFormatError(
                f"invalid summary: {exc.field} of {a!r} over {b!r}{against} overflows to {exc.value}", path
            ) from None
        rows.append(
            [
                f"{a} vs {b}",
                f"{report.delta_single:+.2f}",
                f"{report.delta_multi:+.2f}",
                f"{report.shrinkage:+.2f}",
                f"{report.ratio:.3f}" if report.ratio is not None else "-",
            ]
        )
        out.append({"metric": metric, **report._asdict(), "shrinkage": report.shrinkage, "ratio": report.ratio})
    print(
        _format_table(
            ["pair", "delta single-ref", "delta multi-ref", "shrinkage", "ratio"], rows
        )
    )
    if args.out:
        write_json(args.out, out)
    return 0


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except (MultirefError, ValueError, OSError) as exc:
        print(f"multiref: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
