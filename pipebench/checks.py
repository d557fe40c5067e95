"""Output checks that hold on every seed, independent of the package's code.

The committed digests gate the default seed exactly. On any other seed these
checks stand in: shapes and ranges of every output, ROUGE-L recomputed by a
separate implementation, candidates compared with what the endpoint served,
the selection rule re-applied to the reported scores, and max-combined
scores recomputed from the generated matrix. Each function returns a list of
problems; an empty list means the outputs passed.
"""

import json
import math

from digest import read_json, read_jsonl


def _in_range(value, low, high) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and low <= value <= high


def _words(text: str) -> list[str]:
    """Word tokens of a generated sentence: its words and the final period."""
    return text[:-1].split() + ["."]


def _lcs(a: list[str], b: list[str]) -> int:
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal = 0
        for j, y in enumerate(b, 1):
            above = row[j]
            row[j] = diagonal + 1 if x == y else max(row[j], row[j - 1])
            diagonal = above
    return row[-1]


def rouge_l_oracle(hyp: str, refs: list[str]) -> float:
    """Max LCS F1 over the references, on a 0-100 scale."""
    h = _words(hyp)
    best = 0.0
    for ref in refs:
        r = _words(ref)
        lcs = _lcs(h, r)
        if lcs:
            precision, recall = lcs / len(h), lcs / len(r)
            best = max(best, 2 * precision * recall / (precision + recall))
    return best * 100.0


def check_score(shape: dict, built: dict, files: dict) -> list[str]:
    problems = []
    systems = sorted({o["system"] for o in built["hypotheses"]})
    segments = [s["id"] for s in built["segments"]]
    rows = list(read_jsonl(files["score.matrix"]))
    keys = {(r["metric"], r["system"], r["segment"]) for r in rows}
    expected = {(m, s, g) for m in shape["metrics"] for s in systems for g in segments}
    if len(rows) != len(expected) or keys != expected:
        problems.append(f"matrix has {len(rows)} rows for {len(expected)} expected keys")
    for row in rows:
        if set(row["scores"]) != {"all"} or not _in_range(row["scores"]["all"], 0, 100):
            problems.append(f"bad matrix cell {row}")
            break
    summary = read_json(files["score.summary"])["metrics"]
    if sorted(summary) != sorted(shape["metrics"]) or any(
        sorted(per) != systems or not all(_in_range(v, 0, 100) for v in per.values())
        for per in summary.values()
    ):
        problems.append("summary metrics do not cover every metric and system in [0, 100]")

    refs = {r["segment_id"]: r["candidates"] for r in built["refs"]}
    gold = {s["id"]: s["gold_refs"] for s in built["segments"]}
    hyps = {(o["system"], o["segment"]): o["hypothesis"] for o in built["hypotheses"]}
    for row in rows:
        if row["metric"] != "rougeL":
            continue
        want = rouge_l_oracle(hyps[(row["system"], row["segment"])],
                              gold[row["segment"]] + refs[row["segment"]])
        if abs(row["scores"]["all"] - want) > 1e-9:
            problems.append(f"rougeL {row['system']}/{row['segment']}: {row['scores']['all']} != oracle {want}")
    return problems


def check_generate(shape: dict, built: dict, files: dict, endpoint_stats: dict) -> list[str]:
    problems = []
    script = {entry["segment_id"]: entry for entry in built["script"]}
    records = list(read_jsonl(files["generate.refs"]))
    seen = [r["segment_id"] for r in records]
    if sorted(seen) != sorted(script):
        problems.append(f"generate wrote {len(seen)} records for {len(script)} segments")
    for record in records:
        entry = script.get(record["segment_id"])
        if entry is None or record.get("error") is not None or record["candidates"] != entry["candidates"]:
            problems.append(f"generate record {record['segment_id']} differs from what was served")
            break
    faults = [entry["fault"] for entry in built["script"]]
    want = {
        "requests": len(script) + sum(f is not None for f in faults),
        "status_429": faults.count("429"),
        "short_lists": faults.count("short"),
        "unknown_prompts": 0,
    }
    got = {key: endpoint_stats.get(key) for key in want}
    if got != want:
        problems.append(f"endpoint counters {got} != expected {want}")
    return problems


def check_select(shape: dict, built: dict, files: dict) -> list[str]:
    problems = []
    served = {entry["segment_id"]: entry["candidates"] for entry in built["script"]}
    report = read_json(files["select.report"])
    for record in read_jsonl(files["select.refs"]):
        segment = record["segment_id"]
        scores = report.get(segment, {}).get("self_bleu", [])
        if len(scores) != shape["n_references"] or not all(_in_range(s, 0, 100) for s in scores):
            problems.append(f"select report for {segment} lacks {shape['n_references']} scores in [0, 100]")
            continue
        kept = [i for i, s in enumerate(scores) if s < shape["threshold"]]
        if not kept:
            kept = [min(range(len(scores)), key=lambda i: (scores[i], i))]
        if record["candidates"] != [served[segment][i] for i in kept]:
            problems.append(f"select survivors of {segment} do not follow the threshold rule")
    return problems


def check_combine(shape: dict, built: dict, files: dict) -> list[str]:
    problems = []
    max_cells = built["max_cells"]
    rows = list(read_jsonl(files["combine.scores"]))
    combined = {(r["metric"], r["system"], r["segment"]): r["score"] for r in rows}
    if len(rows) != len(max_cells) or combined != max_cells:
        problems.append("combined scores differ from the row maxima of the matrix")
    per_system: dict = {}
    for (metric, system, _segment), score in max_cells.items():
        per_system.setdefault(metric, {}).setdefault(system, []).append(score)
    summary = read_json(files["combine.summary"])["metrics"]
    for metric, systems in per_system.items():
        for system, scores in systems.items():
            want = math.fsum(scores) / len(scores)
            if abs(summary.get(metric, {}).get(system, math.inf) - want) > 1e-9:
                problems.append(f"combine summary {metric}/{system} is not the mean segment score")
    return problems


def check_metaeval(shape: dict, built: dict, files: dict) -> list[str]:
    problems = []
    reports = read_json(files["metaeval.report"])
    if sorted(r["metric"] for r in reports) != sorted(shape["metrics"]):
        problems.append("metaeval report does not cover every metric")
    for r in reports:
        ok = (
            r["n_systems"] == shape["systems"]
            and r["n_segments"] == shape["segments"]
            and _in_range(r["pairwise_accuracy"], 0, 1)
            and all(_in_range(v, -1, 1) for v in (r["pearson"], r["kendall"]))
            and sorted(r["spearman"] or {}) == sorted(shape["dimensions"])
            and all(_in_range(v, -1, 1) for v in r["spearman"].values())
        )
        if not ok:
            problems.append(f"metaeval report for {r['metric']} is out of shape: {json.dumps(r)}")
    return problems
