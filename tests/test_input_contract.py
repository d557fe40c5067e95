"""The input contract of the JSONL and JSON readers, under seeded field mutations.

Small inputs of all seven commands are built here: `score`, `select`,
`combine`, `metaeval`, `diversity`, `leakage-report` (its `--single` and
`--multi` summaries) and `generate` (`--mock`, resuming from its `--out`
file, with a `--template-file`), and a `--config` file for `score`. Each
case changes one field of one record or document (a wrong type, a missing
key, a non-finite or huge number), or one whole line or document, and runs
the command. The run must either exit 0 and write only finite numbers, or
exit 1 with one `multiref: error: <path>[:<line>]: ...` line naming an
input file. A config value that fits its flag may still fail as that flag's
value does; such a run must fail with the same one line as the run that
passes the values as flags. Any other exception escapes `main` and fails
the case with its traceback.
"""

import json
import math
import random
import re
from pathlib import Path

import pytest

from multiref.cli import main

N_CASES = 40

SEGMENTS = [
    {"id": f"s{i}", "source": f"source text number {i}", "gold_refs": [f"the gold text {i} of this set"]}
    for i in range(4)
]
SYSTEMS = ("alpha", "beta", "gamma")
OUTPUTS = [
    {"system": system, "segment": segment["id"], "hypothesis": f"the {system} text {j} of a set"}
    for j, system in enumerate(SYSTEMS)
    for segment in SEGMENTS
]
REFS = [
    {
        "segment_id": segment["id"],
        "prompt_used": "p",
        "raw_response": "r",
        "candidates": [f"a text {i} of this set", f"the text {i} of that set", f"one more text {i}"],
        "attempt_count": 1,
        "timestamp": "2024-01-01T00:00:00+00:00",
        "error": None,
    }
    for i, segment in enumerate(SEGMENTS)
]
MATRIX = [
    {
        "system": system,
        "segment": segment["id"],
        "scores": {f"r{k}": round(0.1 * (j + 1) + 0.03 * i + 0.01 * k, 4) for k in range(3)},
        "metric": metric,
    }
    for metric in ("m1", "m2")
    for j, system in enumerate(SYSTEMS)
    for i, segment in enumerate(SEGMENTS)
]
HUMAN = [
    {"system": system, "segment": segment["id"], "score": float(j + (i % 2))}
    for j, system in enumerate(SYSTEMS)
    for i, segment in enumerate(SEGMENTS)
] + [
    {"system": system, "segment": segment["id"], "dimension": "fluency", "score": float(j * 2 + i % 3)}
    for j, system in enumerate(SYSTEMS)
    for i, segment in enumerate(SEGMENTS)
]
SINGLE = {"metrics": {"bleu": {"alpha": 31.5, "beta": 24.0, "gamma": 20.25}}, "refs_mode": "gold", "max_refs": None}
MULTI = {"metrics": {"bleu": {"alpha": 40.0, "beta": 37.5, "gamma": 30.0}}, "refs_mode": "both", "max_refs": None}
TEMPLATE = {"rules": "Write plain text.", "task_description": "Give {n} versions of:\n{source}",
            "include_ground_truth": True}
# Values for score's flags; "lowercase" and "jobs" are global flags.
CONFIG = {"metrics": "bleu,chrf,rouge2", "max_order": 3, "chrf_beta": 1.0, "lowercase": True,
          "ref_length": "shortest", "max_refs": 2, "jobs": 2}
GLOBAL_FLAGS = ("lowercase", "jobs")

# Input files and the command line of each stage; the first file is mutated
# most often, since each stage reads it first. A list is written as JSONL, a
# dict as one JSON document.
STAGES = {
    "score": (
        {"outputs": OUTPUTS, "segments": SEGMENTS, "refs": REFS},
        lambda p: ["score", "--segments", p["segments"], "--outputs", p["outputs"],
                   "--generated-refs", p["refs"], "--refs", "both", "--metrics", "bleu,chrf,rougeL",
                   "--per-reference", "--out", p["out"], "--summary", p["summary"]],
    ),
    "select": (
        {"refs": REFS},
        lambda p: ["select", "--refs", p["refs"], "--out", p["out"], "--report", p["summary"]],
    ),
    "combine": (
        {"matrix": MATRIX},
        lambda p: ["combine", "--matrix", p["matrix"], "--policy", "mean",
                   "--out", p["out"], "--summary", p["summary"]],
    ),
    "metaeval": (
        {"matrix": MATRIX, "human": HUMAN},
        lambda p: ["metaeval", "--matrix", p["matrix"], "--human", p["human"], "--out", p["summary"]],
    ),
    "diversity": (
        {"outputs": OUTPUTS, "segments": SEGMENTS},
        lambda p: ["diversity", "--outputs", p["outputs"], "--segments", p["segments"], "--out", p["summary"]],
    ),
    # The "out" input is written to the path of --out, the file generate resumes from.
    "generate": (
        {"segments": SEGMENTS, "out": REFS[:2], "template": TEMPLATE},
        lambda p: ["generate", "--segments", p["segments"], "--out", p["out"], "--mock", "--n-references", "3",
                   "--template-file", p["template"]],
    ),
    "leakage-report": (
        {"single": SINGLE, "multi": MULTI},
        lambda p: ["leakage-report", "--single", p["single"], "--multi", p["multi"],
                   "--pair", "alpha,beta", "--pair", "beta,gamma", "--out", p["summary"]],
    ),
    "config": (
        {"config": CONFIG, "segments": SEGMENTS, "outputs": OUTPUTS, "refs": REFS},
        lambda p: [*(["--config", p["config"]] if "config" in p else []),
                   "score", "--segments", p["segments"], "--outputs", p["outputs"], "--generated-refs", p["refs"],
                   "--refs", "both", "--out", p["out"], "--summary", p["summary"]],
    ),
}

REPLACEMENTS = [
    None, True, False, 0, -1, 3, 2.5, -0.0, 1e308, -1e308, 5e-324, 10**30,
    float("nan"), float("inf"), float("-inf"),
    "", "x", "s1", "alpha", [], ["x"], [1.5], {}, {"r0": 1}, {"r0": "x"},
]


def _mutate_value(rng, record):
    """Replace or delete one field of `record`, at the top level or one level down."""
    holder = record
    key = rng.choice(sorted(holder))
    if isinstance(holder[key], (dict, list)) and holder[key] and rng.random() < 0.5:
        holder = holder[key]
        key = rng.choice(sorted(holder) if isinstance(holder, dict) else range(len(holder)))
    if isinstance(holder, dict) and rng.random() < 0.2:
        del holder[key]
    else:
        holder[key] = rng.choice(REPLACEMENTS)


def _mutated_lines(rng, records):
    lines = [json.dumps(record) for record in records]
    index = rng.randrange(len(lines))
    kind = rng.random()
    if kind < 0.75:
        record = json.loads(lines[index])
        _mutate_value(rng, record)
        lines[index] = json.dumps(record)
    elif kind < 0.85:
        lines[index] = lines[index][: rng.randrange(len(lines[index]))]
    elif kind < 0.95:
        lines.insert(index, lines[index])
    else:
        lines[index] = rng.choice(["[]", '"x"', "1", "null", "\ufeff" + lines[index], "{}"])
    return lines


def _mutated_document(rng, document):
    """The text of `document` with one field changed, or a whole other document."""
    if rng.random() < 0.75:
        document = json.loads(json.dumps(document))
        _mutate_value(rng, document)
        return json.dumps(document)
    text = json.dumps(document)
    return rng.choice(["", "[]", '"x"', "1", "null", "\ufeff" + text, text[: rng.randrange(len(text))]])


def _as_flags(config):
    """(global, score) command-line flags that give `config`'s values, which all fit their flags."""
    flags = {True: [], False: []}
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is not False:
            flags[key in GLOBAL_FLAGS].append(flag if value is True else f"{flag}={value}")
    return flags[True], flags[False]


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _documents(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return [json.loads(text)]


@pytest.mark.parametrize("seed", range(N_CASES))
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_mutated_input_is_scored_or_rejected_with_location(tmp_path, capsys, stage, seed):
    rng = random.Random(f"{stage}/{seed}")
    inputs, command = STAGES[stage]
    names = list(inputs)
    target = names[0] if rng.random() < 0.5 else rng.choice(names)
    paths = {"out": str(tmp_path / "out.jsonl"), "summary": str(tmp_path / "summary.json")}
    for name, data in inputs.items():
        if isinstance(data, dict):
            path = tmp_path / f"{name}.json"
            text = _mutated_document(rng, data) if name == target else json.dumps(data)
        else:
            path = tmp_path / f"{name}.jsonl"
            lines = _mutated_lines(rng, data) if name == target else [json.dumps(r) for r in data]
            text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    code = main(command(paths))

    err = capsys.readouterr().err
    if code == 0:
        for path in (tmp_path / "out.jsonl", tmp_path / "summary.json"):
            if path.exists():
                for document in _documents(path):
                    assert all(math.isfinite(n) for n in _numbers(document)), document
        return
    assert code == 1
    located = "|".join(re.escape(paths[name]) for name in names)
    if "config" in paths and not re.match(rf"multiref: error: ({located})", err):
        # The config was read, and one of its values failed as the flag's value does.
        config = json.loads(Path(paths.pop("config")).read_text(encoding="utf-8"))
        global_flags, score_flags = _as_flags(config)
        assert main([*global_flags, *command(paths), *score_flags]) == 1
        assert capsys.readouterr().err == err
        assert re.fullmatch(r"multiref: error: [^\n]+\n", err), err
    else:
        assert re.fullmatch(rf"multiref: error: ({located})(:\d+)?: [^\n]+\n", err), err
