"""Seeded synthetic inputs for the pipeline benchmark.

Every file is a pure function of the workload shape and the seed: the same
seed gives byte-identical files, so a result can be rechecked on any seed.
The corpora follow the paper's setting: one base sentence per segment, a gold
reference equal to it, system hypotheses and generated references made from
it by seeded token substitution.
"""

import json
import random
from pathlib import Path

DEFAULT_SEED = 7

ONSETS = "bcdfghklmnprstvwz"
VOWELS = "aeiou"
SYLLABLES = tuple(o + v for o in ONSETS for v in VOWELS)
#: Syllables per pseudo-word. The vocabulary holds equally many words of each.
WORD_SYLLABLES = (2, 3, 4)

#: Shared text shape: vocabulary size, sentence length range, substitution rates.
TEXT = {
    "vocab_words": 3000,
    "sentence_tokens": [15, 30],
    "hyp_substitution": 0.25,
    "ref_substitution": 0.3,
}

#: Workload shapes. Each workload runs closed-loop from one process; the
#: sizes keep one pass of its stages at one to three seconds on the pure
#: kernels, so a run holds several passes.
SHAPES = {
    "score-multiref": {
        "segments": 4,
        "systems": 4,
        "gold_refs": 1,
        "generated_refs": 20,
        "metrics": ["bleu", "spbleu", "chrf", "rougeL"],
        "subword_whole_words": 1000,
    },
    "generate-select": {
        "segments": 7,
        "n_references": 40,
        "jobs": 2,
        "delay_ms": 20,
        "fault_429": 1,
        "fault_short": 1,
        "threshold": 35,
    },
    "metaeval-matrix": {
        "segments": 500,
        "systems": 8,
        "metrics": ["neural-a", "neural-b"],
        "gold_refs": 1,
        "generated_refs": 20,
        "dimensions": ["adequacy", "fluency"],
    },
}

TIMESTAMP = "2023-08-06T00:00:00+00:00"


def make_vocabulary(rng: random.Random, size: int) -> dict[int, list[str]]:
    """Distinct pseudo-words, grouped by syllable count."""
    vocab: dict[int, list[str]] = {}
    for count in WORD_SYLLABLES:
        words: set[str] = set()
        while len(words) < size // len(WORD_SYLLABLES):
            words.add("".join(rng.choice(SYLLABLES) for _ in range(count)))
        vocab[count] = sorted(words)
    return vocab


def make_sentence(rng: random.Random, vocab: dict[int, list[str]], length: int) -> list[str]:
    """`length` words whose syllable counts cycle through WORD_SYLLABLES, shuffled.

    Sentences of one length always have the same number of characters, and a
    substitution keeps a word's syllable count, so the text size of a
    workload does not depend on the seed.
    """
    counts = [WORD_SYLLABLES[i % len(WORD_SYLLABLES)] for i in range(length)]
    rng.shuffle(counts)
    return [rng.choice(vocab[count]) for count in counts]


def substitute(rng: random.Random, tokens: list[str], rate: float, vocab: dict[int, list[str]]) -> list[str]:
    return [rng.choice(vocab[len(tok) // 2]) if rng.random() < rate else tok for tok in tokens]


def render(tokens: list[str]) -> str:
    return " ".join(tokens) + "."


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def balanced_lengths(rng: random.Random, n: int) -> list[int]:
    """n sentence lengths spread evenly over the range, in seeded order.

    Every seed gets the same multiset of lengths, so the work in a pass does
    not vary with the seed; only the words do.
    """
    low, high = TEXT["sentence_tokens"]
    lengths = [low + (high - low) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def _base_segments(rng: random.Random, vocab: dict[int, list[str]], n: int):
    """(segment id, source text, base tokens) with distinct sources."""
    segments = []
    sources: set[str] = set()
    for length in balanced_lengths(rng, n):
        source = render(make_sentence(rng, vocab, length))
        while source in sources:
            source = render(make_sentence(rng, vocab, length))
        sources.add(source)
        segments.append((f"seg{len(segments):05d}", source, make_sentence(rng, vocab, length)))
    return segments


def write_subword_vocab(path: Path, rng: random.Random, vocab: dict[int, list[str]],
                        whole_words: int) -> None:
    """Syllables with and without the word marker, letters, and frequent whole words."""
    pieces = set(SYLLABLES) | {"▁" + s for s in SYLLABLES}
    pieces |= set("abcdefghijklmnopqrstuvwxyz") | {".", "▁."}
    words = [w for count in WORD_SYLLABLES for w in vocab[count]]
    pieces |= {"▁" + w for w in rng.sample(words, whole_words)}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("#unk=<unk>\n")
        for piece in sorted(pieces):
            handle.write(piece + "\n")


def build_score_multiref(directory: Path, seed: int) -> dict:
    shape = SHAPES["score-multiref"]
    rng = _rng(seed, "score-multiref")
    vocab = make_vocabulary(rng, TEXT["vocab_words"])
    segments = _base_segments(rng, vocab, shape["segments"])
    systems = [f"sys{i}" for i in range(shape["systems"])]
    seg_records, out_records, ref_records = [], [], []
    for seg_id, source, base in segments:
        seg_records.append({"id": seg_id, "source": source, "gold_refs": [render(base)]})
        for system in systems:
            hyp = substitute(rng, base, TEXT["hyp_substitution"], vocab)
            out_records.append({"system": system, "segment": seg_id, "hypothesis": render(hyp)})
        candidates = [
            render(substitute(rng, base, TEXT["ref_substitution"], vocab))
            for _ in range(shape["generated_refs"])
        ]
        ref_records.append(_generation_record(seg_id, candidates))
    paths = {
        "segments": directory / "segments.jsonl",
        "outputs": directory / "outputs.jsonl",
        "refs": directory / "refs.jsonl",
        "vocab": directory / "pieces.txt",
    }
    _write_jsonl(paths["segments"], seg_records)
    _write_jsonl(paths["outputs"], out_records)
    _write_jsonl(paths["refs"], ref_records)
    write_subword_vocab(paths["vocab"], rng, vocab, shape["subword_whole_words"])
    return {"paths": paths, "hypotheses": out_records, "segments": seg_records, "refs": ref_records}


def _generation_record(seg_id: str, candidates: list[str]) -> dict:
    return {
        "segment_id": seg_id,
        "prompt_used": "",
        "raw_response": "",
        "candidates": candidates,
        "attempt_count": 1,
        "timestamp": TIMESTAMP,
        "error": None,
    }


def build_generate_select(directory: Path, seed: int) -> dict:
    """Segments for `generate` plus the endpoint's script: what it answers per source."""
    shape = SHAPES["generate-select"]
    rng = _rng(seed, "generate-select")
    vocab = make_vocabulary(rng, TEXT["vocab_words"])
    segments = _base_segments(rng, vocab, shape["segments"])
    seg_records, script = [], []
    for seg_id, source, base in segments:
        seg_records.append({"id": seg_id, "source": source, "gold_refs": [render(base)]})
        candidates = [
            render(substitute(rng, base, TEXT["ref_substitution"], vocab))
            for _ in range(shape["n_references"])
        ]
        script.append({"segment_id": seg_id, "source": source, "candidates": candidates, "fault": None})
    faulty = rng.sample(range(len(script)), shape["fault_429"] + shape["fault_short"])
    for rank, index in enumerate(faulty):
        script[index]["fault"] = "429" if rank < shape["fault_429"] else "short"
    paths = {"segments": directory / "segments.jsonl", "script": directory / "endpoint.json"}
    _write_jsonl(paths["segments"], seg_records)
    with open(paths["script"], "w", encoding="utf-8") as handle:
        json.dump(script, handle, ensure_ascii=False, sort_keys=True)
    return {"paths": paths, "script": script}


def build_metaeval_matrix(directory: Path, seed: int) -> dict:
    """Per-reference matrix of two external metrics plus tied human judgments.

    A latent quality per system and a difficulty per segment drive both the
    metric cells and the human scores, so the correlations are non-degenerate.
    Human scores sit on coarse scales, which makes ties common.
    """
    shape = SHAPES["metaeval-matrix"]
    rng = _rng(seed, "metaeval-matrix")
    systems = [f"sys{i}" for i in range(shape["systems"])]
    segments = [f"seg{i:05d}" for i in range(shape["segments"])]
    ref_ids = [f"gold:{i}" for i in range(shape["gold_refs"])]
    ref_ids += [f"gen:{i}" for i in range(shape["generated_refs"])]
    # Two systems share a quality, so system-level human scores tie.
    quality = {s: rng.uniform(0.3, 0.8) for s in systems}
    quality[systems[-1]] = quality[systems[0]]
    difficulty = {seg: rng.uniform(-0.2, 0.2) for seg in segments}

    matrix_path = directory / "matrix.jsonl"
    max_cells: dict[tuple[str, str, str], float] = {}
    with open(matrix_path, "w", encoding="utf-8") as handle:
        for metric in shape["metrics"]:
            for system in systems:
                for seg in segments:
                    centre = quality[system] + difficulty[seg]
                    scores = {r: rng.gauss(centre, 0.1) for r in ref_ids}
                    max_cells[(metric, system, seg)] = max(scores.values())
                    record = {"metric": metric, "scores": scores, "segment": seg, "system": system}
                    handle.write(json.dumps(record, sort_keys=True) + "\n")

    human = []
    for system in systems:
        human.append({"dimension": None, "score": round(quality[system] * 10) / 10,
                      "segment": None, "system": system})
    for system in systems:
        for seg in segments:
            centre = quality[system] + difficulty[seg]
            human.append({"dimension": None, "score": _likert(rng, centre, 100),
                          "segment": seg, "system": system})
            for dim in shape["dimensions"]:
                human.append({"dimension": dim, "score": _likert(rng, centre, 5),
                              "segment": seg, "system": system})
    paths = {"matrix": matrix_path, "human": directory / "human.jsonl"}
    _write_jsonl(paths["human"], human)
    return {"paths": paths, "max_cells": max_cells}


def _likert(rng: random.Random, centre: float, points: int) -> int:
    value = round((centre + rng.gauss(0.0, 0.15)) * points)
    return min(max(value, 1), points)


WRITERS = {
    "score-multiref": build_score_multiref,
    "generate-select": build_generate_select,
    "metaeval-matrix": build_metaeval_matrix,
}


def build(workload: str, directory: Path, seed: int) -> dict:
    """Write the workload's input files into `directory` and return what the checks need."""
    directory.mkdir(parents=True, exist_ok=True)
    return WRITERS[workload](directory, seed)
