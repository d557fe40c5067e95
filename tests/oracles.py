"""Independent brute-force oracles the implementation is checked against.

Everything here is written from the scoring definitions by direct
enumeration: n-grams are materialized as explicit lists and counted with
list.count, LCS uses a full DP table, the correlation statistics run over
every pair, and the subword oracle tries every vocabulary entry at every
position. The JSONL readers decode each line with `json.loads` and check
each rule of the format in turn. Nothing imports from the package under test.
"""

import json
import math
import unicodedata

WORD_MARKER = "\u2581"


def _normalized(text, lowercase):
    text = unicodedata.normalize("NFC", text)
    return text.lower() if lowercase else text


def _is_punct(ch):
    return unicodedata.category(ch).startswith("P")


def char_tokens(text, lowercase=False):
    """NFC, optionally lowercase, then one token per non-whitespace character."""
    return [ch for ch in _normalized(text, lowercase) if not ch.isspace()]


def word_tokens(text, lowercase=False):
    """NFC, optionally lowercase, split on whitespace, then peel edge punctuation.

    Each punctuation character at the start or end of a chunk becomes a token
    of its own; what lies between the first and last non-punctuation
    characters stays one token.
    """
    tokens = []
    for chunk in _normalized(text, lowercase).split():
        kept = [i for i, ch in enumerate(chunk) if not _is_punct(ch)]
        if not kept:
            tokens.extend(chunk)
            continue
        first, last = kept[0], kept[-1]
        tokens.extend(chunk[:first])
        tokens.append(chunk[first : last + 1])
        tokens.extend(chunk[last + 1 :])
    return tokens


def subword_pieces(text, entries, unk_piece, lowercase=False):
    """Greedy longest match per whitespace-delimited word.

    A word is matched with the word marker prefixed, unless no entry is a
    prefix of the marked word; then the marker is dropped. At each position
    the longest entry that starts there is taken; where none does, the unk
    piece is emitted and matching moves one character on.
    """
    pieces = []
    for word in _normalized(text, lowercase).split():
        stream = WORD_MARKER + word
        if not any(stream.startswith(entry) for entry in entries):
            stream = word
        pos = 0
        while pos < len(stream):
            matches = [entry for entry in entries if stream.startswith(entry, pos)]
            if matches:
                best = max(matches, key=len)
                pieces.append(best)
                pos += len(best)
            else:
                pieces.append(unk_piece)
                pos += 1
    return pieces


def ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def clipped_matches(hyp, refs, n):
    """BLEU numerator for one order: per-gram min(hyp count, best ref count)."""
    grams = ngram_list(hyp, n)
    total = 0
    for gram in set(grams):
        best = 0
        for ref in refs:
            count = ngram_list(ref, n).count(gram)
            if count > best:
                best = count
        total += min(grams.count(gram), best)
    return total


def effective_ref_len(hyp_len, ref_lens, mode):
    if mode == "shortest":
        return min(ref_lens)
    chosen = None
    for length in ref_lens:
        if chosen is None or (abs(length - hyp_len), length) < (
            abs(chosen - hyp_len),
            chosen,
        ):
            chosen = length
    return chosen


def bleu(hyp, refs, max_order=4, smoothing="exp", ref_mode="closest"):
    numerators = []
    denominators = []
    for n in range(1, max_order + 1):
        denominators.append(len(ngram_list(hyp, n)))
        numerators.append(clipped_matches(hyp, refs, n))
    if any(d == 0 for d in denominators):
        return 0.0
    precisions = []
    smooth = 1.0
    for num, den in zip(numerators, denominators):
        if num > 0:
            precisions.append(num / den)
        elif smoothing == "exp":
            smooth *= 2.0
            precisions.append(1.0 / (smooth * den))
        else:
            return 0.0
    hyp_len = len(hyp)
    ref_len = effective_ref_len(hyp_len, [len(r) for r in refs], ref_mode)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_order) * 100.0


def corpus_bleu(pairs, max_order=4, smoothing="exp", ref_mode="closest"):
    numerators = [0] * max_order
    denominators = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, refs in pairs:
        for n in range(1, max_order + 1):
            numerators[n - 1] += clipped_matches(hyp, refs, n)
            denominators[n - 1] += len(ngram_list(hyp, n))
        hyp_len += len(hyp)
        ref_len += effective_ref_len(len(hyp), [len(r) for r in refs], ref_mode)
    if any(d == 0 for d in denominators):
        return 0.0
    precisions = []
    smooth = 1.0
    for num, den in zip(numerators, denominators):
        if num > 0:
            precisions.append(num / den)
        elif smoothing == "exp":
            smooth *= 2.0
            precisions.append(1.0 / (smooth * den))
        else:
            return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_order) * 100.0


def char_ngram_list(text, n):
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def strip_spaces(text):
    return "".join(ch for ch in text if not ch.isspace())


def chrf_pair_counts(hyp_text, ref_text, n_max):
    hyp = strip_spaces(hyp_text)
    ref = strip_spaces(ref_text)
    counts = []
    for n in range(1, n_max + 1):
        hyp_grams = char_ngram_list(hyp, n)
        ref_grams = char_ngram_list(ref, n)
        match = sum(
            min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams)
        )
        counts.append((match, len(hyp_grams), len(ref_grams)))
    return counts


def chrf_from_counts(counts, beta):
    beta2 = beta * beta
    fscores = []
    for match, hyp_total, ref_total in counts:
        if hyp_total == 0 and ref_total == 0:
            continue
        precision = match / hyp_total if hyp_total else 0.0
        recall = match / ref_total if ref_total else 0.0
        denom = beta2 * precision + recall
        fscores.append((1.0 + beta2) * precision * recall / denom if denom > 0 else 0.0)
    if not fscores:
        return 0.0
    return sum(fscores) / len(fscores)


def chrf_sentence(hyp_text, ref_texts, n_max=6, beta=2.0):
    best = None
    best_score = -1.0
    for ref_text in ref_texts:
        counts = chrf_pair_counts(hyp_text, ref_text, n_max)
        score = chrf_from_counts(counts, beta)
        if score > best_score:
            best_score = score
            best = counts
    return chrf_from_counts(best, beta) * 100.0


def chrf_corpus(pairs, n_max=6, beta=2.0):
    sums = [(0, 0, 0)] * n_max
    for hyp_text, ref_texts in pairs:
        best = None
        best_score = -1.0
        for ref_text in ref_texts:
            counts = chrf_pair_counts(hyp_text, ref_text, n_max)
            score = chrf_from_counts(counts, beta)
            if score > best_score:
                best_score = score
                best = counts
        sums = [
            (a + m, b + h, c + r) for (a, b, c), (m, h, r) in zip(sums, best)
        ]
    return chrf_from_counts(sums, beta) * 100.0


def rouge_n(hyp, refs, n):
    best = 0.0
    for ref in refs:
        hyp_grams = ngram_list(hyp, n)
        ref_grams = ngram_list(ref, n)
        overlap = sum(
            min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams)
        )
        precision = overlap / len(hyp_grams) if hyp_grams else 0.0
        recall = overlap / len(ref_grams) if ref_grams else 0.0
        if precision + recall > 0:
            best = max(best, 2.0 * precision * recall / (precision + recall))
    return best * 100.0


def lcs_table(a, b):
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def rouge_l(hyp, refs):
    best = 0.0
    for ref in refs:
        lcs = lcs_table(hyp, ref)
        precision = lcs / len(hyp) if hyp else 0.0
        recall = lcs / len(ref) if ref else 0.0
        if precision + recall > 0:
            best = max(best, 2.0 * precision * recall / (precision + recall))
    return best * 100.0


def pairwise_accuracy(metric_scores, human_scores):
    systems = sorted(set(metric_scores) & set(human_scores))
    correct = 0
    used = 0
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            a, b = systems[i], systems[j]
            human_delta = human_scores[a] - human_scores[b]
            if human_delta == 0:
                continue
            used += 1
            metric_delta = metric_scores[a] - metric_scores[b]
            if metric_delta > 0 and human_delta > 0:
                correct += 1
            elif metric_delta < 0 and human_delta < 0:
                correct += 1
    return (correct / used if used else None), used


def pearson(x, y):
    n = len(x)
    sum_x = sum(x)
    sum_y = sum(y)
    sum_xy = sum(a * b for a, b in zip(x, y))
    sum_xx = sum(a * a for a in x)
    sum_yy = sum(b * b for b in y)
    num = n * sum_xy - sum_x * sum_y
    den = math.sqrt((n * sum_xx - sum_x * sum_x) * (n * sum_yy - sum_y * sum_y))
    return num / den


def kendall_pair_counts(x, y):
    """(concordant, discordant, pairs tied in x, pairs tied in y) over every pair."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    return concordant, discordant, ties_x, ties_y


def kendall_tau(x, y):
    concordant, discordant, ties_x, ties_y = kendall_pair_counts(x, y)
    n0 = len(x) * (len(x) - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def rank_with_ties(values):
    ranked = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[ranked[j]] == values[ranked[i]]:
            j += 1
        mean_rank = sum(range(i + 1, j + 1)) / (j - i)
        for k in range(i, j):
            ranks[ranked[k]] = mean_rank
        i = j
    return ranks


def spearman(x, y):
    return pearson(rank_with_ties(x), rank_with_ties(y))


def combine_row(values, kind, k=None):
    """One score-matrix row reduced to its max, its mean, or its top-k mean."""
    ordered = sorted(values, reverse=True)
    if kind == "max":
        return ordered[0]
    if kind == "mean":
        return sum(ordered) / len(ordered)
    return sum(ordered[:k]) / k


# --------------------------------------------------------- JSONL file readers
# The matrix and human-judgment files read with `json.loads` per line, each
# rule of the format checked in turn. A file the package rejects raises
# `Rejected`, whose message is the package's, `path:line: reason`.


class Rejected(Exception):
    """A rejected file; the message is `path:line: reason` or `path: reason`."""


_JSON_TYPE_NAMES = {type(None): "null", bool: "boolean", int: "number", float: "number",
                    str: "string", list: "array", dict: "object"}


def _json_objects(path, what):
    """(line number, object) of each non-blank line of a JSONL file, past one leading byte-order mark."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    pieces = data.split(b"\n")
    raws = [piece + b"\n" for piece in pieces[:-1]] + ([pieces[-1]] if pieces[-1] else [])
    for lineno, raw in enumerate(raws, 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise Rejected(f"{path}:{lineno}: invalid {what}: bad JSON: {exc}") from None
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise Rejected(f"{path}:{lineno}: invalid {what}: {exc}") from None
        if type(value) is not dict:
            raise Rejected(f"{path}:{lineno}: invalid {what}: record must be a JSON object, got "
                           f"{_JSON_TYPE_NAMES[type(value)]}")
        yield lineno, value


class _Bad(Exception):
    """One field's reason for rejecting a line."""


def _field(record, name):
    if name not in record:
        raise _Bad(repr(name))
    return record[name]


def _id(value, name):
    if type(value) is str:
        return value
    if type(value) is not int:
        raise _Bad(f"{name} must be a string or an integer, got {_JSON_TYPE_NAMES[type(value)]}")
    return str(value)


def _to_float(value):
    try:
        return float(value)
    except OverflowError:
        raise _Bad("int too large to convert to float") from None


def _number(value, name):
    if type(value) not in (int, float):
        raise _Bad(f"{name} must be a number, got {_JSON_TYPE_NAMES[type(value)]}")
    number = _to_float(value)
    if not math.isfinite(number):
        raise _Bad(f"{name} must be finite, got {number}")
    return number


def _mean(values):
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise _Bad(f"the sum of {len(values)} scores overflows") from None


def reduce_row(values, kind, k=None):
    """`combine_row`, with the package's errors: a k past the row, or a sum past the float range."""
    if kind == "max":
        return max(values)
    if kind == "top_k_mean":
        if k > len(values):
            raise _Bad(f"k={k} exceeds the {len(values)} available scores")
        values = sorted(values, reverse=True)[:k]
    return _mean(values)


def _matrix_row(record):
    """(metric, system, segment, {ref: float}) of one matrix record."""
    metric = _id(_field(record, "metric"), "metric")
    system = _id(_field(record, "system"), "system")
    segment = _id(_field(record, "segment"), "segment")
    cells = _field(record, "scores")
    if type(cells) is not dict:
        raise _Bad(f"'{type(cells).__name__}' object has no attribute 'values'")
    if any(type(v) not in (int, float) for v in cells.values()):
        # Each cell in turn: a number, convertible, finite.
        for ref, value in cells.items():
            _number(value, f"score {ref!r}")
    floats = {ref: _to_float(value) for ref, value in cells.items()}
    if not floats:
        raise _Bad("matrix row must have at least one score")
    for ref, value in floats.items():
        if not math.isfinite(value):
            raise _Bad(f"non-finite score for ({system}, {segment}, {ref})")
    return metric, system, segment, floats


def read_matrix(path, kind=None, k=None):
    """`{metric: {(system, segment): row}}` of a matrix file, in file order.

    A row is its `{ref: score}` cells, or with `kind` their `reduce_row`.
    """
    matrices = {}
    for lineno, record in _json_objects(path, "matrix row"):
        try:
            metric, system, segment, cells = _matrix_row(record)
        except _Bad as exc:
            raise Rejected(f"{path}:{lineno}: invalid matrix row: {exc}") from None
        rows = matrices.setdefault(metric, {})
        if (system, segment) in rows:
            raise Rejected(f"{path}:{lineno}: duplicate matrix row for {(system, segment)}")
        try:
            rows[system, segment] = cells if kind is None else reduce_row(list(cells.values()), kind, k)
        except _Bad as exc:
            raise Rejected(f"{path}:{lineno}: cannot combine row: {exc}") from None
    return matrices


def read_human(path):
    """(system scores, overall segment table, {dimension: segment table}) of a human-judgment file.

    An explicit system-level judgment wins; other systems take the mean of
    their overall segment-level scores, or, where the file holds neither
    kind, of all their dimension scores. Dimensions come sorted, each with
    the table of its segment-level judgments.
    """
    judgments = []
    seen = set()
    for lineno, record in _json_objects(path, "judgment"):
        try:
            system = _id(_field(record, "system"), "system")
            score = _number(_field(record, "score"), "score")
            segment = None if record.get("segment") is None else _id(record["segment"], "segment")
            dimension = None if record.get("dimension") is None else _id(record["dimension"], "dimension")
        except _Bad as exc:
            raise Rejected(f"{path}:{lineno}: invalid judgment: {exc}") from None
        key = (system, segment, dimension)
        if key in seen:
            raise Rejected(f"{path}:{lineno}: duplicate judgment for {key}")
        seen.add(key)
        judgments.append(key + (score,))
    explicit = {s: v for s, g, d, v in judgments if g is None and d is None}
    overall = {(s, g): v for s, g, d, v in judgments if g is not None and d is None}
    dimensions = {d: {} for d in sorted({d for _, _, d, _ in judgments if d is not None})}
    for s, g, d, v in judgments:
        if d is not None and g is not None:
            dimensions[d][s, g] = v
    averaged = [(s, v) for s, g, d, v in judgments if g is not None and d is None]
    if not explicit and not averaged:
        averaged = [(s, v) for s, g, d, v in judgments if d is not None]
    by_system = {}
    for s, v in averaged:
        by_system.setdefault(s, []).append(v)
    scores = {}
    for s, values in by_system.items():
        try:
            scores[s] = _mean(values)
        except _Bad as exc:
            raise Rejected(f"{path}: cannot average the human scores of system {s!r}: {exc}") from None
    scores.update(explicit)
    return scores, overall, dimensions
