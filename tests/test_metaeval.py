import builtins
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multiref import metaeval
from multiref.errors import CorpusFormatError, DegenerateDataError
from multiref.metaeval import (
    GapOverflowError,
    HumanJudgment,
    LeakageGapReport,
    MetaEvalReport,
    _kendall_pair_counts,
    _tie_pairs,
    human_score_tables,
    kendall_tau,
    leakage_gap,
    load_human_judgments,
    meta_evaluate,
    meta_evaluate_all,
    midranks,
    pairwise_accuracy,
    pearson,
    spearman,
)

score_values = st.floats(min_value=-10, max_value=10, allow_nan=False)
vectors = st.lists(score_values, min_size=2, max_size=30)

# Quantized values make ties frequent.
tied_values = st.integers(min_value=0, max_value=5).map(float)
tied_vectors = st.lists(tied_values, min_size=2, max_size=30)


def random_tied_vector(rng, n):
    return [float(rng.randint(0, 6)) for _ in range(n)]


# Three distinct values, each written several ways: equal ints and floats,
# and 0.0 next to -0.0, must share one rank.
three_values = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5])


class TestPairwiseAccuracy:
    def test_perfect_agreement(self):
        metric = {"A": 3.0, "B": 2.0, "C": 1.0}
        human = {"A": 30.0, "B": 20.0, "C": 10.0}
        assert pairwise_accuracy(metric, human) == (1.0, 3)

    def test_hand_case_two_thirds(self):
        human = {"A": 3.0, "B": 2.0, "C": 1.0}
        metric = {"A": 0.9, "B": 0.5, "C": 0.7}
        accuracy, used = pairwise_accuracy(metric, human)
        assert used == 3
        assert accuracy == pytest.approx(2.0 / 3.0)

    def test_all_tied_human_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pairwise_accuracy({"A": 1.0, "B": 2.0}, {"A": 5.0, "B": 5.0})

    def test_metric_tie_counts_as_incorrect(self):
        accuracy, used = pairwise_accuracy({"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0})
        assert (accuracy, used) == (0.0, 1)

    def test_human_ties_excluded_from_denominator(self):
        metric = {"A": 1.0, "B": 2.0, "C": 3.0}
        human = {"A": 1.0, "B": 1.0, "C": 2.0}
        accuracy, used = pairwise_accuracy(metric, human)
        assert used == 2
        assert accuracy == 1.0

    def test_fewer_than_two_common_systems_rejected(self):
        with pytest.raises(ValueError):
            pairwise_accuracy({"A": 1.0}, {"A": 1.0})
        with pytest.raises(ValueError):
            pairwise_accuracy({"A": 1.0, "B": 2.0}, {"C": 1.0, "D": 2.0})

    def test_self_accuracy_is_one(self):
        scores = {"A": 1.0, "B": 3.0, "C": 2.0}
        assert pairwise_accuracy(scores, scores)[0] == 1.0

    def test_invariant_under_increasing_transform(self, rng):
        for _ in range(30):
            systems = [f"s{i}" for i in range(rng.randint(2, 8))]
            metric = {s: rng.uniform(-5, 5) for s in systems}
            human = {s: float(rng.randint(0, 4)) for s in systems}
            try:
                base = pairwise_accuracy(metric, human)
            except DegenerateDataError:
                continue
            warped_metric = {s: math.exp(v) for s, v in metric.items()}
            warped_human = {s: 3.0 * v + 7.0 for s, v in human.items()}
            assert pairwise_accuracy(warped_metric, warped_human) == base

    def test_matches_oracle(self, rng):
        for _ in range(100):
            systems = [f"s{i}" for i in range(rng.randint(2, 10))]
            metric = {s: float(rng.randint(0, 5)) for s in systems}
            human = {s: float(rng.randint(0, 5)) for s in systems}
            expected, used = oracles.pairwise_accuracy(metric, human)
            if expected is None:
                with pytest.raises(DegenerateDataError):
                    pairwise_accuracy(metric, human)
            else:
                assert pairwise_accuracy(metric, human) == (expected, used)


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == 1.0

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0, 2.0])

    def test_one_pair_rejected(self):
        with pytest.raises(ValueError, match="^need at least two paired observations$"):
            pearson([1.0], [2.0])

    def test_matches_textbook_oracle(self, rng):
        for _ in range(100):
            n = rng.randint(2, 40)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert pearson(x, y) == pytest.approx(oracles.pearson(x, y), abs=1e-12)

    def test_affine_invariance(self, rng):
        x = [rng.uniform(-5, 5) for _ in range(20)]
        y = [rng.uniform(-5, 5) for _ in range(20)]
        warped = [2.5 * v + 4.0 for v in x]
        assert pearson(warped, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_underflowing_product_is_rescaled(self):
        # sxx and syy are each about 2e-320, and their product underflows to
        # 0.0; dividing by sqrt(0.0) raised ZeroDivisionError.
        assert pearson([1e-160, -1e-160, 0.0], [1e-160, 0.0, -1e-160]) == pytest.approx(0.5, abs=1e-12)
        assert pearson([1.0, -1.0, 0.0], [1.0, 0.0, -1.0]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("x, y", [
        # sxx overflows, so the correlation was a finite sum over inf: -0.0 instead of -1.0.
        ([1e200, -1e200, 0.0], [1.0, 3.0, 2.0]),
        # A deviation itself overflows.
        ([1.5e308, -1.5e308, -1.5e308], [1.0, 2.0, 3.0]),
        # sxx and syy are finite, their product is not: 0.0 instead of 1.0.
        ([1e100, -1e100, 0.0], [1e100, -1e100, 0.0]),
    ])
    def test_overflow_is_an_error_not_a_wrong_value(self, x, y):
        with pytest.raises(ValueError) as err:
            pearson(x, y)
        assert str(err.value) == "pearson of 3 pairs overflows the float range"
        # The same shape, scaled into range, is an ordinary correlation.
        scale = max(map(abs, x))
        expected = oracles.pearson([v / scale for v in x], y)
        assert pearson([v / scale for v in x], y) == pytest.approx(expected, abs=1e-12)


class TestKendallTau:
    def test_monotone_agreement(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_hand_case_with_ties(self):
        x = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0]
        y = [1.0, 3.0, 2.0, 2.0, 5.0, 5.0, 4.0, 6.0]
        assert kendall_tau(x, y) == oracles.kendall_tau(x, y)

    def test_all_tied_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_self_correlation_is_one(self):
        assert kendall_tau([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == 1.0

    def test_matches_pair_enumeration_oracle_exactly(self, rng):
        for _ in range(200):
            n = rng.randint(2, 40)
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) == 1 or len(set(y)) == 1:
                with pytest.raises(DegenerateDataError):
                    kendall_tau(x, y)
                continue
            assert kendall_tau(x, y) == oracles.kendall_tau(x, y)

    def test_pair_counts_match_pair_enumeration(self, rng):
        # Heavy ties on both sides, and blocks of equal x whose y values
        # repeat those of earlier blocks.
        for _ in range(300):
            n = rng.randint(0, 60)
            x = [rng.choice([0, 1.0, 2, -0.0, 3.5]) for _ in range(n)]
            y = [rng.choice([0.0, 1, 1.0, -0.0, 2]) for _ in range(n)]
            assert (*_kendall_pair_counts(x, y), _tie_pairs(y)) == oracles.kendall_pair_counts(x, y)

    @given(tied_vectors, tied_vectors)
    def test_invariant_under_increasing_transforms(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if n < 2 or len(set(x)) == 1 or len(set(y)) == 1:
            return
        warped_x = [math.exp(v) for v in x]
        warped_y = [v * 5.0 + 1.0 for v in y]
        assert kendall_tau(warped_x, warped_y) == kendall_tau(x, y)


class TestSpearman:
    def test_monotone_nonlinear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [v**3 for v in x]) == 1.0

    def test_reversed(self):
        assert spearman([1.0, 2.0, 3.0], [9.0, 4.0, 1.0]) == -1.0

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            spearman([2.0, 2.0], [1.0, 3.0])

    def test_midranks(self):
        assert midranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    @given(st.lists(three_values, max_size=40))
    def test_midranks_match_oracle_exactly(self, values):
        assert midranks(values) == oracles.rank_with_ties(values)

    def test_matches_rank_then_pearson_oracle(self, rng):
        for _ in range(100):
            n = rng.randint(2, 40)
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert spearman(x, y) == pytest.approx(oracles.spearman(x, y), abs=1e-12)


def segment_kendall(metric_scores, human_scores):
    """The segment-level Kendall tau of `meta_evaluate_all` on segment-level human scores."""
    judgments = [HumanJudgment(system, score, segment) for (system, segment), score in human_scores.items()]
    (report,) = meta_evaluate_all({"m": metric_scores}, human_score_tables(judgments))
    return report.kendall


class TestSegmentKendall:
    def test_identical_ordering(self):
        metric = {("a", "s1"): 1.0, ("a", "s2"): 2.0, ("b", "s1"): 3.0}
        human = {("a", "s1"): 5.0, ("a", "s2"): 6.0, ("b", "s1"): 7.0}
        assert segment_kendall(metric, human) == 1.0

    def test_two_systems_three_segments_vs_oracle(self):
        keys = [(s, f"s{i}") for s in ("a", "b") for i in range(3)]
        metric = dict(zip(keys, [0.1, 0.5, 0.3, 0.9, 0.2, 0.2]))
        human = dict(zip(keys, [1.0, 2.0, 2.0, 3.0, 1.0, 2.0]))
        ordered = sorted(keys)
        expected = oracles.kendall_tau(
            [metric[k] for k in ordered], [human[k] for k in ordered]
        )
        assert segment_kendall(metric, human) == expected

    def test_disjoint_keys_rejected(self):
        # The systems are shared, so only the (system, segment) keys are disjoint.
        with pytest.raises(ValueError, match="segment kendall needs"):
            segment_kendall({("a", "s1"): 1.0, ("b", "s1"): 2.0}, {("a", "s2"): 1.0, ("b", "s2"): 2.0})


class TestLeakageGap:
    def test_identical_maps_give_equal_deltas(self):
        scores = {"A": 50.0, "B": 40.0}
        report = leakage_gap(scores, scores, "A", "B")
        assert report.delta_single == report.delta_multi == 10.0
        assert report.shrinkage == 0.0

    def test_published_scores_anchor(self):
        # Fine-tuning on the test set inflates the single-reference gap to
        # +8.81; ten generated references shrink it to +0.32.
        single = {"MT-ft-test": 35.86, "MT": 27.05}
        multi = {"MT-ft-test": 53.08, "MT": 52.76}
        report = leakage_gap(single, multi, "MT-ft-test", "MT")
        assert report.delta_single == pytest.approx(8.81, abs=1e-9)
        assert report.delta_multi == pytest.approx(0.32, abs=1e-9)
        assert report.ratio == pytest.approx(0.32 / 8.81, abs=1e-6)

    def test_missing_system_rejected(self):
        with pytest.raises(ValueError):
            leakage_gap({"A": 1.0}, {"A": 1.0, "B": 2.0}, "A", "B")

    @pytest.mark.parametrize("single, multi, field, value", [
        ({"A": 1e308, "B": -1e308}, {"A": 1.0, "B": 0.0}, "delta_single", math.inf),
        ({"A": 1.0, "B": 0.0}, {"A": -1e308, "B": 1e308}, "delta_multi", -math.inf),
        ({"A": 1e308, "B": 0.0}, {"A": -1e308, "B": 0.0}, "shrinkage", -math.inf),
        ({"A": 5e-324, "B": 0.0}, {"A": 1.0, "B": 0.0}, "ratio", math.inf),
    ])
    def test_non_finite_result_rejected(self, single, multi, field, value):
        with pytest.raises(GapOverflowError) as err:
            leakage_gap(single, multi, "A", "B")
        assert isinstance(err.value, ValueError)
        assert (err.value.field, err.value.value) == (field, value)
        assert str(err.value) == f"{field} of 'A' over 'B' overflows to {value}"

    def test_zero_single_delta_has_no_ratio(self):
        report = LeakageGapReport("a", "b", 0.0, 1.0)
        assert report.ratio is None
        assert report.shrinkage == 1.0


class TestHumanJudgmentIo:
    def test_load_and_aggregate(self, tmp_path, jsonl_writer):
        path = tmp_path / "human.jsonl"
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "score": 4.0},
                {"system": "a", "segment": "s2", "score": 2.0},
                {"system": "b", "segment": None, "score": 9.0},
                {"system": "b", "segment": "s1", "score": 1.0},
            ],
        )
        scores = load_human_judgments(path).system
        assert scores["a"] == pytest.approx(3.0)
        assert scores["b"] == 9.0  # explicit system-level judgment wins

    def test_duplicate_rejected(self, tmp_path, jsonl_writer):
        path = tmp_path / "human.jsonl"
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "score": 1.0},
                {"system": "a", "segment": "s1", "score": 2.0},
            ],
        )
        with pytest.raises(CorpusFormatError) as err:
            load_human_judgments(path)
        assert err.value.line == 2

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            HumanJudgment(system="a", score=float("inf"))

    def test_repeated_judgment_rejected_in_memory(self):
        judgments = [HumanJudgment("a", 1.0, "s1", "fluency"), HumanJudgment("a", 2.0, "s1"),
                     HumanJudgment("a", 3.0, "s1", "fluency")]
        with pytest.raises(ValueError, match=r"^duplicate judgment for \('a', 's1', 'fluency'\)$"):
            human_score_tables(judgments)

    def test_overflowing_mean_rejected(self):
        # math.fsum raised OverflowError, which no command catches.
        judgments = [HumanJudgment("a", 1e308, segment) for segment in ("s1", "s2")]
        with pytest.raises(ValueError, match="human scores of system 'a': the sum of 2 scores overflows"):
            human_score_tables(judgments)


def _judgment_lines(n, start=0):
    """`n` distinct, well-formed judgment lines."""
    return [
        json.dumps({"system": f"sys{i % 7}", "segment": f"seg{i // 7:05d}", "dimension": None, "score": i % 5 + 0.5})
        for i in range(start, start + n)
    ]


def _tables(load, path):
    """`repr` of the tables `load(path)` returns, with the type of each score, or the message it raises."""
    try:
        system, segment, dimensions = load(path)
    except (CorpusFormatError, oracles.Rejected) as exc:
        return f"error: {exc}"
    tables = [system, segment, *dimensions.values()]
    return repr((system, segment, dimensions)), [type(v) for table in tables for v in table.values()]


# Batch sizes that split small files many ways, and the one a run uses.
BATCH_SIZES = [1, 2, 7, metaeval.JUDGMENT_BATCH]


class TestChunkedJudgments:
    """`load_human_judgments` checks `JUDGMENT_BATCH` records at a time, in one pass over the file."""

    def lines_past_first_chunk(self):
        return _judgment_lines(2 * metaeval.JUDGMENT_BATCH + 1)

    def write(self, path, lines, end="\n", head=""):
        path.write_bytes((head + "".join(line + end for line in lines)).encode("utf-8"))
        return path

    def test_bad_line_past_the_first_chunk_is_located(self, tmp_path):
        lines = self.lines_past_first_chunk()
        lineno = len(lines) - 3
        lines[lineno - 1] = '{"system": "sysX", "segment": "s", "score": "5"}'
        path = self.write(tmp_path / "human.jsonl", lines)
        with pytest.raises(CorpusFormatError) as err:
            load_human_judgments(path)
        assert str(err.value) == f"{path}:{lineno}: invalid judgment: score must be a number, got string"

    def test_duplicate_in_a_later_chunk_is_located(self, tmp_path):
        lines = self.lines_past_first_chunk()
        lines.append(lines[1])
        path = self.write(tmp_path / "human.jsonl", lines)
        with pytest.raises(CorpusFormatError) as err:
            load_human_judgments(path)
        key = ("sys1", "seg00000", None)
        assert str(err.value) == f"{path}:{len(lines)}: duplicate judgment for {key}"

    @pytest.mark.parametrize("end, head, blank", [
        ("\n", "\ufeff", False),
        ("\r\n", "", False),
        ("\n", "", True),
        ("\r\n", "\ufeff", True),
    ], ids=["bom", "crlf", "blank-lines", "all-three"])
    def test_valid_variants_load_by_chunk_as_by_line(self, tmp_path, monkeypatch, end, head, blank):
        lines = self.lines_past_first_chunk()
        lines[3] = '{"system": 12, "segment": 4, "dimension": 5, "score": 3}'
        lines[4] = '{"system": "sysY", "score": -0.0}'
        if blank:
            lines[5:5] = ["", "  ", "\t"]
            lines.append("")
        path = self.write(tmp_path / "human.jsonl", lines, end, head)
        expected = _tables(oracles.read_human, path)

        def no_row_check(record):
            raise AssertionError("a record of a valid file was checked on its own")

        monkeypatch.setattr(metaeval, "_judgment", no_row_check)
        assert _tables(load_human_judgments, path) == expected
        assert load_human_judgments(path).dimensions["5"] == {("12", "4"): 3.0}

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("bad", [b"{", b'{"system": "\xff"}'], ids=["bad-json", "not-utf8"])
    def test_a_duplicate_before_an_undecodable_line_is_reported_first(self, tmp_path, monkeypatch, batch, bad):
        lines = [line.encode() for line in _judgment_lines(4)]
        lines[2:2] = [lines[0]]  # line 3 repeats line 1
        lines[4] = bad
        path = tmp_path / "human.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        monkeypatch.setattr(metaeval, "JUDGMENT_BATCH", batch)
        key = ("sys0", "seg00000", None)
        assert _tables(load_human_judgments, path) == f"error: {path}:3: duplicate judgment for {key}"
        assert _tables(oracles.read_human, path) == _tables(load_human_judgments, path)

    @pytest.mark.parametrize("last", [
        None,
        '{"system": "sysX", "score": "5"}',
        json.dumps({"system": "sys0", "segment": "seg00000", "score": 1.0}),
        "{",
    ], ids=["valid", "bad-score", "duplicate", "bad-json"])
    def test_a_human_file_is_opened_once(self, tmp_path, monkeypatch, last):
        lines = _judgment_lines(3 * 7 + 2) + ([] if last is None else [last])
        path = self.write(tmp_path / "human.jsonl", lines)
        monkeypatch.setattr(metaeval, "JUDGMENT_BATCH", 7)
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == path:
                opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        try:
            load_human_judgments(path)
        except CorpusFormatError:
            assert last is not None
        assert len(opens) == 1

    MISSING = object()
    good_records = st.fixed_dictionaries({
        "system": st.sampled_from(["a", "b", 1, "\u732b"]),
        "segment": st.sampled_from([MISSING, None, "s1", "s2", 3]),
        "dimension": st.sampled_from([MISSING, None, "fluency", 7]),
        "score": st.sampled_from([1.0, -0.0, 2, 0.5, 1e308, -1e308, 4e-320]),
    }).map(lambda r: {k: v for k, v in r.items() if v is not TestChunkedJudgments.MISSING})
    bad_values = st.sampled_from([
        None, True, False, 1.5, "", "x", [], {}, float("nan"), float("inf"), float("-inf"), 10**400, -(10**400),
    ])
    bad_lines = st.sampled_from([
        "", "   ", "[]", "1", "null", "{", '{"system": "a"} x', '{"system": "a", "score": 1} {}',
        '{"system": "a", "score": NaN}', '{"system": "a", "score": -Infinity}', "\ufeff{}",
        '{"system": "a", "score": 1' + "0" * 400 + "}",
    ])

    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(good_records, max_size=25,
                         unique_by=lambda r: (r["system"], r.get("segment"), r.get("dimension"))),
        mutations=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["value", "line", "bytes", "bom", "tail", "copy"]),
                                     st.sampled_from(["system", "segment", "dimension", "score"]),
                                     bad_values, bad_lines), max_size=2),
        end=st.sampled_from(["\n", "\r\n"]),
        bom=st.booleans(),
        batch=st.sampled_from(BATCH_SIZES),
    )
    def test_chunked_loader_returns_or_raises_what_the_per_line_loader_does(
        self, records, mutations, end, bom, batch
    ):
        lines = [json.dumps(record).encode() for record in records]
        for index, kind, field, value, line in mutations:
            if not lines:
                lines.append(b"")
            index %= len(lines)
            if kind == "value":
                record = {**records[index % len(records)]} if records else {}
                record[field] = value
                lines[index] = json.dumps(record).encode()
            elif kind == "line":
                lines[index] = line.encode()
            elif kind == "bytes":
                lines[index] = lines[index][:3] + b"\xff" + lines[index][3:]
            elif kind == "bom":
                lines[index] = "\ufeff".encode() + lines[index]
            elif kind == "tail":
                lines[index] += b" {}"
            else:
                lines.insert(index, lines[-1])
        data = (b"\xef\xbb\xbf" if bom else b"") + b"".join(line + end.encode() for line in lines)
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            path = Path(directory) / "human.jsonl"
            path.write_bytes(data)
            patch.setattr(metaeval, "JUDGMENT_BATCH", batch)
            assert _tables(load_human_judgments, path) == _tables(oracles.read_human, path)


class TestHumanTablesOracle:
    """`load_human_judgments` returns, or fails with, what `oracles.read_human` gives."""

    MISSING = object()
    # Mostly well-formed values, so that most files get past their first lines.
    records = st.fixed_dictionaries({
        "system": st.sampled_from(["a", "b", 1, "\u732b"] * 6 + [MISSING, None, True, 1.5, []]),
        "segment": st.sampled_from([MISSING, None, "s1", "s2", 3] * 6 + [False, 2.5, {}]),
        "dimension": st.sampled_from([MISSING, None, None, "fluency", 7] * 6 + [True, [], 0.5]),
        "score": st.one_of(
            st.floats(-10, 10), st.integers(-5, 5),
            st.sampled_from([-0.0, 1e308, -1e308, 4e-320, 10**400, MISSING, True, None, "5", math.nan, math.inf]),
        ),
    }).map(lambda r: {k: v for k, v in r.items() if v is not TestHumanTablesOracle.MISSING})
    lines = st.one_of(
        *[records.map(json.dumps)] * 6,
        st.sampled_from(["", "  ", "[]", "null", "{", '{"system": "a", "score": 1} {}', "\ufeff{}"]),
    )

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(lines, max_size=12), bom=st.booleans(), end=st.sampled_from(["\n", "\r\n"]),
           batch=st.sampled_from(BATCH_SIZES))
    def test_loader_matches_the_oracle(self, lines, bom, end, batch):
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            path = Path(directory) / "human.jsonl"
            path.write_bytes((("\ufeff" if bom else "") + "".join(line + end for line in lines)).encode("utf-8"))
            patch.setattr(metaeval, "JUDGMENT_BATCH", batch)
            assert _tables(load_human_judgments, path) == _tables(oracles.read_human, path)

    @pytest.mark.parametrize("judgments", [
        [{"system": s, "segment": g, "score": 1e308} for s in ("b", "a") for g in ("s1", "s2")],
        [{"system": "b", "segment": "s1", "dimension": "x", "score": 1e308},
         {"system": "a", "segment": None, "dimension": "x", "score": 1e308},
         {"system": "a", "segment": "s1", "dimension": "y", "score": 1e308},
         {"system": "b", "segment": None, "dimension": "y", "score": 1e308}],
    ], ids=["overall", "dimensions-only"])
    def test_an_overflowing_mean_fails_at_the_human_file(self, tmp_path, jsonl_writer, judgments):
        path = tmp_path / "human.jsonl"
        jsonl_writer(path, judgments)
        assert _tables(load_human_judgments, path) == _tables(oracles.read_human, path)
        assert _tables(load_human_judgments, path) == (
            f"error: {path}: cannot average the human scores of system 'b': the sum of 2 scores overflows"
        )

    def test_the_three_kinds_share_their_key_tuples(self, tmp_path, jsonl_writer):
        path = tmp_path / "human.jsonl"
        jsonl_writer(path, [{"system": "a", "segment": "s1", "dimension": d, "score": 1.0} for d in (None, "x", "y")])
        _, segment, dimensions = load_human_judgments(path)
        (key,) = segment
        assert all(next(iter(table)) is key for table in dimensions.values())


class TestMetaEvaluate:
    def judgments(self):
        rows = []
        for i, system in enumerate(("good", "mid", "bad")):
            for seg in ("s1", "s2", "s3"):
                rows.append(
                    HumanJudgment(system=system, segment=seg, score=float(3 - i) + 0.1 * int(seg[1]))
                )
        return rows

    def metric_scores(self, noise=0.0):
        scores = {}
        for i, system in enumerate(("good", "mid", "bad")):
            for j, seg in enumerate(("s1", "s2", "s3")):
                scores[(system, seg)] = float(3 - i) * 10.0 + j + noise
        return scores

    def test_perfect_agreement(self):
        report = meta_evaluate(self.metric_scores(), human_score_tables(self.judgments()), "bleu", name="xx-yy")
        assert report.pairwise_accuracy == 1.0
        assert report.pearson == pytest.approx(1.0, abs=1e-9)
        assert report.kendall is not None and report.kendall > 0.9
        assert report.n_systems == 3
        assert report.n_segments == 3
        assert report.name == "xx-yy"

    def test_spearman_per_dimension(self):
        judgments = [
            HumanJudgment("good", 3.0, "s1", "fluency"),
            HumanJudgment("bad", 1.0, "s1", "fluency"),
            HumanJudgment("good", 2.0, "s1", "coherence"),
            HumanJudgment("bad", 3.0, "s1", "coherence"),
            HumanJudgment("good", 3.0, "s1", None),
            HumanJudgment("bad", 1.0, "s1", None),
            HumanJudgment("good", 3.0, None, None),
            HumanJudgment("bad", 1.0, None, None),
        ]
        metric = {("good", "s1"): 0.9, ("bad", "s1"): 0.1}
        report = meta_evaluate(metric, human_score_tables(judgments), "rouge1")
        assert report.spearman == {"coherence": -1.0, "fluency": 1.0}

    def test_dimensions_only_corpus_still_reports(self):
        # Summarization-style data: every judgment carries a dimension.
        judgments = [
            HumanJudgment("good", 3.0, "s1", "coherence"),
            HumanJudgment("good", 2.8, "s1", "fluency"),
            HumanJudgment("bad", 1.0, "s1", "coherence"),
            HumanJudgment("bad", 1.3, "s1", "fluency"),
        ]
        metric = {("good", "s1"): 0.8, ("bad", "s1"): 0.2}
        report = meta_evaluate(metric, human_score_tables(judgments), "rouge2")
        assert report.pairwise_accuracy == 1.0
        assert set(report.spearman) == {"coherence", "fluency"}
        assert report.kendall is None

    def test_degenerate_human_raises(self):
        judgments = [
            HumanJudgment("good", 1.0, None, None),
            HumanJudgment("bad", 1.0, None, None),
        ]
        with pytest.raises(DegenerateDataError):
            meta_evaluate({("good", "s1"): 1.0, ("bad", "s1"): 0.0}, human_score_tables(judgments), "bleu")

    def test_report_validates_ranges(self):
        with pytest.raises(ValueError):
            MetaEvalReport(metric="m", pairwise_accuracy=1.5, n_pairs_used=1, pearson=0.0)
        with pytest.raises(ValueError):
            MetaEvalReport(metric="m", pairwise_accuracy=0.5, n_pairs_used=1, pearson=2.0)


class TestMetaEvaluateAll:
    """One shared human side gives what separate per-metric calls give."""

    systems = ["sys0", "sys1", "sys2", "sys3", "sys4"]
    segments = [f"s{i}" for i in range(8)]
    dimensions = ["fluency", "adequacy"]

    def metric_scores(self, rng):
        """Three metrics over different (system, segment) key sets."""
        keys = [(s, g) for s in self.systems for g in self.segments]
        subsets = {
            "m-full": keys,
            "m-sparse": [k for k in keys if rng.random() < 0.7],
            "a-no-sys4": [k for k in keys if k[0] != "sys4"],
        }
        return {
            name: {k: float(rng.randint(0, 9)) + 0.25 * i for k in subset}
            for i, (name, subset) in enumerate(subsets.items())
        }

    def test_an_empty_score_table_rejected(self):
        human = human_score_tables([HumanJudgment(s, v, "s1") for s, v in (("sys0", 1.0), ("sys1", 2.0))])
        with pytest.raises(ValueError, match="^no metric scores given$"):
            meta_evaluate_all({"m": {("sys0", "s1"): 1.0, ("sys1", "s1"): 2.0}, "n": {}}, human)

    def check(self, scores_by_metric, judgments, human_system, human_segment, human_dims):
        human = human_score_tables(judgments)
        reports = meta_evaluate_all(scores_by_metric, human, name="xx-yy")
        assert [r.metric for r in reports] == sorted(scores_by_metric)
        for report in reports:
            metric_scores = scores_by_metric[report.metric]
            alone = meta_evaluate(metric_scores, human, report.metric, name="xx-yy")
            assert report._asdict() == alone._asdict()

            by_system = {}
            for (system, _segment), value in metric_scores.items():
                by_system.setdefault(system, []).append(value)
            metric_system = {s: sum(v) / len(v) for s, v in by_system.items()}
            accuracy, used = oracles.pairwise_accuracy(metric_system, human_system)
            assert report.pairwise_accuracy == pytest.approx(accuracy)
            assert report.n_pairs_used == used
            common = sorted(set(metric_system) & set(human_system))
            assert report.n_systems == len(common)
            assert report.pearson == pytest.approx(oracles.pearson(
                [metric_system[s] for s in common], [human_system[s] for s in common]
            ))
            if human_segment:
                keys = sorted(set(metric_scores) & set(human_segment))
                assert report.kendall == pytest.approx(oracles.kendall_tau(
                    [metric_scores[k] for k in keys], [human_segment[k] for k in keys]
                ))
            else:
                assert report.kendall is None
            if human_dims:
                assert list(report.spearman) == sorted(human_dims)
                for dim, table in human_dims.items():
                    keys = sorted(set(metric_scores) & set(table))
                    assert report.spearman[dim] == pytest.approx(oracles.spearman(
                        [metric_scores[k] for k in keys], [table[k] for k in keys]
                    ))
            else:
                assert report.spearman is None
        return reports

    def test_dimension_only_judgments_fall_back_to_their_mean(self, rng):
        judgments = []
        human_dims = {dim: {} for dim in self.dimensions}
        totals = {}
        for system in self.systems:
            for segment in self.segments:
                for dim in self.dimensions:
                    score = float(rng.randint(1, 5))
                    judgments.append(HumanJudgment(system, score, segment, dim))
                    human_dims[dim][system, segment] = score
                    totals.setdefault(system, []).append(score)
        human_system = {s: sum(v) / len(v) for s, v in totals.items()}
        self.check(self.metric_scores(rng), judgments, human_system, {}, human_dims)

    def test_metrics_with_different_key_sets(self, rng):
        judgments = []
        human_segment = {}
        human_dims = {dim: {} for dim in self.dimensions}
        for system in self.systems:
            for segment in self.segments:
                score = float(rng.randint(1, 5))
                judgments.append(HumanJudgment(system, score, segment))
                human_segment[system, segment] = score
                for dim in self.dimensions:
                    dim_score = float(rng.randint(1, 5))
                    judgments.append(HumanJudgment(system, dim_score, segment, dim))
                    human_dims[dim][system, segment] = dim_score
        human_system = {
            s: sum(v for (t, _g), v in human_segment.items() if t == s) / len(self.segments)
            for s in self.systems
        }
        # An explicit system-level score wins over the segment mean.
        judgments.append(HumanJudgment("sys2", 9.5))
        human_system["sys2"] = 9.5
        reports = self.check(self.metric_scores(rng), judgments, human_system, human_segment,
                             human_dims)
        assert [r.n_systems for r in reports] == [4, 5, 5]

    def test_scores_are_ranked_once_per_key_set(self, rng, monkeypatch):
        judgments = []
        human_dims = {dim: {} for dim in self.dimensions}
        for system in self.systems:
            for segment in self.segments:
                judgments.append(HumanJudgment(system, float(rng.randint(1, 5)), segment))
                for dim in self.dimensions:
                    human_dims[dim][system, segment] = float(rng.randint(1, 5))
                    judgments.append(HumanJudgment(system, human_dims[dim][system, segment], segment, dim))
        keys = sorted(human_dims[self.dimensions[0]])
        scores_by_metric = {name: {k: rng.random() for k in keys} for name in ("m1", "m2", "m3")}
        ranked, tie_counts = [], []
        rank, count_ties = metaeval.midranks, metaeval._tie_pairs
        monkeypatch.setattr(metaeval, "midranks", lambda values: ranked.append(values) or rank(values))
        monkeypatch.setattr(metaeval, "_tie_pairs", lambda values: tie_counts.append(values) or count_ties(values))
        human = human_score_tables(judgments)
        reports = meta_evaluate_all(scores_by_metric, human)
        # Every table has the same keys: each metric's scores are ranked once,
        # and each dimension's human scores once in all.
        for dim, table in human_dims.items():
            assert ranked.count([table[k] for k in keys]) == 1
        for scores in scores_by_metric.values():
            assert ranked.count([scores[k] for k in keys]) == 1
        assert len(ranked) == len(self.dimensions) + len(scores_by_metric)
        assert len(tie_counts) == 1
        monkeypatch.undo()
        for report in reports:
            alone = meta_evaluate(scores_by_metric[report.metric], human, report.metric)
            assert report._asdict() == alone._asdict()

    def test_no_segment_level_human_scores_means_no_kendall(self, rng):
        human_system = {s: float(i) for i, s in enumerate(self.systems)}
        judgments = [HumanJudgment(s, v) for s, v in human_system.items()]
        reports = self.check(self.metric_scores(rng), judgments, human_system, {}, {})
        assert all(r.kendall is None for r in reports)
