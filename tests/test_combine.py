import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multiref.combine import (
    CombinePolicy,
    combine_matrix,
    load_combined,
    load_score_matrices,
    system_scores,
    write_combined,
    write_score_matrix,
)
from multiref.errors import CorpusFormatError

score_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=8
)


def one_row(scores, policy=None):
    """One row's scores combined by `combine_matrix`."""
    return combine_matrix({("a", "s"): {f"r{i}": s for i, s in enumerate(scores)}}, policy)["a", "s"]


def one_system(per_segment):
    """One system's mean over its `{segment: score}` from `system_scores`."""
    (score,) = system_scores({("a", segment): s for segment, s in per_segment.items()}, "m").values()
    return score


class TestCombineRow:
    def test_max(self):
        assert one_row([0.2, 0.8, 0.5], CombinePolicy("max")) == 0.8

    def test_mean(self):
        assert one_row([0.2, 0.8, 0.5], CombinePolicy("mean")) == pytest.approx(0.5)

    def test_top_k_mean(self):
        policy = CombinePolicy("top_k_mean", k=2)
        assert one_row([0.2, 0.8, 0.5], policy) == pytest.approx(0.65)

    def test_default_policy_is_max(self):
        assert one_row([1.0, 3.0, 2.0]) == 3.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="cannot combine an empty score list"):
            one_row([], CombinePolicy("max"))

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_row([0.5], CombinePolicy("top_k_mean", k=2))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CombinePolicy("top_k_mean")
        with pytest.raises(ValueError):
            CombinePolicy("max", k=3)
        with pytest.raises(ValueError):
            CombinePolicy("median")

    @given(score_lists)
    def test_max_dominates_inputs(self, scores):
        combined = one_row(scores, CombinePolicy("max"))
        assert all(combined >= s for s in scores)

    @given(score_lists)
    def test_mean_and_topk_within_bounds(self, scores):
        mean = one_row(scores, CombinePolicy("mean"))
        assert min(scores) - 1e-9 <= mean <= max(scores) + 1e-9
        for k in range(1, len(scores) + 1):
            topk = one_row(scores, CombinePolicy("top_k_mean", k=k))
            assert min(scores) - 1e-9 <= topk <= max(scores) + 1e-9


class TestCombineMatrix:
    def matrix(self):
        return {
            ("sysA", "s1"): {"r0": 0.1, "r1": 0.9, "r2": 0.4},
            ("sysA", "s2"): {"r0": 0.7, "r1": 0.2, "r2": 0.3},
        }

    def test_single_column_is_identity(self):
        assert combine_matrix({("a", "s1"): {"only": 0.42}}) == {("a", "s1"): 0.42}

    def test_per_row_maxima(self):
        combined = combine_matrix(self.matrix(), CombinePolicy("max"))
        assert combined == {("sysA", "s1"): 0.9, ("sysA", "s2"): 0.7}

    def test_output_sized_like_rows(self):
        assert len(combine_matrix(self.matrix())) == 2

    def test_column_permutation_invariance(self):
        rows = {("a", "s1"): {"x": 0.3, "y": 0.6, "z": 0.1}}
        permuted = {("a", "s1"): {"z": 0.1, "x": 0.3, "y": 0.6}}
        for policy in (CombinePolicy("max"), CombinePolicy("mean"), CombinePolicy("top_k_mean", 2)):
            assert combine_matrix(rows, policy) == combine_matrix(permuted, policy)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            combine_matrix({})

    def test_duplicate_rows_rejected(self, tmp_path):
        # A dict holds one row per key, so a duplicate can only come from a file.
        path = tmp_path / "matrix.jsonl"
        write_score_matrix(path, [("m", "a", "s1", {"r": 1.0}), ("m", "a", "s1", {"r": 2.0})])
        with pytest.raises(CorpusFormatError) as err:
            load_score_matrices(path)
        assert str(err.value) == f"{path}:2: duplicate matrix row for ('a', 's1')"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "matrix.jsonl"
        write_score_matrix(path, [("m", "a", "s1", {"r": float("nan")})])
        with pytest.raises(CorpusFormatError) as err:
            load_score_matrices(path)
        assert str(err.value) == f"{path}:1: invalid matrix row: non-finite score for (a, s1, r)"

    def test_adding_column_never_decreases_max(self, rng):
        for _ in range(50):
            scores = {f"r{i}": rng.uniform(-5, 5) for i in range(rng.randint(1, 6))}
            row = {("a", "s"): dict(scores)}
            grown = {("a", "s"): {**scores, "extra": rng.uniform(-5, 5)}}
            assert combine_matrix(grown)["a", "s"] >= combine_matrix(row)["a", "s"]


class TestSystemScore:
    def test_mean(self):
        assert one_system({"s1": 0.4, "s2": 0.6}) == pytest.approx(0.5)

    def test_single_segment(self):
        assert one_system({"s1": 0.73}) == 0.73

    def test_empty_map_has_no_system(self):
        # Each mean is over a system's own segments, so none is ever empty.
        assert system_scores({}, "m") == {}

    def test_matches_naive_sum(self, rng):
        values = {f"s{i}": rng.uniform(0, 100) for i in range(100)}
        naive = sum(values.values()) / len(values)
        assert one_system(values) == pytest.approx(naive, abs=1e-12)


class TestSystemScores:
    def test_matches_naive_mean_per_system(self, rng):
        combined = {}
        for i in range(200):
            combined[rng.choice("cab"), f"s{i}"] = rng.uniform(-100, 100)
        naive = {}
        for (system, _segment), score in combined.items():
            naive.setdefault(system, []).append(score)
        scores = system_scores(combined, "m")
        # Systems come in the order of their first row.
        assert list(scores) == list(naive)
        for system, values in naive.items():
            assert scores[system] == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_overflowing_mean_names_system_and_metric(self):
        combined = {("b", "s1"): 1.0, ("a", "s1"): 1e308, ("a", "s2"): 1e308}
        with pytest.raises(ValueError) as err:
            system_scores(combined, "bleurt")
        assert str(err.value) == (
            "cannot score system 'a' on metric 'bleurt': the sum of 2 scores overflows"
        )


class TestMatrixIo:
    def test_roundtrip(self, tmp_path):
        rows = [
            ("comet", "a", "s1", {"r0": 0.25, "r1": -1.5}),
            ("comet", "b", "s1", {"r0": 0.75}),
            ("chrf", "a", "s1", {"all": 12.5}),
        ]
        path = tmp_path / "matrix.jsonl"
        write_score_matrix(path, rows)
        loaded = load_score_matrices(path)
        assert loaded == {
            "comet": {("a", "s1"): {"r0": 0.25, "r1": -1.5}, ("b", "s1"): {"r0": 0.75}},
            "chrf": {("a", "s1"): {"all": 12.5}},
        }
        assert [(m, *key, cells) for m, matrix in loaded.items() for key, cells in matrix.items()] == rows

    def test_multiple_metrics_grouped(self, tmp_path, jsonl_writer):
        path = tmp_path / "matrix.jsonl"
        jsonl_writer(
            path,
            [
                {"system": "a", "segment": "s1", "scores": {"r": 1.0}, "metric": "m1"},
                {"system": "a", "segment": "s1", "scores": {"r": 2.0}, "metric": "m2"},
            ],
        )
        loaded = load_score_matrices(path)
        assert set(loaded) == {"m1", "m2"}

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "matrix.jsonl"
        path.write_text(
            '{"system": "a", "segment": "s1", "scores": {"r": 1.0}, "metric": "m"}\n'
            "not json\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError) as err:
            load_score_matrices(path)
        assert err.value.line == 2

    def test_missing_field_reports_location(self, tmp_path, jsonl_writer):
        path = tmp_path / "matrix.jsonl"
        jsonl_writer(path, [{"system": "a", "segment": "s1", "metric": "m"}])
        with pytest.raises(CorpusFormatError) as err:
            load_score_matrices(path)
        assert err.value.line == 1


# Cells as a matrix file may hold them: JSON numbers, that is floats and ints.
matrix_cells = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
# Cells that are not JSON numbers; `float()` would take the first three.
non_number_cells = st.one_of(
    st.booleans(),
    st.floats(min_value=-1e6, max_value=1e6).map(repr),
    st.integers(min_value=-100, max_value=100).map(str),
    st.none(),
    st.lists(st.integers(), max_size=2),
)
# Rows draw their columns from a shared pool, so they differ in which they hold.
matrix_rows = st.lists(
    st.tuples(
        st.sampled_from(["m2", "m1"]),
        st.sampled_from(["sysB", "sysA", "sysC"]),
        st.sampled_from(["s1", "s2", "s3", "s4"]),
        st.dictionaries(st.sampled_from(["gold", "r0", "r1", "r2", "r3", "r4"]), matrix_cells,
                        min_size=1, max_size=6),
        st.sampled_from(["", "\n", "   \n"]),
    ),
    max_size=24,
    unique_by=lambda row: row[:3],
)


def write_rows(directory, rows):
    """A matrix file holding `rows`, each after its blank-line prefix."""
    path = Path(directory) / "matrix.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for metric, system, segment, cells, blank in rows:
            record = {"system": system, "segment": segment, "scores": cells, "metric": metric}
            handle.write(blank + json.dumps(record) + "\n")
    return path


def write_lines(directory, lines):
    path = Path(directory) / "matrix.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def matrix_line(system, segment, cells_json, metric="m"):
    return (f'{{"system": "{system}", "segment": "{segment}", '
            f'"scores": {{{cells_json}}}, "metric": "{metric}"}}')


class TestLoadCombined:
    @given(matrix_rows, st.sampled_from(["max", "mean", "top_k_mean"]), st.data())
    def test_matches_oracle_and_the_two_step_path(self, rows, kind, data):
        k = None
        if kind == "top_k_mean":
            k = data.draw(st.integers(1, min((len(r[3]) for r in rows), default=1)))
        policy = CombinePolicy(kind, k)
        expected = {}
        for metric, system, segment, cells, _blank in rows:
            values = [float(v) for v in cells.values()]
            expected.setdefault(metric, {})[system, segment] = oracles.combine_row(values, kind, k)
        with tempfile.TemporaryDirectory() as directory:
            path = write_rows(directory, rows)
            combined = load_combined(path, policy)
            two_step = {m: combine_matrix(x, policy) for m, x in load_score_matrices(path).items()}
        assert list(combined) == list(expected)
        for metric, scores in expected.items():
            assert list(combined[metric]) == list(scores)
            for key, value in scores.items():
                if kind == "max":
                    assert combined[metric][key] == value
                else:
                    assert combined[metric][key] == pytest.approx(value, rel=1e-12, abs=1e-9)
        assert combined == two_step
        assert [list(m) for m in combined.values()] == [list(m) for m in two_step.values()]

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from([1e308, -1e308]),
                 max_size=4),
        st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
        st.data(),
    )
    def test_non_finite_cell_rejected_with_location(self, finite, token, data):
        position = data.draw(st.integers(0, len(finite)))
        cells = [json.dumps(v) for v in finite]
        cells.insert(position, token)
        cells_json = ", ".join(f'"r{i}": {v}' for i, v in enumerate(cells))
        with tempfile.TemporaryDirectory() as directory:
            path = write_lines(directory, [matrix_line("a", "s0", '"r0": 0.5'),
                                           matrix_line("a", "s1", cells_json)])
            for load in (load_combined, load_score_matrices):
                with pytest.raises(CorpusFormatError) as err:
                    load(path)
                assert str(err.value) == (
                    f"{path}:2: invalid matrix row: non-finite score for (a, s1, r{position})"
                )

    @given(st.lists(matrix_cells, max_size=4), non_number_cells, st.data())
    def test_non_number_cell_rejected_with_location(self, numbers, bad, data):
        position = data.draw(st.integers(0, len(numbers)))
        cells = [json.dumps(v) for v in numbers]
        cells.insert(position, json.dumps(bad))
        cells_json = ", ".join(f'"r{i}": {v}' for i, v in enumerate(cells))
        with tempfile.TemporaryDirectory() as directory:
            path = write_lines(directory, [matrix_line("a", "s0", '"r0": 0.5'),
                                           matrix_line("a", "s1", cells_json)])
            for load in (load_combined, load_score_matrices):
                with pytest.raises(CorpusFormatError) as err:
                    load(path)
                assert str(err.value).startswith(
                    f"{path}:2: invalid matrix row: score 'r{position}' must be a number, got "
                )

    def test_finite_cells_whose_sum_overflows_are_accepted(self, tmp_path):
        path = write_lines(tmp_path, [
            matrix_line("a", "s1", '"r0": 1e308, "r1": 1e308'),
            matrix_line("a", "s2", '"r0": -1e308, "r1": -1e308, "r2": 1e308'),
        ])
        assert load_combined(path) == {"m": {("a", "s1"): 1e308, ("a", "s2"): 1e308}}
        matrix = load_score_matrices(path)["m"]
        assert matrix["a", "s1"] == {"r0": 1e308, "r1": 1e308}

    def test_overflowing_mean_fails_with_location(self, tmp_path):
        path = write_lines(tmp_path, [matrix_line("a", "s1", '"r0": 1e308, "r1": 1e308')])
        with pytest.raises(CorpusFormatError, match=r"matrix\.jsonl:1: cannot combine row"):
            load_combined(path, CombinePolicy("mean"))

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = write_lines(tmp_path, [matrix_line("a", "s1", '"r0": 1' + "0" * 400)])
        for load in (load_combined, load_score_matrices):
            with pytest.raises(CorpusFormatError, match=r"matrix\.jsonl:1: invalid matrix row: int"):
                load(path)

    def test_empty_scores_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["", matrix_line("a", "s1", "")])
        for load in (load_combined, load_score_matrices):
            with pytest.raises(CorpusFormatError) as err:
                load(path)
            assert str(err.value) == (
                f"{path}:2: invalid matrix row: matrix row must have at least one score"
            )

    def test_duplicate_row_rejected_as_read(self, tmp_path):
        path = write_lines(tmp_path, [
            matrix_line("a", "s1", '"r": 1.0'),
            matrix_line("a", "s1", '"r": 1.0', metric="other"),
            matrix_line("a", "s1", '"r": 2.0'),
            "not json",
        ])
        for load in (load_combined, load_score_matrices):
            with pytest.raises(CorpusFormatError) as err:
                load(path)
            assert str(err.value) == f"{path}:3: duplicate matrix row for ('a', 's1')"

    def test_k_beyond_row_rejected_with_location(self, tmp_path):
        path = write_lines(tmp_path, [
            matrix_line("a", "s1", '"r0": 1.0, "r1": 2.0, "r2": 3.0'),
            matrix_line("a", "s2", '"r0": 1.0, "r1": 2.0'),
        ])
        with pytest.raises(CorpusFormatError) as err:
            load_combined(path, CombinePolicy("top_k_mean", 3))
        assert str(err.value) == (
            f"{path}:2: cannot combine row: k=3 exceeds the 2 available scores"
        )


def outcome(read, *args):
    """`repr` of what `read(*args)` returns (so a 1 is not a 1.0), or the message of the file error it raises."""
    try:
        return repr(read(*args))
    except (CorpusFormatError, oracles.Rejected) as exc:
        return f"error: {exc}"


MISSING = object()
# Mostly well-formed values, so that most files get past their first lines.
matrix_fields = {
    "metric": st.sampled_from(["m", "n", 7] * 8 + [MISSING, None, True, 1.5, []]),
    "system": st.sampled_from(["a", "b", "\u732b", 1] * 8 + [MISSING, None, False, 2.5, {}]),
    "segment": st.sampled_from(["s", "t", 2] * 8 + [MISSING, None, True, "", [1]]),
}
cell_values = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.sampled_from([0, 3, -0.0, 1e308, -1e308, 5e-324, 10**400, -(10**400), True, False, None, "1", [], {},
                     math.nan, math.inf, -math.inf]),
)
cell_maps = st.dictionaries(st.sampled_from(["r0", "r1", "gold:0", "gen:1", "\u732b"]), cell_values, max_size=4)
matrix_records = st.fixed_dictionaries({
    **matrix_fields,
    "scores": st.one_of(cell_maps, cell_maps, cell_maps, st.sampled_from([MISSING, None, 1.0, "x", [1.0]])),
}).map(lambda record: {k: v for k, v in record.items() if v is not MISSING})
matrix_lines = st.one_of(
    *[matrix_records.map(json.dumps)] * 6,
    st.sampled_from(["", "  ", "[]", "1", "{", '{"metric": "m"} x', "\ufeff{}", "{" * 2000]),
)


class TestMatrixReaderOracle:
    """Both matrix loaders return, or fail with, what `oracles.read_matrix` gives."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(matrix_lines, max_size=8), kind=st.sampled_from(["max", "mean", "top_k_mean"]),
           k=st.integers(1, 3), bom=st.booleans(), end=st.sampled_from(["\n", "\r\n"]))
    def test_loaders_match_the_oracle(self, lines, kind, k, bom, end):
        policy = CombinePolicy(kind, k if kind == "top_k_mean" else None)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "matrix.jsonl"
            path.write_bytes((("\ufeff" if bom else "") + "".join(line + end for line in lines)).encode("utf-8"))
            assert outcome(load_score_matrices, path) == outcome(oracles.read_matrix, path)
            assert outcome(load_combined, path, policy) == outcome(oracles.read_matrix, path, kind, policy.k)

    def test_a_line_that_is_not_utf8_fails_as_the_oracle_does(self, tmp_path):
        path = tmp_path / "matrix.jsonl"
        path.write_bytes(b'{"system": "a", "segment": "s", "scores": {"r": 1.0}, "metric": "m"}\n{"x": "\xe2\x82"}\n')
        assert outcome(load_combined, path) == outcome(oracles.read_matrix, path, "max")
        assert outcome(load_combined, path).startswith(f"error: {path}:2: invalid matrix row: 'utf-8' codec")


text_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@settings(deadline=None)
@given(st.dictionaries(text_ids, st.dictionaries(st.tuples(text_ids, text_ids),
                                                 st.floats(allow_nan=False, allow_infinity=False), max_size=5),
                       max_size=3))
@example({"m": {("a", "s"): -0.0, ("b", "s"): 5e-324, ("c", "s"): 1e16, ("d", "s"): 1.7976931348623157e308}})
@example({'"\\\u2028': {("\x00\x1f\x7f", "\u732b\U0001F600"): 0.1}})
def test_combined_lines_are_what_json_writes(combined):
    # Lone surrogates are left out: no UTF-8 file can hold them.
    expected = "".join(
        json.dumps({"system": system, "segment": segment, "score": score, "metric": metric}, ensure_ascii=False) + "\n"
        for metric in sorted(combined)
        for (system, segment), score in combined[metric].items()
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "combined.jsonl"
        write_combined(path, combined)
        assert path.read_bytes() == expected.encode("utf-8")
