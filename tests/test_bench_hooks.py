"""The names pipebench/tracer.py wraps must exist where the tracer looks them up.

The tracer skips a missing name and lists it instead of failing, so a change
under src/ that renames or drops a wrapped function would otherwise only show
up in pipebench/selfcheck.py.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from multiref import kernels
from multiref.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "pipebench" / "tracer.py"
PACKAGE = ROOT / "src" / "multiref"


def tracer_module():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def wrap_points():
    return tracer_module().WRAP_POINTS


def test_every_wrap_point_is_a_callable_of_its_owner():
    points = wrap_points()
    assert points
    for module_name, owner_name, attr, _span, _options in points:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = vars(owner)[owner_name]
        assert callable(vars(owner).get(attr)), f"{module_name}.{owner_name or ''}.{attr}"
    # pipebench/run.py and worker.py record it in every result.
    assert kernels.active_backend() == "pure"


def test_metaeval_calls_the_names_its_per_layer_metrics_trace(tmp_path, jsonl_writer, capsys):
    # A wrapped name that `metaeval` stops calling reads 0 in the benchmark's
    # per-layer metrics instead of failing.
    matrix = tmp_path / "matrix.jsonl"
    human = tmp_path / "human.jsonl"
    systems = {"A": 0.9, "B": 0.5, "C": 0.1}
    segments = ("s1", "s2", "s3")
    jsonl_writer(matrix, [
        {"system": system, "segment": segment, "scores": {"r0": quality + i / 10, "r1": quality}, "metric": "m"}
        for system, quality in systems.items()
        for i, segment in enumerate(segments)
    ])
    jsonl_writer(human, [
        {"system": system, "segment": segment, "dimension": dimension, "score": quality * 10 + i}
        for system, quality in systems.items()
        for i, segment in enumerate(segments)
        for dimension in (None, "fluency")
    ])
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        code = main(["metaeval", "--matrix", str(matrix), "--human", str(human)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    spans = tracer.report()["spans"]
    for name in ("metaeval.load_human_judgments", "metaeval.kendall_tau", "metaeval.spearman"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; `__init__.py` reads its names through `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_unused_import_is_a_wrap_point():
    # No linter runs here: a module may import a name it never reads only so
    # that the tracer finds it there.
    wrapped = {(module, attr) for module, owner, attr, _span, _options in wrap_points() if owner is None}
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"multiref.{path.stem}"
        assert [name for name in unused_imports(path) if (module, name) not in wrapped] == [], path.name
