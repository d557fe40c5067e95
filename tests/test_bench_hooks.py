"""The names pipebench/tracer.py wraps must exist where the tracer looks them up.

The tracer skips a missing name and lists it instead of failing, so a change
under src/ that renames or drops a wrapped function would otherwise only show
up in pipebench/selfcheck.py.
"""

import importlib
import importlib.util
from pathlib import Path

from multiref import kernels

TRACER = Path(__file__).resolve().parent.parent / "pipebench" / "tracer.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


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
