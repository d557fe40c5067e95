"""Child process of the benchmark: runs one pass of a workload's CLI stages.

    python3 pipebench/worker.py JOB.json

The job names the package source directory, the stages (each an argument
list for ``multiref.cli.main``, the files it writes and its calibration
loop), whether to trace, and where to write the result. Stages run in this one process, in order; a
stage that fails ends the pass. The result holds each stage's exit code,
wall time, output bytes and calibration time, this process's peak RSS, the
kernel backend and, when traced, the tracer's report.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback

#: One matrix row, as the `json` calibration loop parses it.
CALIBRATION_ROW = json.dumps({
    "metric": "neural-a", "segment": "seg00001", "system": "sys1",
    "scores": {f"gen:{i}": 0.1234567890123 + i for i in range(21)},
})

#: A small module, as the `compile` calibration loop compiles and runs it.
CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    return [a + b * {i} for _ in range(3)]" for i in range(40)
)


def calibrate(kind: str) -> float:
    """Seconds this process takes for a fixed loop of work.

    The loop runs right before and right after each stage. On a shared host
    the interpreter's speed changes by up to 2x from minute to minute; the
    loop's time follows those changes, so the parent can scale stage times
    to a reference speed. `interp` is dict and str work in bytecode, like
    tokenizing and n-gram counting; `json` parses matrix rows, like loading
    a score matrix; `compile` compiles and runs a module body, like an
    import. Each follows its kind of work more closely than the others.
    """
    start = time.perf_counter()
    if kind == "json":
        for _ in range(1500):
            json.loads(CALIBRATION_ROW)
    elif kind == "compile":
        for _ in range(5):
            exec(compile(CALIBRATION_SOURCE, "<calibration>", "exec"), {})
    else:
        counts: dict[str, int] = {}
        for i in range(40_000):
            key = str(i % 5000)
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from multiref import cli, kernels

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stages = []
    try:
        for stage in job["stages"]:
            span = tracer.stage(stage["name"]) if tracer else contextlib.nullcontext()
            kind = stage["calibration"]
            calibration = calibrate(kind) if kind else None
            start = time.perf_counter()
            with span:
                try:
                    code = cli.main(stage["argv"])
                except Exception:  # a crash is reported as a failed stage
                    traceback.print_exc()
                    code = -1
            wall = time.perf_counter() - start
            if kind:
                calibration = (calibration + calibrate(kind)) / 2
            written = sum(os.path.getsize(p) for p in stage["outputs"] if os.path.exists(p))
            stages.append({"name": stage["name"], "code": code, "wall_s": wall,
                           "calibration_s": calibration, "bytes_out": written})
            if code != 0:
                break
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "stages": stages,
        "backend": kernels.active_backend(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
