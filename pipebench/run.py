#!/usr/bin/env python3
"""Pipeline benchmark for multiref: paper-shaped workloads through the CLI.

    python3 pipebench/run.py                      # every workload, untraced and traced
    python3 pipebench/run.py --workload score-multiref --seed 7 --seconds 36 --trace 0

Run it from the repository root. It generates seeded inputs in this process,
then runs passes of the workload's stages in a child process (``worker.py``)
for ``--seconds`` seconds, one pass after another. The child imports the
package from ``src/`` and calls ``multiref.cli.main`` for each stage. With
``--trace 0`` it reports the end-to-end metrics, medians over the passes,
with times in reference seconds (see ``_ref_seconds``). With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics.

Every pass is checked: stage exit codes, output digests (against
``digests.json`` on the default seed, against the first pass on any other
seed) and the independent checks in ``checks.py``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The command exits non-zero when any check failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import checks
import inputs
from digest import digest_file, read_jsonl
from tracer import union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"
DIGESTS = HERE / "digests.json"

WORKLOADS = tuple(inputs.SHAPES)
SETUP_SPAWNS = 7
#: Rounds a run makes at least, so that every run compares passes with each other.
MIN_ROUNDS = 2
PASS_TIMEOUT_S = 150
API_KEY = "pipebench-dummy-key"

SETUP_CODE = (
    "import time\n"
    "import multiref.cli\n"
    "from multiref import kernels\n"
    "stamp = time.monotonic()\n"
    "import worker\n"
    "print(stamp, worker.calibrate('compile'), kernels.active_backend())\n"
)

#: Calibration loop (worker.calibrate) per stage. `generate` has none: it
#: mostly waits on the endpoint, so its wall time is used as it is.
CALIBRATION = {"select": "interp", "score": "interp", "combine": "json", "metaeval": "json"}

#: Each loop's time on an uncontended vCPU of the machine the benchmark was
#: built on: a 2.1 GHz Xeon VM, Python 3.11.7. A stage's reference seconds
#: are its wall seconds times this over the loop's time around the stage.
REFERENCE_CALIBRATION_S = {"interp": 0.0085, "json": 0.0115, "compile": 0.0070}

#: name -> (unit, better); the end-to-end metrics of every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_ref_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Stage -> throughput metric; each counts the stage's own work item.
STAGE_METRICS = {
    "generate": "generate_seg_per_s",
    "select": "select_cand_per_s",
    "score": "score_rows_per_s",
    "combine": "combine_rows_per_s",
    "metaeval": "metaeval_rows_per_s",
}

#: Output file key -> digest kind. The key's prefix is the stage that writes it.
OUTPUT_KINDS = {
    "generate.refs": "generation",
    "select.refs": "generation",
    "select.report": "select_report",
    "score.matrix": "matrix",
    "score.summary": "summary",
    "combine.scores": "combined",
    "combine.summary": "summary",
    "metaeval.report": "metaeval",
}


def _per_layer_spec() -> dict:
    spec = {}
    for fn in ("tokenize_words", "tokenize_chars", "tokenize_subwords"):
        spec[f"textproc.{fn}.calls"] = ("count", "lower")
        spec[f"textproc.{fn}.self_s"] = ("s", "lower")
        spec[f"textproc.{fn}.distinct_ratio"] = ("ratio", "higher")
    for fn in ("bleu_segment_stats", "chrf_segment_stats"):
        spec[f"kernels.{fn}.calls"] = ("count", "lower")
        spec[f"kernels.{fn}.self_s"] = ("s", "lower")
        spec[f"kernels.{fn}.ngrams"] = ("count", "lower")
        spec[f"kernels.{fn}.distinct_ratio"] = ("ratio", "higher")
    spec["kernels.lcs_length.calls"] = ("count", "lower")
    spec["kernels.lcs_length.self_s"] = ("s", "lower")
    spec["kernels.lcs_length.cells"] = ("count", "lower")
    spec["metrics.calls"] = ("count", "lower")
    spec["metrics.self_s"] = ("s", "lower")
    spec["diversity.self_bleu.calls"] = ("count", "lower")
    spec["diversity.self_bleu.self_s"] = ("s", "lower")
    spec["refgen.requests"] = ("count", "lower")
    spec["refgen.segments_per_request"] = ("ratio", "higher")
    spec["refgen.status_429"] = ("count", "lower")
    spec["refgen.parse_failures"] = ("count", "lower")
    spec["refgen.transport.busy_s"] = ("s", "lower")
    spec["refgen.transport.inflight_mean"] = ("count", "higher")
    spec["refgen.transport.p50_ms"] = ("ms", "lower")
    spec["refgen.transport.p90_ms"] = ("ms", "lower")
    spec["refgen.load_generation_records.self_s"] = ("s", "lower")
    spec["corpus_io.load_corpus.self_s"] = ("s", "lower")
    spec["corpus_io.merge_references.self_s"] = ("s", "lower")
    for fn in ("load_score_matrices", "combine_matrix", "write_score_matrix"):
        spec[f"combine.{fn}.self_s"] = ("s", "lower")
    spec["combine.rows_read"] = ("count", "lower")
    for fn in ("load_human_judgments", "meta_evaluate", "kendall_tau", "spearman"):
        spec[f"metaeval.{fn}.self_s"] = ("s", "lower")
    for stage in STAGE_METRICS:
        spec[f"cli.{stage}.self_s"] = ("s", "lower")
        spec[f"cli.{stage}.bytes_out"] = ("bytes", "lower")
    for metric in STAGE_METRICS.values():
        spec[metric] = ("1/s", "higher")
    spec["trace.overhead_s"] = ("s", "lower")
    return spec


#: name -> (unit, better); the per-layer metrics of every workload's traced run.
PER_LAYER = _per_layer_spec()

#: Per-layer metrics that are counts: they must repeat exactly across passes.
EXACT = {name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "ratio", "bytes")}
EXACT -= {"refgen.transport.inflight_mean", "cli.generate.bytes_out", "cli.select.bytes_out"}


# ---------------------------------------------------------------- stages


def stage_items(workload: str) -> dict:
    """Work items per pass of each stage the workload runs."""
    shape = inputs.SHAPES[workload]
    if workload == "score-multiref":
        return {"score": shape["systems"] * shape["segments"] * len(shape["metrics"])}
    if workload == "generate-select":
        return {"generate": shape["segments"], "select": shape["segments"] * shape["n_references"]}
    rows = shape["systems"] * shape["segments"] * len(shape["metrics"])
    return {"combine": rows, "metaeval": rows}


def workload_items(workload: str) -> int:
    """Items that `items_per_ref_s` counts: score rows, candidates, or matrix rows."""
    return max(stage_items(workload).values())


def plan(workload: str, paths: dict, out: Path, endpoint_url: str | None):
    """(stages for the worker, output file key -> path) of one pass."""
    shape = inputs.SHAPES[workload]
    files = {key: out / name for key, name in {
        "score-multiref": {"score.matrix": "matrix.jsonl", "score.summary": "summary.json"},
        "generate-select": {"generate.refs": "refs.jsonl", "select.refs": "refs.selected.jsonl",
                            "select.report": "select-report.json"},
        "metaeval-matrix": {"combine.scores": "combined.jsonl", "combine.summary": "combined.json",
                            "metaeval.report": "metaeval.json"},
    }[workload].items()}
    f = {key: str(path) for key, path in files.items()}
    p = {key: str(path) for key, path in paths.items()}
    if workload == "score-multiref":
        argvs = {"score": ["score", "--segments", p["segments"], "--outputs", p["outputs"],
                           "--generated-refs", p["refs"], "--refs", "both",
                           "--metrics", ",".join(shape["metrics"]), "--vocab", p["vocab"],
                           "--out", f["score.matrix"], "--summary", f["score.summary"]]}
    elif workload == "generate-select":
        argvs = {
            "generate": ["--jobs", str(shape["jobs"]), "generate", "--segments", p["segments"],
                         "--out", f["generate.refs"], "--n-references", str(shape["n_references"]),
                         "--endpoint", endpoint_url],
            "select": ["select", "--refs", f["generate.refs"], "--out", f["select.refs"],
                       "--threshold", str(shape["threshold"]), "--report", f["select.report"]],
        }
    else:
        argvs = {
            "combine": ["combine", "--matrix", p["matrix"], "--policy", "max",
                        "--out", f["combine.scores"], "--summary", f["combine.summary"]],
            "metaeval": ["metaeval", "--matrix", p["matrix"], "--human", p["human"],
                         "--out", f["metaeval.report"]],
        }
    stages = [
        {"name": name, "argv": argv, "calibration": CALIBRATION.get(name),
         "outputs": [f[key] for key in f if key.split(".")[0] == name]}
        for name, argv in argvs.items()
    ]
    return stages, files


# -------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MULTIREF_API_KEY"] = API_KEY
    return env


def measure_setup(env: dict) -> tuple[float, str]:
    """(reference seconds from spawning an interpreter to multiref.cli imported, backend).

    The spawned interpreter runs the calibration loop after the import, and
    the wall time is scaled by it like a stage's.
    """
    env = dict(env, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    stamp, calibration, backend = done.stdout.split()
    return (float(stamp) - start) * REFERENCE_CALIBRATION_S["compile"] / float(calibration), backend


class LoopbackEndpoint:
    """The endpoint process of one pass; stopped and reaped on exit."""

    def __init__(self, script: Path, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--script", str(script),
             "--delay-ms", str(delay_ms)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("loopback endpoint did not start")
        self.base = f"http://127.0.0.1:{line[1]}"
        self.url = self.base + "/v1/chat/completions"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------------ runs


class Run:
    """One workload on one seed: inputs, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.shape = inputs.SHAPES[workload]
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env()
        self.expected = self._committed_digests()
        self.reference: dict | None = None
        self.problems: list[str] = []
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0

    def _committed_digests(self) -> dict | None:
        if not DIGESTS.exists():
            return None
        committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if committed["seed"] != self.seed:
            return None
        return committed["digests"].get(self.workload)

    def execute(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        try:
            self.built = inputs.build(self.workload, self.work / "inputs", self.seed)
            modes = [False, True] if self.traced else [False]
            deadline = time.monotonic() + self.seconds
            # Set-up spawns are spread over the run, one per round, so that
            # they sample the same machine states as the passes.
            while len(self.setup_samples) < MIN_ROUNDS or time.monotonic() < deadline:
                self._setup_sample()
                for traced in modes:
                    self.passes.append(self._pass(len(self.passes), traced))
                if any(p["timed_out"] for p in self.passes):
                    break
            while len(self.setup_samples) < SETUP_SPAWNS:
                self._setup_sample()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _setup_sample(self) -> None:
        seconds, self.backend = measure_setup(self.env)
        self.setup_samples.append(seconds)

    def _pass(self, index: int, traced: bool) -> dict:
        out = self.work / f"pass{index:03d}"
        out.mkdir(parents=True)
        job_path = out / "job.json"
        paths = self.built["paths"]
        endpoint = None
        if self.workload == "generate-select":
            endpoint = LoopbackEndpoint(paths["script"], self.shape["delay_ms"])
        timed_out = False
        try:
            stages, files = plan(self.workload, paths, out, endpoint.url if endpoint else None)
            job = {"src": str(SRC), "stages": stages, "trace": traced, "result": str(out / "result.json")}
            job_path.write_text(json.dumps(job), encoding="utf-8")
            try:
                done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                      cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
                stderr = done.stderr
            except subprocess.TimeoutExpired:
                timed_out, stderr = True, "pass timed out"
            endpoint_stats = endpoint.stats() if endpoint else {}
        finally:
            if endpoint:
                endpoint.close()
        result_path = out / "result.json"
        result = json.loads(result_path.read_text()) if result_path.exists() else {"stages": []}
        record = {"traced": traced, "timed_out": timed_out, "result": result,
                  "endpoint": endpoint_stats, "generated_ok": 0}
        self._judge(record, files, stderr)
        shutil.rmtree(out)
        return record

    def _judge(self, record: dict, files: dict, stderr: str) -> None:
        """Count the pass's operations and failures, and check its outputs."""
        codes = {s["name"]: s["code"] for s in record["result"]["stages"]}
        digests = {key: digest_file(OUTPUT_KINDS[key], path) for key, path in files.items() if path.exists()}
        record["digests"] = digests
        if "generate.refs" in files and files["generate.refs"].exists():
            generated = list(read_jsonl(files["generate.refs"]))
            record["generated_ok"] = sum(r.get("error") is None for r in generated)
            self.attempted += self.shape["segments"]
            self.failed += self.shape["segments"] - record["generated_ok"]
        want = self.expected or self.reference
        first_check = self.reference is None
        for stage in stage_items(self.workload):
            self.attempted += 1
            keys = [k for k in files if k.split(".")[0] == stage]
            problems = []
            if codes.get(stage) != 0:
                problems.append(f"{stage} exited with {codes.get(stage)}: {stderr.strip()[-500:]}")
            elif want is not None:
                wrong = [k for k in keys if digests.get(k) != want.get(k)]
                if wrong:
                    source = "committed" if self.expected else "first pass"
                    problems.append(f"{stage}: digest of {', '.join(wrong)} differs from the {source} digest")
            if first_check and not problems:
                problems += self._independent_checks(stage, files, record["endpoint"])
            if problems:
                self.failed += 1
                self.problems += problems
        if first_check:
            self.reference = digests

    def _independent_checks(self, stage: str, files: dict, endpoint_stats: dict) -> list[str]:
        shape, built = self.shape, self.built
        if stage == "score":
            return checks.check_score(shape, built, files)
        if stage == "generate":
            return checks.check_generate(shape, built, files, endpoint_stats)
        if stage == "select":
            return checks.check_select(shape, built, files)
        if stage == "combine":
            return checks.check_combine(shape, built, files)
        return checks.check_metaeval(shape, built, files)

    # -- metrics ------------------------------------------------------

    def _untraced(self) -> list[dict]:
        return [p for p in self.passes if not p["traced"] and _complete(p, self.workload)]

    def stage_throughputs(self) -> dict:
        """Each stage's items per reference second, median over untraced passes."""
        items = stage_items(self.workload)
        values = {metric: 0.0 for metric in STAGE_METRICS.values()}
        for stage, count in items.items():
            seconds = [_ref_seconds(p, stage) for p in self._untraced()]
            if seconds:
                values[STAGE_METRICS[stage]] = count / statistics.median(seconds)
        return values

    def pass_throughputs(self, seconds=None) -> list[float]:
        """Workload items per reference second (or per `seconds(pass, stage)`), per untraced pass."""
        seconds = seconds or _ref_seconds
        items = workload_items(self.workload)
        return [items / sum(seconds(p, s) for s in stage_items(self.workload))
                for p in self._untraced()]

    def end_to_end(self) -> dict:
        passes = self._untraced()
        if not passes:
            return {}
        return {
            "setup_s": statistics.median(self.setup_samples),
            "items_per_ref_s": statistics.median(self.pass_throughputs()),
            "peak_rss_mb": statistics.median(p["result"]["peak_rss_kb"] / 1024 for p in passes),
        }

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p["traced"] and _complete(p, self.workload)]
        untraced = self._untraced()
        if not traced or not untraced:
            return {}
        samples = [layer_metrics(p) for p in traced]
        values = {}
        for name in samples[0]:
            series = [s[name] for s in samples]
            if name in EXACT:
                if len(set(series)) > 1:
                    self.problems.append(f"{name} differs between traced passes: {series}")
                    self.failed += 1
                values[name] = series[0]
            else:
                values[name] = statistics.median(series)
        values.update(self.stage_throughputs())
        stages = list(stage_items(self.workload))
        values["trace.overhead_s"] = (
            statistics.median(sum(_ref_seconds(p, s) for s in stages) for p in traced)
            - statistics.median(sum(_ref_seconds(p, s) for s in stages) for p in untraced)
        )
        return values


def _complete(record: dict, workload: str) -> bool:
    stages = record["result"]["stages"]
    return len(stages) == len(stage_items(workload)) and all(s["code"] == 0 for s in stages)


def _wall(record: dict, stage: str) -> float:
    return next(s["wall_s"] for s in record["result"]["stages"] if s["name"] == stage)


def _ref_seconds(record: dict, stage: str) -> float:
    """A stage's wall time scaled to the reference interpreter speed.

    On a shared host the same pass takes up to twice as long in some phases,
    which last from a fraction of a second to minutes. The calibration loop
    run around the stage slows down with it, so the scaled time stays put.
    """
    entry = next(s for s in record["result"]["stages"] if s["name"] == stage)
    if stage not in CALIBRATION:
        return entry["wall_s"]
    return entry["wall_s"] * REFERENCE_CALIBRATION_S[CALIBRATION[stage]] / entry["calibration_s"]


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced pass (throughputs and overhead excluded)."""
    trace = record["result"]["trace"]
    spans = trace["spans"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "keyed": 0, "distinct": 0,
            "raised": 0, "rows": 0}

    def span(name):
        return spans.get(name, zero)

    def ratio(s):
        return s["distinct"] / s["keyed"] if s["keyed"] else 0.0

    m = {}
    for fn in ("tokenize_words", "tokenize_chars", "tokenize_subwords"):
        s = span(f"textproc.{fn}")
        m[f"textproc.{fn}.calls"] = s["calls"]
        m[f"textproc.{fn}.self_s"] = s["self_s"]
        m[f"textproc.{fn}.distinct_ratio"] = ratio(s)
    for fn in ("bleu_segment_stats", "chrf_segment_stats"):
        s = span(f"kernels.{fn}")
        m[f"kernels.{fn}.calls"] = s["calls"]
        m[f"kernels.{fn}.self_s"] = s["self_s"]
        m[f"kernels.{fn}.ngrams"] = s["work"]
        m[f"kernels.{fn}.distinct_ratio"] = ratio(s)
    s = span("kernels.lcs_length")
    m["kernels.lcs_length.calls"] = s["calls"]
    m["kernels.lcs_length.self_s"] = s["self_s"]
    m["kernels.lcs_length.cells"] = s["work"]
    assembly = [v for k, v in spans.items() if k.startswith("metrics.")]
    m["metrics.calls"] = sum(v["calls"] for v in assembly)
    m["metrics.self_s"] = sum(v["self_s"] for v in assembly)
    s = span("diversity.self_bleu")
    m["diversity.self_bleu.calls"] = s["calls"]
    m["diversity.self_bleu.self_s"] = s["self_s"]

    requests = record["endpoint"].get("requests", 0)
    m["refgen.requests"] = requests
    m["refgen.segments_per_request"] = record["generated_ok"] / requests if requests else 0.0
    m["refgen.status_429"] = record["endpoint"].get("status_429", 0)
    m["refgen.parse_failures"] = span("refgen.parse_candidates")["raised"]
    calls = trace["intervals"].get("refgen.transport.complete", [])
    busy = union_length(calls)
    latencies = [end - start for start, end in calls]
    m["refgen.transport.busy_s"] = busy
    m["refgen.transport.inflight_mean"] = sum(latencies) / busy if busy else 0.0
    m["refgen.transport.p50_ms"] = _percentile(latencies, 50) * 1000
    m["refgen.transport.p90_ms"] = _percentile(latencies, 90) * 1000
    m["refgen.load_generation_records.self_s"] = span("refgen.load_generation_records")["self_s"]

    for fn in ("load_corpus", "merge_references"):
        m[f"corpus_io.{fn}.self_s"] = span(f"corpus_io.{fn}")["self_s"]
    for fn in ("load_score_matrices", "combine_matrix", "write_score_matrix"):
        m[f"combine.{fn}.self_s"] = span(f"combine.{fn}")["self_s"]
    m["combine.rows_read"] = span("combine.load_score_matrices")["rows"]
    for fn in ("load_human_judgments", "meta_evaluate", "kendall_tau", "spearman"):
        m[f"metaeval.{fn}.self_s"] = span(f"metaeval.{fn}")["self_s"]

    bytes_out = {s["name"]: s["bytes_out"] for s in record["result"]["stages"]}
    for stage in STAGE_METRICS:
        m[f"cli.{stage}.self_s"] = trace["stages"].get(stage, {}).get("self_s", 0.0)
        m[f"cli.{stage}.bytes_out"] = bytes_out.get(stage, 0)
    return m


# ---------------------------------------------------------------- output


def commit_id() -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_document(run: Run, metrics: dict, spec: dict) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "shape": run.shape,
        "text": inputs.TEXT,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "backend": run.backend,
        "commit": commit_id(),
        "passes": {"untraced": sum(not p["traced"] for p in run.passes),
                   "traced": sum(p["traced"] for p in run.passes)},
        "setup_samples_s": run.setup_samples,
        "stage_walls_s": [{s["name"]: s["wall_s"] for s in p["result"]["stages"]}
                          for p in run.passes if not p["traced"]],
        "calibration_s": [{s["name"]: s["calibration_s"] for s in p["result"]["stages"]}
                          for p in run.passes if not p["traced"]],
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "stage_throughputs": run.stage_throughputs(),
        "items_per_ref_s_by_pass": run.pass_throughputs(),
        "items_per_s_by_pass": run.pass_throughputs(_wall),
        "metrics": {name: {"value": value, "unit": spec[name][0]} for name, value in metrics.items()},
        "digests": run.reference,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "problems": run.problems,
    }


def print_report(run: Run, metrics: dict, spec: dict) -> None:
    mode = "traced" if run.traced else "untraced"
    print(f"== {run.workload} seed {run.seed} ({mode}, {len(run.passes)} passes, "
          f"backend {run.backend}, python {sys.version.split()[0]}, nproc {os.cpu_count()})")
    shown = dict(metrics)
    if not run.traced:
        shown.update({k: v for k, v in run.stage_throughputs().items() if v})
    for name, value in shown.items():
        unit = spec.get(name, PER_LAYER.get(name, ("", "")))[0]
        print(f"  {name:<42} {value:>14.6g} {unit}")
    raw = run.pass_throughputs(_wall)
    if not run.traced and raw:
        print(f"  {'items per wall second (unscaled)':<42} {statistics.median(raw):>14.6g} 1/s")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':<42} {ratio:>14.6g} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"  FAILED: {problem}")


def execute(workload: str, seed: int, seconds: float, traced: bool,
            update_digests: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, traced)
    if update_digests:
        run.expected = None
    run.execute()
    spec = PER_LAYER if traced else END_TO_END
    metrics = run.per_layer() if traced else run.end_to_end()
    if set(metrics) != set(spec):
        run.problems.append("no complete pass to measure")
        run.failed += 1
    print_report(run, metrics, spec)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result_document(run, metrics, spec), indent=2) + "\n")
    print(f"  result file: {path.relative_to(ROOT)}")
    return run, {name: {"value": value, "unit": spec[name][0]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multiref pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both with --workload all)")
    parser.add_argument("--update-digests", action="store_true",
                        help=f"record this run's output digests in {DIGESTS.name} (default seed only)")
    args = parser.parse_args(argv)
    if args.update_digests and args.seed != inputs.DEFAULT_SEED:
        parser.error(f"--update-digests records digests of the default seed {inputs.DEFAULT_SEED}")
    if not (SRC / "multiref" / "cli.py").is_file():
        print(f"pipebench: no package source at {SRC / 'multiref'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        traces = [args.trace] if args.trace is not None else [0, 1]
        jobs = [(w, t) for w in WORKLOADS for t in traces]
    else:
        jobs = [(args.workload, args.trace or 0)]
    attempted = failed = 0
    metrics = {}
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": args.seed, "digests": {}}
    for workload, trace in jobs:
        run, values = execute(workload, args.seed, args.seconds, bool(trace), args.update_digests)
        attempted += run.attempted
        failed += run.failed
        if args.update_digests and run.failed == 0:
            digests["digests"][workload] = run.reference
        prefix = "" if len(jobs) == 1 else f"{workload}.trace{trace}."
        metrics.update({prefix + name: value for name, value in values.items()})
    correct = failed == 0
    if args.update_digests and correct:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
