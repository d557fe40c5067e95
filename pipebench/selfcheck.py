#!/usr/bin/env python3
"""Self-checks of the benchmark's own code.

    python3 pipebench/selfcheck.py

Covers generator determinism, digest invariance, wrapper restoration, traced
against untraced outputs, exact repetition of traced counts, and agreement of
BENCHMARK.json with the metrics run.py reports. Scratch files go under
``.pipebench/selfcheck`` in the repository.
"""

import importlib
import json
import random
import shutil
import subprocess
import sys
import time
import unittest

import inputs
import run
from digest import digest_file
from tracer import WRAP_POINTS, Tracer, union_length

SCRATCH = run.WORK / "selfcheck"


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    sys.path.insert(0, str(run.SRC))


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in inputs.SHAPES:
            with self.subTest(workload=workload):
                first = SCRATCH / f"gen-{workload}-a"
                again = SCRATCH / f"gen-{workload}-b"
                other = SCRATCH / f"gen-{workload}-c"
                inputs.build(workload, first, 7)
                inputs.build(workload, again, 7)
                inputs.build(workload, other, 8)
                self.assertEqual(_files(first), _files(again))
                a, c = _files(first), _files(other)
                self.assertEqual(sorted(a), sorted(c))
                self.assertTrue(all(a[name] != c[name] for name in a))


class DigestTest(unittest.TestCase):
    def write(self, name, records, jsonl=True):
        path = SCRATCH / name
        with open(path, "w", encoding="utf-8") as handle:
            if jsonl:
                handle.writelines(json.dumps(r) + "\n" for r in records)
            else:
                json.dump(records, handle)
        return path

    def test_generation_ignores_timestamp_order_and_unknown_keys(self):
        records = [
            {"segment_id": f"s{i}", "prompt_used": "p", "raw_response": "r",
             "candidates": [f"a{i}", f"b{i}"], "attempt_count": 1,
             "timestamp": f"2024-01-01T00:00:0{i}+00:00", "error": None}
            for i in range(5)
        ]
        base = digest_file("generation", self.write("gen-a.jsonl", records))
        shuffled = [dict(r, timestamp="2030-01-01T00:00:00+00:00", signature={"v": 1}) for r in records]
        random.Random(1).shuffle(shuffled)
        self.assertEqual(base, digest_file("generation", self.write("gen-b.jsonl", shuffled)))
        changed = [dict(r) for r in records]
        changed[2]["candidates"] = ["a2", "c2"]
        self.assertNotEqual(base, digest_file("generation", self.write("gen-c.jsonl", changed)))

    def test_matrix_and_metaeval_ignore_order_and_unknown_keys(self):
        rows = [{"system": s, "segment": g, "metric": "bleu", "scores": {"all": i + 0.5}}
                for i, (s, g) in enumerate([("a", "1"), ("a", "2"), ("b", "1")])]
        base = digest_file("matrix", self.write("m-a.jsonl", rows))
        extra = [dict(r, stats={"calls": 3}) for r in reversed(rows)]
        self.assertEqual(base, digest_file("matrix", self.write("m-b.jsonl", extra)))
        rows[1]["scores"]["all"] = 9.25
        self.assertNotEqual(base, digest_file("matrix", self.write("m-c.jsonl", rows)))

        reports = [{"metric": m, "name": None, "pairwise_accuracy": 0.5, "n_pairs_used": 4,
                    "pearson": 0.1, "kendall": None, "spearman": None, "n_systems": 3,
                    "n_segments": 2} for m in ("x", "y")]
        base = digest_file("metaeval", self.write("r-a.json", reports, jsonl=False))
        signed = [dict(r, signature="multiref 0.1.0") for r in reversed(reports)]
        self.assertEqual(base, digest_file("metaeval", self.write("r-b.json", signed, jsonl=False)))


class TracerTest(unittest.TestCase):
    def originals(self):
        found = {}
        for module_name, owner_name, attr, _span, _options in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            found[(module_name, owner_name, attr)] = (owner, vars(owner)[attr])
        return found

    def test_install_wraps_and_uninstall_restores_every_name(self):
        before = self.originals()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            for (_module, _owner, attr), (owner, original) in before.items():
                self.assertIsNot(vars(owner)[attr], original)
        finally:
            tracer.uninstall()
        for (_module, _owner, attr), (owner, original) in before.items():
            self.assertIs(vars(owner)[attr], original)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            inner()
            inner()

        outer = tracer.wrap("outer", outer_body)
        with tracer.stage("stage"):
            outer()
        report = tracer.report()
        self.assertEqual(report["spans"]["inner"]["calls"], 2)
        self.assertLess(report["spans"]["outer"]["self_s"], 0.01)
        self.assertGreater(report["spans"]["outer"]["total_s"], 0.04)
        self.assertLess(report["stages"]["stage"]["self_s"], 0.01)

    def test_union_length(self):
        self.assertAlmostEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(union_length([]), 0.0)


class TracedRunTest(unittest.TestCase):
    def run_worker(self, workload, built, traced):
        out = SCRATCH / f"{workload}-{'traced' if traced else 'plain'}"
        out.mkdir(parents=True)
        stages, files = run.plan(workload, built["paths"], out, None)
        job = {"src": str(run.SRC), "stages": stages, "trace": traced, "result": str(out / "result.json")}
        (out / "job.json").write_text(json.dumps(job))
        subprocess.run([sys.executable, str(run.HERE / "worker.py"), str(out / "job.json")],
                       cwd=run.ROOT, env=run.child_env(), stdout=subprocess.DEVNULL, check=True,
                       timeout=run.PASS_TIMEOUT_S)
        result = json.loads((out / "result.json").read_text())
        self.assertTrue(all(s["code"] == 0 for s in result["stages"]), result)
        return {key: path.read_bytes() for key, path in files.items()}, result

    def test_traced_outputs_are_byte_identical(self):
        for workload in ("score-multiref", "metaeval-matrix"):
            with self.subTest(workload=workload):
                built = inputs.build(workload, SCRATCH / f"in-{workload}", inputs.DEFAULT_SEED)
                plain, _ = self.run_worker(workload, built, traced=False)
                traced, result = self.run_worker(workload, built, traced=True)
                self.assertEqual(plain, traced)
                self.assertEqual(result["trace"]["missing"], [])

    def test_traced_counts_repeat_and_match_untraced_digests(self):
        bench = run.Run("generate-select", inputs.DEFAULT_SEED, 0, traced=True)
        bench.work = SCRATCH / "generate-select-run"
        bench.execute()
        layers = bench.per_layer()
        self.assertEqual(sum(p["traced"] for p in bench.passes), run.MIN_ROUNDS)
        self.assertEqual(bench.problems, [])
        self.assertEqual(bench.failed, 0)
        shape = inputs.SHAPES["generate-select"]
        self.assertEqual(layers["refgen.status_429"], shape["fault_429"])
        self.assertEqual(layers["refgen.parse_failures"], shape["fault_short"])
        self.assertEqual(layers["refgen.requests"],
                         shape["segments"] + shape["fault_429"] + shape["fault_short"])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.SHAPES))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
