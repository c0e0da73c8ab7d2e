#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Checks BENCHMARK.json against the limits the benchmark contract sets, runs
every workload briefly (untraced and traced) through run.py, and asserts
that each prints exactly the declared metrics, reports no failed
operation, repeats its work counts exactly for one seed, and still gets
the inputs it got when the benchmark was defined.  Builds the measuring
program first if needed; takes about a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Input digests at SEED (inputs.h).  The inputs come from generators under
# bench/, tests/, src/apps and src/sim; when one of them changes what the
# benchmark measures, this pin fails, and timings from before and after the
# change are not comparable.  Update it only together with that change.
SEED = 11
PINNED_INPUTS = {
    "fig10": {"deadlock.digest": "f4cf04ddb43d061e",
              "races.digest": "f325b8206394c323",
              "atomicity.digest": "23b7afa9db487879",
              "ordering.digest": "49378578b17713f1"},
    "multi_pattern": {"multi_pattern.digest": "683d610795d134b4"},
    "serve_durable": {"tenants.digest": "cb8abb1c62dcd988"},
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def parse(done):
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["fig10", "multi_pattern", "serve_durable"])
        for workload in spec["workloads"]:
            self.assertEqual(sorted(workload), ["name", "why"])
            self.assertLessEqual(len(workload["why"]), 200)
        seen = set(names)
        for metric in spec["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name",
                                              "unit"])
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            self.assertNotIn(metric["name"], seen)
            seen.add(metric["name"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for path in spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))

    def test_refuses_without_sources(self):
        """Given only BENCHMARK.json and perfbench/, the run fails fast and
        prints no result."""
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("fig10", 1, 0, cwd=alone)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(alone, ignore_errors=True)


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for metric in declared:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])

    def test_workloads(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            with self.subTest(workload=workload):
                first = run(workload, SEED, 0)
                self.assertEqual(first.returncode, 0, first.stderr[-2000:])
                report, result = parse(first)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, spec["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

                digests = {key: value
                           for key, value in report["inputs"].items()
                           if key.endswith(".digest")}
                self.assertEqual(digests, PINNED_INPUTS[workload])

                again_report, again = parse(run(workload, SEED, 0))
                self.assertEqual(again_report["work"], report["work"])
                self.assertEqual(
                    again_report["provenance"]["source"],
                    report["provenance"]["source"])

                traced = run(workload, SEED, 1)
                self.assertEqual(traced.returncode, 0, traced.stderr[-2000:])
                traced_report, traced_result = parse(traced)
                self.check_metrics(traced_result, spec["per_layer"])
                self.assertEqual(traced_report["work"], report["work"])
                self.assertTrue(os.path.isfile(traced_report["trace_file"]))

                # Correctness last, so that a failing check still lets the
                # assertions above run.
                for checked, rep in ((result, report), (again, again_report),
                                     (traced_result, traced_report)):
                    self.assertEqual(checked["failed"], 0, rep["failures"])
                    self.assertTrue(checked["correct"])


if __name__ == "__main__":
    unittest.main()
