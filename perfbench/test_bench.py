#!/usr/bin/env python3
"""Tests of the benchmark's own code.  Run from the checkout root:

    python3 perfbench/test_bench.py

The last test runs every workload briefly on a seed the benchmark is not
tuned on, so the whole file takes a few minutes.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TEST_DIR = os.path.join(run.WORK, "test")


def setUpModule():
    run.build()
    shutil.rmtree(TEST_DIR, ignore_errors=True)
    os.makedirs(TEST_DIR)


def tearDownModule():
    shutil.rmtree(TEST_DIR, ignore_errors=True)


def gen(workload, seed):
    d = os.path.join(TEST_DIR, f"{workload}-{seed}-{random.getrandbits(32):08x}")
    os.makedirs(d)
    run.helper("gen", workload, seed, d)
    return d


def fake_run(workload, classes=None):
    """A run result whose op classes have distinct latencies."""
    if classes is None:
        classes = set(run.OP_CLASSES[workload].values()) | {"fragment", "update", "bulk_update",
                                                             "validate", "neighborhood"}
    samples = {cls: [1000.0 * (i + 1)] * 11 for i, cls in enumerate(sorted(classes))}
    return dict(samples=samples, setups=[1.0], peak_rss_mb=1.0, elapsed=1.0,
                results=[(0, "fragment", 1.0, True, 0.0)])


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Tail(unittest.TestCase):
    def test_ten_beyond(self):
        rng = random.Random(0)
        for n in range(11, 300):
            xs = [rng.random() for _ in range(n)]
            value, pct, count = run.tail(xs)
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for x in xs if x > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_too_few_samples(self):
        for n in range(0, 11):
            self.assertIsNone(run.tail(list(range(n))))


class Sequences(unittest.TestCase):
    def test_deterministic_and_seeded(self):
        for workload, files in (("cli", ["data.ttl", "shapes.ttl"]),
                                ("serve-read", ["data.ttl", "ops.tsv"]),
                                ("serve-update", ["data.ttl", "shapes.ttl", "ops.tsv"])):
            a, b, c = gen(workload, 5), gen(workload, 5), gen(workload, 6)
            for f in files:
                self.assertEqual(read(os.path.join(a, f)), read(os.path.join(b, f)), f"{workload} {f}")
            self.assertNotEqual(read(os.path.join(a, "data.ttl")), read(os.path.join(c, "data.ttl")))
            if workload != "cli":
                self.assertNotEqual(read(os.path.join(a, "ops.tsv")), read(os.path.join(c, "ops.tsv")))

    def test_read_mix_is_the_same_for_every_seed(self):
        def mix(d):
            counts = {}
            for cls, _, req in run.load_ops(d):
                key = (cls, json.loads(req).get("shapes", [json.loads(req).get("shape")])[0])
                counts[key] = counts.get(key, 0) + 1
            return counts
        self.assertEqual(mix(gen("serve-read", 5)), mix(gen("serve-read", 6)))

    def test_updates_revert_at_every_safe_point(self):
        ops = run.load_ops(gen("serve-update", 5))
        pending = []
        for cls, safe, req in ops:
            if cls.endswith("update"):
                op = json.loads(req)
                if op.get("remove"):
                    pending.append(op["remove"])
                else:
                    self.assertEqual(pending.pop(), op["add"])
            if safe:
                self.assertEqual(pending, [])
        self.assertTrue(any(c == "bulk_update" for c, _, _ in ops))


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names(self):
        names = ([m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
                 + [w["name"] for w in self.bench["workloads"]]
                 + list(run.END_TO_END) + list(run.PER_LAYER))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(m["name"] for m in self.bench["per_layer"])),
                         len(self.bench["per_layer"]))

    def test_every_per_layer_metric_has_a_prediction(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.LISTED)
        self.assertLess(set(run.LISTED), set(run.WORKLOADS))
        with open(os.path.join(run.HERE, "predictions.json")) as f:
            predictions = json.load(f)["per_layer"]
        self.assertEqual(set(predictions), set(run.PER_LAYER))
        reported = {w: {row[0] for row in run.issue_metrics(w, fake_run(w))} for w in run.WORKLOADS}
        for targets in predictions.values():
            for t in targets:
                metric, workload = t.split(" ")[0].split("@")
                self.assertIn(workload, run.WORKLOADS)
                if workload not in run.LISTED:
                    self.assertTrue(t.endswith("(report only)"), t)
                if t.endswith("(report only)"):
                    self.assertIn(metric, reported[workload])
                else:
                    self.assertIn(metric, run.END_TO_END)

    def test_no_latency_metric_mixes_op_classes(self):
        classes = {"cli": {"fragment", "validate"}}
        for w in ("serve-read", "serve-update"):
            classes[w] = {cls for cls, _, _ in run.load_ops(gen(w, 5))}
        for w, roles in run.OP_CLASSES.items():
            latency = [m for m in run.END_TO_END if m.endswith("_ms")]
            self.assertEqual(sorted(roles), sorted(latency))
            for metric, cls in roles.items():
                self.assertIn(cls, classes[w])
            # a run whose classes have disjoint latencies: each metric
            # must read only its own class
            r = fake_run(w, classes[w])
            e2e = run.end_to_end(w, r)
            for metric, cls in roles.items():
                self.assertEqual(e2e[metric], r["samples"][cls][0])


class Gates(unittest.TestCase):
    def test_read_gate_rejects_a_wrong_reply(self):
        d = gen("serve-read", 5)
        req = next(req for cls, _, req in run.load_ops(d) if cls == "fragment")
        pairs = os.path.join(d, "pairs.tsv")
        with open(pairs, "w") as f:
            f.write(req + '\t{"status":"ok","op":"fragment","triples":0,"turtle":""}\n')
        with self.assertRaises(run.BenchError):
            run.helper("check-read", d, pairs)

    def test_journal_gate_rejects_a_missing_update(self):
        d = gen("serve-update", 5)
        j = os.path.join(d, "journal")
        os.makedirs(j)
        with self.assertRaises(run.BenchError):
            run.helper("check-journal", d, j, 3)

    def test_second_seed_passes_every_gate(self):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                    "--workload", workload, "--seed", "9",
                                    "--seconds", "3", "--trace", trace],
                                   cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                self.assertEqual(p.returncode, 0, p.stderr.decode())
                result = json.loads(p.stdout.decode().strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                want = run.PER_LAYER if trace == "1" else run.END_TO_END
                self.assertEqual(set(result["metrics"]), set(want))
                if trace == "0":
                    for m in result["metrics"].values():
                        self.assertGreater(m["value"], 0)


if __name__ == "__main__":
    unittest.main()
