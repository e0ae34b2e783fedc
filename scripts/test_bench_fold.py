"""Self-tests of bench_fold.py: python3 -m unittest discover -s scripts -p "test_*.py"."""
import io
import json
import tempfile
import unittest
from contextlib import redirect_stderr
from pathlib import Path

import bench_fold

# every end-to-end metric of the repo's benchmark, as main() folds them
END_TO_END = json.loads(bench_fold.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
SPEC = {
    "end_to_end": [
        {"name": "op_p50_ms", "better": "lower"},
        {"name": "squares_per_s", "better": "higher"},
    ]
}


def result(workload, seed, sha, p50, rate, trace=0):
    return {
        "record": {
            "workload": workload, "seed": seed, "seconds": 20, "trace": trace,
            "nproc": 2, "cpu": "test cpu", "python": "3.11.7", "git_sha": sha,
            "src_lines": 100 if sha == "aaa" else 90,
        },
        "metrics": {
            **{m["name"]: {"value": 1.0, "unit": m["unit"]} for m in END_TO_END},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "squares_per_s": {"value": rate, "unit": "1/s"},
        },
    }


class FoldTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = Path(self.dir.name) / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def sides(self, seeds=(1, 2, 3, 4, 5)):
        parent = [self.write(f"p{s}.json", result("census", s, "aaa", 100 + s, 10 * s)) for s in seeds]
        change = [self.write(f"c{s}.json", result("census", s, "bbb", 50 + s, 30 * s)) for s in seeds]
        return parent, change

    def test_summary_quartiles(self):
        self.assertEqual(
            bench_fold.summary([1, 2, 3, 4, 5]),
            {"median": 3, "q1": 2.0, "q3": 4.0, "iqr": 2.0},
        )
        self.assertEqual(bench_fold.summary([7]), {"median": 7, "q1": 7, "q3": 7, "iqr": 0})

    def test_fold_pairs_runs_by_seed(self):
        parent, change = self.sides()
        folded = bench_fold.fold(12, parent, change[::-1], SPEC)
        self.assertEqual(folded["parent"], {"git_sha": "aaa", "src_lines": 100})
        self.assertEqual(folded["change"], {"git_sha": "bbb", "src_lines": 90})
        self.assertEqual(folded["machine"], {"cpu": "test cpu", "nproc": 2})
        census = folded["workloads"]["census"]
        self.assertEqual(census["pairs"], 5)
        self.assertEqual(census["runs"][0]["seed"], 1)
        self.assertEqual(census["runs"][0]["parent"]["op_p50_ms"], 101)
        self.assertEqual(census["runs"][0]["change"]["squares_per_s"], 30)
        rate = census["metrics"]["squares_per_s"]
        self.assertEqual(rate["parent"]["median"], 30)
        self.assertEqual(rate["change"]["median"], 90)
        self.assertEqual(rate["change_over_parent"], 3.0)
        self.assertEqual(rate["change_better_in"], "5/5")
        self.assertEqual(census["metrics"]["op_p50_ms"]["change_better_in"], "5/5")

    def test_unpaired_and_traced_runs_are_refused(self):
        parent, change = self.sides()
        with self.assertRaisesRegex(ValueError, "without a partner"):
            bench_fold.fold(12, parent, change[:-1], SPEC)
        traced = self.write("t.json", result("census", 9, "bbb", 1, 1, trace=1))
        with self.assertRaisesRegex(ValueError, "trace 1"):
            bench_fold.fold(12, parent, change + [traced], SPEC)

    def test_main_writes_file_and_exits_2_on_error(self):
        parent, change = self.sides()
        out = Path(self.dir.name) / "BENCH_12.json"
        argv = ["--pr", "12", "--out", str(out), "--parent", *parent]
        self.assertEqual(bench_fold.main(argv + ["--change", *change]), 0)
        folded = json.loads(out.read_text())
        self.assertEqual(folded["pr"], 12)
        self.assertEqual(
            sorted(folded["workloads"]["census"]["metrics"]),
            sorted(m["name"] for m in END_TO_END),
        )
        with redirect_stderr(io.StringIO()) as err:
            self.assertEqual(bench_fold.main(argv + ["--change", *change[:2]]), 2)
        self.assertIn("without a partner", err.getvalue())

    def test_traced_runs_go_side_by_side(self):
        parent, change = self.sides()
        out = Path(self.dir.name) / "BENCH_12.json"
        argv = ["--pr", "12", "--out", str(out), "--parent", *parent, "--change", *change]
        p = self.write("tp.json", result("census", 9, "aaa", 7, 1, trace=1))
        c = self.write("tc.json", result("census", 9, "bbb", 3, 1, trace=1))
        p2 = self.write("tp2.json", result("census", 10, "aaa", 8, 1, trace=1))
        c2 = self.write("tc2.json", result("census", 10, "bbb", 4, 1, trace=1))
        self.assertEqual(bench_fold.main(argv + ["--traced", p, c, "--traced", p2, c2]), 0)
        first, second = json.loads(out.read_text())["traced"]["census"]
        self.assertEqual(first["seed"], 9)
        self.assertEqual(first["metrics"]["op_p50_ms"], {"unit": "ms", "parent": 7, "change": 3})
        self.assertEqual(second["seed"], 10)
        self.assertEqual(second["metrics"]["op_p50_ms"], {"unit": "ms", "parent": 8, "change": 4})
        with redirect_stderr(io.StringIO()) as err:
            self.assertEqual(bench_fold.main(argv + ["--traced", p, parent[0]]), 2)
        self.assertIn("one --trace 1 run", err.getvalue())


if __name__ == "__main__":
    unittest.main()
