"""Self-tests of the benchmark: the gate catches wrong output, the reference data
agrees with itself, workloads are seeded, and the harness needs only the
standard library.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""
from __future__ import annotations

import ast
import itertools
import json
import sys
import unittest
from collections import Counter
from pathlib import Path

import gate
import run
from reference import CENSUS, GOLDENS, ORACLE, evaluate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
GOLDEN_PATHS = {name: f"golden_{name}.txt" for name in GOLDENS}


GOLDEN_FAMILIES = {
    "e3_reflect": "e3.reflect",
    "e4_block": "e4.block",
    "e4_interleave": "e4.interleave",
    "e4_rotated": "e4.rotated",
    "e5_center_a": "e5.center",
    "e5_center_b": "e5.center",
    "e5_rotated": "e5.rotated",
}


def _grid(cells) -> str:
    return "\n".join(" ".join(map(str, row)) for row in cells)


def _images(cells) -> list:
    images = []
    for _ in range(4):
        images += [cells, tuple(row[::-1] for row in cells)]
        cells = tuple(zip(*cells[::-1]))
    return images


class GateTest(unittest.TestCase):
    def test_flags_a_tampered_census_count(self):
        text = "family: e4.diag\nassignments: 576\ndistinct squares: 576\ndistinct squares up to symmetry: 144\n"
        check = gate.expect_census(("e4.diag", "c"), "text")
        self.assertEqual(check(0, text, ""), 576)
        with self.assertRaises(gate.GateError):
            check(0, text.replace("576", "575", 1), "")
        structured = {"family": "e5.diag", "assignments_total": 14400,
                      "squares_distinct": 14400, "squares_distinct_dihedral": 3600}
        check = gate.expect_census(("e5.diag", "c"), "structured")
        self.assertEqual(check(0, json.dumps(structured), ""), 14400)
        with self.assertRaises(gate.GateError):
            check(0, json.dumps({**structured, "squares_distinct_dihedral": 3599}), "")

    def test_flags_a_tampered_oracle_count(self):
        check = gate.expect_oracle(4, "text", count_only=True)
        self.assertEqual(check(0, "order: 4\nsquares: 7040\n", ""), 7040)
        with self.assertRaises(gate.GateError):
            check(0, "order: 4\nsquares: 7041\n", "")

    def test_flags_a_non_magic_square(self):
        lo_shu = GOLDENS["e3_reflect"]
        swapped = ((9, 2, 4),) + lo_shu[1:]
        check = gate.expect_square(lo_shu, "text")
        self.assertEqual(check(0, _grid(lo_shu), ""), 1)
        with self.assertRaises(gate.GateError):
            check(0, _grid(swapped), "")
        listing = gate.expect_oracle(3, "text", count_only=False)
        images = _images(lo_shu)
        self.assertEqual(listing(0, "\n\n".join(map(_grid, images)), ""), 8)
        with self.assertRaises(gate.GateError):
            listing(0, "\n\n".join(map(_grid, images[:-1] + [swapped])), "")

    def test_flags_a_wrong_verdict_or_exit_code(self):
        self.assertEqual(gate.verdict(((2, 9, 4), (6, 1, 8), (7, 5, 3))), "SemiMagic")
        self.assertEqual(gate.verdict(((2, 9, 4), (7, 5, 3), (6, 1, 2))), "NotMagic")
        report = "order: 3\nexpected sum: 15\nverdict: Magic\nbijection: ok\nviolations: (none)\n"
        check = gate.expect_report(GOLDENS["e3_reflect"], "text")
        self.assertEqual(check(0, report, ""), 1)
        with self.assertRaises(gate.GateError):
            check(1, report, "")
        with self.assertRaises(gate.GateError):
            gate.expect_error(2)(2, "", "Traceback (most recent call last):\n")


class ReferenceTest(unittest.TestCase):
    def test_census_table_matches_the_transcribed_figures(self):
        for key, (total, distinct, classes) in CENSUS.items():
            squares = {evaluate(key, l, g) for l, g in gate.valid_assignments(key)}
            self.assertEqual((len(gate.valid_assignments(key)), len(squares)), (total, distinct), key)
            self.assertEqual(len(gate.family_classes(key)), classes, key)

    def test_goldens_come_from_their_figures(self):
        for name, family in GOLDEN_FAMILIES.items():
            key = (family, "c")
            squares = {evaluate(key, l, g) for l, g in gate.valid_assignments(key)}
            self.assertIn(GOLDENS[name], squares, name)
        self.assertEqual(gate.verdict(GOLDENS["e6_editor"]), "Magic")

    def test_oracle_table(self):
        self.assertEqual(ORACLE[3], (8, 1))
        self.assertEqual(ORACLE[4], (7040, 880))


class WorkloadTest(unittest.TestCase):
    def _ops(self, name, seed, blocks=3):
        generator, _ = WORKLOADS[name]
        return [list(block) for block in itertools.islice(generator(seed, GOLDEN_PATHS), blocks)]

    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            first = [(op.argv, op.stdin) for block in self._ops(name, 7) for op in block]
            again = [(op.argv, op.stdin) for block in self._ops(name, 7) for op in block]
            other = [(op.argv, op.stdin) for block in self._ops(name, 8) for op in block]
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_every_block_has_the_same_mix(self):
        for name in WORKLOADS:
            mixes = [Counter(op.argv[0] for op in block) for block in self._ops(name, 3)]
            self.assertTrue(all(mix == mixes[0] for mix in mixes), name)

    def test_interactive_leaves_out_inputs_about_to_change(self):
        for op in (op for block in self._ops("interactive", 5, blocks=20) for op in block):
            self.assertFalse(op.argv[0] == "constraints" and "e6.paired" in op.argv, op.argv)
            if op.stdin.lstrip().startswith("{"):
                try:
                    doc = json.loads(op.stdin)
                except json.JSONDecodeError:
                    continue
                self.assertNotIsInstance(doc.get("order"), bool)
                for field in ("latin_values", "greek_values"):
                    self.assertTrue(all(type(v) is int for v in doc.get(field, [])))
            for flag in ("--latin", "--greek"):
                if flag in op.argv:
                    value = op.argv[op.argv.index(flag) + 1]
                    self.assertTrue(all(part.lstrip("-").isdigit() for part in value.split(",")), value)


class ScalingTest(unittest.TestCase):
    def test_percentile_is_a_weighted_mean_of_the_samples(self):
        self.assertAlmostEqual(run.percentile([7.0] * 13, 0.9), 7.0)
        self.assertAlmostEqual(run.percentile([3.0], 0.5), 3.0)
        self.assertAlmostEqual(run.percentile(list(range(1, 22)), 0.5), 11.0)
        self.assertAlmostEqual(run.beta_cdf(2, 3, 0.5), 0.6875)
        low, high = run.percentile(list(range(100)), 0.5), run.percentile(list(range(100)), 0.9)
        self.assertTrue(48 < low < 51 and 88 < high < 91, (low, high))

    def test_timings_are_scaled_by_the_probe_around_them(self):
        timing = (10.0, 12.0, 2.0)
        at_reference = [(t / 10, run.REFERENCE_START_S) for t in range(300)]
        self.assertAlmostEqual(run.adjusted(at_reference, timing), 2.0)
        # Bare starts ran twice as slow around the timing, and at reference speed far from it.
        slow = [(t / 10, run.REFERENCE_START_S * (2 if 9 <= t / 10 <= 13 else 1)) for t in range(300)]
        self.assertAlmostEqual(run.adjusted(slow, timing), 1.0)
        # A probe that fell behind: its nearest timings stand in.
        sparse = [(0.0, 4 * run.REFERENCE_START_S)] * 3 + [(30.0, run.REFERENCE_START_S)]
        self.assertAlmostEqual(run.adjusted(sparse, timing), 0.5)


class ImportTest(unittest.TestCase):
    def test_harness_imports_only_the_standard_library(self):
        local = {path.stem for path in HERE.glob("*.py")}
        for path in HERE.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    # run.py imports the program under test for the traced replay.
                    allowed = top in sys.stdlib_module_names or top in local or (
                        top == "latinmagic" and path.name == "run.py"
                    )
                    self.assertTrue(allowed, f"{path.name} imports {name}")


if __name__ == "__main__":
    unittest.main()
