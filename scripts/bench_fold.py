"""Fold perfbench result files of a parent and a change into one BENCH_<pr>.json.

    python3 scripts/bench_fold.py --pr N --out BENCH_N.json \
        --parent PARENT_DIR/result-*-trace0.json \
        --change CHANGE_DIR/result-*-trace0.json \
        [--traced PARENT_DIR/result-census-seedN-trace1.json CHANGE_DIR/...]

Each input is a `perfbench/out/result-<workload>-seed<N>-trace0.json` file
that `perfbench/run.py --trace 0` writes.  Runs pair up by workload and seed;
every seed must have run on both sides, and all runs must come from one
machine and one Python.  For each workload and each end-to-end metric of
the repo's BENCHMARK.json the output gives the median, quartiles and IQR on
each side, the ratio of the medians (change over parent) and in how many
pairs the change was better, plus every pair's values.  Each --traced pair
of `--trace 1` result files, one run of one workload and seed per side, adds
its per-layer metrics side by side to that workload's list under "traced",
in the order given.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile and IQR (inclusive method)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _same(records: list[dict], key: str, side: str):
    values = {record[key] for record in records}
    if len(values) != 1:
        raise ValueError(f"{side} runs differ in {key}: {sorted(map(str, values))}")
    return values.pop()


def load(paths: list[str]) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> result, from --trace 0 result files."""
    runs = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        record = result["record"]
        if record["trace"] != 0:
            raise ValueError(f"{path}: a --trace 1 run has no end-to-end metrics")
        key = (record["workload"], record["seed"])
        if key in runs:
            raise ValueError(f"{path}: workload {key[0]} seed {key[1]} appears twice")
        runs[key] = result
    return runs


def fold(pr: int, parent_paths: list[str], change_paths: list[str], spec: dict) -> dict:
    parent, change = load(parent_paths), load(change_paths)
    if set(parent) != set(change):
        unpaired = sorted(set(parent) ^ set(change))
        raise ValueError(f"runs without a partner (workload, seed): {unpaired}")
    if not parent:
        raise ValueError("no runs to fold")
    records = {
        "parent": [r["record"] for r in parent.values()],
        "change": [r["record"] for r in change.values()],
    }
    both = records["parent"] + records["change"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(seed for w, seed in parent if w == workload)
        pairs = [
            {
                "seed": seed,
                **{
                    side: {
                        name: metric["value"]
                        for name, metric in runs[(workload, seed)]["metrics"].items()
                    }
                    for side, runs in (("parent", parent), ("change", change))
                },
            }
            for seed in seeds
        ]
        metrics = {}
        for name, direction in better.items():
            old = [pair["parent"][name] for pair in pairs]
            new = [pair["change"][name] for pair in pairs]
            wins = sum(
                (n < o) if direction == "lower" else (n > o) for o, n in zip(old, new)
            )
            metrics[name] = {
                "better": direction,
                "parent": summary(old),
                "change": summary(new),
                "change_over_parent": statistics.median(new) / statistics.median(old),
                "change_better_in": f"{wins}/{len(pairs)}",
            }
        workloads[workload] = {"pairs": len(pairs), "metrics": metrics, "runs": pairs}
    return {
        "pr": pr,
        "machine": {
            "cpu": _same(both, "cpu", "all"),
            "nproc": _same(both, "nproc", "all"),
        },
        "python": _same(both, "python", "all"),
        "seconds": _same(both, "seconds", "all"),
        **{
            side: {
                "git_sha": _same(records[side], "git_sha", side),
                "src_lines": _same(records[side], "src_lines", side),
            }
            for side in ("parent", "change")
        },
        "workloads": workloads,
    }


def traced(parent_path: str, change_path: str) -> tuple[str, dict]:
    """(workload, per-layer metrics of both sides) from two --trace 1 result files."""
    parent, change = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in (parent_path, change_path)
    )
    keys = [(r["record"]["workload"], r["record"]["seed"], r["record"]["trace"]) for r in (parent, change)]
    if keys[0] != keys[1] or keys[0][2] != 1:
        raise ValueError(f"--traced needs one --trace 1 run of one workload and seed per side, got {keys}")
    return keys[0][0], {
        "seed": keys[0][1],
        "metrics": {
            name: {
                "unit": metric["unit"],
                "parent": metric["value"],
                "change": change["metrics"][name]["value"],
            }
            for name, metric in parent["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True, help="the parent's result files")
    parser.add_argument("--change", nargs="+", required=True, help="the change's result files")
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    parser.add_argument(
        "--traced", nargs=2, action="append", default=[], metavar=("PARENT", "CHANGE"),
        help="a --trace 1 result file of each side, for one workload and seed",
    )
    args = parser.parse_args(argv)
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        folded = fold(args.pr, args.parent, args.change, spec)
        if args.traced:
            folded["traced"] = {}
            for pair in args.traced:
                workload, runs = traced(*pair)
                folded["traced"].setdefault(workload, []).append(runs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: a result or benchmark file lacks the key {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(folded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
