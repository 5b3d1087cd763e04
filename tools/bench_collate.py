"""Collate perfbench results of a parent and a change checkout into BENCH_<label>.json.

    python3 tools/bench_collate.py --parent ../parent --change . --label lean-tables

Reads every ``.bench_out/results/<workload>-<seed>-t0.json`` that
``perfbench/run.py --trace 0`` left in each checkout. For each side and
workload it writes the seeds, the count of failed operations and the median
and quartiles (q1, q3) of each end-to-end metric named in ``BENCHMARK.json``,
plus the change/parent ratio of those medians, to BENCH_<label>.json in the
current directory. A workload with seeds run on both sides is summarized
over those seeds only; ``pairs`` lists them, the seeds found on one side
only (``unpaired``, left out of every figure) and, per metric, in how many
seed pairs the change reads better than the parent in the metric's
``better`` direction (a tie counts for neither). Each side's commit is ``git
describe --always --dirty`` of its checkout (``-dirty`` marks uncommitted
changes), or null outside a git checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"(?P<workload>.+)-(?P<seed>\d+)-t0\.json")


def end_to_end_metrics() -> dict[str, str]:
    """Name -> better direction ("lower" or "higher") of each end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def commit_of(checkout: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
            capture_output=True, text=True,
        )
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def read_runs(checkout: Path) -> dict[str, dict[int, dict]]:
    """The untraced result of each workload and seed in one checkout."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((checkout / ".bench_out" / "results").glob("*-t0.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match:
            detail = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], {})[int(match["seed"])] = detail
    return runs


def summarize(runs: dict[int, dict], metrics: dict[str, str]) -> dict:
    """Seeds, failed count and metric median and quartiles of one workload."""
    seeds = sorted(runs)
    values = {name: [runs[seed]["metrics"][name][0] for seed in seeds] for name in metrics}
    # linear interpolation between order statistics; one run is its own quartiles
    quartiles = {name: np.percentile(v, [25, 75]).tolist() for name, v in values.items()}
    return {
        "seeds": seeds,
        "failed": sum(runs[seed]["failed"] for seed in seeds),
        "median": {name: statistics.median(v) for name, v in values.items()},
        "q1": {name: q[0] for name, q in quartiles.items()},
        "q3": {name: q[1] for name, q in quartiles.items()},
    }


def change_wins(parent: dict[int, dict], change: dict[int, dict], metrics: dict[str, str]) -> dict:
    """Seeds run on both sides, seeds run on one side only and, per metric,
    the pairs the change wins."""
    seeds = sorted(parent.keys() & change.keys())
    unpaired = {"parent": sorted(parent.keys() - change.keys()),
                "change": sorted(change.keys() - parent.keys())}
    wins = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        wins[name] = sum(
            sign * (change[seed]["metrics"][name][0] - parent[seed]["metrics"][name][0]) > 0
            for seed in seeds
        )
    return {"seeds": seeds, "unpaired": unpaired, "change_wins": wins}


def collate(parent: Path, change: Path, label: str) -> dict:
    metrics = end_to_end_metrics()
    runs = {"parent": read_runs(parent), "change": read_runs(change)}
    both = sorted(w for w in runs["parent"].keys() & runs["change"].keys()
                  if runs["parent"][w].keys() & runs["change"][w].keys())
    pairs = {w: change_wins(runs["parent"][w], runs["change"][w], metrics) for w in both}
    for w in both:  # compare like with like: drop the unpaired seeds
        for side in runs:
            runs[side][w] = {seed: runs[side][w][seed] for seed in pairs[w]["seeds"]}
    sides = {
        side: {
            "commit": commit_of(checkout),
            "workloads": {w: summarize(r, metrics) for w, r in sorted(runs[side].items())},
        }
        for side, checkout in (("parent", parent), ("change", change))
    }
    ratio = {
        workload: {
            name: sides["change"]["workloads"][workload]["median"][name] / median
            for name, median in sides["parent"]["workloads"][workload]["median"].items()
        }
        for workload in both
    }
    return {"label": label, "metrics": list(metrics), **sides, "change_over_parent": ratio,
            "pairs": pairs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    out = Path(f"BENCH_{args.label}.json")
    payload = collate(args.parent, args.change, args.label)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
