"""Collate perfbench results of a parent and a change checkout into BENCH_<label>.json.

    python3 tools/bench_collate.py --parent ../parent --change . --label lean-tables

Reads every ``.bench_out/results/<workload>-<seed>-t0.json`` that
``perfbench/run.py --trace 0`` left in each checkout. For each side and
workload it writes the seeds, the count of failed operations and the median
of each end-to-end metric named in ``BENCHMARK.json``, plus the
change/parent ratio of those medians, to BENCH_<label>.json in the current
directory. Each side's commit is ``git describe --always --dirty`` of its
checkout (``-dirty`` marks uncommitted changes), or null outside a git
checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"(?P<workload>.+)-(?P<seed>\d+)-t0\.json")


def end_to_end_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]]


def commit_of(checkout: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
            capture_output=True, text=True,
        )
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def collate_side(checkout: Path, metrics: list[str]) -> dict:
    """Seeds, failed count and metric medians per workload of one checkout."""
    runs: dict[str, list[tuple[int, dict]]] = {}
    for path in sorted((checkout / ".bench_out" / "results").glob("*-t0.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match:
            detail = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], []).append((int(match["seed"]), detail))
    workloads = {}
    for workload, entries in sorted(runs.items()):
        entries.sort(key=lambda entry: entry[0])
        workloads[workload] = {
            "seeds": [seed for seed, _ in entries],
            "failed": sum(detail["failed"] for _, detail in entries),
            "median": {
                name: statistics.median(detail["metrics"][name][0] for _, detail in entries)
                for name in metrics
            },
        }
    return {"commit": commit_of(checkout), "workloads": workloads}


def collate(parent: Path, change: Path, label: str) -> dict:
    metrics = end_to_end_metrics()
    sides = {"parent": collate_side(parent, metrics), "change": collate_side(change, metrics)}
    ratio = {
        workload: {
            name: sides["change"]["workloads"][workload]["median"][name] / median
            for name, median in entry["median"].items()
        }
        for workload, entry in sides["parent"]["workloads"].items()
        if workload in sides["change"]["workloads"]
    }
    return {"label": label, "metrics": metrics, **sides, "change_over_parent": ratio}


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
