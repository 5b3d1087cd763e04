"""Compare the artifacts of two fleetmaint runs, file by file.

    python3 tools/compare_runs.py RUN_A RUN_B

``RUN_A`` and ``RUN_B`` are two output directories (for example of
``fleetmaint pipeline --demo``) or two files. Every relative path found on
either side gets one line:

- ``identical``: the two files are byte-identical;
- ``floats``: a tensor3, cpmodel or seqmodel file, read with the package's
  own loaders (whose float blocks go through ``tensor.parse_floats``). Each
  float block that changed is listed with its largest absolute difference
  and that difference relative to the block's largest magnitude, so that
  rounding in an entry near zero reads as the rounding it is; any other
  field that changed (dims, labels, config, vocabulary) is named;
- ``json``: the keys that changed, as dotted paths, with both values (and
  the absolute and relative difference of two floats);
- ``differ``: any other file whose bytes differ;
- ``only A`` / ``only B``: a file on one side only.

Exits 0 when every file is byte-identical on both sides, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fleetmaint.lstm import SeqModel  # noqa: E402
from fleetmaint.parafac import load_model  # noqa: E402
from fleetmaint.tensor import load_tensor  # noqa: E402


def _tensor_fields(path) -> dict:
    t = load_tensor(path)
    return {"dims": t.dims, "labels": t.axis_labels, "values": t.data}


def _cpmodel_fields(path) -> dict:
    m = load_model(path)
    return {"dims": m.dims, "labels": m.axis_labels, "iterations": m.iterations,
            "converged": m.converged, "warnings": m.warnings, "fit": np.array([m.fit]),
            "fits": np.array(m.fits), "weights": m.weights,
            **dict(zip(("factor A", "factor B", "factor C"), m.factors))}


def _seqmodel_fields(path) -> dict:
    m = SeqModel.load(path)
    return {"config": m.config, "vocab": m.vocab, **m.params}


# the magic line of each float format and the reader of its fields; an
# ndarray field is a float block, any other field is compared with ==
FLOAT_FORMATS = {
    b"tensor3 v1\n": _tensor_fields,
    b"cpmodel v1\n": _cpmodel_fields,
    b"seqmodel v1\n": _seqmodel_fields,
}


def block_differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest absolute difference of two equal-shape blocks, and it over
    the largest magnitude in either block (0 when both are all zero)."""
    diff = float(np.abs(a - b).max(initial=0.0))
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return diff, diff / scale if scale > 0 else 0.0


def compare_floats(path_a: Path, path_b: Path, read) -> list[str]:
    """One entry per changed field of two files of the same float format."""
    fields_a, fields_b = read(path_a), read(path_b)
    changes = []
    for name in fields_a:
        a, b = fields_a[name], fields_b[name]
        if isinstance(a, np.ndarray):
            if a.shape != b.shape:
                changes.append(f"{name} shape {a.shape} -> {b.shape}")
            elif not np.array_equal(a, b, equal_nan=True):
                abs_diff, rel_diff = block_differences(a, b)
                changes.append(f"{name} abs {abs_diff:.3g} rel {rel_diff:.3g}")
        elif a != b:
            changes.append(f"{name} changed")
    return changes


def flatten(value, prefix: str = "") -> dict:
    """Dotted path -> leaf value of a JSON document (list items by index)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def compare_json(text_a: bytes, text_b: bytes) -> list[str]:
    """One entry per key added, removed or changed between two JSON documents."""
    a, b = flatten(json.loads(text_a)), flatten(json.loads(text_b))
    changes = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            changes.append(f"{key} removed")
        elif key not in a:
            changes.append(f"{key} added")
        elif type(a[key]) is not type(b[key]) or a[key] != b[key]:
            change = f"{key}: {a[key]!r} -> {b[key]!r}"
            if type(a[key]) is float and type(b[key]) is float:
                change += " (abs {:.3g} rel {:.3g})".format(
                    *block_differences(np.array(a[key]), np.array(b[key])))
            changes.append(change)
    return changes


def compare_file(path_a: Path, path_b: Path) -> tuple[str, list[str]]:
    """The kind of difference between two files and its details."""
    data_a, data_b = path_a.read_bytes(), path_b.read_bytes()
    if data_a == data_b:
        return "identical", []
    for magic, read in FLOAT_FORMATS.items():
        if data_a.startswith(magic) and data_b.startswith(magic):
            try:
                return "floats", compare_floats(path_a, path_b, read)
            except ValueError as exc:  # unreadable: fall back to bytes
                return "differ", [f"not comparable as floats: {exc}"]
    if path_a.suffix == ".json":
        try:
            return "json", compare_json(data_a, data_b)
        except ValueError as exc:
            return "differ", [f"not comparable as JSON: {exc}"]
    return "differ", []


def compare_runs(run_a: Path, run_b: Path) -> list[tuple[str, str, list[str]]]:
    """(relative path, kind, details) for every file on either side, sorted by path."""
    if run_a.is_file() and run_b.is_file():
        return [(run_b.name, *compare_file(run_a, run_b))]
    files_a = {p.relative_to(run_a).as_posix() for p in run_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(run_b).as_posix() for p in run_b.rglob("*") if p.is_file()}
    rows = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            rows.append((rel, "only A", []))
        elif rel not in files_a:
            rows.append((rel, "only B", []))
        else:
            rows.append((rel, *compare_file(run_a / rel, run_b / rel)))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("run_a", type=Path, help="first run directory or file")
    parser.add_argument("run_b", type=Path, help="second run directory or file")
    args = parser.parse_args(argv)
    for run in (args.run_a, args.run_b):
        if not run.exists():
            parser.error(f"{run} does not exist")
    rows = compare_runs(args.run_a, args.run_b)
    for rel, kind, details in rows:
        print(f"{kind:9}  {rel}")
        for detail in details:
            print(f"           {detail}")
    return 0 if all(kind == "identical" for _, kind, _ in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
