import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_collate.py"
spec = importlib.util.spec_from_file_location("bench_collate", TOOL)
bench_collate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_collate)


def write_result(checkout, name, failed=0, **metrics):
    path = checkout / ".bench_out" / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    detail = {"failed": failed, "metrics": {k: [v, "s"] for k, v in metrics.items()}}
    path.write_text(json.dumps(detail), encoding="utf-8")


def e2e(setup, run, models, rss):
    return dict(setup_s=setup, run_s=run, models_s=models, peak_rss_mb=rss)


def test_collates_medians_seeds_and_ratios(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, "paper-tensor-1-t0.json", **e2e(9.0, 8.0, 4.0, 600.0))
    write_result(parent, "paper-tensor-2-t0.json", **e2e(9.5, 8.4, 4.2, 640.0))
    write_result(change, "paper-tensor-1-t0.json", **e2e(3.0, 6.0, 4.0, 300.0))
    write_result(change, "paper-tensor-2-t0.json", failed=1, **e2e(4.0, 6.2, 4.4, 320.0))
    # a traced run and a workload without a parent side are not compared
    write_result(change, "paper-tensor-3-t1.json", **e2e(99.0, 99.0, 99.0, 999.0))
    write_result(change, "dept-batch-1-t0.json", **e2e(1.0, 1.0, 1.0, 1.0))
    monkeypatch.chdir(tmp_path)
    assert bench_collate.main(["--parent", str(parent), "--change", str(change),
                               "--label", "x"]) == 0
    got = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert got["label"] == "x"
    assert got["metrics"] == ["setup_s", "run_s", "models_s", "peak_rss_mb"]
    assert got["parent"]["commit"] is None
    assert got["parent"]["workloads"]["paper-tensor"] == {
        "seeds": [1, 2], "failed": 0, "median": e2e(9.25, 8.2, 4.1, 620.0)}
    assert got["change"]["workloads"]["paper-tensor"] == {
        "seeds": [1, 2], "failed": 1, "median": e2e(3.5, 6.1, 4.2, 310.0)}
    assert set(got["change"]["workloads"]) == {"paper-tensor", "dept-batch"}
    ratio = got["change_over_parent"]
    assert set(ratio) == {"paper-tensor"}
    assert ratio["paper-tensor"] == pytest.approx(
        e2e(3.5 / 9.25, 6.1 / 8.2, 4.2 / 4.1, 310.0 / 620.0))
