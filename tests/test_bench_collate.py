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
    expected = {
        "parent": ({"seeds": [1, 2], "failed": 0, "median": e2e(9.25, 8.2, 4.1, 620.0)},
                   e2e(9.125, 8.1, 4.05, 610.0), e2e(9.375, 8.3, 4.15, 630.0)),
        "change": ({"seeds": [1, 2], "failed": 1, "median": e2e(3.5, 6.1, 4.2, 310.0)},
                   e2e(3.25, 6.05, 4.1, 305.0), e2e(3.75, 6.15, 4.3, 315.0)),
    }
    for side, (summary, q1, q3) in expected.items():
        entry = got[side]["workloads"]["paper-tensor"]
        assert entry["q1"] == pytest.approx(q1)
        assert entry["q3"] == pytest.approx(q3)
        assert {k: v for k, v in entry.items() if k not in ("q1", "q3")} == summary
    assert set(got["change"]["workloads"]) == {"paper-tensor", "dept-batch"}
    ratio = got["change_over_parent"]
    assert set(ratio) == {"paper-tensor"}
    assert ratio["paper-tensor"] == pytest.approx(
        e2e(3.5 / 9.25, 6.1 / 8.2, 4.2 / 4.1, 310.0 / 620.0))
    # models_s ties on seed 1 and loses on seed 2
    assert got["pairs"] == {"paper-tensor": {
        "seeds": [1, 2], "unpaired": {"parent": [], "change": []}, "change_wins": e2e(2, 2, 0, 2)}}


def test_pair_wins_follow_each_metric_direction(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_collate, "end_to_end_metrics",
                        lambda: {"run_s": "lower", "rate": "higher"})
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3, 4):
        write_result(parent, f"w-{seed}-t0.json", run_s=5.0, rate=10.0)
    # seed 2 wins both, 3 ties run_s and wins rate, 4 loses run_s and ties
    # rate; seed 5 has no parent run and seed 1 no change run
    for seed, run_s, rate in ((2, 4.0, 11.0), (3, 5.0, 12.0), (4, 6.0, 10.0), (5, 1.0, 99.0)):
        write_result(change, f"w-{seed}-t0.json", run_s=run_s, rate=rate)
    got = bench_collate.collate(parent, change, "x")
    assert got["pairs"] == {"w": {"seeds": [2, 3, 4], "unpaired": {"parent": [1], "change": [5]},
                                  "change_wins": {"run_s": 1, "rate": 2}}}
    assert got["parent"]["workloads"]["w"]["seeds"] == [2, 3, 4]
    assert got["parent"]["workloads"]["w"]["q1"] == {"run_s": 5.0, "rate": 10.0}
    # the unpaired seed 5 (run_s 1.0) is in no figure
    change_w = got["change"]["workloads"]["w"]
    assert change_w["seeds"] == [2, 3, 4]
    assert change_w["q1"]["run_s"] == pytest.approx(4.5)
    assert change_w["q3"]["run_s"] == pytest.approx(5.5)
    assert change_w["median"]["run_s"] == pytest.approx(5.0)
    assert got["change_over_parent"]["w"]["run_s"] == pytest.approx(1.0)
