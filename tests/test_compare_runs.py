import importlib.util
import json
from pathlib import Path

import numpy as np

from fleetmaint.lstm import LstmConfig, SeqModel, Vocab, _init_params
from fleetmaint.parafac import save_model
from fleetmaint.tensor import save_tensor
from oracles import from_array, from_factors

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def up_one_ulp(arr, index=(0,)):
    out = arr.copy()
    out[index] = np.nextafter(out[index], np.inf)
    return out


def write_run(root: Path, tensor, cp_factors, seq_params, metrics):
    root.mkdir()
    save_tensor(from_array(tensor), root / "tensor.txt")
    save_model(from_factors(*cp_factors), root / "cp_model.txt")
    cfg = LstmConfig(embed_dim=2, hidden_dim=3, layers=1, seed=4)
    SeqModel(Vocab(labels=("a", "b")), cfg, seq_params).save(root / "seq_model.txt")
    (root / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    (root / "seqmine.csv").write_text("pattern,count\na b,3\n")


def base_run():
    rng = np.random.default_rng(0)
    tensor = rng.random((2, 3, 4))
    cp_factors = (rng.random((2, 2)), rng.random((3, 2)), rng.random((4, 2)))
    cfg = LstmConfig(embed_dim=2, hidden_dim=3, layers=1, seed=4)
    seq_params = _init_params(cfg, 4, rng)
    metrics = {"lstm_test_perplexity": 7.15861071375007, "seed": 1234,
               "discards": {"late": 3, "early": 0}, "tensor_dims": [2, 3, 4]}
    return tensor, cp_factors, seq_params, metrics


def test_identical_runs(tmp_path, capsys):
    write_run(tmp_path / "a", *base_run())
    write_run(tmp_path / "b", *base_run())
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("identical  ") for line in lines)


def test_one_ulp_apart(tmp_path):
    tensor, cp_factors, seq_params, metrics = base_run()
    write_run(tmp_path / "a", tensor, cp_factors, seq_params, metrics)
    moved = dict(seq_params, out_w=up_one_ulp(seq_params["out_w"], (1, 2)))
    moved_cp = (cp_factors[0], up_one_ulp(cp_factors[1], (2, 1)), cp_factors[2])
    write_run(tmp_path / "b", up_one_ulp(tensor, (1, 2, 3)), moved_cp, moved, metrics)
    rows = {rel: (kind, details)
            for rel, kind, details in compare_runs.compare_runs(tmp_path / "a", tmp_path / "b")}

    kind, (detail,) = rows["tensor.txt"]
    ulp = float(np.spacing(tensor[1, 2, 3]))
    # relative to the block's largest magnitude, not to the moved entry
    assert kind == "floats" and detail == f"values abs {ulp:.3g} rel {ulp / tensor.max():.3g}"
    kind, details = rows["seq_model.txt"]
    assert kind == "floats" and [d.split()[0] for d in details] == ["out_w"]
    kind, details = rows["cp_model.txt"]
    # from_factors normalizes the columns, so the moved column of B and its weight change
    assert kind == "floats" and "factor B" in " ".join(details)
    for kind, details in rows.values():
        for detail in details:
            rel = float(detail.split(" rel ")[1])
            assert 0 < rel < 1e-15, detail
    assert rows["metrics.json"] == ("identical", [])
    assert rows["seqmine.csv"] == ("identical", [])


def test_changed_json_key(tmp_path, capsys):
    tensor, cp_factors, seq_params, metrics = base_run()
    write_run(tmp_path / "a", tensor, cp_factors, seq_params, metrics)
    changed = dict(metrics, lstm_test_perplexity=7.158610713750078, seed=99,
                   discards={"late": 3}, extra=True)
    write_run(tmp_path / "b", tensor, cp_factors, seq_params, changed)
    (tmp_path / "b" / "seqmine.csv").write_text("pattern,count\na b,4\n")
    (tmp_path / "b" / "new.txt").write_text("x\n")
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "json       metrics.json\n" in out
    assert "discards.early removed" in out
    assert "extra added" in out
    assert "seed: 1234 -> 99" in out
    assert "lstm_test_perplexity: 7.15861071375007 -> 7.158610713750078 (abs 7.99e-15" in out
    assert "tensor_dims" not in out
    assert "differ     seqmine.csv\n" in out
    assert "only B     new.txt\n" in out


def test_two_files(tmp_path, capsys):
    a, b = tmp_path / "m1.json", tmp_path / "m2.json"
    a.write_text('{"x": 1}')
    b.write_text('{"x": 1.0}')
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == "json       m2.json\n           x: 1 -> 1.0\n"
