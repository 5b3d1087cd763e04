import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.cli import main
from fleetmaint.parafac import load_model
from fleetmaint.tensor import load_tensor


def run_cli(*argv):
    """Run the CLI in a subprocess, with a timeout so a hang fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "fleetmaint.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    assert main(["synth", "--out", str(out), "--seed", "77"]) == 0
    return out


CUSTOM_SPEC = {
    "seed": 5,
    "vehicles": {"DODGE CHARGER": 2, "FORD F150": 2},
    "window_start": "2015-01",
    "months": 6,
    "systems": ["Brakes", "Tires"],
    "background_rate": 0.5,
}


class TestSynth:
    def test_writes_three_files(self, fleet_dir):
        assert (fleet_dir / "vehicles.csv").exists()
        assert (fleet_dir / "maintenance.csv").exists()
        assert (fleet_dir / "manifest.json").exists()

    def test_custom_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CUSTOM_SPEC))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["totals"]["vehicles"] == 4

    def test_malformed_spec_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 5}))
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error:")

    @pytest.mark.parametrize("spec", [
        dict(CUSTOM_SPEC, vehicles=[]),
        [CUSTOM_SPEC],
        dict(CUSTOM_SPEC, months=2, components=[{
            "name": "c", "vehicle_weights": {"FORD F150": 1.0},
            "system_weights": {"Brakes": 1.0}, "time_profile": ["a", "b"], "intensity": 1.0,
        }]),
    ], ids=["vehicles-list", "top-level-list", "time-profile-strings"])
    def test_wrong_shape_spec_is_config_error(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error: malformed fleet spec")


class TestTensorize:
    def test_roundtrip(self, fleet_dir, tmp_path):
        out = tmp_path / "tensor.txt"
        discards = tmp_path / "discards.json"
        code = main([
            "tensorize",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--window-start", "2013-01", "--window-end", "2016-12",
            "--out", str(out), "--discards", str(discards),
        ])
        assert code == 0
        tensor = load_tensor(out)
        assert tensor.dims[0] == 60
        payload = json.loads(discards.read_text())
        assert payload["placed"] == tensor.data.sum()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main([
            "tensorize", "--vehicles", str(tmp_path / "nope.csv"),
            "--maintenance", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("io-error:")

    def test_oversized_field_is_data_error(self, fleet_dir, tmp_path, capsys):
        # one field past csv.field_size_limit() (131,072 characters)
        with open(fleet_dir / "maintenance.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index("System Description")] = "x" * 200_000
        maintenance = tmp_path / "maintenance.csv"
        with open(maintenance, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main([
            "tensorize", "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(maintenance), "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data-error: {maintenance}: row 4: field larger than field limit")

    def test_lifetime_mode(self, fleet_dir, tmp_path):
        out = tmp_path / "life.txt"
        code = main([
            "tensorize",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--time-mode", "lifetime", "--granularity", "year",
            "--horizon", "4", "--out", str(out),
        ])
        assert code == 0
        assert load_tensor(out).dims[2] == 4


@pytest.fixture(scope="module")
def tensor_path(fleet_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tensor") / "tensor.txt"
    main([
        "tensorize",
        "--vehicles", str(fleet_dir / "vehicles.csv"),
        "--maintenance", str(fleet_dir / "maintenance.csv"),
        "--window-start", "2013-01", "--window-end", "2016-12",
        "--out", str(out),
    ])
    return out


class TestParafacAndReport:
    def test_parafac_writes_model_and_reports(self, tensor_path, tmp_path):
        model_path = tmp_path / "model.txt"
        code = main([
            "parafac", "--tensor", str(tensor_path), "--rank", "3",
            "--max-iters", "60", "--restarts", "1", "--seed", "9",
            "--out", str(model_path), "--report-dir", str(tmp_path / "reports"),
        ])
        assert code == 0
        model = load_model(model_path)
        assert model.rank == 3
        assert (tmp_path / "reports" / "factor_report.csv").exists()
        assert (tmp_path / "reports" / "component_01.svg").exists()

    def test_report_single_component_csv_only(self, tensor_path, tmp_path):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "40", "--seed", "3", "--out", str(model_path),
        ])
        code = main([
            "report", "--model", str(model_path), "--component", "2",
            "--format", "csv", "--out", str(tmp_path / "rep"),
        ])
        assert code == 0
        rows = list(csv.reader((tmp_path / "rep" / "factor_report.csv").read_text().splitlines()))
        assert rows[0] == ["component", "mode", "label", "loading"]
        assert {r[0] for r in rows[1:]} == {"2"}
        assert not list((tmp_path / "rep").glob("*.svg"))


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_tensor_is_data_error(self, tmp_path, capsys, bad):
        tensor = tmp_path / "tensor.txt"
        tensor.write_text(f"tensor3 v1\ndims 2 1 2\na\nb\nc\nd\ne\n1.0 {bad} 2.0 3.0\n")
        model_path = tmp_path / "model.txt"
        code = main(["parafac", "--tensor", str(tensor), "--rank", "1",
                     "--out", str(model_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")
        assert not model_path.exists()

    def test_overflowing_norm_prints_only_the_error(self, tmp_path):
        tensor = tmp_path / "tensor.txt"
        tensor.write_text("tensor3 v1\ndims 2 1 2\na\nb\nc\nd\ne\n1e200 1e200 1e200 1e200\n")
        proc = run_cli("parafac", "--tensor", str(tensor), "--rank", "1",
                       "--out", str(tmp_path / "model.txt"))
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data-error: "), proc.stderr

    def test_report_truncated_model_is_data_error(self, tensor_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "5", "--seed", "3", "--out", str(model_path),
        ])
        text = model_path.read_text()
        model_path.write_text(text[: text.index("\niterations ") + 1])
        capsys.readouterr()
        code = main(["report", "--model", str(model_path), "--out", str(tmp_path / "rep")])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")

    @pytest.mark.parametrize("row", ["weights", "last factor row"])
    def test_report_non_finite_model_value_is_data_error(self, tensor_path, tmp_path, capsys,
                                                         row):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "5", "--seed", "3", "--out", str(model_path),
        ])
        lines = model_path.read_text().split("\n")
        assert lines[6].startswith("weights ")
        at = 6 if row == "weights" else len(lines) - 2
        lines[at] = lines[at].rsplit(" ", 1)[0] + " nan"
        model_path.write_text("\n".join(lines))
        capsys.readouterr()
        code = main(["report", "--model", str(model_path), "--out", str(tmp_path / "rep")])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")
        assert not (tmp_path / "rep" / "factor_report.csv").exists()


class TestSeqmine:
    def test_table_csv(self, fleet_dir, tmp_path):
        out = tmp_path / "diff.csv"
        code = main([
            "seqmine",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--target", "DODGE CHARGER", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == [
            "pattern", "left_support", "left_norm", "right_support",
            "right_norm", "i_ratio", "z", "p",
        ]
        assert len(rows) == 9  # header + top 8

    def test_unknown_target_is_data_error(self, fleet_dir, tmp_path, capsys):
        code = main([
            "seqmine",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--target", "NO SUCH MODEL", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")


@pytest.fixture(scope="module")
def model_path(fleet_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("lstm") / "model.txt"
    code = main([
        "train",
        "--vehicles", str(fleet_dir / "vehicles.csv"),
        "--maintenance", str(fleet_dir / "maintenance.csv"),
        "--embed-dim", "8", "--hidden-dim", "16", "--layers", "1",
        "--dropout-keep", "1.0", "--epochs", "2", "--seed", "4",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestTrainEvalPredict:
    def test_eval_outputs_json(self, fleet_dir, model_path, capsys):
        code = main([
            "eval", "--model", str(model_path),
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--split", "test", "--seed", "4",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] == "test"
        assert payload["lstm_perplexity"] > 1.0
        assert payload["unigram_perplexity"] > 1.0

    def test_predict_ranks(self, model_path, capsys):
        code = main([
            "predict", "--model", str(model_path),
            "--prefix", "brakes,pm service all levels", "--top-k", "3",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        probs = [float(line.split("\t")[0]) for line in lines]
        assert probs == sorted(probs, reverse=True)

    def test_predict_truncated_model_is_data_error(self, model_path, tmp_path):
        # a subprocess with a timeout, so a reader that loops at EOF fails
        # the test instead of hanging the suite
        text = model_path.read_text()
        cut = tmp_path / "cut.txt"
        cut.write_text(text[: len(text) // 2])
        proc = run_cli("predict", "--model", str(cut), "--prefix", "brakes")
        assert proc.returncode == 4
        assert proc.stderr.startswith("data-error:")

    def test_predict_unknown_config_key_is_data_error(self, model_path, tmp_path, capsys):
        lines = model_path.read_text().split("\n")
        lines[1] = lines[1].replace("{", '{"bogus": 1, ', 1)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        code = main(["predict", "--model", str(bad), "--prefix", "brakes"])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")

    @pytest.mark.parametrize("key, value", [("bptt_steps", "2.5"), ("layers", "true"),
                                            ("seed", '"4"')])
    def test_mistyped_integer_config_is_data_error(self, model_path, tmp_path, capsys,
                                                   key, value):
        lines = model_path.read_text().split("\n")
        config = json.loads(lines[1])
        assert isinstance(config[key], int)
        lines[1] = lines[1].replace(f'"{key}": {config[key]}', f'"{key}": {value}', 1)
        assert json.loads(lines[1])[key] == json.loads(value)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        code = main(["predict", "--model", str(bad), "--prefix", "brakes"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("data-error:") and key in err, err

    def test_non_finite_model_value_is_data_error(self, model_path, tmp_path, capsys):
        lines = model_path.read_text().split("\n")
        assert lines[4].startswith("block ")
        lines[5] = "nan " + lines[5].split(" ", 1)[1]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        code = main(["predict", "--model", str(bad), "--prefix", "brakes"])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr-decay", "nan"), ("--lr-decay", "inf"),
        ("--grad-clip", "nan"), ("--grad-clip", "inf"),
    ])
    def test_non_finite_hyperparameter_is_data_error(self, fleet_dir, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "m.txt"
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--embed-dim", "4", "--hidden-dim", "4", "--layers", "1",
            "--epochs", "1", flag, value, "--out", str(out),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("data-error:") and len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_config_file_overrides_flags(self, fleet_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nhidden-dim = 8\n# comment\n")
        out = tmp_path / "m.txt"
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--embed-dim", "8", "--hidden-dim", "64", "--layers", "1",
            "--dropout-keep", "1.0", "--epochs", "9", "--seed", "4",
            "--out", str(out), "--config", str(config),
        ])
        assert code == 0
        from fleetmaint.lstm import SeqModel

        model = SeqModel.load(out)
        assert model.config.hidden_dim == 8
        assert model.config.epochs == 1

    def test_bad_config_key_is_config_error(self, fleet_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no-such-option = 12\n")
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--out", str(tmp_path / "m.txt"), "--config", str(config),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error:")


class TestPipeline:
    def test_demo_smoke(self, tmp_path):
        code = main(["pipeline", "--demo", "--out", str(tmp_path / "run"), "--seed", "99"])
        assert code == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["conservation_ok"] is True
        assert metrics["tensor_dims"] == [60, 8, 48]
        assert (tmp_path / "run" / "seqmine.csv").exists()
        assert (tmp_path / "run" / "reports" / "component_05.svg").exists()

    def test_without_demo_flag_is_config_error(self, tmp_path, capsys):
        code = main(["pipeline", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error:")
