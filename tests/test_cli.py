import ast
import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from fleetmaint import cli, lstm
from fleetmaint import tensor as tensor_module
from fleetmaint.cli import build_parser, main
from fleetmaint.ingest import TensorizeSpec
from fleetmaint.knobs import Checked, Seeded
from fleetmaint.lstm import LstmConfig, SeqModel, Vocab, predict_next
from fleetmaint.parafac import MAX_RANK, AlsOptions, load_model
from fleetmaint.seqmine import MineOptions
from fleetmaint.synth import FleetSpec, MarkovSpec, PlantedComponent, PlantedMotif, demo_spec
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


def markov_spec(**chain):
    """CUSTOM_SPEC with a Markov chain for FORD F150, its fields overridden by ``chain``."""
    base = {"labels": ["Brakes", "Tires"], "transition": [[0.2, 0.8], [0.8, 0.2]],
            "start": [1, 1], "length": 4}
    return dict(CUSTOM_SPEC, markov={"FORD F150": dict(base, **chain)})


def component_spec(**component):
    """CUSTOM_SPEC with one planted component, its fields overridden by ``component``."""
    base = {"name": "c", "vehicle_weights": {"FORD F150": 1.0},
            "system_weights": {"Brakes": 1.0}, "time_profile": [1.0] * 6, "intensity": 1.0}
    return dict(CUSTOM_SPEC, components=[dict(base, **component)])


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

    def test_spec_file_led_by_a_bom(self, tmp_path):
        # a UTF-8 byte order mark, as some editors write one, is not part of the JSON
        text = json.dumps(CUSTOM_SPEC).encode("utf-8")
        written = {}
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.json").write_bytes(data)
            out = tmp_path / name
            assert main(["synth", "--out", str(out), "--spec", str(tmp_path / f"{name}.json")]) == 0
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert written["bom"] == written["plain"]
        assert "manifest.json" in written["bom"]

    def test_seed_alone_or_spec_alone_sets_the_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(CUSTOM_SPEC, seed=99)))
        assert main(["synth", "--out", str(tmp_path / "seeded"), "--seed", "5"]) == 0
        assert main(["synth", "--out", str(tmp_path / "spec"), "--spec", str(spec_path)]) == 0
        for name, seed in (("seeded", 5), ("spec", 99)):
            assert json.loads((tmp_path / name / "manifest.json").read_text())["seed"] == seed

    # a spec holds its own seed, so a --seed beside it, even the default, is refused
    @pytest.mark.parametrize("extra, config", [
        (["--seed", "5"], None), (["--seed", "1234"], None), ([], "seed = 5"), ([], "seed = 1234"),
    ], ids=["seed", "default-seed", "config-seed", "config-default-seed"])
    def test_spec_and_seed_together_is_config_error(self, tmp_path, capsys, extra, config):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CUSTOM_SPEC))
        if config:
            (tmp_path / "s.cfg").write_text(config + "\n")
            extra = ["--config", str(tmp_path / "s.cfg")]
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path), *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            "config-error: argument --seed: not allowed with argument --spec\n")
        assert not (tmp_path / "o").exists()

    def test_spec_file_not_utf8_names_the_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_bytes(b"{\n\xff}\n")
        assert main(["synth", "--out", "o", "--spec", "spec.json"]) == 2
        assert capsys.readouterr().err == ("config-error: malformed fleet spec: spec.json: "
                                           "line 2: not UTF-8 text: invalid start byte\n")
        assert not (tmp_path / "o").exists()

    def test_malformed_spec_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 5}))
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config-error:")

    @pytest.mark.parametrize("text", [json.dumps(spec) for spec in (
        dict(CUSTOM_SPEC, vehicles=[]),
        [CUSTOM_SPEC],
        dict(CUSTOM_SPEC, months=2, components=[{
            "name": "c", "vehicle_weights": {"FORD F150": 1.0},
            "system_weights": {"Brakes": 1.0}, "time_profile": ["a", "b"], "intensity": 1.0,
        }]),
        dict(CUSTOM_SPEC, seed=-1),
        dict(CUSTOM_SPEC, seed=1.5),
        dict(CUSTOM_SPEC, months=0),
        dict(CUSTOM_SPEC, background_rate=float("nan")),
        dict(CUSTOM_SPEC, months=2, components=[{
            "name": "c", "vehicle_weights": {"FORD F150": 1.0},
            "system_weights": {"Brakes": 1.0}, "time_profile": [1.0, 1.0],
            "intensity": float("inf"),
        }]),
        dict(CUSTOM_SPEC, months=2, components=[{
            "name": "c", "vehicle_weights": {"FORD F150": float("nan")},
            "system_weights": {"Brakes": 1.0}, "time_profile": [1.0, float("-inf")],
            "intensity": 1.0,
        }]),
        dict(CUSTOM_SPEC, motifs=[{
            "make_model": "FORD F150", "labels": ["Brakes", "Tires"], "rate": float("nan"),
        }]),
        dict(CUSTOM_SPEC, purchase_years=[]),
        dict(CUSTOM_SPEC, purchase_years=[2013, float("inf")]),
        dict(CUSTOM_SPEC, months=2.7),
        dict(CUSTOM_SPEC, months=True),
        dict(CUSTOM_SPEC, vehicles={"A B": -2, "C D": 2}),
        dict(CUSTOM_SPEC, vehicles={"A B": 2.0}),
        dict(CUSTOM_SPEC, vehicles={"AB": 2}),
        markov_spec(transition=[[1.5, -0.5], [0.5, 0.5]]),
        markov_spec(transition=[[0.999995, 0.000001], [0.5, 0.5]]),
        markov_spec(transition=[[0.5, 0.5], [0.5, float("nan")]]),
        markov_spec(start=[0, 0]),
        markov_spec(start=[1, 1, 1]),
        markov_spec(start=[1, -1]),
        markov_spec(start=[1, True]),
        markov_spec(length=0),
        markov_spec(length=2.5),
        markov_spec(length=float("inf")),
        dict(CUSTOM_SPEC, noiseless="false"),
        dict(CUSTOM_SPEC, systems="Brakes"),
        dict(CUSTOM_SPEC, systems=["B", "T"],
             motifs=[{"make_model": "FORD F150", "labels": "BT", "rate": 0.2}]),
        dict(CUSTOM_SPEC, background_rate="0.5"),
        dict(CUSTOM_SPEC, backround_rate=0.5),
        component_spec(weight=1.0),
        component_spec(intensity=1e300),
        dict(component_spec(intensity=1e300), noiseless=True),
        dict(CUSTOM_SPEC, motifs=[{
            "make_model": "DODGE CHARGR", "labels": ["Brakes", "Tires"], "rate": 0.2,
        }]),
        component_spec(vehicle_weights={"FORD F15O": 1.0}),
        dict(CUSTOM_SPEC, markov={"FORD F15O": markov_spec()["markov"]["FORD F150"]}),
        dict(CUSTOM_SPEC, systems=["Brakes", " brakes", "Tires"]),
        dict(CUSTOM_SPEC, vehicles={"DODGE CHARGER": 2, "dodge  charger": 3}),
        dict(CUSTOM_SPEC, months=100000000),
        markov_spec(length=1000000000),
        dict(CUSTOM_SPEC, vehicles={"DODGE CHARGER": 1000000000}),
        dict(CUSTOM_SPEC, vehicles={"DODGE CHARGER": 1}, months=2412, systems=["Brakes"],
             background_rate=1000000),
        dict(CUSTOM_SPEC, window_start="2015-13"),
        component_spec(time_profile=[1.0] * 5),
        dict(CUSTOM_SPEC, motifs=[{
            "make_model": "FORD F150", "labels": ["Brakes", "Engine"], "rate": 0.2,
        }]),
        markov_spec(labels=["Brakes", "Engine"]),
        markov_spec(start=[1e308, 1e308]),
        markov_spec(transition=[[1e308, 1e308], [0.8, 0.2]]),
    )] + [json.dumps(CUSTOM_SPEC)[:-1]], ids=[
        "vehicles-list", "top-level-list", "time-profile-strings", "seed-negative",
        "seed-float", "months-zero", "background-nan", "intensity-inf", "weight-nan",
        "motif-rate-nan", "purchase-years-empty", "purchase-years-inf", "months-float",
        "months-bool", "vehicle-count-negative", "vehicle-count-float", "vehicles-one-word-key",
        "markov-negative-transition", "markov-row-sum", "markov-transition-nan",
        "markov-start-zero", "markov-start-too-long", "markov-start-negative",
        "markov-start-bool", "markov-length-zero", "markov-length-float", "markov-length-inf",
        "noiseless-string", "systems-string", "motif-labels-string", "numeric-string",
        "unknown-key", "unknown-component-key", "planted-mean-huge",
        "planted-mean-huge-noiseless", "motif-make-model-unknown",
        "component-vehicle-unknown", "markov-make-model-unknown", "systems-normalize-alike",
        "vehicles-normalize-alike", "months-huge", "markov-length-huge", "vehicles-huge",
        "jobs-huge", "window-start-bad", "time-profile-length", "motif-labels-unknown",
        "markov-labels-unknown", "markov-start-overflow", "markov-row-overflow", "not-json",
    ])
    def test_wrong_shape_spec_is_config_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config-error: malformed fleet spec: {spec_path}: "), err
        assert not (tmp_path / "o").exists()

    def test_spec_error_names_its_place(self, tmp_path, capsys):
        # a motif label is one of the systems, checked by knobs like any choice
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(CUSTOM_SPEC, motifs=[{
            "make_model": "FORD F150", "labels": ["Brakes", "Wheels"], "rate": 0.2}])))
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config-error: malformed fleet spec: {spec_path}: motifs[0].labels[1] must be one "
            "of Brakes, Tires, got 'Wheels'\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("floats, ints", [
        (component_spec(intensity=2.0, time_profile=[1.0, 0.0, 3.0, 0.5, 0.0, 1.0]),
         component_spec(intensity=2, time_profile=[1, 0, 3, 0.5, 0, 1])),
        (dict(markov_spec(start=[1.0, 0.0], transition=[[0.0, 1.0], [1.0, 0.0]]),
              background_rate=1.0, components=component_spec(
                  vehicle_weights={"DODGE CHARGER": 1.0},
                  system_weights={"Brakes": 1.0, "Tires": 0.0})["components"]),
         dict(markov_spec(start=[1, 0], transition=[[0, 1], [1, 0]]),
              background_rate=1, components=component_spec(
                  vehicle_weights={"DODGE CHARGER": 1}, system_weights={"Brakes": 1, "Tires": 0},
              )["components"])),
    ], ids=["intensities", "rates-weights-and-chains"])
    def test_integer_spelled_floats_give_the_same_files(self, tmp_path, floats, ints):
        for name, spec in (("floats", floats), ("ints", ints)):
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
            assert main(["synth", "--out", str(tmp_path / name),
                         "--spec", str(tmp_path / f"{name}.json")]) == 0
        for file in ("vehicles.csv", "maintenance.csv", "manifest.json"):
            assert (tmp_path / "ints" / file).read_bytes() == \
                (tmp_path / "floats" / file).read_bytes(), file


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

    @pytest.mark.parametrize("directory", ["discards", "out"])
    def test_a_directory_target_leaves_the_other_as_it_was(self, fleet_dir, tmp_path, capsys,
                                                           directory):
        # both targets are checked before either is written
        paths = {"out": tmp_path / "tensor.txt", "discards": tmp_path / "discards.json"}
        paths[directory].mkdir()
        other = paths["out" if directory == "discards" else "discards"]
        other.write_text("earlier\n")
        code = main([
            "tensorize",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--out", str(paths["out"]), "--discards", str(paths["discards"]),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            f"io-error: [Errno 21] Is a directory: '{paths[directory]}'\n")
        assert other.read_text() == "earlier\n"
        assert sorted(os.listdir(tmp_path)) == ["discards.json", "tensor.txt"]

    @pytest.mark.parametrize("discards", ["t.txt", "./t.txt", "link.txt", "{tmp}/t.txt"])
    def test_one_file_as_both_targets_is_config_error(self, fleet_dir, tmp_path, monkeypatch,
                                                     capsys, discards):
        # refused before either is written: the discard summary would replace the tensor
        monkeypatch.chdir(tmp_path)
        Path("t.txt").write_text("earlier\n")
        os.symlink("t.txt", "link.txt")
        code = main(["tensorize", "--vehicles", str(fleet_dir / "vehicles.csv"),
                     "--maintenance", str(fleet_dir / "maintenance.csv"),
                     "--out", "t.txt", "--discards", discards.format(tmp=tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config-error: --out and --discards name the same file: 't.txt'\n")
        assert sorted(os.listdir()) == ["link.txt", "t.txt"]
        assert Path("t.txt").read_text() == "earlier\n"

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

    @pytest.mark.parametrize("command", ["tensorize", "seqmine"])
    def test_error_of_the_tables_together_names_both(self, fleet_dir, tmp_path, capsys,
                                                     command):
        # only the header of the maintenance table: no job to place or mine
        maintenance = tmp_path / "maintenance.csv"
        maintenance.write_text((fleet_dir / "maintenance.csv").read_text().partition("\n")[0])
        vehicles = fleet_dir / "vehicles.csv"
        extra = ["--target", "DODGE CHARGER"] if command == "seqmine" else []
        code = main([command, "--vehicles", str(vehicles), "--maintenance", str(maintenance),
                     *extra, "--out", str(tmp_path / "out")])
        assert code == 4
        message = {"tensorize": "cannot infer window end: no maintenance record is of a "
                                "known vehicle at or above the purchase year floor",
                   "seqmine": "no sequences for target make/model 'DODGE CHARGER'"}[command]
        assert capsys.readouterr().err == f"data-error: {vehicles} and {maintenance}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spare", [0, -1], ids=["at the bound", "past the bound"])
    def test_dense_tensor_past_the_bound_is_data_error(self, fleet_dir, tmp_path, capsys,
                                                       monkeypatch, spare):
        vehicles, maintenance = fleet_dir / "vehicles.csv", fleet_dir / "maintenance.csv"
        out = tmp_path / "tensor.txt"
        argv = ["tensorize", "--vehicles", str(vehicles), "--maintenance", str(maintenance),
                "--window-start", "2013-01", "--window-end", "2016-12", "--out", str(out)]
        assert main(argv) == 0
        dims = load_tensor(out).dims
        out.unlink()
        capsys.readouterr()
        monkeypatch.setattr(tensor_module, "MAX_TENSOR_FLOATS", math.prod(dims) + spare)
        if spare == 0:
            assert main(argv) == 0
            assert load_tensor(out).dims == dims
            return
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"data-error: {vehicles} and {maintenance}: a {dims[0]}x{dims[1]}x{dims[2]} tensor "
            f"holds {math.prod(dims)} entries, past {math.prod(dims) - 1}\n")
        assert not out.exists()

    def test_tensor_file_past_the_bound_is_data_error(self, tensor_path, tmp_path, capsys,
                                                      monkeypatch):
        dims = load_tensor(tensor_path).dims
        monkeypatch.setattr(tensor_module, "MAX_TENSOR_FLOATS", math.prod(dims) - 1)
        code = main(["parafac", "--tensor", str(tensor_path), "--out", str(tmp_path / "m")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"data-error: {tensor_path}: line 2: a {dims[0]}x{dims[1]}x{dims[2]} tensor holds "
            f"{math.prod(dims)} entries, past {math.prod(dims) - 1}\n")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("table", ["vehicles.csv", "maintenance.csv"])
    def test_non_utf8_table_is_data_error(self, fleet_dir, tmp_path, capsys, table):
        paths = {name: tmp_path / name for name in ("vehicles.csv", "maintenance.csv")}
        for name, path in paths.items():
            path.write_bytes((fleet_dir / name).read_bytes())
        lines = paths[table].read_bytes().split(b"\n")
        lines[7] += b"\xff"
        paths[table].write_bytes(b"\n".join(lines))
        code = main([
            "tensorize", "--vehicles", str(paths["vehicles.csv"]),
            "--maintenance", str(paths["maintenance.csv"]), "--out", str(tmp_path / "t.txt"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"data-error: {paths[table]}: line 8: not UTF-8 text: invalid start byte\n"
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("start, end, code", [
        ("2016-12", "2016-12", 0), ("2016-12", "2016-11", 2), ("2030-01", None, 4),
    ], ids=["one month", "end before start", "inferred end before start"])
    def test_one_month_window(self, fleet_dir, tmp_path, capsys, start, end, code):
        out = tmp_path / "tensor.txt"
        tables = fleet_dir / "vehicles.csv", fleet_dir / "maintenance.csv"
        assert main([
            "tensorize", "--vehicles", str(tables[0]), "--maintenance", str(tables[1]),
            "--window-start", start, *(["--window-end", end] if end else []),
            "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if code == 0:
            tensor = load_tensor(out)
            assert tensor.dims[2] == 1
            assert tensor.axis_labels[2] == ("2016-12",)
        elif code == 2:
            assert err.startswith("config-error:")
        else:
            assert err == (f"data-error: {tables[0]} and {tables[1]}: cannot infer window end: "
                           "the latest job, in 2016-12, precedes the window start 2030-01\n")
            assert not out.exists()

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
            "--out", str(model_path),
        ])
        assert code == 0
        model = load_model(model_path)
        assert model.rank == 3
        assert main(["report", "--model", str(model_path), "--out", str(tmp_path / "reports")]) == 0
        assert (tmp_path / "reports" / "factor_report.csv").exists()
        assert (tmp_path / "reports" / "component_01.svg").exists()

    # factor reports come from ``report`` alone
    @pytest.mark.parametrize("extra, line", [
        (["--report-dir", "rep"], "config-error: unrecognized arguments: --report-dir rep"),
        (["--format", "csv"], "config-error: unrecognized arguments: --format csv"),
        (["--config", "p.cfg"], "config-error: p.cfg: line 1: unknown option 'report-dir'"),
    ], ids=["report-dir", "format", "config-report-dir"])
    def test_parafac_takes_no_report_flags(self, tmp_path, monkeypatch, capsys, extra, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.cfg").write_text("report-dir = rep\n")
        assert main(["parafac", "--tensor", "t.txt", "--out", "m.txt", *extra]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.cfg"]

    def test_config_file_led_by_a_bom(self, tensor_path, tmp_path):
        # the byte order mark is not part of the first key
        text = b"rank = 2\nmax-iters = 5\nseed = 3\n"
        models = {}
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.cfg").write_bytes(data)
            out = tmp_path / f"{name}.txt"
            assert main(["parafac", "--tensor", str(tensor_path), "--out", str(out),
                         "--config", str(tmp_path / f"{name}.cfg")]) == 0
            models[name] = out.read_bytes()
        assert models["bom"] == models["plain"]
        assert load_model(tmp_path / "bom.txt").rank == 2

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

    def test_report_component_past_the_rank_is_config_error(self, tensor_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "5", "--seed", "3", "--out", str(model_path),
        ])
        capsys.readouterr()
        code = main(["report", "--model", str(model_path), "--component", "3",
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config-error: --component 3"), err
        assert not (tmp_path / "rep").exists()


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
        assert len(lines) == 1 and lines[0].startswith(f"data-error: {tensor}: "), proc.stderr

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

    def test_report_negative_model_weight_is_data_error(self, tensor_path, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "5", "--seed", "3", "--out", str(model_path),
        ])
        lines = model_path.read_text().split("\n")
        assert lines[6].startswith("weights ")
        lines[6] = "weights -1.0 " + lines[6].split()[2]
        model_path.write_text("\n".join(lines))
        capsys.readouterr()
        code = main(["report", "--model", str(model_path), "--out", str(tmp_path / "rep")])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data-error: {model_path}: weights must be non-negative"]
        assert not (tmp_path / "rep").exists()

    def test_model_with_a_warning_round_trips(self, tmp_path, capsys):
        # rank 5 exceeds every pairwise dimension product of a 2x2x2 tensor
        tensor = tmp_path / "tensor.txt"
        tensor.write_text("tensor3 v1\ndims 2 2 2\na\nb\nc\nd\ne\nf\n" + "1.0 " * 7 + "1.0\n")
        model_path = tmp_path / "model.txt"
        assert main(["parafac", "--tensor", str(tensor), "--rank", "5", "--seed", "0",
                     "--out", str(model_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: rank 5 exceeds"), err
        lines = model_path.read_text().split("\n")
        assert lines[8] == "warnings 1" and f"warning: {lines[9]}" == err[0]
        assert load_model(model_path).warnings == (lines[9],)
        assert main(["report", "--model", str(model_path), "--out", str(tmp_path / "rep")]) == 0
        assert len(list((tmp_path / "rep").glob("component_*.svg"))) == 5

    @pytest.mark.parametrize("line", ["converged 7", "converged -1", "iterations -5"])
    def test_report_out_of_range_model_header_is_data_error(self, tensor_path, tmp_path, capsys,
                                                            line):
        model_path = tmp_path / "model.txt"
        main([
            "parafac", "--tensor", str(tensor_path), "--rank", "2",
            "--max-iters", "5", "--seed", "3", "--out", str(model_path),
        ])
        lines = model_path.read_text().split("\n")
        at = next(i for i, old in enumerate(lines) if old.split()[0] == line.split()[0])
        lines[at] = line
        model_path.write_text("\n".join(lines))
        capsys.readouterr()
        code = main(["report", "--model", str(model_path), "--out", str(tmp_path / "rep")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("data-error:") and line.split()[0] in err, err
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

    @pytest.mark.parametrize("flags, config, column", [
        ([], "bonferroni = true", True),
        ([], "bonferroni = false", False),
        (["--bonferroni"], "bonferroni = false", False),
        (["--bonferroni"], None, True),
        ([], None, False),
    ])
    def test_bonferroni_flag_and_config(self, fleet_dir, tmp_path, flags, config, column):
        out = tmp_path / "diff.csv"
        argv = [
            "seqmine",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--target", "DODGE CHARGER", "--out", str(out), *flags,
        ]
        if config is not None:
            (tmp_path / "mine.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "mine.cfg")]
        assert main(argv) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert ("p_bonferroni" in header) == column

    def test_unknown_target_is_data_error(self, fleet_dir, tmp_path, capsys):
        code = main([
            "seqmine",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--target", "NO SUCH MODEL", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 4
        assert capsys.readouterr().err.startswith("data-error:")

    def test_max_len_past_every_sequence_does_not_hang(self, fleet_dir, tmp_path):
        # widths stop at the longest target sequence (under 100 jobs here)
        tables = ["--vehicles", str(fleet_dir / "vehicles.csv"),
                  "--maintenance", str(fleet_dir / "maintenance.csv")]
        for max_len in ("10", "100000"):
            proc = run_cli("seqmine", *tables, "--target", "DODGE CHARGER",
                           "--max-len", max_len, "--out", str(tmp_path / f"{max_len}.csv"))
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "100000.csv").read_bytes() == (tmp_path / "10.csv").read_bytes()


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
            "--split", "test",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] == "test"
        assert payload["lstm_perplexity"] > 1.0
        assert payload["unigram_perplexity"] > 1.0

    def test_eval_scores_the_test_split_of_its_pipeline_run(self, tmp_path, capsys):
        # eval splits with the seed the model file records, so its test split
        # is the one the pipeline held out, and its perplexities are the run's
        run = tmp_path / "run"
        assert main(["pipeline", "--demo", "--out", str(run), "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(run / "seq_model.txt"),
                     "--vehicles", str(run / "data" / "vehicles.csv"),
                     "--maintenance", str(run / "data" / "maintenance.csv"),
                     "--split", "test"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = json.loads((run / "metrics.json").read_text())
        assert (payload["lstm_perplexity"], payload["unigram_perplexity"]) == (
            metrics["lstm_test_perplexity"], metrics["unigram_test_perplexity"])

    def test_eval_overflowing_model_is_data_error(self, tmp_path):
        run = tmp_path / "run"
        assert main(["pipeline", "--demo", "--out", str(run), "--seed", "1234"]) == 0
        lines = (run / "seq_model.txt").read_text().split("\n")
        assert lines[815].startswith("block out_w ")
        values = lines[854].split(" ")
        # finite, but the mean negative log-probability overflows exp
        values[4] = "2147483648"
        lines[854] = " ".join(values)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        # a subprocess, so that a numpy warning would reach stderr
        proc = run_cli(
            "eval", "--model", str(bad), "--vehicles", str(run / "data" / "vehicles.csv"),
            "--maintenance", str(run / "data" / "maintenance.csv"), "--split", "all",
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("data-error: "), proc.stderr
        assert "perplexity is not finite" in err[0]

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

    @pytest.mark.parametrize("prefix, labels", [
        ("brakes,tires, tubes, liners & valves", ["brakes", "tires, tubes, liners & valves"]),
        ("Brakes", ["brakes"]),
        (" PM Service All Levels,,Tires, Tubes, Liners & Valves ",
         ["pm service all levels", "tires, tubes, liners & valves"]),
    ])
    def test_predict_prefix_reads_vocabulary_labels(self, model_path, capsys, prefix, labels):
        model = SeqModel.load(model_path)
        assert set(labels) <= set(model.vocab.labels)
        assert main(["predict", "--model", str(model_path), "--prefix", prefix,
                     "--top-k", "10"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == "".join(
            f"{prob:.6f}\t{label}\n" for label, prob in predict_next(model, labels, top_k=10))

    def test_predict_unknown_prefix_label_is_named(self, model_path, capsys):
        model = SeqModel.load(model_path)
        assert main(["predict", "--model", str(model_path),
                     "--prefix", "brakes,Brake Pads,brake pads", "--top-k", "10"]) == 0
        out = capsys.readouterr()
        assert out.err == "note: prefix labels read as <unk>: 'brake pads'\n"
        assert out.out == "".join(f"{prob:.6f}\t{label}\n" for label, prob in
                                  predict_next(model, ["brakes", "<unk>", "<unk>"], top_k=10))

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

    @pytest.mark.parametrize("edit", ["two layers", "extra label", "extra blocks field",
                                      "renamed block", "trailing junk"])
    def test_model_not_matching_its_config_is_data_error(self, model_path, tmp_path, capsys,
                                                         edit):
        lines = model_path.read_text().split("\n")
        assert json.loads(lines[1])["layers"] == 1 and lines[4].startswith("block embedding ")
        if edit == "two layers":
            lines[1] = lines[1].replace('"layers": 1', '"layers": 2', 1)
        elif edit == "extra label":
            lines[2] = json.dumps(json.loads(lines[2]) + ["zzz extra"])
        elif edit == "extra blocks field":
            assert lines[3].startswith("blocks ")
            lines[3] += " extra"
        elif edit == "renamed block":
            lines[4] = lines[4].replace("block embedding ", "block embeddings ", 1)
        else:
            lines[-1] = "junk\n"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        code = main(["predict", "--model", str(bad), "--prefix", "brakes"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("data-error:") and len(err.splitlines()) == 1, err

    def test_diverging_training_is_data_error(self, fleet_dir, tmp_path):
        out = tmp_path / "m.txt"
        proc = run_cli(
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--lr", "1e300", "--epochs", "2", "--hidden-dim", "8", "--embed-dim", "4",
            "--layers", "1", "--out", str(out),
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data-error: non-finite"), proc.stderr
        assert not out.exists()

    def test_working_set_past_the_bound_is_data_error(self, fleet_dir, tmp_path, capsys,
                                                       monkeypatch):
        def no_init(*args):
            raise AssertionError("parameters allocated")

        monkeypatch.setattr(lstm, "_init_params", no_init)
        out = tmp_path / "m.txt"
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--hidden-dim", "4096", "--layers", "16", "--out", str(out),
        ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data-error: a 16x4096 LSTM"), err
        assert not out.exists()

    def test_epochs_past_the_cap(self, fleet_dir, model_path, tmp_path, capsys, monkeypatch):
        # a config error before any table is read; in a model file, a data error
        monkeypatch.setattr("fleetmaint.stages.load", None)
        out = tmp_path / "m.txt"
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--epochs", "1000000000", "--hidden-dim", "4", "--embed-dim", "4", "--layers", "1",
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "config-error: epochs must be <= 1000, got 1000000000\n")
        assert not out.exists()
        lines = model_path.read_text().split("\n")
        lines[1] = lines[1].replace('"epochs": 2', '"epochs": 1001', 1)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        assert main(["predict", "--model", str(bad), "--prefix", "brakes"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data-error: {bad}: line 2: malformed seqmodel config or vocab: "
                       "epochs must be <= 1000, got 1001"]

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

    # each config line is parsed as a flag after the command line's flags, so a
    # command-line value is checked whatever the config file sets
    @pytest.mark.parametrize("argv, config, code", [
        (["parafac", "--rank", "x", "--out", "cp.txt"], "rank = 2", 2),
        (["predict", "--top-k", "0"], "top-k = 3", 2),
        (["parafac", "--rank", "2", "--out", "dir"], "out = cp.txt", 3),
    ], ids=["rank-not-a-number", "top-k-zero", "out-directory"])
    def test_bad_flag_fails_whatever_the_config_file_sets(
            self, tensor_path, model_path, tmp_path, monkeypatch, capsys, argv, config, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "c.cfg").write_text(config + "\n")
        inputs = ["--tensor", str(tensor_path)] if argv[0] == "parafac" else [
            "--model", str(model_path), "--prefix", "brakes"]
        assert main([*argv, *inputs, "--config", "c.cfg"]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "dir"]
        assert not any((tmp_path / "dir").iterdir())

    def test_config_file_not_utf8_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the message names the first line that is not UTF-8, as a table's does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_bytes(b"top-k = 3\n\xff\n")
        code = main(["predict", "--model", "x", "--config", "c.cfg"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config-error: c.cfg: line 2: not UTF-8 text: invalid start byte\n")

    # the parser's own ``command`` and ``func`` are not options either
    @pytest.mark.parametrize("key", ["no-such-option", "func", "command"])
    def test_bad_config_key_is_config_error(self, fleet_dir, tmp_path, capsys, key):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = 12\n")
        code = main([
            "train",
            "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"),
            "--out", str(tmp_path / "m.txt"), "--config", str(config),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config-error: {config}: line 1: unknown option '{key}'\n")
        assert not (tmp_path / "m.txt").exists()

    # a config file names its line as a table or model file does
    @pytest.mark.parametrize("line, message", [
        ("rank 3", "expected key = value, got 'rank 3'"),
        ("config = other.cfg", "a config file cannot name another config file"),
    ])
    def test_config_file_error_names_its_line(self, tmp_path, monkeypatch, capsys, line,
                                              message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(f"# one comment\n{line}\n")
        assert main(["parafac", "--tensor", "t.txt", "--out", "m.txt", "--config", "c.cfg"]) == 2
        assert capsys.readouterr().err == f"config-error: c.cfg: line 2: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


    @pytest.mark.parametrize("command, config", [
        (["tensorize", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "t.txt"],
         "time_mode = bogus"),
        (["tensorize", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "t.txt"],
         "horizon = eight"),
        (["report", "--model", "m.txt", "--out", "rep"], "format = png"),
        (["report", "--model", "m.txt", "--out", "rep"], "config = other.txt"),
        (["report", "--model", "m.txt", "--out", "rep"], "command = train"),
        (["seqmine", "--vehicles", "v.csv", "--maintenance", "m.csv", "--target", "X",
          "--out", "d.csv"], "bonferroni = maybe"),
        (["pipeline", "--out", "run"], "demo = 1"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, monkeypatch, capsys, command,
                                              config):
        monkeypatch.chdir(tmp_path)  # the relative paths must never be written
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        code = main([*command, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["tensorize", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "t.txt",
         "--time-mode", "bogus"],
        ["parafac", "--tensor", "t.txt", "--out", "m.txt", "--rank", "five"],
        ["predict", "--model", "m.txt", "--no-such-flag"],
        ["no-such-command"],
        [],
    ])
    def test_bad_flag_is_one_config_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and len(err.splitlines()) == 1, err


TENSORIZE = ["tensorize", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "t.txt"]
PARAFAC = ["parafac", "--tensor", "t.txt", "--out", "m.txt"]
TRAIN = ["train", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "m.txt"]
SEQMINE = ["seqmine", "--vehicles", "v.csv", "--maintenance", "m.csv", "--target", "X",
           "--out", "d.csv"]
SYNTH = ["synth", "--out", "fleet"]
PIPELINE = ["pipeline", "--demo", "--out", "run"]


@pytest.mark.parametrize("argv", [
    [*PARAFAC, "--rank", "0"],
    [*PARAFAC, "--tol", "2"],
    [*PARAFAC, "--max-iters", "0"],
    [*PARAFAC, "--restarts", "0"],
    [*PARAFAC, "--rank", "1001"],
    [*PARAFAC, "--rank", "100000000"],
    [*PARAFAC, "--restarts", "101"],
    [*PARAFAC, "--restarts", "100000000", "--max-iters", "1"],
    [*TRAIN, "--batch-size", "0"],
    [*TRAIN, "--dropout-keep", "0"],
    [*TRAIN, "--lr", "-1"],
    [*TRAIN, "--lr-constant-epochs", "-5"],
    [*TRAIN, "--hidden-dim", "100000000"],
    [*TRAIN, "--embed-dim", "100000000"],
    [*TRAIN, "--layers", "100000"],
    [*TRAIN, "--bptt-steps", "1001"],
    [*TRAIN, "--batch-size", "4097"],
    *([*TRAIN, flag, value] for flag in ("--lr", "--lr-decay", "--grad-clip")
      for value in ("nan", "inf")),
    ["predict", "--model", "m.txt", "--top-k", "0"],
    [*TENSORIZE, "--horizon", "0"],
    [*TENSORIZE, "--horizon", "201"],
    [*TENSORIZE, "--time-mode", "lifetime", "--horizon", "100000000"],
    [*TENSORIZE, "--window-start", "2010-13"],
    [*TENSORIZE, "--window-start", "2016-12", "--window-end", "2016-11"],
    [*TENSORIZE, "--window-start", "1900-01", "--window-end", "2101-01"],
    *([*TENSORIZE, "--window-end", value] for value in ("abc", "2015", "2015-1-1", "", "2015-00")),
    ["report", "--model", "m.txt", "--out", "rep", "--component", "abc"],
    ["report", "--model", "m.txt", "--out", "rep", "--component", "0"],
    [*SEQMINE, "--min-len", "4", "--max-len", "3"],
    [*SEQMINE, "--top-n", "x"],
    [*SYNTH, "--seed", "-1"],
    [*PIPELINE, "--seed", "-1"],
], ids=" ".join)
def test_flag_out_of_range_is_config_error(tmp_path, monkeypatch, capsys, argv):
    # none of the named files exist: the flags are checked before any is read
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config-error: ") and len(err.splitlines()) == 1, err
    assert not list(tmp_path.iterdir())


def just_outside(f):
    """A flag value just outside each bound, and one not in the choices,
    declared on the config field ``f``."""
    for key, bound in f.metadata.items():
        if key in ("ge", "le"):
            if f.type == "int":
                yield str(bound - 1 if key == "ge" else bound + 1)
            else:
                yield repr(math.nextafter(bound, -math.inf if key == "ge" else math.inf))
        elif key in ("gt", "lt"):
            yield str(bound)
        elif key == "choices":
            yield "bogus"


FIELD_FLAG_CASES = [
    ([*argv, f"--{f.metadata.get('flag', f.name).replace('_', '-')}", value], f.name)
    for cls, argv in ((TensorizeSpec, TENSORIZE), (AlsOptions, PARAFAC), (MineOptions, SEQMINE),
                      (LstmConfig, TRAIN), (Seeded, SYNTH), (Seeded, PIPELINE))
    for f in dataclasses.fields(cls)
    for value in just_outside(f)
]


@pytest.mark.parametrize("argv, name", FIELD_FLAG_CASES,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in FIELD_FLAG_CASES])
def test_field_flag_just_outside_its_bound_is_config_error(tmp_path, monkeypatch, capsys,
                                                           argv, name):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config-error: ") and len(err.splitlines()) == 1, err
    assert name in err or argv[-2] in err, err
    assert not list(tmp_path.iterdir())


# each config is checked as it is built, whoever builds it
@pytest.mark.parametrize("cls, values, name", [
    (TensorizeSpec, dict(lifetime_horizon_years=0), "lifetime_horizon_years"),
    (AlsOptions, dict(rank=MAX_RANK + 1), "rank"),
    (MineOptions, dict(top_n=0), "top_n"),
    (LstmConfig, dict(dropout_keep=0.0), "dropout_keep"),
    (Vocab, dict(labels=("brakes", 0)), "labels[1]"),
    (FleetSpec, dict(vars(demo_spec()), background_rate=-1e-9), "background_rate"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_config_is_checked_when_built(cls, values, name):
    assert issubclass(cls, Checked)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        cls(**values)


def _subclasses(cls):
    return [sub for child in cls.__subclasses__() for sub in (child, *_subclasses(child))]


# a config that exists has passed its check: none can be changed after it is built,
# nor can a mapping it holds
def test_every_config_is_frozen():
    configs = {*_subclasses(Checked), PlantedComponent, PlantedMotif, MarkovSpec}
    assert {cls.__name__ for cls in configs} >= {
        "TensorizeSpec", "AlsOptions", "MineOptions", "LstmConfig", "Vocab", "FleetSpec",
        "PlantedComponent", "PlantedMotif", "MarkovSpec"}
    for cls in configs:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__
    mappings = set()
    for config in (TensorizeSpec(), AlsOptions(), MineOptions(), LstmConfig(),
                   Vocab(("brakes",)), demo_spec(), *demo_spec().components,
                   *demo_spec().motifs, MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 3)):
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, value)
            if isinstance(value, Mapping):
                mappings.add(f.name)
                key = next(iter(value), "KEY")
                with pytest.raises(TypeError):
                    value[key] = value.get(key)
                with pytest.raises(TypeError):
                    del value[key]
    assert mappings == {"vehicles", "markov", "vehicle_weights", "system_weights"}
    # a dict passed in and changed after the build does not reach the spec
    spec = demo_spec()
    vehicles, weights = dict(spec.vehicles), dict(spec.components[0].vehicle_weights)
    built = dataclasses.replace(spec, vehicles=vehicles, components=(
        dataclasses.replace(spec.components[0], vehicle_weights=weights), *spec.components[1:]))
    vehicles["X"], weights["NOPE"] = 2, 5.0
    assert built == spec


@pytest.mark.parametrize("cls, argv, renames", [
    (TensorizeSpec, TENSORIZE,
     {"lifetime_horizon_years": "horizon", "purchase_year_floor": "year_floor"}),
    (AlsOptions, PARAFAC, {"n_restarts": "restarts"}),
    (MineOptions, SEQMINE, {}),
    (LstmConfig, TRAIN, {}),
], ids=["tensorize", "parafac", "seqmine", "train"])
def test_flag_defaults_are_the_dataclass_defaults(cls, argv, renames):
    args = build_parser().parse_args(argv)
    # only a command with a randomized step takes --seed
    assert ("seed" in vars(args)) == issubclass(cls, Seeded)
    for f in dataclasses.fields(cls):
        assert getattr(args, renames.get(f.name, f.name)) == f.default, f.name


# the library's configs, the demo fleet and every seeded command share one default seed
def test_one_default_seed():
    seed = Seeded().seed
    assert AlsOptions().seed == LstmConfig().seed == demo_spec().seed == seed
    for argv in (SYNTH, PARAFAC, TRAIN, PIPELINE):
        assert build_parser().parse_args(argv).seed == seed, argv[0]


@pytest.mark.parametrize("kind", ["tensor", "cp model", "seq model"])
def test_non_utf8_format_file_is_data_error(tensor_path, model_path, tmp_path, kind):
    source = {"tensor": tensor_path, "seq model": model_path}.get(kind, tmp_path / "cp.txt")
    if kind == "cp model":
        assert main(["parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                     "--out", str(source)]) == 0
    lines = source.read_bytes().split(b"\n")
    middle = len(lines) // 2
    lines[middle] = lines[middle][:2] + b"\xff" + lines[middle][2:]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\n".join(lines))
    argv = {
        "tensor": ["parafac", "--tensor", str(bad), "--rank", "2", "--out", str(tmp_path / "m")],
        "cp model": ["report", "--model", str(bad), "--out", str(tmp_path / "rep")],
        "seq model": ["predict", "--model", str(bad), "--prefix", "brakes"],
    }[kind]
    # a subprocess, so that a traceback or warning would reach stderr
    proc = run_cli(*argv)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        f"data-error: {bad}: line {middle + 1}: not UTF-8 text: invalid start byte\n")
    assert not (tmp_path / "m").exists() and not (tmp_path / "rep").exists()


@pytest.mark.parametrize("kind", ["tensor", "cp model", "seq model", "seq vocab of integers",
                                  "seq vocab as a string"])
def test_format_file_content_error_names_the_file(tensor_path, model_path, tmp_path, kind):
    source = {"tensor": tensor_path, "cp model": tmp_path / "cp.txt"}.get(kind, model_path)
    if kind == "cp model":
        assert main(["parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                     "--out", str(source)]) == 0
    lines = source.read_text().split("\n")
    if kind == "tensor":  # cut three lines of 8 values off the end
        dims = [int(v) for v in lines[1].split()[1:]]
        count = dims[0] * dims[1] * dims[2]
        lines[-4:] = [""]
        message = f"tensor3 values: expected {count} values, found {count - 24}"
    elif kind == "cp model":
        assert lines[5] == "converged 0"
        lines[5] = "converged 7"
        message = "line 6: cpmodel converged must be <= 1, got 7"
    elif kind == "seq vocab of integers":
        lines[2] = json.dumps(list(range(len(json.loads(lines[2])))))
        message = "line 3: malformed seqmodel config or vocab: labels[0] must be a string, got 0"
    elif kind == "seq vocab as a string":
        lines[2] = json.dumps("abcdefgh")
        message = ("line 3: malformed seqmodel config or vocab: labels must be a list, "
                   "got 'abcdefgh'")
    else:
        config = json.loads(lines[1])
        config["lr"] = -1.0
        lines[1] = json.dumps(config, sort_keys=True)
        message = "line 2: malformed seqmodel config or vocab: lr must be > 0, got -1.0"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines))
    argv = {
        "tensor": ["parafac", "--tensor", str(bad), "--rank", "2", "--out", str(tmp_path / "m")],
        "cp model": ["report", "--model", str(bad), "--out", str(tmp_path / "rep")],
    }.get(kind, ["predict", "--model", str(bad), "--prefix", "brakes"])
    proc = run_cli(*argv)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == f"data-error: {bad}: {message}\n"
    assert not (tmp_path / "m").exists() and not (tmp_path / "rep").exists()


def test_report_on_zero_dims_model_is_data_error(tmp_path):
    # a consistent rank-1 model of a 0x0x0 tensor: no labels, empty factor blocks
    model = tmp_path / "cp.txt"
    model.write_text("cpmodel v1\nrank 1\ndims 0 0 0\nfit 0.5\niterations 1\nconverged 0\n"
                     "weights 1.0\nfits 1 0.5\nwarnings 0\n")
    proc = run_cli("report", "--model", str(model), "--out", str(tmp_path / "rep"))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == f"data-error: {model}: line 3: cpmodel dims must be >= 1, got 0\n"
    assert not (tmp_path / "rep").exists()


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@pytest.mark.parametrize("kind, keyword, at, spell", [
    ("cp model", "fits", 1, lambda v: "1_0"),
    ("cp model", "fits", 1, lambda v: "nan"),
    ("cp model", "fits", 1, lambda v: "infinity"),
    ("cp model", "fits", 1, lambda v: "1e999"),
    ("cp model", "fit", 0, lambda v: "1_0"),
    ("cp model", "rank", 0, lambda v: "+" + v),
    ("tensor", "dims", 0, lambda v: v[0] + "_" + v[1:]),
    ("tensor", "dims", 0, lambda v: v.translate(ARABIC_INDIC)),
    ("tensor", "dims", 0, lambda v: "+" + v),
    ("seq model", "blocks", 0, lambda v: "+" + v),
], ids=["fits 1_0", "fits nan", "fits infinity", "fits 1e999", "fit 1_0", "rank +", "dims 6_0",
        "dims arabic-indic", "dims +", "blocks +"])
def test_number_outside_the_format_grammar_is_data_error(tensor_path, model_path, tmp_path,
                                                          kind, keyword, at, spell):
    """Header integers are ASCII digits and float values go through
    ``parse_floats``: a value that Python's int() or float() would take but
    the writers never write names the file and its line."""
    source = {"tensor": tensor_path, "seq model": model_path}.get(kind, tmp_path / "cp.txt")
    if kind == "cp model":
        assert main(["parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                     "--out", str(source)]) == 0
    lines = source.read_text().split("\n")
    line_no = next(i for i, line in enumerate(lines) if line.split(" ")[0] == keyword)
    values = lines[line_no].split(" ")
    values[1 + at] = spell(values[1 + at])
    lines[line_no] = " ".join(values)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines), encoding="utf-8")
    argv = {
        "tensor": ["parafac", "--tensor", str(bad), "--rank", "2", "--out", str(tmp_path / "m")],
        "cp model": ["report", "--model", str(bad), "--out", str(tmp_path / "rep")],
        "seq model": ["predict", "--model", str(bad), "--prefix", "brakes"],
    }[kind]
    proc = run_cli(*argv)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"data-error: {bad}: line {line_no + 1}: {kind.split()[0]}"
                                  if keyword in ("fit", "fits") else
                                  f"data-error: {bad}: line {line_no + 1}: {keyword} "), proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "m").exists() and not (tmp_path / "rep").exists()


def test_model_with_nan_fit_reports(tensor_path, tmp_path):
    """nan is the fit a model assembled from known factors saves."""
    path = tmp_path / "cp.txt"
    assert main(["parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                 "--out", str(path)]) == 0
    lines = path.read_text().split("\n")
    assert lines[3].startswith("fit ")
    lines[3] = "fit nan"
    path.write_text("\n".join(lines))
    assert math.isnan(load_model(path).fit)
    assert main(["report", "--model", str(path), "--out", str(tmp_path / "rep")]) == 0


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command, name", [
    ("synth", "vehicles.csv"), ("synth", "maintenance.csv"), ("synth", "manifest.json"),
    ("tensorize", "tensor.txt"), ("tensorize", "discards.json"),
    ("report", "factor_report.csv"), ("report", "component_01.svg"),
    ("seqmine", "diff.csv"), ("train", "seq_model.txt"),
])
def test_failed_write_names_its_path(fleet_dir, tensor_path, tmp_path, capsys, command, name):
    # the artifact is a link to /dev/full, so writing it fails as on a full disk
    target = tmp_path / name
    target.symlink_to("/dev/full")
    tables = ["--vehicles", str(fleet_dir / "vehicles.csv"),
              "--maintenance", str(fleet_dir / "maintenance.csv")]
    argv = {
        "synth": ["synth", "--out", str(tmp_path)],
        "tensorize": ["tensorize", *tables, "--window-start", "2013-01",
                      "--out", str(tmp_path / "tensor.txt"),
                      "--discards", str(tmp_path / "discards.json")],
        "report": ["report", "--model", str(tmp_path / "cp.txt"), "--out", str(tmp_path)],
        "seqmine": ["seqmine", *tables, "--target", "DODGE CHARGER", "--out", str(target)],
        "train": ["train", *tables, "--embed-dim", "8", "--hidden-dim", "16", "--layers", "1",
                  "--epochs", "1", "--out", str(target)],
    }[command]
    if command == "report":
        assert main(["parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                     "--out", str(tmp_path / "cp.txt")]) == 0
        capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"io-error: [Errno 28] No space left on device: '{target}'\n"


@needs_dev_full
def test_full_disk_is_one_io_error_line(tensor_path):
    # a subprocess, so that a traceback would reach stderr
    proc = run_cli("parafac", "--tensor", str(tensor_path), "--rank", "2", "--max-iters", "5",
                   "--out", "/dev/full")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "io-error: [Errno 28] No space left on device: '/dev/full'\n"


@pytest.mark.parametrize("name, exc, code, line", [
    ("stages.cp_als", KeyboardInterrupt, 130, "interrupted"),
    ("cli.cmd_parafac", RuntimeError("boom"), 1, "internal-error: boom"),
    ("cli.cmd_parafac", MemoryError(), 1, "internal-error: MemoryError"),
], ids=["interrupt inside a stage", "last-resort guard", "last-resort guard, empty text"])
def test_uncategorized_exception_is_one_line(tensor_path, tmp_path, capsys, monkeypatch,
                                             name, exc, code, line):
    def fail(*args):
        raise exc

    monkeypatch.setattr(f"fleetmaint.{name}", fail)
    assert main(["parafac", "--tensor", str(tensor_path), "--out", str(tmp_path / "m")]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("exc, code, line", [
    (KeyboardInterrupt(), 130, "interrupted"),
    (OSError(28, "No space left on device"), 3,
     "io-error: [Errno 28] No space left on device: '{path}'"),
], ids=["interrupt", "full disk"])
def test_failed_rewrite_leaves_the_earlier_artifact(fleet_dir, tmp_path, capsys, monkeypatch,
                                                    exc, code, line):
    path = tmp_path / "tensor.txt"
    argv = ["tensorize", "--vehicles", str(fleet_dir / "vehicles.csv"),
            "--maintenance", str(fleet_dir / "maintenance.csv"), "--out", str(path)]
    assert main(argv) == 0
    earlier = path.read_bytes()
    capsys.readouterr()
    write_floats = tensor_module.write_floats

    class FailsInItsFirstChunk:
        # the demo tensor's values are one chunk: half of it reaches the disk
        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            self._fh.write(text[:len(text) // 2])
            self._fh.flush()
            raise exc

    monkeypatch.setattr(tensor_module, "write_floats",
                        lambda fh, *args: write_floats(FailsInItsFirstChunk(fh), *args))
    assert main(argv) == code
    assert capsys.readouterr().err == line.format(path=path) + "\n"
    assert path.read_bytes() == earlier
    assert os.listdir(tmp_path) == ["tensor.txt"]


@pytest.mark.parametrize("command, flag", [
    ("tensorize", "--out"), ("tensorize", "--discards"), ("parafac", "--out"),
    ("seqmine", "--out"), ("train", "--out"),
])
def test_a_target_fails_before_any_input_is_read(tmp_path, capsys, command, flag):
    # every input is missing, so an error that names the target was raised first
    missing = str(tmp_path / "missing.csv")
    tables = ["--vehicles", missing, "--maintenance", missing]
    inputs = {"tensorize": tables, "parafac": ["--tensor", missing],
              "seqmine": [*tables, "--target", "DODGE CHARGER"], "train": tables}[command]
    directory = tmp_path / "dir"
    directory.mkdir()
    targets = {"--out": str(tmp_path / "out.txt"), flag: str(directory)}
    assert main([command, *inputs, *(arg for item in targets.items() for arg in item)]) == 3
    assert capsys.readouterr().err == f"io-error: [Errno 21] Is a directory: '{directory}'\n"
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(directory) == []


def test_train_to_a_directory_fails_before_training(fleet_dir, tmp_path, capsys, monkeypatch):
    def trained(*args):
        raise AssertionError("train ran before its target was checked")

    monkeypatch.setattr("fleetmaint.stages.train_lstm", trained)
    assert main(["train", "--vehicles", str(fleet_dir / "vehicles.csv"),
                 "--maintenance", str(fleet_dir / "maintenance.csv"), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", f"io-error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert os.listdir(tmp_path) == []


def test_sigterm_is_an_interrupt(tensor_path, tmp_path, capsys, monkeypatch):
    def terminated(*args):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(2)  # main's handler raises before this ends

    # a handler of the test's own, which main restores; it keeps pytest alive if main sets none
    def outer(*args):
        pass

    monkeypatch.setattr("fleetmaint.stages.cp_als", terminated)
    previous = signal.signal(signal.SIGTERM, outer)
    try:
        code = main(["parafac", "--tensor", str(tensor_path), "--out", str(tmp_path / "m")])
        assert signal.getsignal(signal.SIGTERM) is outer
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["seqmine", "train", "eval"])
def test_unknown_vehicle_rows_are_noted(fleet_dir, model_path, tmp_path, capsys, command):
    # the first vehicle's rows are left without a vehicle
    lines = (fleet_dir / "vehicles.csv").read_text().splitlines(keepends=True)
    (tmp_path / "vehicles.csv").write_text(lines[0] + "".join(lines[2:]))
    unit = lines[1].split(",")[0]
    with open(fleet_dir / "maintenance.csv", newline="") as fh:
        orphans = sum(row["Unit No"] == unit for row in csv.DictReader(fh))
    tables = ["--vehicles", str(tmp_path / "vehicles.csv"),
              "--maintenance", str(fleet_dir / "maintenance.csv")]
    argv = {
        "seqmine": ["seqmine", *tables, "--target", "DODGE CHARGER",
                    "--out", str(tmp_path / "d.csv")],
        "train": ["train", *tables, "--embed-dim", "4", "--hidden-dim", "4", "--layers", "1",
                  "--epochs", "1", "--out", str(tmp_path / "m.txt")],
        "eval": ["eval", "--model", str(model_path), *tables],
    }[command]
    assert main(argv) == 0
    assert orphans > 0
    assert capsys.readouterr().err == f"note: {orphans} maintenance rows had unknown vehicles\n"


HELP_PINS = Path(__file__).parent / "data" / "cli_help.txt"


def help_pins():
    """``{argv: text}`` of each ``==> fleetmaint <argv> <==`` section of HELP_PINS."""
    sections = HELP_PINS.read_text(encoding="utf-8").split("==> fleetmaint ")[1:]
    return dict(section.split(" <==\n", 1) for section in sections)


# argparse's layout changes between Python releases (3.13 joins the metavar
# of short and long options, for one); the pins are those of Python 3.11
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help pins are Python 3.11's")
@pytest.mark.parametrize("argv", list(help_pins()))
def test_help_is_pinned(argv, monkeypatch, capsys):
    """``fleetmaint [<cmd>] --help`` at 80 columns, byte for byte; after a
    deliberate change, regenerate HELP_PINS from the same calls."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == help_pins()[argv]


def test_perfbench_names_resolve_on_cli():
    # perfbench's passes look up every package name they call on fleetmaint.cli
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    names = {node.attr for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "cli"}
    assert names
    assert [name for name in sorted(names) if not hasattr(cli, name)] == []


def test_help_pins_cover_every_parser():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert list(help_pins()) == ["--help"] + [f"{name} --help" for name in commands]


class TestPipeline:
    def test_subcommand_chain_writes_what_pipeline_writes(self, tmp_path, monkeypatch, capsys):
        # the subcommands, run on the pipeline's tables with its settings,
        # write its artifacts into chain/, the working directory
        run, chain = tmp_path / "run", tmp_path / "chain"
        assert main(["pipeline", "--demo", "--seed", "1234", "--out", str(run)]) == 0
        chain.mkdir()
        monkeypatch.chdir(chain)
        tables = ["--vehicles", str(run / "data" / "vehicles.csv"),
                  "--maintenance", str(run / "data" / "maintenance.csv")]
        for argv in (
            ["tensorize", *tables, "--window-start", "2013-01", "--window-end", "2016-12",
             "--out", "tensor.txt", "--discards", "discards.json"],
            ["parafac", "--tensor", "tensor.txt", "--rank", "5", "--max-iters", "300",
             "--tol", "1e-8", "--restarts", "2", "--seed", "1234", "--out", "cp_model.txt"],
            ["report", "--model", "cp_model.txt", "--out", "reports"],
            ["seqmine", *tables, "--target", "DODGE CHARGER", "--top-n", "8",
             "--out", "seqmine.csv"],
            ["train", *tables, "--embed-dim", "16", "--hidden-dim", "32", "--layers", "1",
             "--dropout-keep", "0.9", "--epochs", "6", "--lr-constant-epochs", "4",
             "--seed", "1234", "--out", "seq_model.txt"],
        ):
            assert main(argv) == 0, argv
        reports = sorted(p.name for p in (run / "reports").iterdir())
        assert sorted(p.name for p in (chain / "reports").iterdir()) == reports
        for name in ["tensor.txt", "discards.json", "cp_model.txt", "seqmine.csv",
                     "seq_model.txt", *(f"reports/{report}" for report in reports)]:
            assert (chain / name).read_bytes() == (run / name).read_bytes(), name
        capsys.readouterr()
        assert main(["eval", "--model", "seq_model.txt", *tables, "--split", "test"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = json.loads((run / "metrics.json").read_text())
        assert (payload["lstm_perplexity"], payload["unigram_perplexity"]) == (
            metrics["lstm_test_perplexity"], metrics["unigram_test_perplexity"])

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
