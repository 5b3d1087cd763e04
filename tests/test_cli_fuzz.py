"""Fuzzing of the CLI's config-file, fleet-spec, job-table, tensor and model
inputs, and of its numeric flag values.

Each example mutates one valid input (a ``train --config`` file, a
``synth --spec`` fleet spec, the demo fleet's vehicle or maintenance table,
the demo ``tensor.txt`` that ``parafac`` reads, or a ``cp_model.txt`` that
``report`` reads or ``seq_model.txt`` that ``predict`` reads) and runs
``cli.main`` in-process. The mutations flip bits, drop, duplicate or swap
lines and keys, swap values for awkward numbers or for values of other JSON
types, and cut files short or inject quotes, NULs and carriage returns into
them.
The mutated file is the only input at fault, so whatever the mutation, the
run either succeeds or ends with one error line on stderr:
``config-error: `` with exit code 2 for a config file or spec, and
``data-error: `` naming the file with exit code 4 for a table, a tensor or
a model. Never another exit code, a warning or a traceback, and a run that
succeeds writes or prints no nan or inf.

The numeric flags take every spelling of ``FLAG_SPELLINGS`` and their own
bounds plus and minus one, with the model stage stubbed out; a run either
hands the stage the number the spelling reads as, or ends with one
categorized error line.
"""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint import stages
from fleetmaint.cli import main
from fleetmaint.ingest import TensorizeSpec
from fleetmaint.knobs import BOUNDS
from fleetmaint.lstm import LstmConfig, SeqModel
from fleetmaint.parafac import AlsOptions, load_model
from fleetmaint.seqmine import MineOptions

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

VALID_CONFIG = """\
# a small LSTM that trains in a few milliseconds
embed-dim = 4
hidden-dim = 5
layers = 1
dropout-keep = 0.9
bptt-steps = 6
batch-size = 2
epochs = 1
lr = 0.5
lr-constant-epochs = 1
lr-decay = 0.5
grad-clip = 5.0
seed = 3
"""

VALID_SPEC = {
    "seed": 5,
    "vehicles": {"DODGE CHARGER": 3, "FORD F150": 3},
    "window_start": "2015-01",
    "months": 3,
    "systems": ["Brakes", "Tires", "Lights"],
    "background_rate": 0.5,
    "components": [{
        "name": "c", "vehicle_weights": {"DODGE CHARGER": 1.0},
        "system_weights": {"Brakes": 1.0}, "time_profile": [1.0, 0.5, 0.25],
        "intensity": 2.0,
    }],
    "motifs": [{"make_model": "DODGE CHARGER", "labels": ["Tires", "Lights"], "rate": 0.2}],
    "markov": {"FORD F150": {
        "labels": ["Brakes", "Tires"], "transition": [[0.25, 0.75], [0.75, 0.25]],
        "start": [1, 1], "length": 5,
    }},
    "purchase_years": [2013, 2014],
    "noiseless": False,
}

# what a config-file number is swapped for, and what any fleet-spec value is
SWAPS = ["0", "-1", "1.5", "nan", "inf", "x", "true", "null"]
JSON_SWAPS = [0, -1, 1.5, float("nan"), float("inf"), "x", "1.5", True, False, None,
              [], ["x"], {}, {"x": 1}]


def edits(kinds):
    """One to three (kind, where, which) edits; ``where`` picks the place and
    ``which`` the swapped-in value or the flipped bit, both modulo their range.
    A swap is drawn twice as often as each other kind."""
    edit = st.tuples(st.sampled_from(["swap"] * 2 + kinds), st.integers(0, 1 << 16),
                     st.integers(0, 1 << 16))
    return st.lists(edit, min_size=1, max_size=3)


def run(argv, out=None):
    """Exit code and stderr of ``main(argv)``, whose stdout goes to ``out``
    if given; fails on any warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO() if out is None else out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


def check_outcome(code, err):
    """The mutated file is the only input at fault: the run succeeds with an
    empty stderr or fails with exit code 2 and one ``config-error: `` line."""
    if code == 0:
        assert err == "", err
    else:
        assert code == 2, (code, err)
        assert err.startswith("config-error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err


def edit_text(text: str, kind: str, where: int, which: int) -> str:
    """``text`` with one line dropped or repeated, or one bit of one byte flipped."""
    if kind == "flip":
        data = bytearray(text.encode("utf-8", "surrogateescape"))
        data[where % len(data)] ^= 1 << (which % 8)
        return data.decode("utf-8", "surrogateescape")
    lines = text.splitlines(keepends=True)
    at = where % len(lines)
    lines[at:at + 1] = [] if kind == "drop-line" else [lines[at]] * 2
    return "".join(lines) or "\n"


# ---------------------------------------------------------------------------
# the --config file
# ---------------------------------------------------------------------------


def mutate_config(text: str, edit_list) -> bytes:
    for kind, where, which in edit_list:
        if kind == "swap":  # the value of one key = value line
            lines = text.splitlines(keepends=True)
            at = where % len(lines)
            if "=" in lines[at]:
                lines[at] = lines[at].partition("=")[0] + f"= {SWAPS[which % len(SWAPS)]}\n"
            text = "".join(lines)
        else:
            text = edit_text(text, kind, where, which)
    return text.encode("utf-8", "surrogateescape")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_fleet")
    spec = out / "spec.json"
    spec.write_text(json.dumps(VALID_SPEC))
    assert run(["synth", "--out", str(out), "--spec", str(spec)]) == (0, "")
    return out


def test_valid_config_trains(fleet, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text(VALID_CONFIG)
    code, err = run(["train", "--vehicles", str(fleet / "vehicles.csv"),
                     "--maintenance", str(fleet / "maintenance.csv"),
                     "--out", str(tmp_path / "m.txt"), "--config", str(config)])
    assert (code, err) == (0, "")


@FUZZ
@given(edit_list=edits(["drop-line", "duplicate-line", "flip"]))
def test_mutated_config(fleet, edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "train.cfg"
        config.write_bytes(mutate_config(VALID_CONFIG, edit_list))
        check_outcome(*run([
            "train", "--vehicles", str(fleet / "vehicles.csv"),
            "--maintenance", str(fleet / "maintenance.csv"),
            "--out", str(Path(tmp) / "m.txt"), "--config", str(config),
        ]))


# ---------------------------------------------------------------------------
# the fleet spec
# ---------------------------------------------------------------------------


def slots(node):
    """Every (container, key or index) below ``node``, depth first."""
    found = []
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        found.append((node, key))
        if isinstance(node[key], (dict, list)):
            found.extend(slots(node[key]))
    return found


def mutate_spec(spec: dict, edit_list) -> bytes:
    """The spec edited as a value (drop, duplicate, swap), then as JSON text
    with one scalar per line, so a line edit drops or repeats a key or a value."""
    spec = copy.deepcopy(spec)
    for kind, where, which in edit_list:
        places = slots(spec)
        if kind not in ("drop", "duplicate", "swap") or not places:
            continue
        container, key = places[where % len(places)]
        if kind == "swap":
            container[key] = copy.deepcopy(JSON_SWAPS[which % len(JSON_SWAPS)])
        elif kind == "drop":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:  # the same value under a second key, e.g. a new make/model
            container[f"{key}{key}"] = copy.deepcopy(container[key])
    text = json.dumps(spec, indent=1)
    for kind, where, which in edit_list:
        if kind in ("drop-line", "duplicate-line", "flip"):
            text = edit_text(text, kind, where, which)
    return text.encode("utf-8", "surrogateescape")


def test_valid_spec_synthesizes(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(mutate_spec(VALID_SPEC, []))
    assert run(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == (0, "")


@FUZZ
@given(edit_list=edits(["drop", "duplicate", "drop-line", "duplicate-line", "flip"]))
def test_mutated_spec(edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_bytes(mutate_spec(VALID_SPEC, edit_list))
        out = Path(tmp) / "fleet"
        code, err = run(["synth", "--out", str(out), "--spec", str(spec)])
        check_outcome(code, err)
        if code == 2:  # a spec is checked before anything is written
            assert not out.exists()


# ---------------------------------------------------------------------------
# the vehicle and maintenance tables
# ---------------------------------------------------------------------------

TABLE_FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)
INJECTED = [b'"', b"\0", b"\r"]


def table_edits():
    """One to three (kind, where, which) edits, as ``edits`` draws them."""
    kinds = st.sampled_from(["flip", "truncate", "duplicate-line", "inject"])
    edit = st.tuples(kinds, st.integers(0, 1 << 20), st.integers(0, 1 << 16))
    return st.lists(edit, min_size=1, max_size=3)


def mutate_table(data: bytes, edit_list) -> bytes:
    """``data`` with one bit flipped, cut short, one line repeated, or a
    quote, NUL or carriage return inserted, once per edit."""
    for kind, where, which in edit_list:
        if kind == "truncate":
            data = data[: where % (len(data) + 1)]
        elif kind == "inject":
            at = where % (len(data) + 1)
            data = data[:at] + INJECTED[which % len(INJECTED)] + data[at:]
        elif data and kind == "flip":
            flipped = bytearray(data)
            flipped[where % len(data)] ^= 1 << (which % 8)
            data = bytes(flipped)
        elif data:
            lines = data.splitlines(keepends=True)
            at = where % len(lines)
            lines[at:at + 1] = [lines[at]] * 2
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def demo_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_demo")
    code, err = run(["synth", "--out", str(out)])
    assert (code, err) == (0, "")
    return {name: (out / f"{name}.csv").read_bytes() for name in ("vehicles", "maintenance")}


def check_table_outcome(code, err, table):
    """The run succeeds, or fails with exit code 4 and one ``data-error: ``
    line that names ``table``; ``note: `` lines may come with either."""
    lines = [line for line in err.splitlines() if not line.startswith("note: ")]
    if code == 0:
        assert lines == [], err
    else:
        assert code == 4, (code, err)
        assert len(lines) == 1 and lines[0].startswith("data-error: "), err
        assert str(table) in lines[0], err


@TABLE_FUZZ
@given(table=st.sampled_from(["vehicles", "maintenance"]), edit_list=table_edits())
def test_mutated_table(demo_tables, table, edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in demo_tables}
        for name, data in demo_tables.items():
            paths[name].write_bytes(mutate_table(data, edit_list) if name == table else data)
        tables = ["--vehicles", str(paths["vehicles"]), "--maintenance", str(paths["maintenance"])]
        for argv in (
            ["tensorize", *tables, "--out", str(Path(tmp) / "t.txt")],
            ["seqmine", *tables, "--target", "DODGE CHARGER", "--out", str(Path(tmp) / "s.csv")],
        ):
            check_table_outcome(*run(argv), paths[table])


# ---------------------------------------------------------------------------
# the tensor file
# ---------------------------------------------------------------------------

# what a tensor value is swapped for: finite but with an overflowing norm,
# not finite, negative, past float64, and a zero whose bits are not 0
NUMBERS = ["1e308", "nan", "-1", "1e999", "-0.0"]
CATEGORIES = ("config-error: ", "io-error: ", "data-error: ", "internal-error: ")


def check_file_outcome(code, err, path):
    """Exit 0 with no error line, or one categorized error line that names
    ``path``; never another exit code or a traceback."""
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err, err
    errors = [line for line in err.splitlines() if line.startswith(CATEGORIES)]
    if code == 0:
        assert errors == [], err
    else:
        assert len(errors) == 1 and str(path) in errors[0], err


def tensor_edits(*extra):
    """One to three (kind, where, which) edits, as ``edits`` draws them, of
    the kinds ``mutate_tensor`` makes and the ``extra`` ones."""
    kinds = st.sampled_from(["flip", "truncate", "drop-line", "duplicate-line", "swap-lines",
                             "number", *extra])
    edit = st.tuples(kinds, st.integers(0, 1 << 20), st.integers(0, 1 << 16))
    return st.lists(edit, min_size=1, max_size=3)


def mutate_tensor(data: bytes, first_value_line: int, edit_list, numbers=NUMBERS) -> bytes:
    """``data`` with one bit flipped, cut short, one line dropped, repeated
    or swapped with the next, or one value of the lines from
    ``first_value_line`` on replaced by one of ``numbers``, once per edit."""
    for kind, where, which in edit_list:
        lines = data.splitlines(keepends=True)
        if kind == "truncate":
            data = data[: where % (len(data) + 1)]
        elif kind == "flip" and data:
            flipped = bytearray(data)
            flipped[where % len(data)] ^= 1 << (which % 8)
            data = bytes(flipped)
        elif kind == "number" and len(lines) > first_value_line:
            at = first_value_line + where % (len(lines) - first_value_line)
            tokens = lines[at].split()
            if tokens:
                tokens[which // len(numbers) % len(tokens)] = numbers[which % len(numbers)].encode()
                lines[at] = b" ".join(tokens) + b"\n"
            data = b"".join(lines)
        elif kind != "number" and lines:
            at = where % len(lines)
            if kind == "drop-line":
                del lines[at]
            elif kind == "duplicate-line":
                lines.insert(at, lines[at])
            else:
                lines[at:at + 2] = reversed(lines[at:at + 2])
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def demo_tensor(tmp_path_factory):
    """The demo tensor's bytes and the number of its header and label lines."""
    out = tmp_path_factory.mktemp("fuzz_tensor")
    assert run(["synth", "--out", str(out)]) == (0, "")
    tensor = out / "tensor.txt"
    assert run(["tensorize", "--vehicles", str(out / "vehicles.csv"),
                "--maintenance", str(out / "maintenance.csv"), "--window-start", "2013-01",
                "--out", str(tensor)])[0] == 0
    data = tensor.read_bytes()
    dims = [int(v) for v in data.splitlines()[1].split()[1:]]
    return data, 2 + sum(dims)


def test_valid_tensor_factorizes(demo_tensor, tmp_path):
    tensor = tmp_path / "tensor.txt"
    tensor.write_bytes(mutate_tensor(demo_tensor[0], demo_tensor[1], []))
    code, err = run(["parafac", "--tensor", str(tensor), "--rank", "2", "--max-iters", "5",
                     "--out", str(tmp_path / "m.txt")])
    assert (code, err) == (0, "")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(edit_list=tensor_edits())
# a finite value whose square overflows the norm (seen without the file's name)
@example(edit_list=[("number", 0, 0)])
def test_mutated_tensor(demo_tensor, edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        tensor, model, reports = Path(tmp) / "tensor.txt", Path(tmp) / "m.txt", Path(tmp) / "r"
        tensor.write_bytes(mutate_tensor(*demo_tensor, edit_list))
        code, err = run(["parafac", "--tensor", str(tensor), "--rank", "2", "--max-iters", "5",
                         "--out", str(model)])
        check_file_outcome(code, err, tensor)
        if code == 0:
            cp = load_model(model)
            assert all(map(math.isfinite, (cp.fit, *cp.fits))), (cp.fit, cp.fits)
            assert all(np.isfinite(f).all() for f in (cp.weights, *cp.factors))
            assert run(["report", "--model", str(model), "--out", str(reports),
                        "--format", "csv"]) == (0, "")
            with open(reports / "factor_report.csv", newline="") as fh:
                assert all(math.isfinite(float(row[3])) for row in list(csv.reader(fh))[1:])


# ---------------------------------------------------------------------------
# the cp model and seq model files
# ---------------------------------------------------------------------------

# what a model value, header integers included, is swapped for: NUMBERS, and
# spellings that Python's int() or float() take but the writers never write
MODEL_NUMBERS = NUMBERS + ["1_0", "+1", "\u0666", "0", "infinity"]
SVG_NUMBER = re.compile(r' (?:x|y|width|height)="([^"]*)"')


@pytest.fixture(scope="module")
def demo_models(demo_tables, tmp_path_factory):
    """The bytes of a cp model of the demo tensor and of a seq model of the demo tables."""
    out = tmp_path_factory.mktemp("fuzz_models")
    for name, data in demo_tables.items():
        (out / f"{name}.csv").write_bytes(data)
    tables = ["--vehicles", str(out / "vehicles.csv"),
              "--maintenance", str(out / "maintenance.csv")]
    config = out / "train.cfg"
    config.write_text(VALID_CONFIG)
    for argv in (["tensorize", *tables, "--out", str(out / "tensor.txt")],
                 ["parafac", "--tensor", str(out / "tensor.txt"), "--rank", "2",
                  "--max-iters", "5", "--out", str(out / "cp_model.txt")],
                 ["train", *tables, "--config", str(config), "--out", str(out / "seq_model.txt")]):
        assert run(argv) == (0, "")
    return {name: (out / name).read_bytes() for name in ("cp_model.txt", "seq_model.txt")}


@FUZZ
@given(edit_list=tensor_edits())
def test_mutated_cp_model(demo_models, edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        model, reports = Path(tmp) / "cp_model.txt", Path(tmp) / "r"
        model.write_bytes(mutate_tensor(demo_models["cp_model.txt"], 1, edit_list, MODEL_NUMBERS))
        code, err = run(["report", "--model", str(model), "--out", str(reports)])
        check_file_outcome(code, err, model)
        if code == 0:
            with open(reports / "factor_report.csv", newline="") as fh:
                assert all(math.isfinite(float(row[3])) for row in list(csv.reader(fh))[1:])
            for svg in reports.glob("*.svg"):
                assert all(map(math.isfinite, map(float, SVG_NUMBER.findall(svg.read_text()))))


def swap_labels(data: bytes, edit_list) -> bytes:
    """``data``, a seq model, with one item of its vocabulary line swapped for
    a ``JSON_SWAPS`` value per ``label`` edit."""
    lines = data.split(b"\n")
    labels = json.loads(lines[2])
    for kind, where, which in edit_list:
        if kind == "label":
            labels[where % len(labels)] = JSON_SWAPS[which % len(JSON_SWAPS)]
    lines[2] = json.dumps(labels).encode()
    return b"\n".join(lines)


@FUZZ
@given(edit_list=tensor_edits("label"))
# an integer label (seen as an internal error)
@example(edit_list=[("label", 0, 0)])
def test_mutated_seq_model(demo_models, edit_list):
    data = swap_labels(demo_models["seq_model.txt"], edit_list)
    others = [edit for edit in edit_list if edit[0] != "label"]
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "seq_model.txt"
        model.write_bytes(mutate_tensor(data, 1, others, MODEL_NUMBERS))
        out = io.StringIO()
        code, err = run(["predict", "--model", str(model), "--prefix", "brakes"], out)
        check_file_outcome(code, err, model)
        if code == 0:
            ranked = [line.split("\t")[0] for line in out.getvalue().splitlines()]
            assert ranked and all(math.isfinite(float(prob)) for prob in ranked), out.getvalue()


# ---------------------------------------------------------------------------
# numeric flag values
# ---------------------------------------------------------------------------

# what a numeric flag is given, besides each of its bounds plus and minus one
FLAG_SPELLINGS = ["0", "-0", "1e3", "1_0", "nan", "inf", " 5", "", str(2**70)]


def numeric_flags():
    """(command, flag, field, type, bounds) of every numeric flag of tensorize,
    parafac, seqmine and train, from their config fields (``--seed`` among
    them for parafac and train), and of predict, whose bounds the parser
    states; ``field`` names where the stubbed stage finds the value."""
    found = []
    for command, cls in (("tensorize", TensorizeSpec), ("parafac", AlsOptions),
                         ("seqmine", MineOptions), ("train", LstmConfig)):
        for f in dataclasses.fields(cls):
            if f.type in ("int", "float"):
                flag = "--" + f.metadata.get("flag", f.name).replace("_", "-")
                bounds = {key: f.metadata[key] for key in BOUNDS if key in f.metadata}
                found.append((command, flag, f.name, f.type, bounds))
    found.append(("predict", "--top-k", "top_k", "int", {"ge": 1}))
    return found


@pytest.fixture(scope="module")
def flag_runs(demo_tables, demo_tensor, demo_models, tmp_path_factory):
    """Each command's arguments but the fuzzed flag, and the directory of its inputs."""
    out = tmp_path_factory.mktemp("fuzz_flags")
    for name, data in {**{f"{k}.csv": v for k, v in demo_tables.items()}, **demo_models,
                       "tensor.txt": demo_tensor[0]}.items():
        (out / name).write_bytes(data)
    tables = ["--vehicles", str(out / "vehicles.csv"), "--maintenance", str(out / "maintenance.csv")]
    return {
        "tensorize": ["tensorize", *tables, "--out", str(out / "t.txt")],
        "parafac": ["parafac", "--tensor", str(out / "tensor.txt"), "--out", str(out / "m.txt")],
        "train": ["train", *tables, "--out", str(out / "s.txt")],
        "seqmine": ["seqmine", *tables, "--target", "DODGE CHARGER", "--out", str(out / "d.csv")],
        "predict": ["predict", "--model", str(out / "seq_model.txt"), "--prefix", "brakes"],
    }, out


@pytest.mark.parametrize("command, flag, name, kind, bounds", numeric_flags(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_numeric_flag_values(flag_runs, monkeypatch, command, flag, name, kind, bounds):
    argv, out = flag_runs
    seen = {}
    cp_model = load_model(out / "cp_model.txt")
    seq_model = SeqModel.load(out / "seq_model.txt")
    seq_model.history = {"train_loss": [], "valid_perplexity": []}
    real_build = stages.build_tensor

    def build_tensor(vehicles, maintenance, spec):
        seen.update(vars(spec))
        return real_build(vehicles, maintenance, spec)

    def stub(result, read):
        """A stage that keeps what ``read`` takes from its arguments and returns ``result``."""
        def stage(*args, **kwargs):
            seen.update(read(*args, **kwargs))
            return result
        return stage

    monkeypatch.setattr(stages, "build_tensor", build_tensor)
    monkeypatch.setattr(stages, "cp_als", stub(cp_model, lambda tensor, opts: vars(opts)))
    monkeypatch.setattr(stages, "train_lstm", stub(seq_model, lambda train, valid, cfg: vars(cfg)))
    monkeypatch.setattr(stages, "differential", stub([], lambda seqset, target, **options: options))
    monkeypatch.setattr(stages, "predict_next",
                        stub([("x", 0.5)], lambda model, prefix, top_k: {"top_k": top_k}))
    spellings = FLAG_SPELLINGS + [str(bound + step) for bound in bounds.values()
                                  for step in (-1, 1)]
    for spelling in spellings:
        seen.clear()
        code, err = run([*argv[command], flag, spelling])
        context = (flag, spelling, code, err)
        assert code in (0, 2, 3, 4) and "Traceback" not in err, context
        errors = [line for line in err.splitlines() if line.startswith(CATEGORIES)]
        if code:
            assert len(errors) == 1 and errors[0].startswith(CATEGORIES[code - 2]), context
        else:
            assert errors == [], context
            want = {"int": int, "float": float}[kind](spelling)
            assert all(BOUNDS[key][1](want, bound) for key, bound in bounds.items()), context
            # every value a command accepts reaches its stage
            assert name in seen, (context, seen)
            assert type(seen[name]) is type(want) and seen[name] == want, (context, seen)


UNSEEDED = [
    ["tensorize", "--vehicles", "v.csv", "--maintenance", "m.csv", "--out", "t.txt"],
    ["report", "--model", "m.txt", "--out", "rep"],
    ["seqmine", "--vehicles", "v.csv", "--maintenance", "m.csv", "--target", "X",
     "--out", "d.csv"],
    ["predict", "--model", "m.txt"],
    ["eval", "--model", "m.txt", "--vehicles", "v.csv", "--maintenance", "m.csv"],
]


@pytest.mark.parametrize("argv", UNSEEDED, ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_seed_on_an_unseeded_command_is_config_error(tmp_path, monkeypatch, argv, where):
    # none of these commands takes a seed: no stage of them is randomized but
    # eval's split, which takes the seed its model file records
    monkeypatch.chdir(tmp_path)
    if where == "config":
        (tmp_path / "seed.cfg").write_text("seed = 1\n")
        extra = ["--config", "seed.cfg"]
    else:
        extra = ["--seed", "1"]
    code, err = run([*argv, *extra])
    assert code == 2, err
    assert err.startswith("config-error: ") and err.count("\n") == 1, err
    assert "seed" in err, err
    assert [p.name for p in tmp_path.iterdir()] == (["seed.cfg"] if where == "config" else [])
