"""The whole pipeline as a property: fleets drawn large enough to reach every
stage go through synth --spec, tensorize, parafac, report, seqmine, train,
eval and predict, with the fits and the training kept tiny.

For each fleet, every command exits 0 or ends in one categorized error line
with exit code 2, 3 or 4, never 1; no nan or inf reaches stdout; each
artifact loads back through its reader; and a second run into a fresh
directory writes byte-identical files and the same output (C9 as a
property). A command whose input an earlier command failed to write is not
run.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from fleetmaint.cli import main
from fleetmaint.ingest import month_labels, parse_maintenance, parse_vehicles
from fleetmaint.lstm import SeqModel
from fleetmaint.parafac import load_model
from fleetmaint.tensor import load_tensor

SYSTEMS = ("Brakes", 'Tires "front"', " Exhaust, Pipes", "PM Service", "Mowing Blades")
MAKE_MODELS = ("DODGE CHARGER", "FORD F150", "HUSTLER X-ONE")
CATEGORIES = {2: "config-error: ", 3: "io-error: ", 4: "data-error: "}
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# the package's reader of each artifact that is not JSON, CSV or SVG
READERS = {"vehicles.csv": parse_vehicles, "maintenance.csv": parse_maintenance,
           "tensor.txt": load_tensor, "cp_model.txt": load_model, "seq_model.txt": SeqModel.load}


@st.composite
def fleets(draw):
    """A fleet spec as JSON: two or three make/models of 2-6 vehicles each,
    enough for the 4-sequence split and a non-target group; 3-12 months of
    2-5 systems at a background rate that gives nearly every vehicle jobs;
    and planted components, motifs and a Markov make/model, as
    ``test_synth.fleet_specs`` draws them."""
    systems = draw(st.lists(st.sampled_from(SYSTEMS), min_size=2, max_size=5, unique=True))
    makes = draw(st.lists(st.sampled_from(MAKE_MODELS), min_size=2, unique=True))
    months = draw(st.integers(3, 12))
    weight = st.floats(-1.0, 2.0)
    subsystems = st.lists(st.sampled_from(systems), min_size=1, max_size=3)
    components = [{
        "name": f"c{i}",
        "vehicle_weights": {m: draw(weight) for m in draw(st.lists(st.sampled_from(makes),
                                                                   unique=True))},
        "system_weights": {s: draw(weight) for s in draw(st.lists(st.sampled_from(systems),
                                                                  unique=True))},
        "time_profile": draw(st.lists(weight, min_size=months, max_size=months)),
        "intensity": draw(st.floats(0.0, 3.0)),
    } for i in range(draw(st.integers(0, 2)))]
    motifs = []
    for _ in range(draw(st.integers(0, 2))):
        labels = draw(subsystems)
        motifs.append({"make_model": draw(st.sampled_from(makes)), "labels": labels,
                       "rate": draw(st.floats(0.01, 0.9)) / len(labels)})
    markov = {}
    for make in draw(st.lists(st.sampled_from(makes), max_size=1)):
        labels = sorted(set(draw(subsystems)), key=systems.index)
        rows = [draw(st.lists(st.floats(0.1, 1.0), min_size=len(labels), max_size=len(labels)))
                for _ in labels]
        markov[make] = {"labels": labels,
                        "transition": [[w / math.fsum(row) for w in row] for row in rows],
                        "start": [1.0] * len(labels), "length": draw(st.integers(3, 20))}
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "vehicles": {m: draw(st.integers(2, 6)) for m in makes},
        "window_start": draw(st.sampled_from(["2013-01", "2015-11"])),
        "months": months,
        "systems": systems,
        "background_rate": draw(st.floats(0.2, 1.0)),
        "components": components,
        "motifs": motifs,
        "markov": markov,
        "purchase_years": draw(st.sampled_from([None, [2014], [2012, 2015]])),
        "noiseless": draw(st.booleans()),
    }


def commands(spec: dict, spec_path: Path, out: Path):
    """Each command of the pipeline on ``spec`` into ``out``, after the command
    that writes its input (None for synth)."""
    window = month_labels(spec["window_start"], spec["months"])
    tables = ["--vehicles", str(out / "vehicles.csv"),
              "--maintenance", str(out / "maintenance.csv")]
    cp_model, seq_model = str(out / "cp_model.txt"), str(out / "seq_model.txt")
    return [
        (None, ["synth", "--spec", str(spec_path), "--out", str(out)]),
        ("synth", ["tensorize", *tables, "--window-start", window[0], "--window-end", window[-1],
                   "--out", str(out / "tensor.txt"), "--discards", str(out / "discards.json")]),
        ("tensorize", ["parafac", "--tensor", str(out / "tensor.txt"), "--rank", "2",
                       "--max-iters", "20", "--out", cp_model]),
        ("parafac", ["report", "--model", cp_model, "--out", str(out / "reports")]),
        ("synth", ["seqmine", *tables, "--target", next(iter(spec["vehicles"])),
                   "--out", str(out / "seqmine.csv")]),
        ("synth", ["train", *tables, "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "8",
                   "--layers", "1", "--out", seq_model]),
        ("train", ["eval", "--model", seq_model, *tables]),
        ("train", ["predict", "--model", seq_model, "--prefix", spec["systems"][0]]),
    ]


def check_outcome(code: int, stdout: str, stderr: str) -> None:
    """Exit 0 with no error line, or one categorized error line and its exit
    code; any other stderr line is a note or a warning; stdout holds no nan
    or inf."""
    lines = [line for line in stderr.splitlines() if not line.startswith(("note: ", "warning: "))]
    if code == 0:
        assert lines == [], stderr
    else:
        assert code in CATEGORIES, (code, stderr)
        assert len(lines) == 1 and lines[0].startswith(CATEGORIES[code]), stderr
    assert not NOT_FINITE.search(stdout), stdout


def run_pipeline(spec: dict, spec_path: Path, out: Path) -> list:
    """Run the pipeline into ``out`` and check each command's outcome; the
    transcript of exit codes, stdout and stderr, with ``out`` spelled <out>."""
    transcript, done = [], set()
    for needs, argv in commands(spec, spec_path, out):
        if needs is not None and needs not in done:
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        check_outcome(code, stdout.getvalue(), stderr.getvalue())
        if code == 0:
            done.add(argv[0])
        transcript.append((code, *(s.getvalue().replace(str(out), "<out>")
                                   for s in (stdout, stderr))))
    # --hypothesis-show-statistics shows the share of fleets that reach every stage
    event(f"reached predict: {'predict' in done}")
    return transcript


def reload(path: Path) -> None:
    """Read ``path`` back through its reader; JSON, CSV and SVG text holds no nan or inf."""
    if path.name in READERS:
        READERS[path.name](path)
        return
    text = path.read_text(encoding="utf-8")
    assert not NOT_FINITE.search(text), path
    if path.suffix == ".json":
        json.loads(text)
    elif path.suffix == ".csv":
        list(csv.reader(io.StringIO(text, newline="")))
    else:
        assert path.suffix == ".svg", path
        ElementTree.fromstring(text)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(spec=fleets())
def test_pipeline_on_drawn_fleets(spec):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        first = run_pipeline(spec, spec_path, Path(tmp) / "a")
        for path in (Path(tmp) / "a").rglob("*"):
            if path.is_file():
                reload(path)
        assert run_pipeline(spec, spec_path, Path(tmp) / "b") == first
        assert files(Path(tmp) / "b") == files(Path(tmp) / "a")
