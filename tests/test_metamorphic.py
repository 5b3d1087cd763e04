"""Metamorphic relations on the demo tables: related inputs whose outputs
must relate exactly, checked with no oracle for either output.

Each relation here is exact in the arithmetic the code does. Two that are
not are left out: scaling the tensor by 3 changes the fit's last bits, and
permuting the vehicle axis changes the fit in the 15th digit, because the
CP start draws are not permuted with it.
"""

import contextlib
import io
import random
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.cli import main
from fleetmaint.parafac import AlsOptions, cp_als
from fleetmaint.tensor import Tensor3, load_tensor

TABLES = ("vehicles.csv", "maintenance.csv")
ARTIFACTS = ("tensor.txt", "discards.json", "seqmine.csv", "seq_model.txt")
WINDOW = ["--window-start", "2013-01", "--window-end", "2016-12"]


def table_flags(tables_dir: Path) -> list[str]:
    return ["--vehicles", str(tables_dir / TABLES[0]), "--maintenance", str(tables_dir / TABLES[1])]


def tensorize(tables_dir: Path, out: Path) -> Tensor3:
    assert main(["tensorize", *table_flags(tables_dir), *WINDOW, "--out", str(out)]) == 0
    return load_tensor(out)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """The tables of ``pipeline --demo --seed 1234``."""
    out = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--seed", "1234", "--out", str(out)]) == 0
    return out


def run_stages(tables_dir: Path, out: Path) -> tuple[dict[str, bytes], str]:
    """The bytes of each of ARTIFACTS, made from the tables in ``tables_dir``
    as ``pipeline --demo`` makes them but for a shorter training run, and the
    stdout with ``out`` spelled ``<out>``."""
    out.mkdir()
    tables = table_flags(tables_dir)
    stdout = io.StringIO()
    for argv in (
        ["tensorize", *tables, *WINDOW, "--out", str(out / "tensor.txt"),
         "--discards", str(out / "discards.json")],
        ["seqmine", *tables, "--target", "DODGE CHARGER", "--top-n", "8",
         "--out", str(out / "seqmine.csv")],
        ["train", *tables, "--seed", "1234", "--epochs", "2", "--out", str(out / "seq_model.txt")],
    ):
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    return ({name: (out / name).read_bytes() for name in ARTIFACTS},
            stdout.getvalue().replace(str(out), "<out>"))


@pytest.fixture(scope="module")
def demo_tensor(demo_dir, tmp_path_factory):
    return tensorize(demo_dir, tmp_path_factory.mktemp("tensor") / "tensor.txt")


@pytest.fixture(scope="module")
def demo_outputs(demo_dir, tmp_path_factory):
    return run_stages(demo_dir, tmp_path_factory.mktemp("outputs") / "out")


def rewrite_tables(source: Path, dest: Path, edit) -> Path:
    """``dest`` holding each table of ``source`` with its lines passed through
    ``edit(name, header, body)``, which returns the new lines."""
    dest.mkdir()
    for name in TABLES:
        header, *body = (source / name).read_bytes().splitlines(keepends=True)
        (dest / name).write_bytes(b"".join(edit(name, header, body)))
    return dest


def shuffled(name, header, body):
    random.Random(name).shuffle(body)
    return [header, *body]


def crlf(name, header, body):
    return [line.replace(b"\n", b"\r\n") for line in (header, *body)]


@pytest.mark.parametrize("edit", [shuffled, crlf], ids=["shuffled-rows", "crlf"])
def test_row_order_and_line_endings_change_no_artifact(demo_dir, demo_outputs, tmp_path, edit):
    edited = rewrite_tables(demo_dir, tmp_path / "edited", edit)
    for name in TABLES:
        assert (edited / name).read_bytes() != (demo_dir / name).read_bytes()
    assert run_stages(edited, tmp_path / "out") == demo_outputs


def test_duplicated_jobs_double_every_count(demo_dir, demo_tensor, tmp_path):
    def duplicated(name, header, body):
        if name == "vehicles.csv":
            return [header, *body]
        # the copy's Job ID is new: the originals are digits only
        return [header, *body, *(b"dup" + line for line in body)]

    doubled = tensorize(rewrite_tables(demo_dir, tmp_path / "edited", duplicated),
                        tmp_path / "tensor.txt")
    assert doubled.dims == demo_tensor.dims == (60, 8, 48)
    assert doubled.axis_labels == demo_tensor.axis_labels
    np.testing.assert_array_equal(doubled.positions, demo_tensor.positions)
    np.testing.assert_array_equal(doubled.values, 2 * demo_tensor.values)


@pytest.mark.parametrize("opts", [
    AlsOptions(rank=5, max_iters=300, tol=1e-8, seed=1234, n_restarts=2),
    AlsOptions(rank=25, seed=1234),
], ids=["rank-5-two-restarts", "rank-25"])
def test_power_of_two_scale_scales_only_the_weights(demo_tensor, opts):
    base = cp_als(demo_tensor, opts)
    for scale in (2.0, 0.5, 1024.0):
        scaled = cp_als(Tensor3(demo_tensor.dims, demo_tensor.positions,
                                demo_tensor.values * scale, demo_tensor.axis_labels), opts)
        for got, want in zip(scaled.factors, base.factors):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(scaled.weights, base.weights * scale)
        assert (scaled.fit, scaled.fits, scaled.iterations, scaled.converged) == (
            base.fit, base.fits, base.iterations, base.converged)
