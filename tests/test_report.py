import csv

import numpy as np
import pytest

import oracles
from fleetmaint.parafac import AlsOptions, CpModel, cp_als
from fleetmaint.report import export_component_reports


def small_model():
    labels = (
        ("unit 01", "unit 02", "unit 03"),
        ("brakes", "tires & tubes"),
        ("2015-01", "2015-02", "2015-03", "2015-04"),
    )
    t = oracles.from_array(np.random.default_rng(3).random((3, 2, 4)), labels)
    return cp_als(t, AlsOptions(rank=2, seed=1, max_iters=40))


class TestFactorCsv:
    def test_rows_cover_all_modes_and_weight(self, tmp_path):
        model = small_model()
        path = export_component_reports(model, tmp_path, svg=False)[0]
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["component", "mode", "label", "loading"]
        body = rows[1:]
        per_component = (3 + 2 + 4) + 1  # series rows + weight row
        assert len(body) == 2 * per_component
        weight_rows = [r for r in body if r[1] == "weight"]
        assert len(weight_rows) == 2
        assert {r[2] for r in weight_rows} == {"component_weight"}
        # loadings round-trip through repr
        series_rows = [r for r in body if r[1] == "vehicle" and r[0] == "1"]
        got = [float(r[3]) for r in series_rows]
        assert got == model.factors[0][:, 0].tolist()

    def test_component_selection(self, tmp_path):
        model = small_model()
        path = export_component_reports(model, tmp_path, components=[2], svg=False)[0]
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        assert {r[0] for r in rows} == {"2"}


class TestSvg:
    def test_escapes_and_structure(self, tmp_path):
        export_component_reports(small_model(), tmp_path, [1])
        svg = (tmp_path / "component_01.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "tires &amp; tubes" in svg
        assert svg.count("<rect") >= 3 + 2 + 4

    def test_deterministic(self, tmp_path):
        model = small_model()
        first = export_component_reports(model, tmp_path / "a", [1])[1].read_bytes()
        assert export_component_reports(model, tmp_path / "b", [1])[1].read_bytes() == first


class TestExport:
    def test_writes_csv_and_svgs(self, tmp_path):
        model = small_model()
        written = export_component_reports(model, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"factor_report.csv", "component_01.svg", "component_02.svg"}

    def test_csv_only(self, tmp_path):
        model = small_model()
        written = export_component_reports(model, tmp_path / "out", svg=False)
        assert [p.name for p in written] == ["factor_report.csv"]


# labels the CSV must quote or the SVG must escape, a leading space, an
# empty label and one longer than a tick label
AWKWARD_LABELS = ("a,b", 'say "hi"', "R&D", "<tag>", "x>y", " leading", "",
                  "tires, tubes, liners & valves")


def awkward_model():
    """A rank-3 model whose loadings hold negatives, +0.0, -0.0, a subnormal
    and a huge value, and whose second component is zero in every mode."""
    rng = np.random.default_rng(11)
    # 48 vehicles, a multiple of 16, thin the tick labels to every third;
    # one month makes one wide bar
    dims = (48, 8, 1)
    factors = [rng.normal(size=(n, 3)) for n in dims]
    factors[0][:5, 0] = [0.0, -0.0, 5e-324, -1e300, 1e300]
    factors[1][2, 2] = 0.0
    for f in factors:
        f[:, 1] = 0.0
    labels = (
        tuple(AWKWARD_LABELS[i % 8] + f"{i:02d}" * (i % 3) for i in range(48)),
        AWKWARD_LABELS,
        ("2016-01",),
    )
    return CpModel(factors=tuple(factors), weights=np.array([2.5, 0.0, 1e-3]), fit=0.5,
                   iterations=3, converged=False, axis_labels=labels)


class TestMatchesOracle:
    @pytest.mark.parametrize("components", [None, [2, 1]])
    @pytest.mark.parametrize("svg", [True, False])
    def test_every_file_byte_identical(self, tmp_path, components, svg):
        model = awkward_model()
        written = export_component_reports(model, tmp_path / "new", components, svg=svg)
        expected = oracles.export_component_reports(model, tmp_path / "old", components, svg=svg)
        assert [p.name for p in written] == [p.name for p in expected]
        for new, old in zip(written, expected):
            assert new.read_bytes() == old.read_bytes(), new.name
