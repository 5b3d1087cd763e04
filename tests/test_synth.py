import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint.cli import main
from fleetmaint.ingest import (
    TensorizeSpec,
    build_tensor,
    csv_text,
    parse_maintenance,
    parse_vehicles,
)
from fleetmaint.knobs import json_form
from fleetmaint.seqmine import extract_sequences
from fleetmaint.tensor import load_tensor, save_tensor
from fleetmaint.synth import (
    METER_READINGS,
    FleetSpec,
    MarkovSpec,
    PlantedComponent,
    PlantedMotif,
    _job_draws,
    demo_spec,
    generate,
    month_labels,
    spec_from_json,
)
from oracles import generate as generate_oracle


def tiny_spec(seed=7, **overrides):
    base = dict(
        seed=seed,
        vehicles={"DODGE CHARGER": 3, "FORD F150": 2},
        window_start="2015-01",
        months=12,
        systems=("Brakes", "Tires", "PM Service"),
        background_rate=0.4,
        purchase_years=(2014,),
    )
    base.update(overrides)
    return FleetSpec(**base)


def markov_spec():
    chain = MarkovSpec(
        labels=("Brakes", "Tires"),
        transition=((0.2, 0.8), (0.8, 0.2)),
        start=(0.5, 0.5),
        length=30,
    )
    return tiny_spec(markov={"FORD F150": chain}, background_rate=0.1)


def noiseless_spec():
    profile = tuple(2.0 if m in (5, 6) else 0.0 for m in range(12))
    component = PlantedComponent(
        name="planted",
        vehicle_weights={"DODGE CHARGER": 1.0},
        system_weights={"Brakes": 1.0, "Tires": 0.5},
        time_profile=profile,
        intensity=1.0,
    )
    return tiny_spec(background_rate=0.0, components=[component], noiseless=True)


def rejection_spec():
    # the 88th meter reading, the third vehicle's 7th, reads a 32-bit half-word
    # that Lemire's method rejects, so that vehicle takes the scalar draws
    return tiny_spec(seed=4857, vehicles={"DODGE CHARGER": 2, "FORD F150": 2},
                     systems=("Brakes", "Tires"), background_rate=2.0)


def quoted_systems_spec():
    # labels that csv quoting has to mark: a quote, a comma, leading spaces
    return tiny_spec(systems=('Brakes "front"', " Tires, Tubes", '  PM, "A" service'))


def negative_mean_spec():
    # a negative planted mean rounds to a negative count, which emits no job
    profile = tuple(-2.0 if m % 3 == 0 else 1.0 for m in range(12))
    component = PlantedComponent("dip", {"DODGE CHARGER": 1.0}, {"Brakes": 1.0}, profile, 1.0)
    return tiny_spec(background_rate=0.6, components=[component], noiseless=True)


# sha256 of (vehicles.csv, maintenance.csv, manifest.json): any change to the
# emitted bytes or to the order of the RNG draws changes them
GOLDEN_DIGESTS = {
    "demo": (
        demo_spec,
        "14fc1a9f4305c76285bd6cb2efb2a2f05acd0f6a46d289118371f91b3a10af9f",
        "14dd7c76b30fe76dace74246aad3fb5cce4e74cb2b6d3ada900fc1a64e24d01b",
        "0a2ff6d755c17a1e9a72d1ded92da2a1d6cf719fef5593de16bf9837fb25fe86",
    ),
    "markov": (
        markov_spec,
        "96d3512849c1c2813b5b3c02eb9b66e29d824133b93966fbcf50e56d7a4cc6b9",
        "1a220d22fc0dcc9708151a90a2bc38d50a99c16d1b245657a429624cde147ff5",
        "49d46f6344ca00ec989ab4d727755c8e54dd156fc6f0673d107eaf4fcb8eacdf",
    ),
    "negative-mean": (
        negative_mean_spec,
        "864b0ffd1abc58e758a1385b52af166fbd4d3449c9f165aabe13e016c40b6f0b",
        "ac03f5679497da58020530921ed122330cc8fb26bffa7baef7819135cce15419",
        "c455fd9a1ee3adf16688e3f00113992395504bcb4530bd6168af755c758505e8",
    ),
    "noiseless": (
        noiseless_spec,
        "a846970a66165eb4f250c29506228d91d83f92568105daa10998965dc94e3291",
        "83a1d565da43ccbbe6178d792c2e3c6367037a2ce3247392dbd579b0fa13727d",
        "215f169d2a1502d70b8ac1b274513e39d4c647205ac51b36dc5abc8b38e78032",
    ),
    "lemire-rejection": (
        rejection_spec,
        "ad5761768ca0e30dc4e74d321e7f45c8a7a1195f407fddb27859d5f8a5cc71f8",
        "2c9bafecd66d8ec86e2407e1a8989f13c52321bcb0ee46ca0bf552af7bc0a58a",
        "7b63ca5779de2c4ef248093e7292efc659875d8af5b436d3d8b7429f3e889ef5",
    ),
    "quoted-systems": (
        quoted_systems_spec,
        "656d222d6affc4c299baef4363ec2235e640440636d87a147c5b0ffa4fef4d53",
        "78a53da4a2ae86737026456c1f1e96af4eb16fbc64ea95fc36c5d461a80cf96c",
        "b72dbddb90628d6cf96817f404dcefbc80099668cce5e87aa51cc4c582b24225",
    ),
}

# sha256 of the demo pipeline's files that hold only counts, repr floats and
# fixed decimals (seed 1234); the CP and LSTM files round by the BLAS
PIPELINE_DIGESTS = {
    "tensor.txt": "4c7de449aa4c1ba308ffdbf8abb853d07694e073e1c292100b11c2d3b6f396a5",
    "discards.json": "72cdf435677ec87551bebfbc1640153576923bf83586132526772922fedf709d",
    "seqmine.csv": "bec0cf363938eacab039d6107f15c213c360620cb3687198e711b2e4c01777cb",
}
# sha256 of the demo tables (seed 1234) tensorized over 2005-01..2034-12: a
# 60x8x360 tensor 1.33% full, which the nonzero-list kernels take
SPARSE_TENSOR_DIGEST = "24b83cc8f1424dbc89644763e269f90364fe4f142df55656fac4f81c7d4a8a3c"


class TestGenerate:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_golden_digests(self, tmp_path, name):
        make_spec, *expected = GOLDEN_DIGESTS[name]
        fleet = generate(make_spec(), tmp_path)
        paths = (fleet.vehicles_path, fleet.maintenance_path, fleet.manifest_path)
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == expected

    def test_pipeline_golden_digests(self, tmp_path):
        assert main(["pipeline", "--demo", "--seed", "1234", "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in PIPELINE_DIGESTS} == PIPELINE_DIGESTS

    def test_sparse_tensor_golden_digest(self, tmp_path):
        data, path = tmp_path / "data", tmp_path / "tensor.txt"
        assert main(["synth", "--seed", "1234", "--out", str(data)]) == 0
        assert main(["tensorize", "--vehicles", str(data / "vehicles.csv"),
                     "--maintenance", str(data / "maintenance.csv"),
                     "--window-start", "2005-01", "--window-end", "2034-12",
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SPARSE_TENSOR_DIGEST
        t = load_tensor(path)
        assert t._nonzeros is not None
        save_tensor(t, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_same_seed_byte_identical(self, tmp_path):
        f1 = generate(tiny_spec(), tmp_path / "a")
        f2 = generate(tiny_spec(), tmp_path / "b")
        assert f1.vehicles_path.read_bytes() == f2.vehicles_path.read_bytes()
        assert f1.maintenance_path.read_bytes() == f2.maintenance_path.read_bytes()
        assert f1.manifest_path.read_bytes() == f2.manifest_path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        f1 = generate(tiny_spec(seed=1), tmp_path / "a")
        f2 = generate(tiny_spec(seed=2), tmp_path / "b")
        assert f1.maintenance_path.read_bytes() != f2.maintenance_path.read_bytes()

    def test_manifest_totals_match_rows(self, tmp_path):
        fleet = generate(tiny_spec(), tmp_path)
        n_rows = len(fleet.maintenance_path.read_text().splitlines()) - 1
        assert fleet.manifest["totals"]["jobs"] == n_rows
        assert fleet.manifest["totals"]["vehicles"] == 5
        assert sum(fleet.manifest["cells"].values()) == n_rows

    def test_parses_through_ingest_with_zero_rejects(self, tmp_path):
        fleet = generate(tiny_spec(), tmp_path)
        vehicles = parse_vehicles(fleet.vehicles_path)
        maintenance, rejects = parse_maintenance(fleet.maintenance_path)
        assert rejects == []
        assert len(vehicles) == 5
        assert len(maintenance) == fleet.manifest["totals"]["jobs"]

    def test_tensor_matches_manifest_cells(self, tmp_path):
        fleet = generate(tiny_spec(), tmp_path)
        vehicles = parse_vehicles(fleet.vehicles_path)
        maintenance, _ = parse_maintenance(fleet.maintenance_path)
        spec = TensorizeSpec(window_start="2015-01", window_end="2015-12")
        build = build_tensor(vehicles, maintenance, spec)
        t = build.tensor
        assert build.discards == {}
        assert t.data.sum() == fleet.manifest["totals"]["jobs"]
        units, systems, buckets = t.axis_labels
        for key, count in fleet.manifest["cells"].items():
            unit, system, month = key.split("|")
            assert t.data[units.index(unit), systems.index(system), buckets.index(month)] == count

    def test_sequences_match_emission_order(self, tmp_path):
        fleet = generate(tiny_spec(), tmp_path)
        vehicles = parse_vehicles(fleet.vehicles_path)
        maintenance, _ = parse_maintenance(fleet.maintenance_path)
        seqset, rejects = extract_sequences(maintenance, vehicles)
        assert rejects == []
        got = {s.unit_no: labels for s, labels in zip(seqset.sequences, seqset.as_label_lists())}
        assert got == fleet.manifest["sequences"]

    def test_noiseless_rank_one_component_exact(self, tmp_path):
        fleet = generate(noiseless_spec(), tmp_path)
        vehicles = parse_vehicles(fleet.vehicles_path)
        maintenance, _ = parse_maintenance(fleet.maintenance_path)
        build = build_tensor(
            vehicles, maintenance, TensorizeSpec(window_start="2015-01", window_end="2015-12")
        )
        t = build.tensor
        # counts equal the rounded planted means exactly
        expected_cell = {"brakes": 2.0, "tires": 1.0}
        for unit in ("000001", "000002", "000003"):
            for system, value in expected_cell.items():
                i = t.axis_labels[0].index(unit)
                j = t.axis_labels[1].index(system)
                assert t.data[i, j, 5] == value
                assert t.data[i, j, 6] == value
        assert t.data.sum() == 3 * (2 + 1) * 2

    def test_motif_injection_rate_within_binomial_bounds(self, tmp_path):
        motif = PlantedMotif(
            make_model="DODGE CHARGER", labels=("PM Service", "Tires", "PM Service"), rate=0.1
        )
        spec = tiny_spec(
            seed=13,
            vehicles={"DODGE CHARGER": 12, "FORD F150": 4},
            background_rate=1.2,
            motifs=[motif],
        )
        fleet = generate(spec, tmp_path)
        seqs = [
            events
            for unit, events in fleet.manifest["sequences"].items()
            if fleet.manifest["vehicles"][unit]["make_model"] == "DODGE CHARGER"
        ]
        windows = sum(max(0, len(s) - 2) for s in seqs)
        target = ["pm service", "tires", "pm service"]
        hits = sum(
            1
            for s in seqs
            for start in range(len(s) - 2)
            if s[start : start + 3] == target
        )
        sigma = np.sqrt(windows * motif.rate * (1 - motif.rate))
        assert abs(hits - motif.rate * windows) <= 3 * sigma
        assert fleet.manifest["motifs"][0]["total_injected"] > 0

    def test_markov_group_uses_chain_labels(self, tmp_path):
        fleet = generate(markov_spec(), tmp_path)
        for unit, meta in fleet.manifest["vehicles"].items():
            if meta["make_model"] == "FORD F150":
                seq = fleet.manifest["sequences"][unit]
                assert len(seq) == 30
                assert set(seq) <= {"brakes", "tires"}

    def test_negative_sampled_mean_emits_no_job(self, tmp_path):
        # as in noiseless mode, a Poisson draw of a mean below zero is no job
        spec = dataclasses.replace(negative_mean_spec(), noiseless=False)
        fleet = generate(spec, tmp_path)
        for unit, meta in fleet.manifest["vehicles"].items():
            if meta["make_model"] == "DODGE CHARGER":
                for month in month_labels(spec.window_start, spec.months)[::3]:
                    assert f"{unit}|brakes|{month}" not in fleet.manifest["cells"]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            tiny_spec(months=0)
        with pytest.raises(ValueError):
            tiny_spec(
                components=[
                    PlantedComponent("x", {}, {"Nope": 1.0}, tuple([0.0] * 12), 1.0)
                ]
            )
        with pytest.raises(ValueError):
            tiny_spec(
                motifs=[PlantedMotif("DODGE CHARGER", ("Brakes",) * 3, 0.5)]
            )

    def test_replaced_spec_is_checked(self):
        with pytest.raises(ValueError, match=r"^months must be >= 1, got 0$"):
            dataclasses.replace(demo_spec(), months=0)

    def test_built_spec_cannot_be_assigned(self):
        # a spec is checked once, as it is built, so no field can change after
        spec = demo_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.months = 0

    @pytest.mark.parametrize("overrides, match", [
        (dict(months=2.7), "months must be an integer"),
        (dict(months=12.0), "months must be an integer"),
        (dict(months=True), "months must be an integer"),
        (dict(vehicles={"A B": -2, "C D": 2}), r"vehicles\['A B'\] must be >= 1, got -2"),
        (dict(vehicles={"A B": 0}), r"vehicles\['A B'\] must be >= 1, got 0"),
        (dict(vehicles={"A B": 1.5}), r"vehicles\['A B'\] must be an integer, got 1.5"),
        (dict(vehicles={"A B": True}), r"vehicles\['A B'\] must be an integer, got True"),
        (dict(vehicles={"AB": 2}), "vehicles key 'AB' must be a make and a model"),
        (dict(vehicles={"A B": 1, "AB ": 2}), "vehicles key 'AB ' must be a make and a model"),
        (dict(vehicles={" AB": 2}), "vehicles key ' AB' must be a make and a model"),
        (dict(purchase_years=(2014, 2015.0)), r"purchase_years\[1\] must be an integer"),
        (dict(purchase_years=(0,)), r"purchase_years\[0\] must be >= 1, got 0"),
        (dict(purchase_years=()), "purchase_years must not be empty"),
        (dict(vehicles={}), "vehicles must not be empty"),
        (dict(components="ab"), r"^components must be a list, got 'ab'$"),
        (dict(motifs=None), r"^motifs must be a list, got None$"),
        # each nested object's fields are checked like the spec's own, and named by place
        (dict(components=[PlantedComponent("x", {"DODGE CHARGER": 1.0}, {"Brakes": 1.0},
                                           (1.0,) * 12, -1.0)]),
         r"components\[0\]\.intensity must be >= 0, got -1\.0"),
        (dict(components=[PlantedComponent("x", {}, {"Brakes": float("nan")}, (1.0,) * 12,
                                           1.0)]),
         r"components\[0\]\.system_weights\['Brakes'\] must be a finite number, got nan"),
        (dict(motifs=[PlantedMotif("FORD F150", (), 0.1)]),
         r"motifs\[0\]\.labels must not be empty"),
        (dict(markov={"FORD F150": MarkovSpec(("Brakes", "Tires"), ((0.5, 0.5), (1.5, -0.5)),
                                              (1.0, 1.0), 5)}),
         r"markov\['FORD F150'\]\.transition\[1\]\[1\] must be >= 0, got -0\.5"),
        # a sum past the float range fails its chain's check
        (dict(markov={"FORD F150": MarkovSpec(("Brakes", "Tires"), ((0.5, 0.5), (0.5, 0.5)),
                                              (1e308, 1e308), 5)}),
         r"^markov\['FORD F150'\]\.start must hold one weight per label, with a positive sum$"),
        (dict(markov={"FORD F150": MarkovSpec(("Brakes", "Tires"), ((1e308, 1e308), (0.5, 0.5)),
                                              (1.0, 1.0), 5)}),
         r"^markov\['FORD F150'\]\.transition rows must sum to 1$"),
        (dict(months=2413), "months must be <= 2412"),
        (dict(vehicles={"A B": 60_000, "C D": 40_001}),
         "^vehicles total must be <= 100000, got 100001$"),
        (dict(vehicles={"A B": np.int32(2**31 - 1), "C D": np.int32(2**31 - 1)}),
         "^vehicles total must be <= 100000, got 4294967294$"),
        (dict(markov={"FORD F150": MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 100_001)}),
         r"markov\['FORD F150'\]\.length must be <= 100000, got 100001"),
        # each name that refers to a system or a vehicles key is one of them, and
        # each error, the hand-written ones too, names its place
        (dict(components=[PlantedComponent("x", {}, {"Nope": 1.0}, (0.0,) * 12, 1.0)]),
         r"^components\[0\]\.system_weights\['Nope'\] must be one of Brakes, Tires, PM Service, "
         r"got 'Nope'$"),
        (dict(components=[PlantedComponent("x", {"HONDA CIVIC": 1.0}, {"Brakes": 1.0},
                                           (0.0,) * 12, 1.0)]),
         r"^components\[0\]\.vehicle_weights\['HONDA CIVIC'\] must be one of DODGE CHARGER, "
         r"FORD F150, got 'HONDA CIVIC'$"),
        (dict(components=[PlantedComponent("x", {}, {}, (0.0,) * 11, 1.0)]),
         r"^components\[0\]\.time_profile length 11 != months 12$"),
        (dict(motifs=[PlantedMotif("FORD F150", ("Brakes", "Wheels"), 0.1)]),
         r"^motifs\[0\]\.labels\[1\] must be one of Brakes, Tires, PM Service, got 'Wheels'$"),
        (dict(motifs=[PlantedMotif("HONDA CIVIC", ("Brakes",), 0.1)]),
         r"^motifs\[0\]\.make_model must be one of DODGE CHARGER, FORD F150, "
         r"got 'HONDA CIVIC'$"),
        (dict(motifs=[PlantedMotif("FORD F150", ("Brakes",) * 3, 0.5)]),
         r"^motifs\[0\]\.rate must be in \(0, 1/3\)$"),
        (dict(markov={"HONDA CIVIC": MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 5)}),
         r"^markov\['HONDA CIVIC'\] must be one of DODGE CHARGER, FORD F150, "
         r"got 'HONDA CIVIC'$"),
        # the keys are checked before each chain's fields
        (dict(markov={"HONDA CIVIC": MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 0)}),
         r"^markov\['HONDA CIVIC'\] must be one of"),
        (dict(markov={"FORD F150": MarkovSpec(("Brakes", "Wheels"), ((0.5, 0.5), (0.5, 0.5)),
                                              (1.0, 1.0), 5)}),
         r"^markov\['FORD F150'\]\.labels\[1\] must be one of Brakes, Tires, PM Service, "
         r"got 'Wheels'$"),
        (dict(markov={"FORD F150": MarkovSpec(("Brakes", "Tires"), ((0.5, 0.5),), (1.0, 1.0),
                                              5)}),
         r"^markov\['FORD F150'\]\.transition must be 2 rows of 2 weights$"),
        # each size inside its own bound, their product past MAX_JOBS
        (dict(vehicles={"DODGE CHARGER": 1}, months=2412, systems=("Brakes",),
              background_rate=1e6), r"expected job total reaches 2\.412e\+09, past 2000000"),
        (dict(vehicles={"DODGE CHARGER": 3, "FORD F150": 100},
              markov={"FORD F150": MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 100_000)}),
         r"expected job total reaches 1e\+07"),
        (dict(components=[PlantedComponent("x", {"DODGE CHARGER": 1.0}, {"Brakes": -1.0},
                                           (1e5,) * 12, 9.0)]),
         r"expected job total reaches 3\.24e\+07"),
        # a motif's runs make up its rate of the windows: near 1/width they swamp the jobs
        (dict(motifs=[PlantedMotif("FORD F150", ("Brakes", "Tires"), 0.5 - 1e-9)]),
         r"expected job total reaches 1\.44e\+10"),
    ])
    def test_counts_and_vehicle_keys_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            tiny_spec(**overrides)

    def test_numpy_integer_counts_accepted(self):
        tiny_spec(months=np.int64(12), vehicles={"A B": np.int32(2)})

    def test_values_are_stored_as_python_scalars(self):
        # each float field holds a float, each container its annotation's type
        spec = tiny_spec(background_rate=np.float32(0.5), systems=["Brakes", np.str_("Tires")],
                         purchase_years=[np.int64(2014)], vehicles={"A B": np.int32(2)},
                         markov={"A B": MarkovSpec(["Brakes"], [[1]], [np.int8(1)], 3)})
        chain = spec.markov["A B"]
        assert (spec.background_rate, spec.systems, spec.purchase_years, spec.vehicles,
                chain.labels, chain.transition, chain.start) == (
                    0.5, ("Brakes", "Tires"), (2014,), {"A B": 2}, ("Brakes",), ((1.0,),),
                    (1.0,))
        scalars = (spec.background_rate, *spec.systems, *spec.purchase_years,
                   *spec.vehicles.values(), *chain.transition[0], *chain.start)
        assert [type(v) for v in scalars] == [float, str, str, int, int, float, float]
        # -0.0 equals 0.0, so it is stored, and written, as 0.0
        zero = tiny_spec(background_rate=-0.0)
        assert math.copysign(1.0, zero.background_rate) == 1.0

    @pytest.mark.parametrize("overrides, field", [
        (dict(background_rate=10**400), "background_rate"),
        (dict(components=[PlantedComponent("x", {"DODGE CHARGER": 1.0}, {"Brakes": 1.0},
                                           (1.0,) * 11 + (10**309,), 1.0)]),
         r"components\[0\]\.time_profile\[11\]"),
        (dict(motifs=[PlantedMotif("FORD F150", ("Brakes",), -(10**400))]),
         r"motifs\[0\]\.rate"),
    ])
    def test_integer_past_a_float_is_not_a_finite_number(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
            tiny_spec(**overrides)

    def test_cell_mean_bounded_by_the_job_total_alone(self):
        # one vehicle, system and month: its one cell mean is its expected job total
        one_cell = dict(vehicles={"DODGE CHARGER": 1}, months=1, systems=("Brakes",))
        assert tiny_spec(background_rate=1.5e6, **one_cell).expected_jobs() == 1.5e6
        tiny_spec(background_rate=1.5e6, **one_cell)
        with pytest.raises(ValueError, match=r"expected job total reaches 2\.5e\+06, past"):
            tiny_spec(background_rate=2.5e6, **one_cell)

    def test_size_bounds_are_inclusive(self):
        # one at a time: together they pass the bound on the expected job total
        chain = MarkovSpec(("Brakes",), ((1.0,),), (1.0,), 100_000)
        tiny_spec(months=2412)
        tiny_spec(vehicles={"DODGE CHARGER": 60_000, "FORD F150": 40_000})
        tiny_spec(markov={"FORD F150": chain})
        # 2,000 jobs a month for 1,000 months: 2 million expected jobs
        at_bound = dict(vehicles={"DODGE CHARGER": 1}, months=1000, systems=("Brakes",))
        tiny_spec(background_rate=2000.0, **at_bound)
        with pytest.raises(ValueError, match="past 2000000"):
            tiny_spec(background_rate=2000.001, **at_bound)

    def test_expected_jobs_tracks_the_jobs_written(self, tmp_path):
        # within noise of the jobs drawn: the bound is not a loose guess
        for k, spec in enumerate((markov_spec(), demo_spec(3), demo_spec(4))):
            expected = spec.expected_jobs()
            jobs = generate(spec, tmp_path / str(k)).manifest["totals"]["jobs"]
            assert abs(jobs - expected) <= 4 * math.sqrt(expected), (jobs, expected)


class TestDemoSpec:
    def test_demo_generates_and_reconciles(self, tmp_path):
        fleet = generate(demo_spec(), tmp_path)
        vehicles = parse_vehicles(fleet.vehicles_path)
        maintenance, rejects = parse_maintenance(fleet.maintenance_path)
        assert rejects == []
        assert len(vehicles) == 60
        build = build_tensor(
            vehicles,
            maintenance,
            TensorizeSpec(window_start="2013-01", window_end="2016-12"),
        )
        assert build.discards == {}
        assert build.tensor.data.sum() == fleet.manifest["totals"]["jobs"]

    def test_month_labels_helper(self):
        labels = month_labels("2013-11", 4)
        assert labels == ["2013-11", "2013-12", "2014-01", "2014-02"]


def scalar_job_draws(rng, n):
    """The per-job draw loop that ``_job_draws`` replays in bulk."""
    labor, meter = [], []
    for _ in range(n):
        labor.append(float(rng.uniform(0.5, 8.0)))
        meter.append(int(rng.integers(1000, 99000)))
    return labor, meter


def assert_draws_match(seed, advance, prefix, kept, n):
    """From the same start, _job_draws and the scalar loop give the same values
    and leave the same bit generator state. The start is PCG64(seed) advanced
    by ``advance`` words, then the prefix draws, then one more 32-bit draw if
    needed so that the bit generator keeps a 32-bit half exactly when ``kept``."""
    fast, slow = (np.random.Generator(np.random.PCG64(seed).advance(advance)) for _ in range(2))
    for rng in (fast, slow):
        for draw in prefix:
            if draw == "double":
                rng.random()
            else:
                rng.integers(0, 1 << 20)
        if rng.bit_generator.state["has_uint32"] != kept:
            rng.integers(0, 1 << 20)
    labor, meter = _job_draws(fast, n)
    assert (labor.tolist(), meter.tolist()) == scalar_job_draws(slow, n)
    assert fast.bit_generator.state == slow.bit_generator.state


class TestJobDraws:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           prefix=st.lists(st.sampled_from(["double", "half"]), max_size=12),
           kept=st.booleans(), n=st.integers(0, 300))
    def test_matches_scalar_loop(self, seed, prefix, kept, n):
        assert_draws_match(seed, 0, prefix, kept, n)

    def test_rejected_half_word_falls_back(self):
        # the first word of a seeded stream with a half in Lemire's rejection zone
        span = METER_READINGS[1] - METER_READINGS[0]
        threshold = (2**32 - span) % span
        assert threshold == 19296
        words = np.random.PCG64(11).random_raw(1 << 20)
        low, high = words & 0xFFFFFFFF, words >> 32
        rejected = np.flatnonzero((((low * span) & 0xFFFFFFFF) < threshold)
                                  | (((high * span) & 0xFFFFFFFF) < threshold))
        at = int(rejected[0])
        assert at > 0
        # advanced to the word before it, with no kept half: job 0's labor
        # hours read that word, and the meter readings of jobs 0 and 1 the
        # halves of the rejected one, so its bad half is read as a first try
        for n in (2, 3, 40):
            assert_draws_match(11, at - 1, [], False, n)


class TestCsvText:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(head=st.lists(st.text(), min_size=1, max_size=4),
           tail=st.lists(st.text(), min_size=1, max_size=4))
    def test_joined_pieces_are_the_csv_writer_row(self, head, tail):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(head + tail)
        assert f"{csv_text(head)},{csv_text(tail)}\n" == out.getvalue()

    def test_quoting_rules(self):
        assert csv_text(("a b", " x", "", "1,5", 'say "hi"', "two\nlines")) == \
            'a b, x,,"1,5","say ""hi""","two\nlines"'


# labels csv quoting has to mark among plain ones; no two normalize alike
SYSTEM_POOL = ("Brakes", 'Tires "front"', " Exhaust, Pipes", "PM Service", "Mowing Blades")
MAKE_MODEL_POOL = ("DODGE CHARGER", "FORD F150", "HUSTLER X-ONE")


@st.composite
def fleet_specs(draw):
    """Small fleets mixing Poisson, noiseless and Markov vehicles, planted
    components with negative weights, and several motifs per make/model."""
    systems = tuple(draw(st.lists(st.sampled_from(SYSTEM_POOL), min_size=1, max_size=4,
                                  unique=True)))
    makes = draw(st.lists(st.sampled_from(MAKE_MODEL_POOL), min_size=1, unique=True))
    months = draw(st.integers(1, 14))
    weight = st.floats(-1.0, 2.0)
    subsystems = st.lists(st.sampled_from(systems), min_size=1, max_size=3)
    components = [
        PlantedComponent(
            name=f"c{i}",
            vehicle_weights={m: draw(weight) for m in draw(st.lists(st.sampled_from(makes),
                                                                     unique=True))},
            system_weights={s: draw(weight) for s in draw(st.lists(st.sampled_from(systems),
                                                                    unique=True))},
            time_profile=tuple(draw(st.lists(weight, min_size=months, max_size=months))),
            intensity=draw(st.floats(0.0, 3.0)),
        )
        for i in range(draw(st.integers(0, 2)))
    ]
    motifs = []
    for _ in range(draw(st.integers(0, 3))):
        labels = tuple(draw(subsystems))
        rate = draw(st.floats(0.01, 0.9)) / len(labels)
        motifs.append(PlantedMotif(draw(st.sampled_from(makes)), labels, rate))
    markov = {}
    for make in draw(st.lists(st.sampled_from(makes), max_size=1)):
        labels = tuple(sorted(set(draw(subsystems)), key=systems.index))
        rows = [draw(st.lists(st.floats(0.1, 1.0), min_size=len(labels),
                              max_size=len(labels))) for _ in labels]
        markov[make] = MarkovSpec(
            labels=labels,
            transition=tuple(tuple(w / math.fsum(row) for w in row) for row in rows),
            start=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=len(labels),
                                      max_size=len(labels)).filter(any))),
            length=draw(st.integers(1, 40)),
        )
    return FleetSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        vehicles={m: draw(st.integers(1, 4)) for m in makes},
        window_start=draw(st.sampled_from(["2013-01", "2015-11"])),
        months=months,
        systems=systems,
        background_rate=draw(st.sampled_from([0.0, 0.05, 0.6, 2.0])),
        components=components,
        motifs=motifs,
        markov=markov,
        purchase_years=draw(st.sampled_from([None, (2014,), (2012, 2015)])),
        noiseless=draw(st.booleans()),
    )


def respelled(value, numpy: bool):
    """``value``, a spec or any part of one, with each number spelled another
    way: with ``numpy`` as a numpy scalar of the same value, else as an int
    where a float is integral, and each tuple as a list, as JSON spells it."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: respelled(getattr(value, f.name), numpy)
                                             for f in dataclasses.fields(value)})
    if isinstance(value, Mapping):
        return {key: respelled(item, numpy) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [respelled(item, numpy) for item in value]
        return type(value)(items) if numpy else items
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if numpy:
        return np.int64(value) if isinstance(value, int) else np.float64(value)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def two_motifs_spec():
    return tiny_spec(seed=13, background_rate=1.2, motifs=[
        PlantedMotif("DODGE CHARGER", ("PM Service", "Tires", "PM Service"), 0.1),
        PlantedMotif("DODGE CHARGER", ("Brakes",), 0.3),
    ])


def markov_motif_spec():
    return dataclasses.replace(markov_spec(), motifs=[
        PlantedMotif("FORD F150", ("Tires", "PM Service"), 0.2)])


def jobless_vehicles_spec():
    # only the component's make/model has a job; the motif's make/model has none
    component = PlantedComponent("c", {"DODGE CHARGER": 1.0}, {"Brakes": 1.0},
                                 (0.0,) * 11 + (3.0,), 1.0)
    return tiny_spec(background_rate=0.0, components=[component],
                     motifs=[PlantedMotif("FORD F150", ("Brakes", "Tires"), 0.2)])


def quoted_motif_spec():
    spec = quoted_systems_spec()
    return dataclasses.replace(spec, motifs=[PlantedMotif("FORD F150", spec.systems[::-1], 0.1)])


class TestGenerateMatchesOracle:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(fleet_specs())
    @example(two_motifs_spec())
    @example(markov_motif_spec())
    @example(jobless_vehicles_spec())
    @example(negative_mean_spec())
    @example(quoted_motif_spec())
    def test_files_and_manifest_match_oracle(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            fleet = generate(spec, Path(tmp, "fleet"))
            oracle = generate_oracle(spec, Path(tmp, "oracle"))
            for name in ("vehicles.csv", "maintenance.csv", "manifest.json"):
                assert (Path(tmp, "fleet", name).read_bytes()
                        == Path(tmp, "oracle", name).read_bytes()), name
        assert fleet.manifest == oracle.manifest


class TestSpecProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(fleet_specs())
    def test_every_poisson_cell_mean_is_within_the_job_total(self, spec):
        # a bound on every mean passed to a Poisson draw, so MAX_JOBS bounds them all
        means = []
        real_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def poisson(self, lam):
                means.append(float(np.max(lam, initial=0.0)))
                return self._rng.poisson(lam)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("fleetmaint.synth.np.random.default_rng", Recording):
            generate(spec, tmp)
        assert all(mean <= spec.expected_jobs() for mean in means)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fleet_specs())
    @example(negative_mean_spec())
    @example(markov_motif_spec())
    def test_int_float_and_numpy_spellings_write_the_same_files(self, spec):
        written = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, each in enumerate((spec, respelled(spec, False), respelled(spec, True))):
                generate(each, Path(tmp, str(k)))
                written.append({name: Path(tmp, str(k), name).read_bytes()
                                for name in ("vehicles.csv", "maintenance.csv",
                                             "manifest.json")})
        assert written[1] == written[0]
        assert written[2] == written[0]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(fleet_specs())
    def test_spec_survives_its_json_form(self, spec):
        # the path from a spec written as JSON back to the spec that `synth --spec` builds
        assert spec_from_json(json.loads(json.dumps(spec, default=json_form))) == spec

    def test_numpy_values_in_containers_write_the_python_files(self, tmp_path):
        # a numpy item of a container once passed the spec's checks and failed on the manifest
        component = PlantedComponent("c", {"DODGE CHARGER": 0.5}, {"Brakes": 1.0},
                                     (1.0,) * 12, 2.0)
        python = tiny_spec(components=[component], purchase_years=(2014, 2015))
        numpy = tiny_spec(components=[dataclasses.replace(
            component, vehicle_weights={"DODGE CHARGER": np.float32(0.5)})],
            purchase_years=(np.int64(2014), np.int32(2015)))
        for name, spec in (("python", python), ("numpy", numpy)):
            generate(spec, tmp_path / name)
        for name in ("vehicles.csv", "maintenance.csv", "manifest.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == \
                (tmp_path / "python" / name).read_bytes(), name

