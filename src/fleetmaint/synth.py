"""Deterministic synthetic fleet generator with planted, checkable structure.

Emits vehicles.csv / maintenance.csv in the exact schemas the ingest module
consumes, plus a JSON truth manifest recording everything a test needs to
verify downstream results: realized per-cell counts, each vehicle's emitted
event order, planted low-rank component factors, and injected motif
positions.

Job counts per (vehicle, system, month) are Poisson draws whose means are a
background rate plus the planted component intensities; noiseless mode
replaces sampling with rounded means so exact-recovery tests are
deterministic. Sequence motifs are injected as contiguous runs at
deterministic per-vehicle counts chosen to hit a target fraction of the
vehicle's windows. All randomness comes from the single spec seed, so equal
specs produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ingest import MAX_WINDOW_MONTHS, csv_text, month_index, month_labels
from .ingest import normalize_make_model, normalize_system, write_json
from .knobs import Checked, _check, check
from .tensor import writing

VEHICLE_COLUMNS = (
    "Unit#", "Dept#", "Dept Desc", "Make", "Model", "Year", "Last Meter",
    "Last Fuel Date", "Purchase Cost", "Status Code", "Status Desc",
    "LTD Maintenance Cost", "LTD Fuel Cost", "LTD Fuel Gallons",
)
MAINTENANCE_COLUMNS = (
    "Job ID", "Year WO Completed", "Unit No", "Work Order No", "WO Open Date",
    "WO Completed Date", "Work Order Location", "Job Open Date", "Job Reason",
    "Job Reason Desc", "Job Open Date2", "Job Completed Date", "Job Code",
    "Job Description", "Labor Hours", "Actual Labor Cost", "Commercial Cost",
    "Part Cost", "Primary Meter", "Job Status", "Job WAC", "WACDescription",
    "Job System", "System Description", "Job Location",
)
# bounds on a spec's vehicle total (40 times the paper's 2,500-vehicle fleet)
# and on a Markov chain's length: far past them synth runs for minutes or
# fails for want of memory
MAX_VEHICLES = 100_000
MAX_CHAIN_LENGTH = 100_000
# a bound on a spec's expected job total, and so on each cell's planted mean,
# which the bounds above leave free to reach 10**13: about 15 times the paper
# fleet's 136k jobs. A one-vehicle fleet of 2 million jobs takes about 20 s
# and 0.9 GB to generate
MAX_JOBS = 2_000_000
# each job's Labor Hours is rng.uniform(*LABOR_HOURS), its Primary Meter
# rng.integers(*METER_READINGS), drawn in that order
LABOR_HOURS = (0.5, 8.0)
METER_READINGS = (1000, 99000)


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # a sum past the float range
        return math.inf


@dataclass(frozen=True)
class PlantedComponent:
    """Rank-one (vehicle-group x system x time) intensity bump."""

    name: str
    vehicle_weights: dict[str, float]
    system_weights: dict[str, float]
    time_profile: tuple[float, ...]
    intensity: float = field(metadata=dict(ge=0))


@dataclass(frozen=True)
class PlantedMotif:
    """Contiguous label run injected into one make/model's timelines."""

    make_model: str
    labels: tuple[str, ...] = field(metadata=dict(nonempty=True))
    rate: float  # target fraction of length-len(labels) windows that match


@dataclass(frozen=True)
class MarkovSpec:
    """First-order chain that replaces Poisson emission for one make/model."""

    labels: tuple[str, ...] = field(metadata=dict(nonempty=True))
    transition: tuple[tuple[float, ...], ...] = field(metadata=dict(ge=0))
    start: tuple[float, ...] = field(metadata=dict(ge=0))
    length: int = field(metadata=dict(ge=1, le=MAX_CHAIN_LENGTH))


@dataclass(frozen=True)
class FleetSpec(Checked):
    seed: int = field(metadata=dict(ge=0))
    vehicles: dict[str, int] = field(metadata=dict(ge=1, nonempty=True))
    window_start: str
    months: int = field(metadata=dict(ge=1, le=MAX_WINDOW_MONTHS))
    systems: tuple[str, ...] = field(metadata=dict(nonempty=True))
    background_rate: float = field(default=0.02, metadata=dict(ge=0))
    components: tuple[PlantedComponent, ...] = ()
    motifs: tuple[PlantedMotif, ...] = ()
    markov: dict[str, MarkovSpec] = field(default_factory=dict)
    purchase_years: tuple[int, ...] | None = field(default=None,
                                                   metadata=dict(ge=1, nonempty=True))
    noiseless: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(set(map(normalize_system, self.systems))) < len(self.systems):
            raise ValueError(f"systems {self.systems!r} hold labels that normalize alike, "
                             "which the tables would merge")
        for make_model in self.vehicles:
            make, _, model = make_model.partition(" ")
            if not (make.strip() and model.strip()):
                raise ValueError(
                    f"vehicles key {make_model!r} must be a make and a model split by a space"
                )
        _check("vehicles total", sum(self.vehicles.values()), "int", dict(le=MAX_VEHICLES))
        if len({normalize_make_model(key) for key in self.vehicles}) < len(self.vehicles):
            raise ValueError(f"vehicles keys {sorted(self.vehicles)!r} hold make/models that "
                             "normalize alike, which the tables would merge")
        if month_index(self.window_start) is None:
            raise ValueError(f"bad window_start {self.window_start!r}")
        # each cross-reference names a system or a vehicles key; a dict's keys
        # are checked as a dict that maps each key to itself
        systems, vehicles = dict(choices=self.systems), dict(choices=tuple(self.vehicles))
        for i, comp in enumerate(self.components):
            where = f"components[{i}]."
            check(comp, where)
            if len(comp.time_profile) != self.months:
                raise ValueError(f"{where}time_profile length {len(comp.time_profile)} "
                                 f"!= months {self.months}")
            _check(where + "system_weights", {k: k for k in comp.system_weights},
                   "dict[str, str]", systems)
            _check(where + "vehicle_weights", {k: k for k in comp.vehicle_weights},
                   "dict[str, str]", vehicles)
        for i, motif in enumerate(self.motifs):
            where = f"motifs[{i}]."
            check(motif, where)
            _check(where + "labels", motif.labels, "tuple[str, ...]", systems)
            _check(where + "make_model", motif.make_model, "str", vehicles)
            if not 0 < motif.rate < 1.0 / len(motif.labels):
                raise ValueError(f"{where}rate must be in (0, 1/{len(motif.labels)})")
        _check("markov", {k: k for k in self.markov}, "dict[str, str]", vehicles)
        for name, chain in self.markov.items():
            where = f"markov[{name!r}]."
            check(chain, where)
            n = len(chain.labels)
            if not (len(chain.start) == n and 0 < _fsum(chain.start) < math.inf):
                raise ValueError(f"{where}start must hold one weight per label, "
                                 "with a positive sum")
            if len(chain.transition) != n or any(len(row) != n for row in chain.transition):
                raise ValueError(f"{where}transition must be {n} rows of {n} weights")
            if not all(abs(_fsum(row) - 1.0) <= 1e-9 for row in chain.transition):
                raise ValueError(f"{where}transition rows must sum to 1")
            _check(where + "labels", chain.labels, "tuple[str, ...]", systems)
        jobs = self.expected_jobs()
        if not jobs <= MAX_JOBS:
            raise ValueError(f"the spec's expected job total reaches {jobs:.4g}, "
                             f"past {MAX_JOBS}")

    def expected_jobs(self) -> float:
        """A bound on the expected job total of a spec whose fields are valid.

        A Markov vehicle emits its chain's length; any other vehicle at most
        the sum of its cells' planted means, the background rate plus each
        component's |weights| over months and systems. Each motif on a
        make/model then stretches a vehicle's jobs by 1 / (1 - rate * width),
        as its runs make up ``rate`` of the final windows.
        """
        total = 0.0
        for make_model, count in self.vehicles.items():
            if make_model in self.markov:
                jobs = float(self.markov[make_model].length)
            else:
                jobs = self.background_rate * self.months * len(self.systems) + sum(
                    comp.intensity * abs(comp.vehicle_weights.get(make_model, 0.0))
                    * sum(map(abs, comp.system_weights.values()))
                    * sum(map(abs, comp.time_profile))
                    for comp in self.components
                )
            for motif in self.motifs:
                if motif.make_model == make_model:
                    jobs /= 1.0 - motif.rate * len(motif.labels)
            total += count * jobs
        return total


def spec_from_json(payload) -> FleetSpec:
    """The FleetSpec whose fields are the keys of a decoded JSON object.

    Components, motifs and Markov chains are built from their own fields the
    same way, before the spec that checks them. A missing or unknown key, or
    a value of the wrong type, raises ValueError.
    """
    try:
        return FleetSpec(**{
            **payload,
            "components": [PlantedComponent(**c) for c in payload.get("components", ())],
            "motifs": [PlantedMotif(**m) for m in payload.get("motifs", ())],
            "markov": {name: MarkovSpec(**c) for name, c in payload.get("markov", {}).items()}})
    except (AttributeError, OverflowError, TypeError) as exc:
        raise ValueError(str(exc)) from None


@dataclass
class GeneratedFleet:
    vehicles_path: Path
    maintenance_path: Path
    manifest_path: Path
    manifest: dict


def _motif_count(base_len: int, width: int, rate: float) -> int:
    # solve m = rate * windows(final length) for the injection count
    raw = rate * (base_len - width + 1) / (1.0 - rate * width)
    return max(0, int(round(raw)))


def _sample_markov(chain: MarkovSpec, rng: np.random.Generator) -> list[str]:
    start = np.asarray(chain.start)
    transition = np.asarray(chain.transition)
    state = int(rng.choice(len(chain.labels), p=start / start.sum()))
    out = [chain.labels[state]]
    for _ in range(chain.length - 1):
        state = int(rng.choice(len(chain.labels), p=transition[state]))
        out.append(chain.labels[state])
    return out


@functools.lru_cache(maxsize=1024)  # labor hours round to at most 751 values
def _money_fields(labor: float) -> str:
    """csv text of the Labor Hours, Actual Labor Cost, Commercial Cost and Part
    Cost of a job whose labor hours round to ``labor``."""
    cost = round(labor * 54.8, 2)
    return csv_text((f"{labor:.2f}", f"${cost:,.2f}", "$0", f"${round(cost * 0.3, 2):,.2f}"))


def _job_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Labor hours and meter readings of n jobs, read from one ``random_raw`` call.

    Gives the values, and leaves the bit generator in the state, of the loop

        for _ in range(n):
            labor.append(rng.uniform(*LABOR_HOURS))
            meter.append(rng.integers(*METER_READINGS))

    for PCG64 (O'Neill 2014). A uniform is ``low + (high - low) * d`` with
    ``d = (w >> 11) * 2**-53`` of a fresh 64-bit word w. A meter reading is
    Lemire's (2019) bounded draw on a 32-bit half-word: the half the bit
    generator keeps (``has_uint32`` / ``uinteger``) if it holds one, else the
    low half of a fresh word, whose high half it then keeps. Should a half
    fall in Lemire's rejection zone, where the draw takes another half, the
    state is restored and the loop above runs instead.
    """
    labor_low, labor_high = LABOR_HOURS
    meter_low, meter_high = METER_READINGS
    span = meter_high - meter_low
    if n == 0:
        return np.empty(0), np.empty(0, np.int64)
    bitgen = rng.bit_generator
    saved = bitgen.state
    kept = saved["has_uint32"]  # 1: the first job's reading is the kept half
    n_split = (n - kept + 1) // 2  # fresh words split into two readings
    raw = bitgen.random_raw(n + n_split)
    # after the first job's double if a half is kept, each two jobs read the
    # words (double, split word, double); a lone last job's row is padded
    rows = np.concatenate((raw[kept:], np.zeros((kept - n) % 2, np.uint64))).reshape(-1, 3)
    words = np.concatenate((raw[:kept], rows[:, ::2].ravel()))[:n]
    halves = np.concatenate((
        np.full(kept, saved["uinteger"], np.uint64),
        np.stack((rows[:, 1] & 0xFFFFFFFF, rows[:, 1] >> 32), axis=1).ravel(),
    ))[:n]
    scaled = halves * np.uint64(span)
    if ((scaled & 0xFFFFFFFF) < (2**32 - span) % span).any():
        bitgen.state = saved
        labor, meter = np.empty(n), np.empty(n, np.int64)
        for j in range(n):
            labor[j] = rng.uniform(labor_low, labor_high)
            meter[j] = rng.integers(meter_low, meter_high)
        return labor, meter
    state = bitgen.state
    state["has_uint32"] = int(kept + 2 * n_split > n)
    if n_split:
        state["uinteger"] = int(rows[-1, 1] >> 32)
    bitgen.state = state
    labor = labor_low + (labor_high - labor_low) * ((words >> 11) * 2.0**-53)
    return labor, (scaled >> 32).astype(np.int64) + meter_low


def generate(spec: FleetSpec, out_dir) -> GeneratedFleet:
    """Write vehicles.csv, maintenance.csv and manifest.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    labels = month_labels(spec.window_start, spec.months)
    if spec.purchase_years is None:
        purchase_years = tuple(sorted({int(lbl[:4]) for lbl in labels}))
    else:
        purchase_years = spec.purchase_years

    # vehicle roster
    roster = []  # (unit, make_model, purchase_year)
    counter = 0
    for make_model, count in spec.vehicles.items():
        for _ in range(count):
            counter += 1
            unit = f"{counter:06d}"
            year = purchase_years[(counter - 1) % len(purchase_years)]
            roster.append((unit, make_model, year))

    system_index = {label: i for i, label in enumerate(spec.systems)}
    n_sys = len(spec.systems)
    system_norm = [normalize_system(label) for label in spec.systems]
    # per system: the csv text of a job's fields before its money fields (Job
    # Code, Job Description) and after its meter reading
    system_fields = [
        (csv_text((f"{i:02d}-13-000", f"REPAIR {label}")),
         csv_text(("DON", "24", "REPAIR", f"{i:02d}", label, "CODRF")) + "\n")
        for i, label in enumerate(spec.systems)
    ]
    # per month: the year, and at index d the csv text from WO Open Date to
    # Job Completed Date of a job on day d
    years = [label[:4] for label in labels]
    date_fields = [
        [""] + [f"{d},{d},CODRF,{d},B,BREAKDOWN / REPAIR,{d},{d}"
                for d in (f"{label}-{day:02d}" for day in range(1, 29))]
        for label in labels
    ]

    cells: dict[str, int] = {}
    sequences: dict[str, list[str]] = {}
    motif_bookkeeping = [
        {"make_model": m.make_model, "labels": [normalize_system(x) for x in m.labels],
         "rate": m.rate, "injected_per_unit": {}, "positions_per_unit": {},
         "total_injected": 0}
        for m in spec.motifs
    ]
    component_units: list[dict[str, float]] = [{} for _ in spec.components]

    maintenance_path = out_dir / "maintenance.csv"
    n_jobs = 0
    with writing(maintenance_path) as jobs_out:
        csv.writer(jobs_out, lineterminator="\n").writerow(MAINTENANCE_COLUMNS)
        for unit, make_model, _ in roster:
            # the vehicle's jobs in emission order as month-major cells: cell c
            # is (month c // n_sys, system c % n_sys), and months never decrease
            if make_model in spec.markov:
                drawn = _sample_markov(spec.markov[make_model], rng)
                month = np.arange(len(drawn)) * spec.months // len(drawn)
                cell = month * n_sys + [system_index[lbl] for lbl in drawn]
            else:
                means = np.full((len(spec.systems), spec.months), spec.background_rate)
                for ci, comp in enumerate(spec.components):
                    vw = comp.vehicle_weights.get(make_model, 0.0)
                    if vw == 0.0:
                        continue
                    component_units[ci][unit] = vw
                    profile = np.asarray(comp.time_profile)
                    for sys_label, sw in comp.system_weights.items():
                        means[system_index[sys_label]] += comp.intensity * vw * sw * profile
                # a negative mean emits no job
                if spec.noiseless:
                    counts = np.rint(means).astype(np.int64).clip(0)
                else:
                    counts = rng.poisson(means.clip(0))
                cell = np.repeat(np.arange(spec.months * n_sys), counts.T.ravel())

            # motif injection: contiguous runs, each in the month of the job
            # before it (of the first job at position 0)
            for mi, motif in enumerate(spec.motifs):
                if motif.make_model != make_model:
                    continue
                width = len(motif.labels)
                n_inject = _motif_count(len(cell), width, motif.rate)
                if n_inject == 0:  # always so for a vehicle with no job
                    continue
                gaps = np.sort(rng.integers(0, len(cell) + 1, size=n_inject))
                run_month = cell[np.maximum(gaps - 1, 0)] // n_sys
                runs = run_month[:, None] * n_sys + [system_index[lbl] for lbl in motif.labels]
                cell = np.insert(cell, np.repeat(gaps, width), runs.ravel())
                book = motif_bookkeeping[mi]
                book["injected_per_unit"][unit] = n_inject
                # each run's first index once every run is in: the runs before it shift it
                book["positions_per_unit"][unit] = (gaps + width * np.arange(n_inject)).tolist()
                book["total_injected"] += n_inject

            # one row per job; a job's day is its place among its month's jobs,
            # counted from 1, and jobs past the 28th share the 28th
            month, system = np.divmod(cell, n_sys)
            day = np.minimum(np.arange(len(cell)) - np.searchsorted(month, month) + 1, 28)
            labor, meter = _job_draws(rng, len(cell))
            lines = []
            for m, s, d, hours, reading in zip(month.tolist(), system.tolist(), day.tolist(),
                                               labor.tolist(), meter.tolist()):
                n_jobs += 1
                job_id = f"{n_jobs:07d}"
                before_money, after_meter = system_fields[s]
                lines.append(
                    f"{job_id},{years[m]},{unit},{job_id},{date_fields[m][d]},"
                    f"{before_money},{_money_fields(round(hours, 2))},{reading},{after_meter}"
                )
            jobs_out.writelines(lines)
            cell_ids, cell_counts = np.unique(cell, return_counts=True)
            for c, count in zip(cell_ids.tolist(), cell_counts.tolist()):
                cells[f"{unit}|{system_norm[c % n_sys]}|{labels[c // n_sys]}"] = count
            if len(cell):
                sequences[unit] = [system_norm[s] for s in system.tolist()]

    vehicles_path = out_dir / "vehicles.csv"
    with writing(vehicles_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VEHICLE_COLUMNS)
        for unit, make_model, year in roster:
            make, _, model = make_model.partition(" ")
            cost = int(rng.integers(18, 95)) * 1000 + int(rng.integers(0, 1000))
            writer.writerow((
                unit, "19", "GENERAL SERVICES", make, model, str(year),
                str(int(rng.integers(500, 120000))), f"{year + 1}-06-15 08:30:00",
                f"${cost:,}", "A", "Active Unit",
                f"${float(rng.integers(100, 9000)):,.2f}",
                f"${float(rng.integers(100, 9000)):,.2f}",
                f"{float(rng.integers(100, 4000)):,.1f}",
            ))

    manifest = {
        "seed": spec.seed,
        "window_start": spec.window_start,
        "months": spec.months,
        "month_labels": labels,
        "systems": list(spec.systems),
        "totals": {"vehicles": len(roster), "jobs": n_jobs},
        "vehicles": {
            unit: {"make_model": mm, "purchase_year": year} for unit, mm, year in roster
        },
        "cells": cells,
        "sequences": sequences,
        "components": [
            {
                "name": comp.name,
                "intensity": comp.intensity,
                "vehicle_units": component_units[ci],
                "system_weights": {
                    normalize_system(k): v for k, v in comp.system_weights.items()
                },
                "time_profile": list(comp.time_profile),
                "active_months": [
                    labels[t] for t, v in enumerate(comp.time_profile) if v > 0
                ],
            }
            for ci, comp in enumerate(spec.components)
        ],
        "motifs": motif_bookkeeping,
        "markov": {
            name: {
                "labels": [normalize_system(x) for x in chain.labels],
                "transition": [list(row) for row in chain.transition],
                "start": list(chain.start),
                "length": chain.length,
            }
            for name, chain in spec.markov.items()
        },
    }
    manifest_path = out_dir / "manifest.json"
    write_json(manifest, manifest_path)

    return GeneratedFleet(
        vehicles_path=vehicles_path,
        maintenance_path=maintenance_path,
        manifest_path=manifest_path,
        manifest=manifest,
    )


def demo_spec(seed: int = 1234) -> FleetSpec:
    """Three make/models, 60 vehicles, 48 months, planted patterns throughout.

    Plants a summer-seasonal mower component on the riding mowers, a periodic
    preventive-maintenance component on the police sedans, a slowly ramping
    brakes/exhaust wear component fleet-wide, and a (pm, tires, pm) sequence
    motif in the Charger group for the mining demo.
    """
    months = 48
    summer = tuple(1.0 if (m % 12) in (5, 6, 7) else 0.0 for m in range(months))
    pm_cycle = tuple(1.0 if m % 6 == 0 else 0.15 for m in range(months))
    ramp = tuple(m / (months - 1.0) for m in range(months))
    systems = (
        "Brakes",
        "Cab & Sheet Metal",
        "Electrical & Lighting",
        "Engine / Motor Systems Group",
        "Exhaust",
        "Mowing Blades",
        "PM Service All Levels",
        "Tires, Tubes, Liners & Valves",
    )
    return FleetSpec(
        seed=seed,
        vehicles={
            "DODGE CHARGER": 30,
            "FORD CROWN VICTORIA": 20,
            "HUSTLER X-ONE": 10,
        },
        window_start="2013-01",
        months=months,
        systems=systems,
        background_rate=0.03,
        components=[
            PlantedComponent(
                name="summer-mower",
                vehicle_weights={"HUSTLER X-ONE": 1.0},
                system_weights={
                    "Mowing Blades": 1.0,
                    "Tires, Tubes, Liners & Valves": 0.8,
                },
                time_profile=summer,
                intensity=2.5,
            ),
            PlantedComponent(
                name="police-pm",
                vehicle_weights={"DODGE CHARGER": 1.0, "FORD CROWN VICTORIA": 0.9},
                system_weights={"PM Service All Levels": 1.0},
                time_profile=pm_cycle,
                intensity=0.8,
            ),
            PlantedComponent(
                name="wear-ramp",
                vehicle_weights={
                    "DODGE CHARGER": 1.0,
                    "FORD CROWN VICTORIA": 1.0,
                    "HUSTLER X-ONE": 0.6,
                },
                system_weights={"Brakes": 1.0, "Exhaust": 0.4},
                time_profile=ramp,
                intensity=0.5,
            ),
        ],
        motifs=[
            PlantedMotif(
                make_model="DODGE CHARGER",
                labels=(
                    "PM Service All Levels",
                    "Tires, Tubes, Liners & Valves",
                    "PM Service All Levels",
                ),
                rate=0.08,
            )
        ],
        purchase_years=(2013, 2014),
    )
