"""CSV ingestion of the vehicles/maintenance tables and count-tensor assembly.

Input files are UTF-8 comma-delimited CSV, with or without a byte order
mark, with double-quote escaping and a header row. Mandatory vehicle
columns: Unit#, Make, Model, Year. Mandatory maintenance columns: Job ID,
Unit No, Job Open Date, System Description. Missing identity values (Unit#,
Job ID, Unit No) abort with an error naming the row; rows with an unusable
Job Open Date or an empty System Description are routed to a rejects report
instead.

Dates must be ``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM:SS`` (exact grammar in
:func:`parse_date`). Other columns are ignored.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .knobs import Checked
from .tensor import Tensor3, not_utf8, writing


class DataError(ValueError):
    """Malformed or contract-violating input data."""


VEHICLE_REQUIRED = ("Unit#", "Make", "Model", "Year")
MAINTENANCE_REQUIRED = ("Job ID", "Unit No", "Job Open Date", "System Description")

# the grammar datetime's format parser compiles for "%Y-%m-%d" and
# "%Y-%m-%d %H:%M:%S": month and day may have one digit, the day also a
# leading space, \s+ separates date and time, and \d (like int()) takes any
# Unicode decimal digit; seconds stop at 59 because that parser's 60 and 61
# fail when the datetime is built
_DATE_RE = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
    r"(?:\s+(?:2[0-3]|[01]\d|\d):(?:[0-5]\d|\d):(?:[0-5]\d|\d))?"
)


def normalize_system(label: str) -> str:
    """Canonical system vocabulary entry: trimmed and case-folded."""
    return label.strip().casefold()


def normalize_make_model(*parts: str) -> str:
    """Make/model key: the parts joined, whitespace runs collapsed, upper-cased."""
    return " ".join(" ".join(parts).split()).upper()


def csv_text(fields) -> str:
    """The fields as csv.writer joins them in a row, with no line terminator:
    quoted, quotes doubled, only where QUOTE_MINIMAL needs it."""
    out = io.StringIO()
    # a trailing empty field: a row of one empty field is written as ""
    csv.writer(out, lineterminator="\n").writerow((*fields, ""))
    return out.getvalue()[:-2]


def write_json(payload, path) -> None:
    """Write ``payload`` as every JSON artifact is written: LF line ends,
    indent 2, sorted keys and a final newline."""
    with writing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def month_index(value: str) -> int | None:
    """``12*year + month - 1`` of a ``YYYY-MM`` month, or None when ``value``
    is not one: two integers split by one dash, the second in [1, 12]."""
    try:  # a ValueError from int(), or from a count of parts other than two
        year, month = map(int, value.strip().split("-"))
    except ValueError:
        return None
    return year * 12 + month - 1 if 1 <= month <= 12 else None


def month_labels(window_start: str, months: int) -> list[str]:
    """The ``YYYY-MM`` labels of ``months`` months from ``window_start`` on."""
    start = month_index(window_start)
    return [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(start, start + months)]


def parse_date(value: str) -> date | None:
    """Date of a ``YYYY-MM-DD[ HH:MM:SS]`` value, or None when it is not one.

    Accepts exactly the values that ``datetime`` parses with the format
    ``%Y-%m-%d`` or ``%Y-%m-%d %H:%M:%S`` once surrounding whitespace is
    stripped; the time of day is checked and dropped.
    """
    match = _DATE_RE.fullmatch(value.strip())
    if match is None:
        return None
    year, month, day = match.groups()
    try:
        return date(int(year), int(month), int(day))
    except ValueError:
        return None


@dataclass
class VehicleRecord:
    unit_no: str
    make: str
    model: str
    model_year: int

    @property
    def make_model(self) -> str:
        return normalize_make_model(self.make, self.model)


@dataclass(slots=True)
class MaintenanceRecord:
    job_id: str
    unit_no: str
    job_open_date: date
    system_desc: str


@dataclass
class RejectedRow:
    row: int
    reason: str
    detail: str = ""


def _read_table(path, required):
    """Yield ``(row number, values of the required columns)``.

    Reads like ``csv.DictReader``: a repeated header name means its last
    column, blank lines are skipped and not numbered (the first data row is
    row 2), a short row reads its missing columns as empty, and extra fields
    are ignored. No other column is read.

    A data line with no ``"`` and no more characters than
    ``csv.field_size_limit()`` is split at its commas, which gives the
    fields ``csv.reader`` gives. The header and every other line go to one
    ``csv.reader``, which reads on from the file through a quoted line break.
    """
    # utf-8-sig drops the byte order mark that spreadsheet exports put first
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        held = []  # the line the loop below hands to the reader
        reader = csv.reader(iter(lambda: held.pop() if held else fh.readline(), ""))
        row_no = 0
        try:
            index = {name: i for i, name in enumerate(next(reader, []))}
            missing = [c for c in required if c not in index]
            if missing:
                raise DataError(f"{path}: missing mandatory columns {missing}")
            positions = [index[c] for c in required]
            pick = operator.itemgetter(*positions)
            width = max(positions) + 1
            limit = csv.field_size_limit()
            row_no = 1
            for line in fh:
                if '"' in line or len(line) > limit:
                    held.append(line)
                    row = next(reader)
                else:
                    text = line.rstrip("\r\n")
                    row = text.split(",") if text else []  # a blank line, as csv.reader reads it
                if row:
                    row_no += 1
                    if len(row) < width:
                        row += [""] * (width - len(row))
                    yield row_no, pick(row)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}: row {row_no + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(not_utf8(path, exc)) from None


def _check_unique(path, column: str, values: list[str]) -> None:
    """Raise a DataError that lists each value of ``column`` found more than
    once in ``values``."""
    if len(set(values)) < len(values):
        duplicates = sorted(value for value, n in Counter(values).items() if n > 1)
        raise DataError(f"{path}: duplicate {column} values: {duplicates}")


def parse_vehicles(path) -> list[VehicleRecord]:
    records: list[VehicleRecord] = []
    for row_no, (unit, make, model, year_raw) in _read_table(path, VEHICLE_REQUIRED):
        unit = unit.strip()
        if not unit:
            raise DataError(f"{path}: row {row_no}: missing Unit# value")
        make = make.strip()
        model = model.strip()
        if not make or not model:
            raise DataError(f"{path}: row {row_no}: missing Make/Model value")
        year_raw = year_raw.strip()
        try:
            year = int(year_raw)
        except ValueError:
            raise DataError(f"{path}: row {row_no}: unparseable Year {year_raw!r}")
        if not 1900 <= year <= 2100:
            raise DataError(f"{path}: row {row_no}: Year {year} outside [1900, 2100]")
        records.append(VehicleRecord(unit, make, model, year))
    _check_unique(path, "Unit#", [v.unit_no for v in records])
    return records


def parse_maintenance(path) -> tuple[list[MaintenanceRecord], list[RejectedRow]]:
    records: list[MaintenanceRecord] = []
    rejects: list[RejectedRow] = []
    job_ids: list[str] = []
    dates: dict[str, date | None] = {}  # parse_date of each distinct raw value
    # one string object per distinct Unit No and System Description: the
    # paper-scale fleet's 136k jobs name only 1,087 units and 81 systems
    shared: dict[str, str] = {}
    for row_no, (job_id, unit, open_raw, system) in _read_table(path, MAINTENANCE_REQUIRED):
        job_id = job_id.strip()
        if not job_id:
            raise DataError(f"{path}: row {row_no}: missing Job ID value")
        unit = unit.strip()
        if not unit:
            raise DataError(f"{path}: row {row_no}: missing Unit No value")
        job_ids.append(job_id)
        open_raw = open_raw.strip()
        try:
            open_date = dates[open_raw]
        except KeyError:
            open_date = dates[open_raw] = parse_date(open_raw)
        if open_date is None:
            rejects.append(RejectedRow(row_no, "bad_job_open_date", open_raw))
            continue
        system = system.strip()
        if not system:
            rejects.append(RejectedRow(row_no, "empty_system_description", job_id))
            continue
        unit = shared.setdefault(unit, unit)
        system = shared.setdefault(system, system)
        records.append(MaintenanceRecord(job_id, unit, open_date, system))
    _check_unique(path, "Job ID", job_ids)
    return records, rejects


# ---------------------------------------------------------------------------
# tensorization
# ---------------------------------------------------------------------------


# a lifetime axis has horizon*12 month labels; no vehicle outlives two centuries
MAX_HORIZON_YEARS = 200
# an absolute window, and a synthetic fleet, span at most the 2,412 months from
# 1900-01 through 2100-12, the model years parse_vehicles accepts
MAX_WINDOW_MONTHS = 12 * (2100 - 1900 + 1)


@dataclass
class TensorizeSpec(Checked):
    """How maintenance events map onto the time axis.

    absolute framing buckets by calendar month/year inside the window;
    lifetime framing buckets by years (or months) since the vehicle's
    purchase year, with ``lifetime_horizon_years`` buckets at year
    granularity. Events past the horizon or before the purchase year are
    discarded, not clamped into edge buckets, so that bucket counts stay
    interpretable.
    """

    time_mode: str = field(default="absolute", metadata=dict(choices=("absolute", "lifetime")))
    granularity: str = field(default="month", metadata=dict(choices=("month", "year")))
    window_start: str = "2010-01"
    window_end: str | None = None
    lifetime_horizon_years: int = field(default=8, metadata=dict(
        ge=1, le=MAX_HORIZON_YEARS, flag="horizon", help="lifetime horizon in years"))
    purchase_year_floor: int = field(default=2010, metadata=dict(
        flag="year_floor", help="purchase-year floor"))

    def __post_init__(self) -> None:
        super().__post_init__()
        start = month_index(self.window_start)
        if start is None:
            raise ValueError(f"bad window_start {self.window_start!r}")
        if self.window_end is not None:
            end = month_index(self.window_end)
            if end is None:
                raise ValueError(f"bad window_end {self.window_end!r}")
            if end < start:
                raise ValueError("window_end precedes window_start")
            if end - start >= MAX_WINDOW_MONTHS:
                raise ValueError(f"the window spans more than {MAX_WINDOW_MONTHS} months")


@dataclass
class TensorBuild:
    """Count tensor plus the bookkeeping needed for conservation checks."""

    tensor: Tensor3
    discards: dict[str, int]
    placed: int


def encode_jobs(
    vehicles: list[VehicleRecord], maintenance: list[MaintenanceRecord]
) -> tuple[list[VehicleRecord], np.ndarray, list[str], np.ndarray]:
    """The job table's one encoding, for tensorize and sequence mining: the
    vehicles by (model_year, unit_no), the last of a repeated Unit# kept; each
    record's vehicle index, -1 for an unknown Unit No; the sorted normalized
    System Descriptions; and each record's index into those."""
    by_unit = {v.unit_no: v for v in vehicles}
    ranked = sorted(by_unit.values(), key=lambda v: (v.model_year, v.unit_no))
    rank = {v.unit_no: i for i, v in enumerate(ranked)}
    descs = {r.system_desc for r in maintenance}
    systems = sorted({normalize_system(d) for d in descs})
    system_rank = {s: j for j, s in enumerate(systems)}
    system_of = {d: system_rank[normalize_system(d)] for d in descs}
    n = len(maintenance)
    unit = np.fromiter((rank.get(r.unit_no, -1) for r in maintenance), np.int64, n)
    system = np.fromiter((system_of[r.system_desc] for r in maintenance), np.int64, n)
    return ranked, unit, systems, system


def build_tensor(
    vehicles: list[VehicleRecord],
    maintenance: list[MaintenanceRecord],
    spec: TensorizeSpec,
) -> TensorBuild:
    """Assemble the (vehicle, system, time) job-count tensor.

    The axes hold the vehicles and the systems of the placed jobs, in
    :func:`encode_jobs` order. Every record either lands in exactly one cell
    or in one discard bucket, so ``tensor.sum() + sum(discards) ==
    len(maintenance)``.

    One rule buckets time: with ``m = 12*year + month - 1`` of the Job Open
    Date, ``step`` 1 (month) or 12 (year) and ``origin`` the window-start
    month (absolute) or ``12*model_year`` (lifetime), a job's bucket is
    ``m // step - origin // step``. A job is discarded for the first reason
    that holds: unknown_vehicle, below_purchase_year_floor, then
    outside_window (m outside the window) or before_purchase_year /
    beyond_lifetime_horizon (bucket < 0 or >= horizon*12 // step).
    """
    ranked, unit, system_names, system = encode_jobs(vehicles, maintenance)
    dates = (r.job_open_date for r in maintenance)
    month = np.fromiter((12 * d.year + d.month - 1 for d in dates), np.int64, len(unit))
    # unit -1 (unknown vehicle) reads the trailing model year -1
    model_year = np.array([v.model_year for v in ranked] + [-1])[unit]

    step = 1 if spec.granularity == "month" else 12
    masks = {
        "unknown_vehicle": unit < 0,
        "below_purchase_year_floor": model_year < spec.purchase_year_floor,
    }
    if spec.time_mode == "absolute":
        lo = month_index(spec.window_start)
        if spec.window_end is not None:
            hi = month_index(spec.window_end)
        else:
            # the latest job that the vehicle checks keep
            kept = month[~(masks["unknown_vehicle"] | masks["below_purchase_year_floor"])]
            if not kept.size:
                raise DataError("cannot infer window end: no maintenance records")
            hi = int(kept.max())
            if hi - lo >= MAX_WINDOW_MONTHS:
                raise DataError(f"cannot infer window end: the latest job is more than "
                                f"{MAX_WINDOW_MONTHS} months past the window start")
            if hi < lo:
                raise DataError(f"cannot infer window end: the latest job, in {hi // 12:04d}-"
                                f"{hi % 12 + 1:02d}, precedes the window start {spec.window_start}")
        labels = (month_labels(spec.window_start, hi - lo + 1) if step == 1
                  else [str(year) for year in range(lo // 12, hi // 12 + 1)])
        origin = lo
        masks["outside_window"] = (month < lo) | (month > hi)
    else:
        n_buckets = spec.lifetime_horizon_years * 12 // step
        labels = [f"{spec.granularity} {k}" for k in range(n_buckets)]
        origin = 12 * model_year
    bucket = month // step - origin // step
    # every job inside an absolute window has a bucket in range
    masks["before_purchase_year"] = bucket < 0
    masks["beyond_lifetime_horizon"] = bucket >= len(labels)
    # 0 for a placed job, else 1 + the index of its first discard reason
    reason = np.select(list(masks.values()), range(1, len(masks) + 1), 0)
    counts = np.bincount(reason, minlength=len(masks) + 1)
    discards = {name: int(c) for name, c in zip(masks, counts[1:]) if c}
    placed = reason == 0
    if not placed.any():
        raise DataError("empty tensor: no vehicle passes the filters with in-window jobs")

    units, unit_axis = np.unique(unit[placed], return_inverse=True)
    systems, system_axis = np.unique(system[placed], return_inverse=True)
    shape = (len(units), len(systems), len(labels))
    flat = (unit_axis * shape[1] + system_axis) * shape[2] + bucket[placed]
    positions, counts = np.unique(flat, return_counts=True)
    axes = ([ranked[i].unit_no for i in units], [system_names[j] for j in systems], labels)
    tensor = Tensor3(shape, positions, counts, tuple(map(tuple, axes)))
    return TensorBuild(tensor=tensor, discards=discards, placed=flat.size)


def write_discard_summary(build: TensorBuild, path) -> None:
    write_json({"placed": build.placed, "discarded": build.discards,
                "total_records": build.placed + sum(build.discards.values())}, path)
