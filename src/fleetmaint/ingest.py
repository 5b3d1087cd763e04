"""CSV ingestion of the vehicles/maintenance tables and count-tensor assembly.

Input files are UTF-8 comma-delimited CSV, with or without a byte order
mark, with double-quote escaping and a header row. Mandatory vehicle
columns: Unit#, Make, Model, Year. Mandatory maintenance columns: Job ID,
Unit No, Job Open Date, System Description. Missing identity values (Unit#,
Job ID, Unit No) abort with an error naming the row; rows with an unusable
Job Open Date or an empty System Description are routed to a rejects report
instead.

Dates must be ``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM:SS`` (exact grammar in
:func:`parse_date`). Currency fields are parsed after stripping ``$`` and
thousands separators; unparseable optional fields simply become None.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .tensor import Tensor3


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


def normalize_make_model(make: str, model: str) -> str:
    return f"{make.strip().upper()} {model.strip().upper()}"


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


def parse_currency(value: str) -> float | None:
    cleaned = value.strip().replace("$", "").replace(",", "")
    if not cleaned:
        return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def _parse_float(value: str) -> float | None:
    try:
        return float(value.strip())
    except (ValueError, AttributeError):
        return None


@dataclass
class VehicleRecord:
    unit_no: str
    make: str
    model: str
    model_year: int
    dept_code: str | None = None
    purchase_cost: float | None = None
    status_code: str | None = None
    extras: dict[str, str] = field(default_factory=dict)

    @property
    def make_model(self) -> str:
        return normalize_make_model(self.make, self.model)


@dataclass
class MaintenanceRecord:
    job_id: str
    unit_no: str
    job_open_date: date
    system_desc: str
    wo_open_date: date | None = None
    job_completed_date: date | None = None
    job_reason: str | None = None
    job_code: str | None = None
    labor_hours: float | None = None
    actual_labor_cost: float | None = None
    commercial_cost: float | None = None
    part_cost: float | None = None
    extras: dict[str, str] = field(default_factory=dict)

    @property
    def system(self) -> str:
        return normalize_system(self.system_desc)


@dataclass
class RejectedRow:
    row: int
    reason: str
    detail: str = ""


def _open_reader(path):
    # utf-8-sig drops the byte order mark that spreadsheet exports put first
    fh = open(path, "r", encoding="utf-8-sig", newline="")
    reader = csv.DictReader(fh)
    return fh, reader


def _check_headers(reader, required, path):
    headers = reader.fieldnames or []
    missing = [c for c in required if c not in headers]
    if missing:
        raise DataError(f"{path}: missing mandatory columns {missing}")


def parse_vehicles(path) -> list[VehicleRecord]:
    fh, reader = _open_reader(path)
    with fh:
        _check_headers(reader, VEHICLE_REQUIRED, path)
        records: list[VehicleRecord] = []
        seen: dict[str, int] = {}
        duplicates: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            unit = (row.get("Unit#") or "").strip()
            if not unit:
                raise DataError(f"{path}: row {row_no}: missing Unit# value")
            make = (row.get("Make") or "").strip()
            model = (row.get("Model") or "").strip()
            if not make or not model:
                raise DataError(f"{path}: row {row_no}: missing Make/Model value")
            year_raw = (row.get("Year") or "").strip()
            try:
                year = int(year_raw)
            except ValueError:
                raise DataError(f"{path}: row {row_no}: unparseable Year {year_raw!r}")
            if not 1900 <= year <= 2100:
                raise DataError(f"{path}: row {row_no}: Year {year} outside [1900, 2100]")
            if unit in seen:
                duplicates.append(unit)
                continue
            seen[unit] = row_no
            known = {"Unit#", "Make", "Model", "Year", "Dept#", "Purchase Cost", "Status Code"}
            records.append(
                VehicleRecord(
                    unit_no=unit,
                    make=make,
                    model=model,
                    model_year=year,
                    dept_code=(row.get("Dept#") or "").strip() or None,
                    purchase_cost=parse_currency(row.get("Purchase Cost") or ""),
                    status_code=(row.get("Status Code") or "").strip() or None,
                    extras={k: v for k, v in row.items() if k not in known and v},
                )
            )
        if duplicates:
            raise DataError(f"{path}: duplicate Unit# values: {sorted(set(duplicates))}")
    return records


def parse_maintenance(path) -> tuple[list[MaintenanceRecord], list[RejectedRow]]:
    fh, reader = _open_reader(path)
    with fh:
        _check_headers(reader, MAINTENANCE_REQUIRED, path)
        records: list[MaintenanceRecord] = []
        rejects: list[RejectedRow] = []
        seen: dict[str, int] = {}
        duplicates: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            job_id = (row.get("Job ID") or "").strip()
            if not job_id:
                raise DataError(f"{path}: row {row_no}: missing Job ID value")
            unit = (row.get("Unit No") or "").strip()
            if not unit:
                raise DataError(f"{path}: row {row_no}: missing Unit No value")
            if job_id in seen:
                duplicates.append(job_id)
                continue
            seen[job_id] = row_no
            open_raw = (row.get("Job Open Date") or "").strip()
            open_date = parse_date(open_raw)
            if open_date is None:
                rejects.append(RejectedRow(row_no, "bad_job_open_date", open_raw))
                continue
            system = (row.get("System Description") or "").strip()
            if not system:
                rejects.append(RejectedRow(row_no, "empty_system_description", job_id))
                continue
            known = {
                "Job ID", "Unit No", "Job Open Date", "System Description",
                "WO Open Date", "Job Completed Date", "Job Reason", "Job Code",
                "Labor Hours", "Actual Labor Cost", "Commercial Cost", "Part Cost",
            }
            records.append(
                MaintenanceRecord(
                    job_id=job_id,
                    unit_no=unit,
                    job_open_date=open_date,
                    system_desc=system,
                    wo_open_date=parse_date(row.get("WO Open Date") or ""),
                    job_completed_date=parse_date(row.get("Job Completed Date") or ""),
                    job_reason=(row.get("Job Reason") or "").strip() or None,
                    job_code=(row.get("Job Code") or "").strip() or None,
                    labor_hours=_parse_float(row.get("Labor Hours") or ""),
                    actual_labor_cost=parse_currency(row.get("Actual Labor Cost") or ""),
                    commercial_cost=parse_currency(row.get("Commercial Cost") or ""),
                    part_cost=parse_currency(row.get("Part Cost") or ""),
                    extras={k: v for k, v in row.items() if k not in known and v},
                )
            )
        if duplicates:
            raise DataError(f"{path}: duplicate Job ID values: {sorted(set(duplicates))}")
    return records, rejects


# ---------------------------------------------------------------------------
# tensorization
# ---------------------------------------------------------------------------


@dataclass
class TensorizeSpec:
    """How maintenance events map onto the time axis.

    absolute framing buckets by calendar month/year inside the window;
    lifetime framing buckets by years (or months) since the vehicle's
    purchase year, with ``lifetime_horizon_years`` buckets at year
    granularity. Events past the horizon or before the purchase year are
    discarded, not clamped into edge buckets, so that bucket counts stay
    interpretable.
    """

    time_mode: str = "absolute"
    granularity: str = "month"
    window_start: str = "2010-01"
    window_end: str | None = None
    lifetime_horizon_years: int = 8
    purchase_year_floor: int = 2010

    def __post_init__(self) -> None:
        if self.time_mode not in ("absolute", "lifetime"):
            raise ValueError(f"time_mode must be absolute or lifetime, got {self.time_mode!r}")
        if self.granularity not in ("month", "year"):
            raise ValueError(f"granularity must be month or year, got {self.granularity!r}")
        if self.lifetime_horizon_years < 1:
            raise ValueError("lifetime_horizon_years must be >= 1")
        start = _parse_month(self.window_start)
        if start is None:
            raise ValueError(f"bad window_start {self.window_start!r}")
        if self.window_end is not None:
            end = _parse_month(self.window_end)
            if end is None:
                raise ValueError(f"bad window_end {self.window_end!r}")
            if not start < end:
                raise ValueError("window_start must precede window_end")


def _parse_month(value: str) -> tuple[int, int] | None:
    parts = value.strip().split("-")
    if len(parts) != 2:
        return None
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if not 1 <= month <= 12:
        return None
    return year, month


def _month_index(year: int, month: int) -> int:
    return year * 12 + (month - 1)


@dataclass
class TensorBuild:
    """Count tensor plus the bookkeeping needed for conservation checks."""

    tensor: Tensor3
    discards: dict[str, int]
    placed: int

    @property
    def total_seen(self) -> int:
        return self.placed + sum(self.discards.values())


def _time_axis(spec: TensorizeSpec, records) -> tuple[list[str], object]:
    """Bucket labels and a record -> bucket-index function (or discard reason)."""
    if spec.time_mode == "absolute":
        start_y, start_m = _parse_month(spec.window_start)
        if spec.window_end is not None:
            end_y, end_m = _parse_month(spec.window_end)
        else:
            if not records:
                raise DataError("cannot infer window end: no maintenance records")
            last = max(r.job_open_date for r in records)
            end_y, end_m = last.year, last.month
        lo = _month_index(start_y, start_m)
        hi = _month_index(end_y, end_m)
        if hi < lo:
            raise DataError("window end precedes window start")
        if spec.granularity == "month":
            labels = [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(lo, hi + 1)]

            def bucket(record, vehicle):
                idx = _month_index(record.job_open_date.year, record.job_open_date.month)
                if lo <= idx <= hi:
                    return idx - lo
                return "outside_window"

        else:
            years = list(range(start_y, end_y + 1))
            labels = [str(y) for y in years]

            def bucket(record, vehicle):
                y = record.job_open_date.year
                idx = _month_index(y, record.job_open_date.month)
                if lo <= idx <= hi:
                    return y - start_y
                return "outside_window"

        return labels, bucket

    horizon = spec.lifetime_horizon_years
    if spec.granularity == "year":
        labels = [f"year {k}" for k in range(horizon)]

        def bucket(record, vehicle):
            offset = record.job_open_date.year - vehicle.model_year
            if offset < 0:
                return "before_purchase_year"
            if offset >= horizon:
                return "beyond_lifetime_horizon"
            return offset

    else:
        n_buckets = horizon * 12
        labels = [f"month {k}" for k in range(n_buckets)]

        def bucket(record, vehicle):
            offset = _month_index(
                record.job_open_date.year, record.job_open_date.month
            ) - _month_index(vehicle.model_year, 1)
            if offset < 0:
                return "before_purchase_year"
            if offset >= n_buckets:
                return "beyond_lifetime_horizon"
            return offset

    return labels, bucket


def build_tensor(
    vehicles: list[VehicleRecord],
    maintenance: list[MaintenanceRecord],
    spec: TensorizeSpec,
) -> TensorBuild:
    """Assemble the (vehicle, system, time) job-count tensor.

    Vehicle axis: vehicles at or above the purchase-year floor with at least
    one in-window job, sorted by (model_year, unit_no). System axis: distinct
    normalized System Description values among placed jobs, sorted. Every
    record either lands in exactly one cell or in one discard bucket, so
    ``tensor.sum() + sum(discards) == len(maintenance)``.
    """
    by_unit = {v.unit_no: v for v in vehicles}
    time_labels, bucket_of = _time_axis(spec, maintenance)

    discards: dict[str, int] = {}
    placements: list[tuple[str, str, int]] = []

    def discard(reason: str) -> None:
        discards[reason] = discards.get(reason, 0) + 1

    for record in maintenance:
        vehicle = by_unit.get(record.unit_no)
        if vehicle is None:
            discard("unknown_vehicle")
            continue
        if vehicle.model_year < spec.purchase_year_floor:
            discard("below_purchase_year_floor")
            continue
        result = bucket_of(record, vehicle)
        if isinstance(result, str):
            discard(result)
            continue
        placements.append((record.unit_no, record.system, result))

    if not placements:
        raise DataError("empty tensor: no vehicle passes the filters with in-window jobs")

    units = sorted({p[0] for p in placements}, key=lambda u: (by_unit[u].model_year, u))
    systems = sorted({p[1] for p in placements})
    unit_idx = {u: i for i, u in enumerate(units)}
    system_idx = {s: j for j, s in enumerate(systems)}

    data = np.zeros((len(units), len(systems), len(time_labels)))
    for unit, system, t in placements:
        data[unit_idx[unit], system_idx[system], t] += 1.0

    tensor = Tensor3(data, (tuple(units), tuple(systems), tuple(time_labels)))
    return TensorBuild(tensor=tensor, discards=discards, placed=len(placements))


def write_discard_summary(build: TensorBuild, path) -> None:
    payload = {
        "placed": build.placed,
        "discarded": dict(sorted(build.discards.items())),
        "total_records": build.total_seen,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
