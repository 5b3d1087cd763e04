import contextlib
import csv
import io
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint.ingest import (
    MAINTENANCE_REQUIRED,
    MAX_WINDOW_MONTHS,
    VEHICLE_REQUIRED,
    DataError,
    MaintenanceRecord,
    RejectedRow,
    TensorBuild,
    TensorizeSpec,
    VehicleRecord,
    build_tensor,
    normalize_system,
    parse_date,
    parse_maintenance,
    parse_vehicles,
    write_discard_summary,
)
from oracles import from_array

VEHICLE_COLUMNS = [
    "Unit#", "Dept#", "Dept Desc", "Make", "Model", "Year", "Last Meter",
    "Last Fuel Date", "Purchase Cost", "Status Code", "Status Desc",
    "LTD Maintenance Cost", "LTD Fuel Cost", "LTD Fuel Gallons",
]
MAINT_COLUMNS = [
    "Job ID", "Year WO Completed", "Unit No", "Work Order No", "WO Open Date",
    "WO Completed Date", "Work Order Location", "Job Open Date", "Job Reason",
    "Job Reason Desc", "Job Open Date2", "Job Completed Date", "Job Code",
    "Job Description", "Labor Hours", "Actual Labor Cost", "Commercial Cost",
    "Part Cost", "Primary Meter", "Job Status", "Job WAC", "WACDescription",
    "Job System", "System Description", "Job Location",
]


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
    return path


def vehicle_row(unit, make="CHEVROLET", model="2500", year="2012", **extra):
    row = {"Unit#": unit, "Make": make, "Model": model, "Year": year}
    row.update(extra)
    return row


def maint_row(job_id, unit, open_date, system, **extra):
    row = {
        "Job ID": job_id,
        "Unit No": unit,
        "Job Open Date": open_date,
        "System Description": system,
    }
    row.update(extra)
    return row


class TestParseVehicles:
    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path / "v.csv", VEHICLE_COLUMNS, [])
        assert parse_vehicles(path) == []

    def test_missing_unit_value_is_hard_error(self, tmp_path):
        path = write_csv(tmp_path / "v.csv", VEHICLE_COLUMNS, [vehicle_row("")])
        with pytest.raises(DataError, match="row 2"):
            parse_vehicles(path)

    def test_duplicate_units_listed(self, tmp_path):
        path = write_csv(
            tmp_path / "v.csv",
            VEHICLE_COLUMNS,
            [vehicle_row("A1"), vehicle_row("A2"), vehicle_row("A1")],
        )
        with pytest.raises(DataError, match="A1"):
            parse_vehicles(path)

    def test_missing_mandatory_column(self, tmp_path):
        cols = [c for c in VEHICLE_COLUMNS if c != "Year"]
        path = write_csv(tmp_path / "v.csv", cols, [])
        with pytest.raises(DataError, match="Year"):
            parse_vehicles(path)

    def test_year_bounds_enforced(self, tmp_path):
        path = write_csv(tmp_path / "v.csv", VEHICLE_COLUMNS, [vehicle_row("X", year="1776")])
        with pytest.raises(DataError, match="1776"):
            parse_vehicles(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_vehicles(tmp_path / "nope.csv")


class TestParseMaintenance:
    def test_example_row(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            MAINT_COLUMNS,
            [maint_row("847956", "067602", "2017-01-17", "Brakes")],
        )
        records, rejects = parse_maintenance(path)
        assert rejects == []
        assert records[0].system_desc == "Brakes"
        assert normalize_system(records[0].system_desc) == "brakes"
        assert str(records[0].job_open_date) == "2017-01-17"

    def test_empty_system_rejected_not_fatal(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            MAINT_COLUMNS,
            [
                maint_row("1", "U", "2017-01-17", ""),
                maint_row("2", "U", "2017-01-18", "Tires"),
            ],
        )
        records, rejects = parse_maintenance(path)
        assert len(records) == 1
        assert rejects[0].reason == "empty_system_description"

    def test_shared_work_order_keeps_job_rows(self, tmp_path):
        rows = [
            maint_row(str(i), "U", "2016-05-01", "Brakes", **{"Work Order No": "777"})
            for i in (1, 2, 3)
        ]
        path = write_csv(tmp_path / "m.csv", MAINT_COLUMNS, rows)
        records, _ = parse_maintenance(path)
        assert len(records) == 3

    def test_bad_date_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            MAINT_COLUMNS,
            [maint_row("1", "U", "01/17/2017", "Brakes")],
        )
        records, rejects = parse_maintenance(path)
        assert records == []
        assert rejects[0].reason == "bad_job_open_date"

    def test_datetime_form_accepted(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            MAINT_COLUMNS,
            [maint_row("1", "U", "2009-11-05 15:37:25", "Brakes")],
        )
        records, rejects = parse_maintenance(path)
        assert str(records[0].job_open_date) == "2009-11-05"

    def test_duplicate_job_id_fatal(self, tmp_path):
        rows = [maint_row("9", "U", "2016-01-01", "A"), maint_row("9", "U", "2016-01-02", "B")]
        path = write_csv(tmp_path / "m.csv", MAINT_COLUMNS, rows)
        with pytest.raises(DataError, match="9"):
            parse_maintenance(path)

    def test_missing_job_id_value_fatal(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", MAINT_COLUMNS, [maint_row("", "U", "2016-01-01", "A")])
        with pytest.raises(DataError, match="row 2"):
            parse_maintenance(path)

    def test_equal_units_and_systems_share_one_string(self, tmp_path):
        rows = [
            maint_row("1", "U7", "2016-01-01", "Brakes"),
            maint_row("2", " U7 ", "2016-01-02", "  Brakes"),
            maint_row("3", "U7", "2016-01-03", "Tires"),
            maint_row("4", "U8", "2016-01-04", "Brakes "),
        ]
        path = write_csv(tmp_path / "m.csv", MAINT_COLUMNS, rows)
        records, _ = parse_maintenance(path)
        assert [r.unit_no for r in records] == ["U7", "U7", "U7", "U8"]
        assert [r.system_desc for r in records] == ["Brakes", "Brakes", "Tires", "Brakes"]
        assert records[0].unit_no is records[1].unit_no is records[2].unit_no
        assert records[0].system_desc is records[1].system_desc is records[3].system_desc

    @pytest.mark.parametrize("table", ["vehicles", "maintenance"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, table):
        if table == "vehicles":
            path = write_csv(tmp_path / "v.csv", VEHICLE_COLUMNS,
                             [vehicle_row(f"U{i}") for i in range(3000)])
            parse = parse_vehicles
        else:
            path = write_csv(tmp_path / "m.csv", MAINT_COLUMNS,
                             [maint_row(str(i), "U", "2016-01-01", "Brakes") for i in range(3000)])
            parse = parse_maintenance
        lines = path.read_bytes().split(b"\n")
        # far past the first block the text layer decodes
        lines[2500] = lines[2500].replace(b"U", b"U\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError) as info:
            parse(path)
        assert str(info.value) == f"{path}: line 2501: not UTF-8 text: invalid start byte"


def strptime_date_oracle(value: str):
    """The former ``parse_date``: the reference for its accept/reject set."""
    value = value.strip()
    for fmt in ("%Y-%m-%d", "%Y-%m-%d %H:%M:%S"):
        try:
            return datetime.strptime(value, fmt).date()
        except ValueError:
            continue
    return None


DATE_EDGE_CASES = [
    "2017-01-17", "2017-1-7", "2017-01- 5", " 2017-01-05\t", "2017-01-5 ",
    "2009-11-05 15:37:25", "2009-11-05\t15:37:25", "2009-11-05 \t 1:2:3",
    "2009-11-05\xa015:37:25", "2009-11-05 15:37:59", "2009-11-05 15:37:60",
    "2009-11-05 15:37:61", "2009-11-05 24:00:00", "2009-11-05 15:37",
    "2009-11-05T15:37:25", "2016-02-29", "2017-02-29", "2017-02-30",
    "0000-01-01", "0001-01-01", "9999-12-31", "2017-01-17x",
    "2017-01-17 10:00:00 extra", "17/01/2017", "2017-13-01", "2017-00-10",
    "2017-01-32", "20170-01-01", "2017-001-01", "",
    # Unicode decimal digits count as digits, as in int()
    "\u0661\u0662\u0663\u0664-\u0660\u0661-\u0660\u0662", "2017-01-3\u0661", "2017-01-1\u0663",
]
DATE_FIELDS = [
    "", "0", "00", "1", "01", "5", " 5", "5 ", "09", "10", "12", "13", "23",
    "24", "29", "30", "31", "32", "59", "60", "61", "62", "\u0663", "1\u0663",
    "\u0660\u0667",
]
DATE_SEPARATORS = ["", " ", "  ", "\t", " \t", "\xa0", "\n", "T", "x"]
DATE_ALPHABET = "0123456789-: \t\u0663x"


@st.composite
def date_like_strings(draw):
    """Strings near ``YYYY-MM-DD[ HH:MM:SS]``, each piece sometimes wrong."""
    def sep(usual):
        return draw(st.one_of(st.just(usual), st.sampled_from(DATE_SEPARATORS)))

    def field():
        return draw(st.sampled_from(DATE_FIELDS))

    year = draw(st.sampled_from(["2016", "0000", "9999", "\u0661\u0669\u0669\u0669", "201", "20165"]))
    text = year + sep("-") + field() + sep("-") + field()
    if draw(st.booleans()):
        text += sep(" ") + field() + sep(":") + field() + sep(":") + field()
    return sep("") + text + sep("")


class TestHelpers:
    def test_parse_date_accepts_two_forms_only(self):
        assert parse_date("2017-01-17") is not None
        assert parse_date("2009-11-05 15:37:25") is not None
        assert parse_date("17/01/2017") is None
        assert parse_date("2017-13-01") is None

    @pytest.mark.parametrize("value", DATE_EDGE_CASES)
    def test_parse_date_matches_strptime_on_edge_cases(self, value):
        assert parse_date(value) == strptime_date_oracle(value)

    @settings(max_examples=400, deadline=None)
    @given(value=st.one_of(date_like_strings(), st.text(alphabet=DATE_ALPHABET, max_size=22)))
    def test_parse_date_matches_strptime(self, value):
        assert parse_date(value) == strptime_date_oracle(value)

    def test_normalize_system(self):
        assert normalize_system("  Brakes ") == "brakes"
        assert normalize_system("PM Service All Levels") == "pm service all levels"


class TestByteOrderMark:
    def test_bom_prefixed_tables_parse_like_plain(self, tmp_path):
        vrows = [vehicle_row("U1"), vehicle_row("U2", year="2014")]
        mrows = [
            maint_row("J1", "U1", "2016-01-05", "Brakes"),
            maint_row("J2", "U2", "2016-02-05 10:00:00", "Tires"),
            maint_row("J3", "U2", "not a date", "Tires"),
        ]
        vpath = write_csv(tmp_path / "v.csv", VEHICLE_COLUMNS, vrows)
        mpath = write_csv(tmp_path / "m.csv", MAINT_COLUMNS, mrows)
        bom = b"\xef\xbb\xbf"
        vbom, mbom = tmp_path / "v_bom.csv", tmp_path / "m_bom.csv"
        vbom.write_bytes(bom + vpath.read_bytes())
        mbom.write_bytes(bom + mpath.read_bytes())
        assert parse_vehicles(vbom) == parse_vehicles(vpath)
        assert parse_maintenance(mbom) == parse_maintenance(mpath)


def parse_maintenance_oracle(path):
    """The former ``csv.DictReader`` parser, the reference for the new one."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in MAINTENANCE_REQUIRED if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"{path}: missing mandatory columns {missing}")
        records, rejects, seen, duplicates = [], [], set(), []
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
            seen.add(job_id)
            open_raw = (row.get("Job Open Date") or "").strip()
            open_date = parse_date(open_raw)
            if open_date is None:
                rejects.append(RejectedRow(row_no, "bad_job_open_date", open_raw))
                continue
            system = (row.get("System Description") or "").strip()
            if not system:
                rejects.append(RejectedRow(row_no, "empty_system_description", job_id))
                continue
            records.append(MaintenanceRecord(job_id, unit, open_date, system))
        if duplicates:
            raise DataError(f"{path}: duplicate Job ID values: {sorted(set(duplicates))}")
    return records, rejects


def parse_vehicles_oracle(path):
    """The former ``csv.DictReader`` vehicle parser."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in VEHICLE_REQUIRED if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"{path}: missing mandatory columns {missing}")
        records, seen, duplicates = [], set(), []
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
            seen.add(unit)
            records.append(VehicleRecord(unit, make, model, year))
        if duplicates:
            raise DataError(f"{path}: duplicate Unit# values: {sorted(set(duplicates))}")
    return records


def outcome(parse, path):
    """A parser's result on a table, or the type and message of its error."""
    try:
        return parse(path)
    except Exception as exc:
        return type(exc), str(exc)


def expected_outcome(oracle, path):
    """The oracle's outcome, where a ``csv.Error`` (a field over
    ``csv.field_size_limit()``) becomes the DataError that names the file and
    the row: one past the non-blank rows, header included, read before it."""
    result = outcome(oracle, path)
    if isinstance(result, tuple) and result[0] is csv.Error:
        rows = 0
        with open(path, encoding="utf-8-sig", newline="") as fh:
            try:
                for row in csv.reader(fh):
                    rows += bool(row)
            except csv.Error:
                pass
        return DataError, f"{path}: row {rows + 1}: {result[1]}"
    return result


@contextlib.contextmanager
def field_size_limit(limit):
    """``csv.field_size_limit()`` set to ``limit`` (None: left as it is)."""
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        yield
    finally:
        csv.field_size_limit(old)


MAINT_FIELD_VALUES = {
    "Job ID": [str(i) for i in range(1, 25)] + [" 8 ", "J9", "", " "],
    "Unit No": ["U1", "U2", "U3", " U4 ", "", "\t"],
    "Job Open Date": [
        "2016-01-05", " 2016-01-05 ", "2016-1-5", "2016-01- 5", "2016-01-05 10:00:00",
        "2016-02-30", "05/01/2016", " 05/01/2016 ", "", "2016-01-05x",
    ],
    "System Description": ["Brakes", " Tires ", "", "Cab, Sheet Metal", "two\nlines", 'say "pm"',
                           "Engine / Motor Systems Group"],
}
OTHER_FIELD_VALUES = ["", "x", "a,b", "c\r\nd", '"q"', "$1,000.00", "n\0l"]
# what replaces a value with a comma, a quote or a line break in a row
# written as raw text: a quote that does not open the field is a character
RAW_FIELD_VALUES = ['5" tire', 'x"y"z', "n\0l"]
# sizes from where the header still fits (its longest name has 18
# characters) to where the longest value above does not
FIELD_LIMITS = [None] * 6 + [19, 28]


@st.composite
def maintenance_tables(draw):
    """Text of a maintenance table: quoted commas, quotes and newlines, short,
    long and blank rows, a BOM, repeated or missing header names, duplicate
    and blank identity values, bad and space-padded dates; rows written as
    raw text, with stray quotes and NULs; LF, CRLF or bare CR line ends,
    the last one sometimes left off."""
    names = list(draw(st.permutations(MAINTENANCE_REQUIRED + ("Work Order No", "Part Cost"))))
    # usually every column; sometimes a mandatory one is missing or the
    # header row is blank
    names = names[: draw(st.sampled_from([6] * 12 + [5, 0]))]
    if names and draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    # a tidy table's rows are never short and have their identity values
    tidy = draw(st.booleans())
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    out.write(draw(st.sampled_from(["", "\ufeff"])))
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(names)
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 4)) == 0:
            out.write(end)  # a blank line
        width = draw(st.integers(len(names) if tidy else 0, len(names) + 2))
        row = []
        for i in range(width):
            name = names[i] if i < len(names) else None
            pool = MAINT_FIELD_VALUES.get(name, OTHER_FIELD_VALUES)
            if tidy and name in ("Job ID", "Unit No"):
                pool = [v for v in pool if v.strip()]
            row.append(draw(st.sampled_from(pool)))
        if draw(st.integers(0, 3)) == 0:
            out.write(",".join(v if v.isprintable() and not set(v) & set(',"')
                               else draw(st.sampled_from(RAW_FIELD_VALUES)) for v in row) + end)
        else:
            writer.writerow(row)
    text = out.getvalue()
    if draw(st.integers(0, 3)) == 0:
        text = text.removesuffix(end)
    return text


VEHICLE_TABLES = [
    "",
    "\n",
    "\nUnit#,Make,Model,Year\nU1,FORD,F150,2012\n",
    "Unit#,Make,Model,Year\n",
    'Unit#,Make,Model,Year,Dept#,Purchase Cost,Status Code\nU1,FORD,F150,2012,19,"$20,456",A\n',
    'Unit#,Make,Model,Year,Notes\nU1,FORD,F150,2012,"a,\nb"\n\nU2,FORD,F150,2013\n',
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012,extra,fields\n",
    "Unit#,Make,Model,Year,Dept#,Status Code\nU1,FORD,F150,2012\n",
    "Unit#,Make,Model,Year\nU1,FORD,F150\n",
    "Unit#,Make,Model,Year,Make\nU1,FORD,F150,2012,CHEVROLET\nU2,FORD,F150,2012\n",
    "\ufeffUnit#,Make,Model,Year\n U1 , FORD , F150 , 2012 \n",
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012\n\n\nU1,FORD,F150,2013\n",
    "Unit#,Make,Model,Year\n\nU1,FORD,F150,1776\n",
    "Unit#,Make,Model,Year\nU1,FORD,F150,20x2\n",
    "Unit#,Make,Model,Year\n,FORD,F150,2012\n",
    "Unit#,Make,Model\nU1,FORD,F150\n",
    "Unit#,Make,Model,Year,Purchase Cost\r\nU1,FORD,F150,2012,n/a\r\n",
    # bare \r line ends, and a line that is only \r\n
    "Unit#,Make,Model,Year\rU1,FORD,F150,2012\r\rU2,FORD,F150,2013\r",
    "Unit#,Make,Model,Year\r\n\r\nU1,FORD,F150,2012\r\n\r\n",
    # a NUL, and quotes that do not open their field
    "Unit#,Make,Model,Year,Notes\nU1,FORD,F150,2012,n\0l\nU2,FO\0RD,F150,2013\n",
    'Unit#,Make,Model,Year,Notes\nU1,FORD,F150,2012,5" tire\nU2,FORD,F150,2013,x"y"z\n',
    # a quoted line break right after a line that splits; one left open to the end
    'Unit#,Make,Model,Year,Notes\nU1,FORD,F150,2012,ok\nU2,FORD,F150,2013,"a\nb, c"\n'
    "U3,FORD,F150,2014\n",
    'Unit#,Make,Model,Year,Notes\nU1,FORD,F150,2012,"open\nU2,FORD,F150,2013\n',
    # no newline after the last line
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012",
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012\r\nU2,FORD,F150,2013\r",
]
# tables read under a field size limit of 10: a line longer than that whose
# fields fit, a field that does not fit, and one in the header
LIMITED_VEHICLE_TABLES = [
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012\nU2,CHEVROLET,2500,2013\n",
    "Unit#,Make,Model,Year\nU1,FORD,F150,2012\n\nU2,CHEVROLET HD,2500,2013\n",
    'Unit#,Make,Model,Year\nU1,FORD,F150,2012\nU2,"FORD\nF",F150\nU3,"CHEVROLET\nHD",2500,2013\n',
    "Unit#,Make,Model,Year,Purchase Cost\nU1,FORD,F150,2012,1\n",
]


class TestReaderMatchesDictReader:
    @settings(max_examples=500, deadline=None)
    @given(text=maintenance_tables(), limit=st.sampled_from(FIELD_LIMITS))
    def test_parse_maintenance_matches_oracle(self, tmp_path_factory, text, limit):
        path = tmp_path_factory.getbasetemp() / "maintenance_oracle.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with field_size_limit(limit):
            expected = expected_outcome(parse_maintenance_oracle, path)
            assert outcome(parse_maintenance, path) == expected

    @pytest.mark.parametrize("text", VEHICLE_TABLES)
    def test_parse_vehicles_matches_oracle(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(parse_vehicles, path) == outcome(parse_vehicles_oracle, path)

    @pytest.mark.parametrize("text", LIMITED_VEHICLE_TABLES)
    def test_parse_vehicles_matches_oracle_under_a_lowered_field_limit(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_text(text, encoding="utf-8", newline="")
        limit = csv.field_size_limit()
        with field_size_limit(10):
            assert outcome(parse_vehicles, path) == expected_outcome(parse_vehicles_oracle, path)
        assert csv.field_size_limit() == limit


def build_fixture(tmp_path, vehicle_rows, maint_rows):
    vpath = write_csv(tmp_path / "vehicles.csv", VEHICLE_COLUMNS, vehicle_rows)
    mpath = write_csv(tmp_path / "maintenance.csv", MAINT_COLUMNS, maint_rows)
    vehicles = parse_vehicles(vpath)
    maintenance, rejects = parse_maintenance(mpath)
    assert rejects == []
    return vehicles, maintenance


class TestBuildTensor:
    def test_single_event_absolute_month(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2014")],
            [maint_row("1", "V1", "2015-03-10", "Brakes")],
        )
        spec = TensorizeSpec(window_start="2015-01", window_end="2015-12")
        build = build_tensor(vehicles, maintenance, spec)
        t = build.tensor
        assert t.dims == (1, 1, 12)
        assert t.axis_labels[2][0] == "2015-01"
        assert t.data[0, 0, 2] == 1.0
        assert t.data.sum() == 1.0
        assert build.discards == {}

    def test_single_event_lifetime_year(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2014")],
            [maint_row("1", "V1", "2015-03-10", "Brakes")],
        )
        spec = TensorizeSpec(time_mode="lifetime", granularity="year")
        build = build_tensor(vehicles, maintenance, spec)
        assert build.tensor.dims[2] == 8
        assert build.tensor.axis_labels[2][1] == "year 1"
        assert build.tensor.data[0, 0, 1] == 1.0

    def test_conservation_with_all_discard_reasons(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [
                vehicle_row("NEW", year="2014"),
                vehicle_row("OLD", year="2005"),
            ],
            [
                maint_row("1", "NEW", "2015-03-10", "Brakes"),
                maint_row("2", "NEW", "2009-01-01", "Brakes"),   # outside window
                maint_row("3", "OLD", "2015-03-10", "Brakes"),   # below floor
                maint_row("4", "GHOST", "2015-03-10", "Brakes"), # unknown vehicle
            ],
        )
        spec = TensorizeSpec(window_start="2014-01", window_end="2015-12")
        build = build_tensor(vehicles, maintenance, spec)
        assert build.tensor.data.sum() + sum(build.discards.values()) == len(maintenance)
        assert build.discards == {
            "outside_window": 1,
            "below_purchase_year_floor": 1,
            "unknown_vehicle": 1,
        }

    def test_lifetime_clamp_goes_to_discards(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2010")],
            [
                maint_row("1", "V1", "2011-06-01", "Brakes"),
                maint_row("2", "V1", "2019-06-01", "Brakes"),  # year 9 >= horizon 8
                maint_row("3", "V1", "2009-06-01", "Brakes"),  # before purchase
            ],
        )
        spec = TensorizeSpec(time_mode="lifetime", granularity="year")
        build = build_tensor(vehicles, maintenance, spec)
        assert build.tensor.data.sum() == 1.0
        assert build.discards == {
            "beyond_lifetime_horizon": 1,
            "before_purchase_year": 1,
        }

    def test_vehicle_ordering_and_system_ordering(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [
                vehicle_row("ZZ", year="2011"),
                vehicle_row("AA", year="2012"),
                vehicle_row("MM", year="2011"),
            ],
            [
                maint_row("1", "ZZ", "2015-01-05", "Tires"),
                maint_row("2", "AA", "2015-01-05", "brakes"),
                maint_row("3", "MM", "2015-01-05", "Brakes  "),
            ],
        )
        spec = TensorizeSpec(window_start="2015-01", window_end="2015-02")
        build = build_tensor(vehicles, maintenance, spec)
        assert build.tensor.axis_labels[0] == ("MM", "ZZ", "AA")  # (year, unit)
        assert build.tensor.axis_labels[1] == ("brakes", "tires")  # case-folded, sorted

    def test_absolute_year_granularity(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2012")],
            [
                maint_row("1", "V1", "2014-02-01", "Brakes"),
                maint_row("2", "V1", "2015-11-30", "Brakes"),
            ],
        )
        spec = TensorizeSpec(granularity="year", window_start="2014-01", window_end="2015-12")
        build = build_tensor(vehicles, maintenance, spec)
        assert build.tensor.axis_labels[2] == ("2014", "2015")
        assert build.tensor.data[0, 0, :].tolist() == [1.0, 1.0]

    def test_window_end_defaults_to_data_max(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2012")],
            [maint_row("1", "V1", "2013-05-01", "Brakes")],
        )
        build = build_tensor(vehicles, maintenance, TensorizeSpec())
        assert build.tensor.axis_labels[2][0] == "2010-01"
        assert build.tensor.axis_labels[2][-1] == "2013-05"

    def test_inferred_window_end_ignores_discarded_jobs(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2012"), vehicle_row("OLD", year="2000")],
            [
                maint_row("1", "V1", "2015-03-01", "Brakes"),
                maint_row("2", "GHOST", "2099-01-01", "Brakes"),
                maint_row("3", "OLD", "2098-06-01", "Brakes"),
            ],
        )
        build = build_tensor(vehicles, maintenance, TensorizeSpec(window_start="2015-01"))
        assert build.tensor.axis_labels[2] == ("2015-01", "2015-02", "2015-03")
        assert build.discards == {"unknown_vehicle": 1, "below_purchase_year_floor": 1}
        with pytest.raises(DataError, match="cannot infer window end: no maintenance records"):
            build_tensor(vehicles, maintenance[1:], TensorizeSpec(window_start="2015-01"))
        # the kept jobs all precede the window: a discarded later one sets no end
        with pytest.raises(DataError, match="^cannot infer window end: the latest job, in "
                           "2015-03, precedes the window start 2030-01$"):
            build_tensor(vehicles, maintenance, TensorizeSpec(window_start="2030-01"))

    def test_inferred_window_spans_at_most_the_model_years(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2012")],
            [maint_row("1", "V1", "2015-03-01", "Brakes"),
             maint_row("2", "V1", "2216-12-01", "Brakes")],
        )
        build = build_tensor(vehicles, maintenance, TensorizeSpec(window_start="2016-01"))
        assert len(build.tensor.axis_labels[2]) == 2412
        with pytest.raises(DataError, match="more than 2412 months past the window start"):
            build_tensor(vehicles, maintenance, TensorizeSpec(window_start="2015-12"))

    def test_idempotent_bit_for_bit(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row(f"V{i}", year="2013") for i in range(4)],
            [
                maint_row(str(j), f"V{j % 4}", f"2015-0{1 + j % 9}-15", "Brakes")
                for j in range(20)
            ],
        )
        spec = TensorizeSpec(window_start="2015-01", window_end="2015-12")
        b1 = build_tensor(vehicles, maintenance, spec)
        b2 = build_tensor(vehicles, maintenance, spec)
        assert np.array_equal(b1.tensor.data, b2.tensor.data)
        assert b1.tensor.axis_labels == b2.tensor.axis_labels

    def test_lifetime_month_granularity(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2014")],
            [maint_row("1", "V1", "2015-03-10", "Brakes")],
        )
        spec = TensorizeSpec(
            time_mode="lifetime", granularity="month", lifetime_horizon_years=2
        )
        build = build_tensor(vehicles, maintenance, spec)
        # months since January of the purchase year: 12 + 2
        assert build.tensor.dims[2] == 24
        assert build.tensor.data[0, 0, 14] == 1.0

    def test_everything_filtered_is_error(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("OLD", year="2000")],
            [maint_row("1", "OLD", "2015-03-10", "Brakes")],
        )
        with pytest.raises(DataError, match="empty tensor"):
            build_tensor(vehicles, maintenance, TensorizeSpec(window_end="2015-12"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TensorizeSpec(time_mode="sideways")
        with pytest.raises(ValueError):
            TensorizeSpec(window_start="2015-01", window_end="2014-01")
        with pytest.raises(ValueError):
            TensorizeSpec(lifetime_horizon_years=0)
        for kwargs in (dict(lifetime_horizon_years=2.5), dict(purchase_year_floor="x"),
                       dict(window_end=201512), dict(granularity="week")):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                TensorizeSpec(**kwargs)
        # 1900-01 through 2100-12 is the longest window, wherever it starts
        TensorizeSpec(window_start="1900-01", window_end="2100-12")
        TensorizeSpec(window_start="2500-06", window_end="2701-05")
        for start, end in (("1900-01", "2101-01"), ("2500-06", "2701-06")):
            with pytest.raises(ValueError, match="more than 2412 months"):
                TensorizeSpec(window_start=start, window_end=end)

    def test_discard_summary_file(self, tmp_path):
        vehicles, maintenance = build_fixture(
            tmp_path,
            [vehicle_row("V1", year="2014")],
            [
                maint_row("1", "V1", "2015-03-10", "Brakes"),
                maint_row("2", "GHOST", "2015-03-10", "Brakes"),
            ],
        )
        spec = TensorizeSpec(window_start="2015-01", window_end="2015-12")
        build = build_tensor(vehicles, maintenance, spec)
        out = tmp_path / "discards.json"
        write_discard_summary(build, out)
        import json

        payload = json.loads(out.read_text())
        assert payload == {
            "placed": 1,
            "discarded": {"unknown_vehicle": 1},
            "total_records": 2,
        }


def _year_month(value):
    """The year and month of a valid ``YYYY-MM`` window bound."""
    year, month = value.strip().split("-")
    return int(year), int(month)


def _month_index(year, month):
    return year * 12 + (month - 1)


def _time_axis_oracle(spec, records):
    """The former per-framing bucket closures of ``build_tensor_oracle``."""
    if spec.time_mode == "absolute":
        start_y, start_m = _year_month(spec.window_start)
        if spec.window_end is not None:
            end_y, end_m = _year_month(spec.window_end)
        else:
            if not records:
                raise DataError("cannot infer window end: no maintenance records")
            last = max(r.job_open_date for r in records)
            end_y, end_m = last.year, last.month
        lo = _month_index(start_y, start_m)
        hi = _month_index(end_y, end_m)
        if spec.window_end is None and hi - lo >= MAX_WINDOW_MONTHS:
            raise DataError(f"cannot infer window end: the latest job is more than "
                            f"{MAX_WINDOW_MONTHS} months past the window start")
        if spec.window_end is None and hi < lo:
            raise DataError(f"cannot infer window end: the latest job, in {end_y:04d}-{end_m:02d}, "
                            f"precedes the window start {spec.window_start}")
        if spec.granularity == "month":
            labels = [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(lo, hi + 1)]

            def bucket(record, vehicle):
                idx = _month_index(record.job_open_date.year, record.job_open_date.month)
                if lo <= idx <= hi:
                    return idx - lo
                return "outside_window"

        else:
            labels = [str(y) for y in range(start_y, end_y + 1)]

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


def build_tensor_oracle(vehicles, maintenance, spec):
    """The former per-record ``build_tensor``, the reference for the array rule."""
    by_unit = {v.unit_no: v for v in vehicles}
    time_labels, bucket_of = _time_axis_oracle(spec, [
        r for r in maintenance
        if r.unit_no in by_unit and by_unit[r.unit_no].model_year >= spec.purchase_year_floor
    ])
    discards = {}
    placements = []
    for record in maintenance:
        vehicle = by_unit.get(record.unit_no)
        if vehicle is None:
            reason = "unknown_vehicle"
        elif vehicle.model_year < spec.purchase_year_floor:
            reason = "below_purchase_year_floor"
        else:
            reason = bucket_of(record, vehicle)
            if not isinstance(reason, str):
                placements.append((record.unit_no, normalize_system(record.system_desc), reason))
                continue
        discards[reason] = discards.get(reason, 0) + 1
    if not placements:
        raise DataError("empty tensor: no vehicle passes the filters with in-window jobs")
    units = sorted({p[0] for p in placements}, key=lambda u: (by_unit[u].model_year, u))
    systems = sorted({p[1] for p in placements})
    unit_idx = {u: i for i, u in enumerate(units)}
    system_idx = {s: j for j, s in enumerate(systems)}
    data = np.zeros((len(units), len(systems), len(time_labels)))
    for unit, system, t in placements:
        data[unit_idx[unit], system_idx[system], t] += 1.0
    tensor = from_array(data, (tuple(units), tuple(systems), tuple(time_labels)))
    return TensorBuild(tensor=tensor, discards=discards, placed=len(placements))


def build_outcome(build, vehicles, maintenance, spec):
    """Data bytes, labels, discards and placed of a build, or its error."""
    try:
        b = build(vehicles, maintenance, spec)
    except Exception as exc:
        return type(exc), str(exc)
    t = b.tensor
    return (t.data.dtype, t.dims, t.data.tobytes(), t.positions.tobytes(), t.values.tobytes(),
            t.axis_labels, b.discards, b.placed)


UNITS = ["U1", "U2", "U3", "U4", "u1"]
SYSTEMS = ["Brakes", " brakes ", "BRAKES", "Tires", "Cab & Sheet Metal", "Ölwechsel"]


@st.composite
def tensorize_cases(draw):
    """Vehicles, jobs and a spec: every framing, a window that may cut through
    a year or be inferred, and jobs before, inside and after it, on unknown
    vehicles and on vehicles below the purchase-year floor."""
    vehicles = [
        VehicleRecord(unit, "FORD", "F150", draw(st.integers(2008, 2014)))
        for unit in draw(st.lists(st.sampled_from(UNITS[:4]), unique=True, min_size=1))
    ]
    maintenance = [
        MaintenanceRecord(
            str(job),
            draw(st.sampled_from(UNITS)),
            date(draw(st.integers(2007, 2019)), draw(st.integers(1, 12)), draw(st.integers(1, 28))),
            draw(st.sampled_from(SYSTEMS)),
        )
        for job in range(draw(st.integers(1, 30)))
    ]
    start = (draw(st.integers(2007, 2015)), draw(st.integers(1, 12)))
    end = None
    if draw(st.booleans()):
        months = draw(st.integers(1, 60))
        end = divmod(start[0] * 12 + start[1] - 1 + months, 12)
        end = (end[0], end[1] + 1)
    spec = TensorizeSpec(
        time_mode=draw(st.sampled_from(["absolute", "lifetime"])),
        granularity=draw(st.sampled_from(["month", "year"])),
        window_start="%04d-%02d" % start,
        window_end=None if end is None else "%04d-%02d" % end,
        lifetime_horizon_years=draw(st.integers(1, 4)),
        purchase_year_floor=draw(st.integers(2006, 2013)),
    )
    return vehicles, maintenance, spec


ORACLE_VEHICLES = [VehicleRecord("U1", "FORD", "F150", 2012)]
ORACLE_JOB = MaintenanceRecord("1", "U1", date(2011, 6, 15), "Brakes")


class TestBuildTensorMatchesOracle:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tensorize_cases())
    @example((ORACLE_VEHICLES, [], TensorizeSpec()))  # nothing to infer the window end from
    @example((ORACLE_VEHICLES, [ORACLE_JOB], TensorizeSpec(window_start="2012-01")))  # end < start
    @example((ORACLE_VEHICLES, [ORACLE_JOB], TensorizeSpec(time_mode="lifetime")))  # empty tensor
    @example((ORACLE_VEHICLES, [MaintenanceRecord("1", "U1", date(2300, 1, 1), "Brakes")],
              TensorizeSpec(window_start="2012-01")))  # an inferred window too long
    def test_build_tensor_matches_oracle(self, case):
        vehicles, maintenance, spec = case
        assert build_outcome(build_tensor, vehicles, maintenance, spec) == build_outcome(
            build_tensor_oracle, vehicles, maintenance, spec
        )
