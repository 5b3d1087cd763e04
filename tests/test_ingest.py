import csv
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmaint.ingest import (
    DataError,
    TensorizeSpec,
    build_tensor,
    normalize_system,
    parse_date,
    parse_currency,
    parse_maintenance,
    parse_vehicles,
    write_discard_summary,
)

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

    def test_currency_with_dollar_and_commas(self, tmp_path):
        path = write_csv(
            tmp_path / "v.csv",
            VEHICLE_COLUMNS,
            [vehicle_row("026603", **{"Purchase Cost": "$20,456"})],
        )
        records = parse_vehicles(path)
        assert records[0].purchase_cost == 20456.0

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

    def test_unparseable_optional_fields_become_none(self, tmp_path):
        path = write_csv(
            tmp_path / "v.csv",
            VEHICLE_COLUMNS,
            [vehicle_row("X", **{"Purchase Cost": "n/a?"})],
        )
        records = parse_vehicles(path)
        assert records[0].purchase_cost is None

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
        assert records[0].system == "brakes"
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

    def test_parse_currency(self):
        assert parse_currency("$5,951.04") == 5951.04
        assert parse_currency("") is None

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
            build_tensor(vehicles, maintenance, TensorizeSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TensorizeSpec(time_mode="sideways")
        with pytest.raises(ValueError):
            TensorizeSpec(window_start="2015-01", window_end="2014-01")
        with pytest.raises(ValueError):
            TensorizeSpec(lifetime_horizon_years=0)

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
