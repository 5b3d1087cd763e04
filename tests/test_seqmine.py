import csv
import math
import tracemalloc
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint.ingest import MaintenanceRecord, VehicleRecord
from fleetmaint.seqmine import (
    DiffPattern,
    I_RATIO_CAP,
    differential,
    extract_sequences,
    format_norm,
    format_p,
    format_pattern,
    format_ratio,
    format_z,
    normal_cdf,
    two_prop_z,
    window_counts,
    write_diff_csv,
)
from oracles import extract_sequences as extract_sequences_oracle
from oracles import sequence_set_from_lists

DATA_DIR = Path(__file__).parent / "data"

# frozen oracle values (mpmath, 50 digits; see tools/gen_normal_cdf_table.py)
HAND_CASE_Z = 4.47213595499958
HAND_CASE_P = 7.744216431044084e-06
# pooled z of the back-computed published row; C6c derives it independently
BACKCOMPUTED_ROW_Z = 17.03649178480779


def vehicle(unit, make="DODGE", model="CHARGER", year=2013):
    return VehicleRecord(unit_no=unit, make=make, model=model, model_year=year)


def job(job_id, unit, day, system):
    return MaintenanceRecord(
        job_id=job_id,
        unit_no=unit,
        job_open_date=day,
        system_desc=system,
    )


class TestExtractSequences:
    def test_date_ordering(self):
        vehicles = [vehicle("V1")]
        jobs = [
            job("2", "V1", date(2016, 2, 1), "Tires"),
            job("1", "V1", date(2016, 1, 5), "Brakes"),
        ]
        seqset, rejects = extract_sequences(jobs, vehicles)
        assert rejects == []
        assert seqset.as_label_lists() == [["brakes", "tires"]]

    def test_same_day_tie_broken_by_job_id(self):
        vehicles = [vehicle("V1")]
        jobs = [
            job("101", "V1", date(2016, 1, 5), "Tires"),
            job("100", "V1", date(2016, 1, 5), "Brakes"),
        ]
        seqset, _ = extract_sequences(jobs, vehicles)
        assert seqset.as_label_lists() == [["brakes", "tires"]]

    def test_unknown_unit_rejected(self):
        seqset, rejects = extract_sequences(
            [job("1", "GHOST", date(2016, 1, 1), "Brakes")], [vehicle("V1")]
        )
        assert seqset.sequences == []
        assert rejects[0].reason == "unknown_vehicle"

    def test_make_model_attached(self):
        vehicles = [vehicle("V1", make="Ford ", model="Crown Victoria")]
        seqset, _ = extract_sequences([job("1", "V1", date(2016, 1, 1), "Brakes")], vehicles)
        assert seqset.sequences[0].make_model == "FORD CROWN VICTORIA"

    def test_inner_whitespace_runs_collapse_for_target_and_vehicle(self):
        vehicles = [vehicle("V1", make="Ford", model="Crown  Victoria"), vehicle("V2")]
        jobs = [job(str(i), unit, date(2016, 1, 1 + i), "Brakes")
                for i, unit in enumerate(["V1", "V1", "V1", "V2", "V2", "V2"])]
        seqset, _ = extract_sequences(jobs, vehicles)
        assert seqset.sequences[0].make_model == "FORD CROWN VICTORIA"
        for target in ("FORD CROWN VICTORIA", " ford  crown\tvictoria "):
            result = differential(seqset, target, min_len=3, max_len=3)
            assert [(d.pattern, d.left_support) for d in result] == [(("brakes",) * 3, 1)]


UNITS = ["V1", "V2", "V3", "v1", "V10"]
JOB_IDS = ["1", "2", "10", "9", "a", "A", "1\x00", ""]
SYSTEMS = ["Brakes", " brakes", "BRAKES ", "Tires", "tires", "Ölwechsel", "ÖLWECHSEL"]


@st.composite
def job_tables(draw):
    """Vehicles (a repeated Unit# among them) and jobs with repeated job IDs,
    same-day ties, unknown units and case and space variants of one system."""
    vehicles = [
        vehicle(unit, make=draw(st.sampled_from(["Dodge", "FORD"])), model="Charger",
                year=draw(st.integers(2010, 2012)))
        for unit in draw(st.lists(st.sampled_from(UNITS[:4]), max_size=5))
    ]
    jobs = [
        job(draw(st.sampled_from(JOB_IDS)), draw(st.sampled_from(UNITS)),
            date(2016, 1, draw(st.integers(1, 3))), draw(st.sampled_from(SYSTEMS)))
        for _ in range(draw(st.integers(0, 25)))
    ]
    return jobs, vehicles


class TestExtractSequencesMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(job_tables())
    @example(([job("1\x00", "V1", date(2016, 1, 1), "Tires"),
               job("1", "V1", date(2016, 1, 1), "Brakes")], [vehicle("V1")]))
    def test_same_sequences_and_rejects(self, tables):
        (seqset, rejects), (expected, expected_rejects) = (
            extract_sequences(*tables), extract_sequences_oracle(*tables))
        assert rejects == expected_rejects
        assert seqset.labels == expected.labels
        assert [(s.unit_no, s.make_model, s.events.dtype, s.events.tolist())
                for s in seqset.sequences] == [
            (s.unit_no, s.make_model, s.events.dtype, s.events.tolist())
            for s in expected.sequences]


class TestCountWindows:
    def test_examples(self):
        seqs = sequence_set_from_lists([["a"] * 5]).sequences
        assert window_counts(seqs, 3).total() == 3
        assert window_counts(sequence_set_from_lists([["a", "b"]]).sequences, 3).total() == 0
        ten = sequence_set_from_lists([["a"] * 10 for _ in range(10)]).sequences
        assert window_counts(ten, 4).total() == 70

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 12), min_size=0, max_size=8),
        width=st.integers(1, 5),
    )
    def test_matches_sum_formula(self, lengths, width):
        seqs = sequence_set_from_lists([["x"] * n for n in lengths] + [["x"]]).sequences[:-1]
        assert window_counts(seqs, width).total() == sum(max(0, n - width + 1) for n in lengths)


def brute_force_counts(label_lists, min_len, max_len):
    counts = Counter()
    for seq in label_lists:
        for width in range(min_len, max_len + 1):
            for start in range(len(seq) - width + 1):
                counts[tuple(seq[start : start + width])] += 1
    return counts


def labelled_counts(seqset, sequences, width):
    """``window_counts`` keyed by label tuples, as the oracle keys them."""
    return {
        tuple(seqset.labels[i] for i in pattern): count
        for pattern, count in window_counts(sequences, width).items()
    }


class TestMineFrequent:
    def test_overlapping_windows_all_count(self):
        seqset = sequence_set_from_lists([["a", "a", "a", "a"]])
        counts = window_counts(seqset.sequences, 3)
        assert len(counts) == 1
        assert counts[(0, 0, 0)] == 2

    def test_duplicate_sequences(self):
        seqset = sequence_set_from_lists([["a", "b", "c"], ["a", "b", "c"]])
        assert window_counts(seqset.sequences, 3) == Counter({(0, 1, 2): 2})

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(99)
        alphabet = ["a", "b", "c", "d"]
        lists = [
            [alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 12))]
            for _ in range(15)
        ]
        seqset = sequence_set_from_lists(lists)
        oracle = brute_force_counts(seqset.as_label_lists(), 2, 4)
        got = {}
        for width in (2, 3, 4):
            got.update(labelled_counts(seqset, seqset.sequences, width))
        assert got == dict(oracle)

    def test_tie_break_is_lexicographic(self):
        seqset = sequence_set_from_lists(
            [["b", "b", "b"], ["a", "a", "a"], ["c"]], make_models=["T ONE", "T ONE", "O TWO"]
        )
        for top_n in (1, 2):
            mined = differential(seqset, "T ONE", min_len=3, max_len=3, top_n=top_n)
            names = [d.pattern for d in mined]
            assert names == [("a", "a", "a"), ("b", "b", "b")][:top_n]

    @pytest.mark.parametrize("options, message", [
        (dict(min_len=-2), "min_len must be >= 1, got -2"),
        (dict(top_n=0), "top_n must be >= 1, got 0"),
        (dict(min_len=4, max_len=3), "max_len 3 is below min_len 4"),
    ])
    def test_bad_options_name_the_field(self, options, message):
        seqset = sequence_set_from_lists([["a", "b", "c", "a"], ["a", "b", "c"]],
                                         make_models=["T ONE", "O TWO"])
        with pytest.raises(ValueError, match=f"^{message}$"):
            differential(seqset, "T ONE", **options)

    def test_empty_input(self):
        assert window_counts([], 3) == Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lists=st.lists(st.lists(st.sampled_from("abc"), max_size=8), max_size=6),
        width=st.integers(1, 5),
    )
    def test_matches_brute_force_property(self, lists, width):
        # empty sequences and sequences shorter than the width included
        seqset = sequence_set_from_lists(lists)
        oracle = brute_force_counts(lists, width, width)
        assert labelled_counts(seqset, seqset.sequences, width) == dict(oracle)
        assert window_counts(seqset.sequences, width).total() == sum(oracle.values())


class TestTwoPropZ:
    def test_null_exactly_true(self):
        z, p = two_prop_z(5, 10, 10, 20)
        assert z == 0.0
        assert p == 1.0

    def test_hand_derived_extreme_case(self):
        z, p = two_prop_z(10, 10, 0, 10)
        assert z == pytest.approx(math.sqrt(20), abs=1e-9)
        assert p == pytest.approx(HAND_CASE_P, rel=1e-9)

    def test_back_computed_row(self):
        # n's recovered as support / normalized support (187/0.0377, 126/0.0067)
        z, p = two_prop_z(187, 4960, 126, 18806)
        assert abs(z) == pytest.approx(BACKCOMPUTED_ROW_Z, abs=1e-9)
        assert p < 0.0001

    def test_degenerate_pooled_proportion(self):
        assert two_prop_z(0, 10, 0, 10) == (0.0, 1.0)
        assert two_prop_z(10, 10, 5, 5) == (0.0, 1.0)

    def test_antisymmetry(self):
        z1, p1 = two_prop_z(7, 30, 2, 40)
        z2, p2 = two_prop_z(2, 40, 7, 30)
        assert z1 == -z2
        assert p1 == p2

    @settings(max_examples=100, deadline=None)
    @given(
        n1=st.integers(1, 500),
        n2=st.integers(1, 500),
        data=st.data(),
    )
    def test_antisymmetry_property(self, n1, n2, data):
        x1 = data.draw(st.integers(0, n1))
        x2 = data.draw(st.integers(0, n2))
        z1, p1 = two_prop_z(x1, n1, x2, n2)
        z2, p2 = two_prop_z(x2, n2, x1, n1)
        assert z1 == -z2
        assert p1 == p2


class TestNormalCdf:
    def test_against_committed_reference_table(self):
        rows = (DATA_DIR / "normal_cdf_reference.csv").read_text().strip().splitlines()[1:]
        worst = 0.0
        for row in rows:
            z_str, phi_str = row.split(",")
            worst = max(worst, abs(normal_cdf(float(z_str)) - float(phi_str)))
        assert worst < 1e-7

    def test_symmetry_and_midpoint(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.5) + normal_cdf(-1.5) == pytest.approx(1.0, abs=1e-15)


def brute_force_differential(seqset, target, min_len, max_len, top_n):
    """Independent exhaustive enumerator used as the oracle."""
    left = [s for s in seqset.sequences if s.make_model == target]
    right = [s for s in seqset.sequences if s.make_model != target]
    left_lists = [[seqset.labels[i] for i in s.events] for s in left]
    right_lists = [[seqset.labels[i] for i in s.events] for s in right]
    left_counts = brute_force_counts(left_lists, min_len, max_len)
    right_counts = brute_force_counts(right_lists, min_len, max_len)
    ranked = sorted(left_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    out = []
    for pattern, left_support in ranked:
        width = len(pattern)
        n_l = sum(max(0, len(s) - width + 1) for s in left_lists)
        n_r = sum(max(0, len(s) - width + 1) for s in right_lists)
        right_support = right_counts.get(pattern, 0)
        left_norm = left_support / n_l
        right_norm = right_support / n_r if n_r else 0.0
        i_ratio = left_norm / right_norm if right_norm > 0 else I_RATIO_CAP
        # no right-side window of this width: z = 0, p = 1
        z, p = two_prop_z(left_support, n_l, right_support, n_r) if n_r else (0.0, 1.0)
        out.append(
            DiffPattern(pattern, left_support, left_norm, right_support, right_norm, i_ratio, z, p)
        )
    out.sort(key=lambda d: (-d.left_support, d.pattern))
    return out


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.pattern == w.pattern
        assert g.left_support == w.left_support
        assert g.right_support == w.right_support
        assert g.left_norm == w.left_norm
        assert g.right_norm == w.right_norm
        assert g.i_ratio == w.i_ratio
        assert g.z == w.z
        assert g.p == w.p


class TestDifferential:
    def target_fixture(self, rng, n_target=6, n_other=10, plant_rate=0.3):
        alphabet = ["brakes", "tires", "pm", "exhaust", "cooling", "body"]
        motif = ["pm", "tires", "pm"]
        lists, models = [], []
        for _ in range(n_target):
            seq = [alphabet[i] for i in rng.integers(0, 6, size=40)]
            n_inject = int(plant_rate * len(seq) / 3)
            for _ in range(n_inject):
                pos = int(rng.integers(0, len(seq) - 2))
                seq[pos : pos + 3] = motif
            lists.append(seq)
            models.append("DODGE CHARGER")
        for _ in range(n_other):
            lists.append([alphabet[i] for i in rng.integers(0, 6, size=40)])
            models.append("FORD F150")
        return sequence_set_from_lists(lists, make_models=models)

    def test_planted_motif_ranks_first(self):
        rng = np.random.default_rng(7)
        # plant at a 30%-of-windows rate in the target, none in background
        lists, models = [], []
        motif = ["pm", "tires", "pm"]
        filler = ["brakes", "exhaust", "cooling", "body", "glass", "engine"]
        for v in range(8):
            seq = []
            while len(seq) < 60:
                if rng.random() < 0.45:
                    seq.extend(motif)
                else:
                    seq.append(filler[int(rng.integers(0, len(filler)))])
            lists.append(seq[:60])
            models.append("DODGE CHARGER")
        for v in range(12):
            seq = [filler[int(rng.integers(0, len(filler)))] for _ in range(60)]
            if v == 0:  # one background occurrence
                seq[10:13] = motif
            lists.append(seq)
            models.append("FORD F150")
        seqset = sequence_set_from_lists(lists, make_models=models)
        result = differential(seqset, "DODGE CHARGER", top_n=5)
        assert result[0].pattern == tuple(motif)
        assert result[0].p < 1e-4
        assert result[0].i_ratio > 10

    def test_zero_right_support_hits_cap(self):
        lists = [["ex", "pump", "ex"] * 4, ["brakes", "tires", "pm"] * 4]
        models = ["SMEAL SST PUMPER", "FORD F150"]
        seqset = sequence_set_from_lists(lists, make_models=models)
        result = differential(seqset, "SMEAL SST PUMPER", top_n=3)
        capped = [d for d in result if d.right_support == 0]
        assert capped
        assert all(d.i_ratio == 10000.0 for d in capped)
        assert all(format_norm(d.right_norm) == "0.0000" for d in capped)
        assert all(format_ratio(d.i_ratio) == "10000.0" for d in capped)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            n_vehicles = int(rng.integers(4, 20))
            alphabet = ["a", "b", "c"]
            lists, models = [], []
            for v in range(n_vehicles):
                n = int(rng.integers(3, 12))
                lists.append([alphabet[i] for i in rng.integers(0, 3, size=n)])
                models.append("T ONE" if v % 3 == 0 else "O TWO")
            seqset = sequence_set_from_lists(lists, make_models=models)
            got = differential(seqset, "T ONE", min_len=3, max_len=4, top_n=8)
            want = brute_force_differential(seqset, "T ONE", 3, 4, 8)
            assert_same_rows(got, want)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        left=st.lists(st.lists(st.sampled_from("abc"), max_size=10), min_size=1, max_size=5),
        right=st.lists(st.lists(st.sampled_from("abc"), max_size=6), min_size=1, max_size=5),
        min_len=st.integers(1, 3),
        extra=st.integers(0, 12),
        top_n=st.integers(1, 12),
    )
    # a rest group too short for max_len
    @example(left=[list("abcab")], right=[list("abc")], min_len=3, extra=1, top_n=8)
    def test_matches_brute_force_property(self, left, right, min_len, extra, top_n):
        seqset = sequence_set_from_lists(
            left + right, make_models=["T ONE"] * len(left) + ["O TWO"] * len(right)
        )
        max_len = min_len + extra
        got = differential(seqset, "T ONE", min_len=min_len, max_len=max_len, top_n=top_n)
        want = brute_force_differential(seqset, "T ONE", min_len, max_len, top_n)
        assert_same_rows(got, want)

    def test_top_n_cuts_through_ties_like_the_full_sort(self):
        # every window of every width has support 3 but "d", so each top_n
        # cuts through one tie that spans the widths
        left = [list("abcd"), list("abcd"), list("abcd"), list("d")]
        seqset = sequence_set_from_lists(
            left + [list("dcba")], make_models=["T ONE"] * len(left) + ["O TWO"]
        )
        for top_n in range(1, 13):
            got = differential(seqset, "T ONE", min_len=1, max_len=4, top_n=top_n)
            assert_same_rows(got, brute_force_differential(seqset, "T ONE", 1, 4, top_n))
        assert [d.pattern for d in got][:4] == [("d",), ("a",), ("a", "b"), ("a", "b", "c")]

    def test_rest_without_windows_of_a_width(self):
        seqset = sequence_set_from_lists(
            [["a", "b", "c", "a", "b"], ["a", "b", "c"]], make_models=["T ONE", "O TWO"]
        )
        result = differential(seqset, "T ONE", min_len=3, max_len=4)
        long_rows = [d for d in result if len(d.pattern) == 4]
        assert [d.pattern for d in long_rows] == [("a", "b", "c", "a"), ("b", "c", "a", "b")]
        for d in long_rows:
            assert (d.left_support, d.left_norm) == (1, 0.5)
            assert (d.right_support, d.right_norm, d.i_ratio) == (0, 0.0, I_RATIO_CAP)
            assert (d.z, d.p) == (0.0, 1.0)
        # width 3 still has rest windows and is tested as before
        abc = next(d for d in result if d.pattern == ("a", "b", "c"))
        assert (abc.z, abc.p) == two_prop_z(1, 3, 1, 1)

    def test_supports_bounded_by_window_counts(self):
        rng = np.random.default_rng(5)
        seqset = self.target_fixture(rng)
        result = differential(seqset, "DODGE CHARGER")
        left = [s for s in seqset.sequences if s.make_model == "DODGE CHARGER"]
        right = [s for s in seqset.sequences if s.make_model != "DODGE CHARGER"]
        for d in result:
            width = len(d.pattern)
            assert d.left_support <= window_counts(left, width).total()
            assert d.right_support <= window_counts(right, width).total()

    def test_working_set_stays_flat_at_any_max_len(self):
        # every width up to 150 mined: the tables of all widths at once
        # would hold about 100 MB of window tuples
        rng = np.random.default_rng(11)
        lists = [list(rng.choice(list("abcd"), size=150)) for _ in range(20)]
        seqset = sequence_set_from_lists(lists, make_models=["T ONE"] * 10 + ["O TWO"] * 10)
        tracemalloc.start()
        try:
            result = differential(seqset, "T ONE", min_len=1, max_len=10**6, top_n=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 8
        assert peak < 16 * 2**20

    def test_missing_target_and_missing_rest(self):
        seqset = sequence_set_from_lists(
            [["a", "b", "c"]], make_models=["DODGE CHARGER"]
        )
        with pytest.raises(ValueError, match="no non-target"):
            differential(seqset, "DODGE CHARGER")
        with pytest.raises(ValueError, match="no sequences"):
            differential(seqset, "MISSING MODEL")

    def test_i_ratio_monotone_in_left_support(self):
        # on fixed right and window counts, more left hits -> larger i-ratio
        n_l, n_r = 100, 200
        right_support = 4
        ratios = []
        for left_support in range(1, 50):
            left_norm = left_support / n_l
            right_norm = right_support / n_r
            ratios.append(left_norm / right_norm)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestFormatting:
    def test_norms_fixed_four_decimals(self):
        assert format_norm(0.0) == "0.0000"
        assert format_norm(0.03770161) == "0.0377"

    def test_ratio_and_z_trim_trailing_zeros(self):
        assert format_ratio(5.6268656716417915) == "5.63"
        assert format_ratio(I_RATIO_CAP) == "10000.0"
        assert format_z(-10.44) == "-10.4"
        assert format_z(-24.0) == "-24.0"

    def test_p_floor(self):
        assert format_p(5e-5) == "< 0.0001"
        assert format_p(0.1128) == "0.1128"

    def test_pattern_rendering(self):
        assert format_pattern(("pm", "ttlv", "pm")) == "(pm, ttlv, pm)"

    def test_csv_export(self, tmp_path):
        d = DiffPattern(
            pattern=("ex", "pump", "ex"),
            left_support=11,
            left_norm=0.0181,
            right_support=0,
            right_norm=0.0,
            i_ratio=I_RATIO_CAP,
            z=6.0,
            p=1e-9,
        )
        out = tmp_path / "diff.csv"
        write_diff_csv([d], out)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == [
            "pattern", "left_support", "left_norm", "right_support",
            "right_norm", "i_ratio", "z", "p",
        ]
        assert rows[1] == ["(ex, pump, ex)", "11", "0.0181", "0", "0.0000", "10000.0", "6.0", "< 0.0001"]

    def test_csv_bonferroni_column(self, tmp_path):
        d = DiffPattern(("a", "b", "c"), 5, 0.1, 1, 0.01, 10.0, 3.0, 0.002)
        out = tmp_path / "diff.csv"
        write_diff_csv([d, d, d], out, bonferroni=True)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][-1] == "p_bonferroni"
        assert rows[1][-1] == "0.0060"


class TestCountPattern:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_python_count(self, width):
        rng = np.random.default_rng(3)
        lists = [
            [str(i) for i in rng.integers(0, 3, size=rng.integers(0, 15))] for _ in range(10)
        ]
        # every length below the pattern width, down to the empty sequence
        lists += [["0"] * n for n in range(width)]
        seqset = sequence_set_from_lists(lists)
        oracle = brute_force_counts(seqset.as_label_lists(), width, width)
        assert oracle
        counts = window_counts(seqset.sequences, width)
        for pattern_labels, count in oracle.items():
            idx = tuple(seqset.labels.index(lab) for lab in pattern_labels)
            assert counts[idx] == count
        assert counts.total() == sum(oracle.values())

    def test_empty_sequences(self):
        assert window_counts([], 2)[(0, 1)] == 0
