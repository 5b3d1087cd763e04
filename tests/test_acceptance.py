"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria with stated
runtime budgets time the relevant computation.
"""

import math
import time
from filecmp import dircmp
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.cli import main
from fleetmaint.ingest import TensorizeSpec, build_tensor, parse_maintenance, parse_vehicles
from fleetmaint.lstm import (
    LstmConfig,
    perplexity,
    split_by_vehicle,
    train,
    unigram_baseline,
)
from fleetmaint.parafac import AlsOptions, cp_als
from fleetmaint.seqmine import (
    differential,
    format_norm,
    format_p,
    format_ratio,
    normal_cdf,
    two_prop_z,
    extract_sequences,
)
from fleetmaint.synth import FleetSpec, PlantedMotif, demo_spec, generate, month_labels
from fleetmaint.tensor import frob_norm, mttkrp
from oracles import (
    congruence,
    congruence_per_mode,
    fold,
    from_array,
    from_factors,
    grad_check,
    mttkrp_reference,
    reconstruct,
    sequence_set_from_lists,
    unfold,
)

DATA_DIR = Path(__file__).parent / "data"


def report(line: str) -> None:
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# C1 kernel equivalence
# ---------------------------------------------------------------------------


def test_c1_kernel_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        rank = int(rng.integers(1, 5))
        t = from_array(rng.normal(size=dims))
        for mode in (1, 2, 3):
            others = [d for m, d in enumerate(dims, start=1) if m != mode]
            f1 = rng.normal(size=(others[0], rank))
            f2 = rng.normal(size=(others[1], rank))
            fast = mttkrp(t, f1[None], f2[None], mode)[0]
            slow = mttkrp_reference(t, f1, f2, mode)
            worst = max(worst, float(np.abs(fast - slow).max()))
            assert worst <= 1e-10
            back = fold(unfold(t, mode), mode, dims)
            assert np.array_equal(back.data, t.data)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"kernel sweep took {elapsed:.1f}s"
    report(
        f"[PASS] C1 kernel equivalence: 200 tensors x 3 modes, "
        f"max |mttkrp - reference| = {worst:.2e}, round-trips exact, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# C2-C4 CP recovery, monotonicity, seasonal discovery
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recovery_runs():
    rng = np.random.default_rng(20260808)
    dims, rank = (30, 20, 24), 3
    factors = [rng.normal(size=(d, rank)) for d in dims]
    assert all(np.linalg.cond(f) < 10 for f in factors)
    generator = from_factors(*factors)
    clean = reconstruct(generator)
    sigma = 0.1 * frob_norm(clean.data) / math.sqrt(clean.data.size)
    noisy = from_array(clean.data + rng.normal(size=clean.dims) * sigma)
    t0 = time.monotonic()
    opts = AlsOptions(rank=3, seed=42, max_iters=200, n_restarts=3)
    model_clean = cp_als(clean, opts)
    model_noisy = cp_als(noisy, opts)
    elapsed = time.monotonic() - t0
    return generator, model_clean, model_noisy, elapsed


@pytest.fixture(scope="module")
def seasonal_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("seasonal")
    spec = demo_spec(seed=1234)
    fleet = generate(spec, out)
    vehicles = parse_vehicles(fleet.vehicles_path)
    maintenance, _ = parse_maintenance(fleet.maintenance_path)
    labels = month_labels(spec.window_start, spec.months)
    build = build_tensor(
        vehicles, maintenance,
        TensorizeSpec(window_start=labels[0], window_end=labels[-1]),
    )
    t0 = time.monotonic()
    model = cp_als(build.tensor, AlsOptions(rank=5, seed=1234, n_restarts=2, max_iters=300))
    elapsed = time.monotonic() - t0
    return fleet, build.tensor, model, elapsed


def test_c2_cp_recovery(recovery_runs):
    generator, model_clean, model_noisy, elapsed = recovery_runs
    assert model_clean.fit >= 0.999
    assert model_clean.iterations == 112
    per_mode = congruence_per_mode(model_clean, generator)
    assert min(per_mode) >= 0.99
    noisy_score = congruence(model_noisy, generator)
    assert noisy_score >= 0.95
    assert elapsed < 30.0, f"recovery runs took {elapsed:.1f}s"
    report(
        f"[PASS] C2 CP recovery: noiseless fit={model_clean.fit:.6f} in "
        f"{model_clean.iterations} sweeps, per-mode congruence={min(per_mode):.4f}, "
        f"10% noise congruence={noisy_score:.4f}, {elapsed:.1f}s"
    )


def test_c3_als_monotonicity(recovery_runs, seasonal_run):
    _, model_clean, model_noisy, _ = recovery_runs
    _, _, seasonal_model, _ = seasonal_run
    worst = 0.0
    for model in (model_clean, model_noisy, seasonal_model):
        diffs = np.diff(np.array(model.fits))
        if diffs.size:
            worst = min(worst, float(diffs.min()))
    assert worst >= -1e-12, f"fit decreased by {-worst:.2e} between sweeps"
    report(
        f"[PASS] C3 ALS monotonicity: worst per-sweep fit change {worst:.2e} "
        f"across {sum(len(m.fits) for m in (model_clean, model_noisy, seasonal_model))} sweeps"
    )


def test_c4_seasonal_pattern_discovery(seasonal_run):
    fleet, tensor, model, elapsed = seasonal_run
    mower = next(c for c in fleet.manifest["components"] if c["name"] == "summer-mower")
    planted_months = set(mower["active_months"])
    planted_systems = set(mower["system_weights"])
    assert len(planted_systems) == 2
    time_labels = tensor.axis_labels[2]
    sys_labels = tensor.axis_labels[1]
    best_time, best_sys = 0.0, 0.0
    for r in range(model.rank):
        time_col = np.abs(model.factors[2][:, r])
        sys_col = np.abs(model.factors[1][:, r])
        time_mass = sum(
            time_col[i] for i, lbl in enumerate(time_labels) if lbl in planted_months
        ) / time_col.sum()
        sys_mass = sum(
            sys_col[j] for j, lbl in enumerate(sys_labels) if lbl in planted_systems
        ) / sys_col.sum()
        if time_mass >= 0.70 and sys_mass >= 0.60 and time_mass > best_time:
            best_time, best_sys = time_mass, sys_mass
    assert best_time >= 0.70 and best_sys >= 0.60, (
        f"no component concentrates on the planted pattern "
        f"(best time mass {best_time:.3f}, system mass {best_sys:.3f})"
    )
    assert elapsed < 60.0
    report(
        f"[PASS] C4 seasonal discovery: component with {best_time:.1%} time-mode mass "
        f"on planted months and {best_sys:.1%} system-mode mass on planted systems, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# C5 differential mining
# ---------------------------------------------------------------------------


def test_c5_differential_mining(tmp_path):
    motif_labels = ("PM Service", "Tires", "PM Service")
    spec = FleetSpec(
        seed=555,
        vehicles={"DODGE CHARGER": 8, "FORD F150": 12},
        window_start="2014-01",
        months=24,
        systems=("Brakes", "Cooling", "Exhaust", "Glass", "PM Service", "Tires"),
        background_rate=0.35,
        motifs=[
            PlantedMotif("DODGE CHARGER", motif_labels, rate=0.30),
            PlantedMotif("FORD F150", motif_labels, rate=0.01),
        ],
        purchase_years=(2013,),
    )
    fleet = generate(spec, tmp_path)
    vehicles = parse_vehicles(fleet.vehicles_path)
    maintenance, _ = parse_maintenance(fleet.maintenance_path)
    seqset, _ = extract_sequences(maintenance, vehicles)
    result = differential(seqset, "DODGE CHARGER", top_n=8)
    top = result[0]
    assert top.pattern == ("pm service", "tires", "pm service")
    assert top.p < 1e-4
    assert top.i_ratio > 10

    # zero right support formats exactly like the reference table row
    seqset2 = sequence_set_from_lists(
        [["ex", "pump", "ex"] * 5, ["brakes", "tires", "pm"] * 5],
        make_models=["SMEAL SST PUMPER", "FORD F150"],
    )
    capped = [
        d for d in differential(seqset2, "SMEAL SST PUMPER", top_n=4)
        if d.right_support == 0
    ]
    assert capped
    for d in capped:
        assert d.i_ratio == 10000.0
        assert (format_norm(d.right_norm), format_ratio(d.i_ratio)) == ("0.0000", "10000.0")

    # exact agreement with an exhaustive enumerator on small fleets
    from test_seqmine import brute_force_differential

    rng = np.random.default_rng(77)
    for _ in range(4):
        n_vehicles = int(rng.integers(4, 21))
        lists, models = [], []
        for v in range(n_vehicles):
            n = int(rng.integers(3, 13))
            lists.append([str(x) for x in rng.integers(0, 4, size=n)])
            models.append("T GROUP" if v % 2 == 0 else "REST GROUP")
        small = sequence_set_from_lists(lists, make_models=models)
        got = differential(small, "T GROUP", min_len=3, max_len=4, top_n=8)
        want = brute_force_differential(small, "T GROUP", 3, 4, 8)
        assert [
            (d.pattern, d.left_support, d.right_support, d.left_norm, d.right_norm,
             d.i_ratio, d.z, d.p)
            for d in got
        ] == [
            (d.pattern, d.left_support, d.right_support, d.left_norm, d.right_norm,
             d.i_ratio, d.z, d.p)
            for d in want
        ]
    report(
        f"[PASS] C5 differential mining: planted motif ranks first "
        f"(i_ratio={top.i_ratio:.1f}, p={top.p:.2e}), zero-right cap prints "
        f"'0.0000 10000.0', brute-force agreement exact"
    )


# ---------------------------------------------------------------------------
# C6 statistics correctness
# ---------------------------------------------------------------------------


def test_c6a_two_prop_z_hand_case():
    z, p = two_prop_z(10, 10, 0, 10)
    assert abs(abs(z) - math.sqrt(20)) <= 1e-9
    report(f"[PASS] C6a hand-derived z-test case: |z|={abs(z):.12f} == sqrt(20), p={p:.3e}")


def test_c6b_normal_cdf_reference_table():
    rows = (DATA_DIR / "normal_cdf_reference.csv").read_text().strip().splitlines()[1:]
    worst = 0.0
    for row in rows:
        z_str, phi_str = row.split(",")
        worst = max(worst, abs(normal_cdf(float(z_str)) - float(phi_str)))
    assert worst < 1e-7
    report(f"[PASS] C6b normal CDF vs committed table: max abs error {worst:.2e} over 257 z values")


def _back_computed_ns(support: int, printed_norm: str) -> list[int]:
    """Every window count n for which support / n prints as ``printed_norm``."""
    value = float(printed_norm)
    # format_norm rounds to 4 places, so the printed value is within 5e-5 of
    # support / n; scan a margin twice that wide and keep what prints alike.
    lo = math.floor(support / (value + 1e-4))
    hi = math.ceil(support / (value - 1e-4))
    ns = [n for n in range(lo, hi + 1) if format_norm(support / n) == printed_norm]
    assert ns and lo < ns[0] and ns[-1] < hi
    return ns


def _pooled_z_reference(x1: int, n1: int, x2: int, n2: int) -> float:
    """Pooled two-proportion z from exact rationals and one square root."""
    diff = Fraction(x1, n1) - Fraction(x2, n2)
    pooled = Fraction(x1 + x2, n1 + n2)
    var = pooled * (1 - pooled) * (Fraction(1, n1) + Fraction(1, n2))
    return math.copysign(math.sqrt(diff * diff / var), diff)


PUBLISHED_ROW_Z = 10.4


def test_c6c_z_matches_published_row_value():
    # Published mining row: left support 187 (normalized 0.0377), right support
    # 126 (normalized 0.0067), p < 0.0001, z = 10.4. The window totals are not
    # printed; back-computing them gives n1 = 187/0.0377 -> 4960 and
    # n2 = 126/0.0067 -> 18806, and every n1 in [4954, 4966] and n2 in
    # [18667, 18947] prints the same normalized supports. Over that whole
    # range the pooled two-proportion |z| (the test documented in README
    # "Method notes") stays in [16.93, 17.14], the unpooled (Wald) |z| in
    # [11.17, 11.22] and a continuity-corrected pooled |z| in [16.86, 17.07],
    # so the published z is not a function of the row's supports. This check
    # pins what the row does determine and asserts the discrepancy.
    x1, x2 = 187, 126
    n1, n2 = 4960, 18806
    assert format_norm(x1 / n1) == "0.0377"
    assert format_norm(x2 / n2) == "0.0067"

    z, p = two_prop_z(x1, n1, x2, n2)
    assert format_p(p) == "< 0.0001"
    assert z > 0  # left side over-represented
    assert abs(z - _pooled_z_reference(x1, n1, x2, n2)) <= 1e-9

    n1s = _back_computed_ns(x1, "0.0377")
    n2s = _back_computed_ns(x2, "0.0067")
    assert n1 in n1s and n2 in n2s
    pooled = []
    for a in n1s:
        for b in n2s:
            za, _ = two_prop_z(x1, a, x2, b)
            assert abs(za - _pooled_z_reference(x1, a, x2, b)) <= 1e-9, (a, b)
            pooled.append(abs(za))
    lo, hi = min(pooled), max(pooled)
    assert not lo - 0.2 <= PUBLISHED_ROW_Z <= hi + 0.2, (
        f"published z {PUBLISHED_ROW_Z} lies within 0.2 of the pooled range "
        f"[{lo:.4f}, {hi:.4f}]"
    )
    report(
        f"[PASS] C6c published-row reproduction: normalized supports and p "
        f"reproduced, |z|={abs(z):.4f} (pooled, exact); pooled |z| over "
        f"n1 in [{n1s[0]}, {n1s[-1]}], n2 in [{n2s[0]}, "
        f"{n2s[-1]}] is [{lo:.2f}, {hi:.2f}], published 10.4 not reproducible"
    )


# ---------------------------------------------------------------------------
# C7 LSTM gradients
# ---------------------------------------------------------------------------


def test_c7_lstm_gradients():
    clean = grad_check()
    corrupted = grad_check(corrupt_block="lstm0_wx")
    assert clean < 1e-4
    assert corrupted > 1e-2
    report(
        f"[PASS] C7 LSTM gradients: max relative error {clean:.2e} "
        f"(corrupted control {corrupted:.2e})"
    )


# ---------------------------------------------------------------------------
# C8 LSTM learning
# ---------------------------------------------------------------------------


def _markov_sequences(transition, labels, n_seqs, length, seed):
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eig(transition.T)
    stationary = np.real(evecs[:, np.argmax(np.real(evals))])
    stationary = np.abs(stationary) / np.abs(stationary).sum()
    seqs = []
    for _ in range(n_seqs):
        state = int(rng.choice(len(labels), p=stationary))
        seq = [labels[state]]
        for _ in range(length - 1):
            state = int(rng.choice(len(labels), p=transition[state]))
            seq.append(labels[state])
        seqs.append(seq)
    return seqs, stationary


def test_c8_lstm_learning():
    t0 = time.monotonic()

    # deterministic alternating data
    ab = [["A", "B"] * 200 for _ in range(24)]
    tr, va, te = split_by_vehicle(ab, seed=5)
    cfg = LstmConfig(
        embed_dim=8, hidden_dim=16, layers=1, dropout_keep=1.0,
        bptt_steps=20, batch_size=4, epochs=10, lr=1.0,
        lr_constant_epochs=6, lr_decay=0.8, seed=3,
    )
    ab_model = train(tr, va, cfg)
    ab_ppl = perplexity(ab_model, te)
    assert ab_ppl < 1.05

    # planted first-order Markov data vs the analytic entropy rate
    labels = ["brakes", "tires", "pm", "exhaust", "cooling"]
    transition = np.array(
        [
            [0.70, 0.10, 0.10, 0.05, 0.05],
            [0.05, 0.70, 0.10, 0.10, 0.05],
            [0.10, 0.05, 0.70, 0.05, 0.10],
            [0.05, 0.10, 0.05, 0.70, 0.10],
            [0.10, 0.05, 0.05, 0.10, 0.70],
        ]
    )
    seqs, stationary = _markov_sequences(transition, labels, 400, 300, seed=11)
    entropy_rate = -float(
        sum(
            stationary[i] * sum(transition[i, j] * math.log(transition[i, j]) for j in range(5))
            for i in range(5)
        )
    )
    target = math.exp(entropy_rate)
    m_tr, m_va, m_te = split_by_vehicle(seqs, seed=9)
    markov_cfg = LstmConfig(
        embed_dim=16, hidden_dim=32, layers=1, dropout_keep=1.0,
        bptt_steps=20, batch_size=8, epochs=10, lr=1.0,
        lr_constant_epochs=6, lr_decay=0.7, seed=4,
    )
    markov_model = train(m_tr, m_va, markov_cfg)
    markov_ppl = perplexity(markov_model, m_te)
    baseline_ppl = perplexity(unigram_baseline(m_tr), m_te)
    assert abs(markov_ppl - target) / target <= 0.10
    assert markov_ppl < baseline_ppl

    # uniform predictor scores exactly the vocabulary size
    uniform = train(
        [["a", "b", "c"], ["b", "c"]], [],
        LstmConfig(embed_dim=4, hidden_dim=4, layers=1, dropout_keep=1.0, epochs=1, seed=0),
    )
    uniform.params["out_w"][:] = 0.0
    uniform.params["out_b"][:] = 0.0
    v = uniform.vocab.size
    uniform_ppl = perplexity(uniform, [["a", "b", "c"], ["b", "c"]])
    assert abs(uniform_ppl - v) <= 1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        f"[PASS] C8 LSTM learning: alternating ppl={ab_ppl:.4f} (<1.05), markov "
        f"ppl={markov_ppl:.4f} vs analytic {target:.4f} "
        f"({abs(markov_ppl - target) / target:.1%} off, baseline {baseline_ppl:.2f}), "
        f"uniform ppl == V={v} exactly, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# C9 end-to-end reproducibility
# ---------------------------------------------------------------------------


def _assert_trees_identical(a: Path, b: Path) -> int:
    cmp = dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only, (cmp.left_only, cmp.right_only)
    count = 0
    for name in cmp.common_files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
        count += 1
    for sub in cmp.common_dirs:
        count += _assert_trees_identical(a / sub, b / sub)
    return count


def test_c9_pipeline_reproducibility(tmp_path):
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    assert main(["pipeline", "--demo", "--out", str(run1), "--seed", "1234"]) == 0
    assert main(["pipeline", "--demo", "--out", str(run2), "--seed", "1234"]) == 0
    n_files = _assert_trees_identical(run1, run2)
    report(
        f"[PASS] C9 reproducibility: pipeline --demo twice with one seed produced "
        f"{n_files} byte-identical artifacts"
    )
