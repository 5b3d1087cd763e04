import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint import parafac as parafac_module
from fleetmaint import tensor as tensor_module
from fleetmaint.ingest import TensorizeSpec, build_tensor, parse_maintenance, parse_vehicles
from fleetmaint.parafac import (
    _DIRECT_FIT_ABOVE,
    MAX_ITERS,
    MAX_RANK,
    AlsOptions,
    CpModel,
    cp_als,
    load_model,
    save_model,
)
from fleetmaint.synth import demo_spec, generate, month_labels
from fleetmaint.tensor import frob_norm
from oracles import (
    _als_single_run,
    congruence,
    congruence_per_mode,
    cp_als_sequential,
    cp_compose,
    fit_score,
    from_array,
    from_factors,
    reconstruct,
)

# fits of cp_als on the demo tensor, recorded with the einsum MTTKRP kernels
GOLDEN_DEMO_FITS = Path(__file__).parent / "data" / "cp_demo_fits.txt"


def planted_model(rng, dims, rank, positive=False):
    draw = rng.random if positive else rng.normal
    a, b, c = (draw(size=(d, rank)) for d in dims)
    return from_factors(a, b, c)


def planted_tensor(model):
    return reconstruct(model)


class TestCpAls:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(100)
        gen = planted_model(rng, (6, 5, 7), 1, positive=True)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=1, seed=0))
        assert model.fit >= 1 - 1e-6
        # recovered component equals the generator up to sign/scale
        for f_hat, f_true in zip(model.factors, gen.factors):
            assert abs(float(f_hat[:, 0] @ f_true[:, 0])) >= 1 - 1e-6

    def test_constant_tensor_is_rank_one(self):
        t = from_array(np.full((3, 4, 2), 2.5))
        model = cp_als(t, AlsOptions(rank=1, seed=1))
        assert model.fit == pytest.approx(1.0, abs=1e-8)
        for f in model.factors:
            col = f[:, 0]
            assert np.allclose(col, col[0])

    def test_exact_rank_three_recovery(self):
        rng = np.random.default_rng(7)
        gen = planted_model(rng, (12, 10, 8), 3)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=3, seed=3, max_iters=200, n_restarts=3))
        assert model.fit >= 0.999
        per_mode = congruence_per_mode(model, gen)
        assert min(per_mode) >= 0.99
        # past fit 1 - 1e-6 each sweep scores a full reconstruction, so the
        # stop point does not hang on the Gram formula's cancellation error
        assert model.iterations == 34
        assert model.fit == pytest.approx(fit_score(t, model), abs=1e-12)

    def test_rank_five_planted_recovery_with_restarts(self):
        rng = np.random.default_rng(31)
        gen = planted_model(rng, (18, 14, 12), 5)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=5, seed=8, max_iters=400, n_restarts=3))
        assert congruence(model, gen) >= 0.99

    def test_demo_fit_history_matches_golden(self, tmp_path):
        spec = demo_spec(seed=1234)
        fleet = generate(spec, tmp_path)
        maintenance, _ = parse_maintenance(fleet.maintenance_path)
        labels = month_labels(spec.window_start, spec.months)
        t = build_tensor(
            parse_vehicles(fleet.vehicles_path), maintenance,
            TensorizeSpec(window_start=labels[0], window_end=labels[-1]),
        ).tensor
        model = cp_als(t, AlsOptions(rank=5, seed=1234, n_restarts=2, max_iters=300))
        expected = np.loadtxt(GOLDEN_DEMO_FITS)
        assert model.iterations == expected.size == 230
        assert model.converged
        np.testing.assert_allclose(model.fits, expected, rtol=1e-12, atol=0)

    def test_sparse_kernels_match_the_gemms(self):
        # Poisson counts of a rank-3 intensity, about 1% of the entries nonzero:
        # the nonzero-list kernels run, and the GEMMs under a fill rule that
        # takes any nonzero as too many
        rng = np.random.default_rng(5)
        a, b, c = (rng.random((d, 3)) ** 4 for d in (120, 16, 24))
        lam = np.einsum("ir,jr,kr->ijk", a, b, c)
        x = rng.poisson(lam * (0.012 * lam.size / lam.sum())).astype(float)
        assert 0.005 < np.count_nonzero(x) / x.size < 0.02
        opts = AlsOptions(rank=3, seed=2, n_restarts=2)
        sparse = cp_als(from_array(x), opts)
        with mock.patch.object(tensor_module, "_SPARSE_FILL", x.size + 1):
            dense = cp_als(from_array(x), opts)
        assert sparse.converged and dense.converged
        assert sparse.iterations == dense.iterations
        np.testing.assert_allclose(sparse.fits, dense.fits, rtol=0, atol=1e-12)
        for f_sparse, f_dense in zip(sparse.factors, dense.factors):
            np.testing.assert_allclose(f_sparse, f_dense, rtol=0, atol=1e-10)

    def test_fit_history_monotone(self):
        rng = np.random.default_rng(21)
        t = from_array(rng.random((6, 7, 5)))
        model = cp_als(t, AlsOptions(rank=2, seed=4))
        diffs = np.diff(np.array(model.fits))
        assert diffs.min() >= -1e-12

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        t = from_array(rng.random((5, 4, 6)))
        opts = AlsOptions(rank=2, seed=11, n_restarts=2)
        m1 = cp_als(t, opts)
        m2 = cp_als(t, opts)
        assert m1.fit == m2.fit
        assert np.array_equal(m1.weights, m2.weights)
        for f1, f2 in zip(m1.factors, m2.factors):
            assert np.array_equal(f1, f2)

    def test_unit_columns_and_sorted_weights(self):
        rng = np.random.default_rng(13)
        t = from_array(rng.random((6, 5, 4)))
        model = cp_als(t, AlsOptions(rank=3, seed=5))
        for f in model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert np.all(np.diff(model.weights) <= 0)

    def test_zero_tensor_rejected(self):
        t = from_array(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            cp_als(t, AlsOptions(rank=1))

    def test_oversized_rank_flagged_not_fatal(self):
        t = from_array(np.random.default_rng(2).random((2, 2, 2)))
        model = cp_als(t, AlsOptions(rank=5, seed=0, max_iters=20))
        assert any("rank 5 exceeds" in w for w in model.warnings)

    def test_scale_indeterminacy_at_reconstruction(self):
        rng = np.random.default_rng(19)
        gen = planted_model(rng, (4, 3, 5), 2, positive=True)
        base = reconstruct(gen).data
        alpha = 3.7
        scaled = CpModel(
            factors=(gen.factors[0] * alpha, gen.factors[1], gen.factors[2]),
            weights=gen.weights / alpha,
            fit=float("nan"),
            iterations=0,
            converged=False,
            axis_labels=gen.axis_labels,
        )
        np.testing.assert_allclose(reconstruct(scaled).data, base, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        data = np.random.default_rng(3).random((3, 2, 4))
        data[1, 0, 2] = bad
        with pytest.raises(ValueError, match="nan or inf"):
            cp_als(from_array(data), AlsOptions(rank=1))

    def test_overflowing_norm_rejected(self):
        # every entry is finite, but the Frobenius norm overflows to inf
        t = from_array(np.full((2, 2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
            cp_als(t, AlsOptions(rank=1, max_iters=5))

    def test_equal_weights_ordered_by_a_column(self):
        # unit A columns and identical B and C columns give equal weights
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        ones = np.ones((2, 3))
        model = from_factors(a, ones, ones)
        assert len(set(model.weights)) == 1
        np.testing.assert_array_equal(model.factors[0], a[:, [0, 2, 1]])

    def test_options_validation(self):
        assert AlsOptions().rank == 25
        with pytest.raises(ValueError):
            AlsOptions(rank=0)
        for kwargs in (dict(rank=2.5), dict(rank=True), dict(max_iters=2.5), dict(seed=-1),
                       dict(tol="0.1")):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                AlsOptions(**kwargs)
        with pytest.raises(ValueError):
            AlsOptions(rank=1, tol=1.5)
        with pytest.raises(ValueError):
            AlsOptions(rank=1, n_restarts=0)
        with pytest.raises(ValueError, match="rank must be <= 1000"):
            AlsOptions(rank=1001)
        with pytest.raises(ValueError, match="n_restarts must be <= 100"):
            AlsOptions(rank=1, n_restarts=101)
        AlsOptions(rank=1000, n_restarts=100)

    def test_working_set_bound(self):
        t = from_array(np.random.default_rng(6).random((2, 40, 40)))
        # 100 restarts at rank 1000 would hold 100 * 1000 * (82 + 1600 + 1000) floats
        with pytest.raises(ValueError, match="past 134217728"):
            cp_als(t, AlsOptions(rank=1000, n_restarts=100, max_iters=1))
        opts = AlsOptions(rank=3, n_restarts=2, max_iters=1)
        working = 2 * 3 * (2 + 40 + 40 + 40 * 40 + 3)
        with mock.patch.object(parafac_module, "MAX_TENSOR_FLOATS", working):
            cp_als(t, opts)
        with mock.patch.object(parafac_module, "MAX_TENSOR_FLOATS", working - 1), \
                pytest.raises(ValueError, match=f"need {working} floats"):
            cp_als(t, opts)


def als_case(dims, kind, seed):
    """A dense tensor, a sparse one (at most 1/32 full) or an exact rank-2 one."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        x = rng.random(dims)
    elif kind == "sparse":
        x = np.zeros(dims)
        flat = x.reshape(-1)
        nnz = max(1, flat.size // 32)
        flat[rng.choice(flat.size, nnz, replace=False)] = rng.random(nnz) + 0.5
    else:
        x = np.einsum("ir,jr,kr->ijk", *(rng.random((d, 2)) for d in dims))
    return from_array(x)


def assert_same_model(got, want):
    """Every CpModel field equal, the floats bit for bit."""
    for f in dataclasses.fields(CpModel):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name == "factors":
            assert [x.shape for x in g] == [y.shape for y in w]
            assert [x.tobytes() for x in g] == [y.tobytes() for y in w]
        elif f.name in ("weights", "fit", "fits"):
            assert np.shape(g) == np.shape(w), f.name
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), f.name
        else:
            assert g == w, f.name


class TestLockstepRestarts:
    """cp_als runs its restarts as one stack; the oracle runs them one by one."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9)),
        kind=st.sampled_from(["dense", "sparse", "low-rank"]),
        rank=st.integers(1, 10),
        n_restarts=st.integers(1, 4),
        max_iters=st.integers(1, 60),
        tol=st.sampled_from([1e-3, 1e-5, 1e-8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(2, 2, 2), kind="dense", rank=5, n_restarts=2, max_iters=20, tol=1e-8, seed=0)
    @example(dims=(40, 9, 9), kind="sparse", rank=3, n_restarts=4, max_iters=60, tol=1e-5,
             seed=1)
    @example(dims=(12, 9, 9), kind="dense", rank=10, n_restarts=3, max_iters=40, tol=1e-3,
             seed=2)
    @example(dims=(8, 6, 7), kind="low-rank", rank=2, n_restarts=3, max_iters=60, tol=1e-8,
             seed=3)
    def test_matches_restarts_run_one_after_another(self, dims, kind, rank, n_restarts,
                                                    max_iters, tol, seed):
        t = als_case(dims, kind, seed)
        opts = AlsOptions(rank=rank, max_iters=max_iters, tol=tol, seed=seed,
                          n_restarts=n_restarts)
        assert_same_model(cp_als(t, opts), cp_als_sequential(t, opts))

    def test_integer_counts_take_the_norm_of_their_values(self):
        # counts up to 10**4 at 5% fill: the norm from the stored values is
        # the dense array's to the bit, as the oracle computes it
        rng = np.random.default_rng(6)
        x = rng.poisson(0.05, (40, 9, 9)) * rng.integers(1, 10**4, (40, 9, 9)).astype(float)
        t = from_array(x)
        opts = AlsOptions(rank=3, max_iters=40, seed=6, n_restarts=2)
        assert_same_model(cp_als(t, opts), cp_als_sequential(t, opts))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_stack_shrinks_as_restarts_converge(self, kind):
        t = als_case((40, 9, 9), kind, 1)
        assert (t._nonzeros is not None) == (kind == "sparse")
        opts = AlsOptions(rank=3, max_iters=300, tol=1e-5, seed=1, n_restarts=4)
        runs = [_als_single_run(t, opts, r, frob_norm(t.data), []) for r in range(4)]
        # every restart converges, at different sweeps
        assert all(converged for *_, converged in runs)
        assert len({len(fits) for _, _, fits, _ in runs}) > 1
        assert_same_model(cp_als(t, opts), cp_als_sequential(t, opts))

    def test_demo_tensor(self, tmp_path):
        spec = demo_spec(seed=1234)
        fleet = generate(spec, tmp_path)
        labels = month_labels(spec.window_start, spec.months)
        t = build_tensor(
            parse_vehicles(fleet.vehicles_path), parse_maintenance(fleet.maintenance_path)[0],
            TensorizeSpec(window_start=labels[0], window_end=labels[-1]),
        ).tensor
        opts = AlsOptions(rank=5, seed=1234, n_restarts=3, max_iters=300)
        assert_same_model(cp_als(t, opts), cp_als_sequential(t, opts))

    def test_exact_low_rank_scores_the_reconstruction(self):
        t = als_case((8, 6, 7), "low-rank", 3)
        opts = AlsOptions(rank=2, max_iters=300, seed=3, n_restarts=3)
        model = cp_als(t, opts)
        assert model.fits[-1] > _DIRECT_FIT_ABOVE
        assert_same_model(model, cp_als_sequential(t, opts))

    def test_rank_warning_and_best_restart(self):
        t = from_array(np.random.default_rng(2).random((2, 2, 2)))
        opts = AlsOptions(rank=5, seed=0, max_iters=20, n_restarts=3)
        model = cp_als(t, opts)
        assert any("rank 5 exceeds" in w for w in model.warnings)
        assert_same_model(model, cp_als_sequential(t, opts))


class TestFitScore:
    def test_exact_model_scores_one(self):
        rng = np.random.default_rng(3)
        gen = planted_model(rng, (4, 5, 3), 2)
        t = planted_tensor(gen)
        assert fit_score(t, gen) == pytest.approx(1.0, abs=1e-9)

    def test_zero_factors_score_zero(self):
        rng = np.random.default_rng(4)
        t = from_array(rng.random((3, 3, 3)))
        zero = CpModel(
            factors=(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))),
            weights=np.zeros(1),
            fit=float("nan"),
            iterations=0,
            converged=False,
            axis_labels=t.axis_labels,
        )
        assert fit_score(t, zero) == pytest.approx(0.0, abs=1e-15)

    def test_matches_hand_built_residual(self):
        # 2x2x2 case with the residual summed entry by entry
        rng = np.random.default_rng(5)
        t = from_array(rng.random((2, 2, 2)))
        gen = planted_model(rng, (2, 2, 2), 1, positive=True)
        (a, b, c), w = gen.factors, gen.weights[0]
        resid_sq = sum(
            (t.data[i, j, k] - w * a[i, 0] * b[j, 0] * c[k, 0]) ** 2
            for i in range(2) for j in range(2) for k in range(2)
        )
        expected = 1.0 - math.sqrt(resid_sq) / frob_norm(t.data)
        assert fit_score(t, gen) == pytest.approx(expected, abs=1e-12)

    def test_sweep_fit_matches_fit_score(self):
        # cp_als scores each sweep from its mode-3 MTTKRP and Gram; the
        # final fit must equal the fit of a full reconstruction
        rng = np.random.default_rng(6)
        cases = [((2, 3, 4), 1, 500), ((5, 4, 3), 2, 500), ((7, 6, 5), 3, 500),
                 ((9, 4, 6), 4, 500), ((4, 5, 6), 3, 4), ((3, 8, 2), 5, 2)]
        stopped_at_max = 0
        for seed, (dims, rank, max_iters) in enumerate(cases):
            t = from_array(rng.normal(size=dims))
            model = cp_als(t, AlsOptions(rank=rank, seed=seed, max_iters=max_iters))
            assert model.fit == pytest.approx(fit_score(t, model), abs=1e-9)
            stopped_at_max += not model.converged and model.iterations == max_iters
        assert stopped_at_max >= 1

    def test_zero_tensor_rejected(self):
        t = from_array(np.zeros((2, 2, 2)))
        gen = planted_model(np.random.default_rng(1), (2, 2, 2), 1)
        with pytest.raises(ValueError):
            fit_score(t, gen)

    def test_dims_mismatch(self):
        rng = np.random.default_rng(2)
        t = from_array(rng.random((2, 2, 2)))
        gen = planted_model(rng, (3, 2, 2), 1)
        with pytest.raises(ValueError):
            fit_score(t, gen)


class TestCongruence:
    def test_self_is_one(self):
        gen = planted_model(np.random.default_rng(1), (5, 4, 6), 3)
        assert congruence(gen, gen) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_and_sign_invariance(self):
        gen = planted_model(np.random.default_rng(2), (5, 4, 6), 3)
        perm = [2, 0, 1]
        signs = np.array([1.0, -1.0, -1.0])
        # flip signs pairwise on two modes so the product is unchanged
        twisted = CpModel(
            factors=(
                gen.factors[0][:, perm] * signs,
                gen.factors[1][:, perm] * signs,
                gen.factors[2][:, perm],
            ),
            weights=gen.weights[perm],
            fit=float("nan"),
            iterations=0,
            converged=False,
            axis_labels=gen.axis_labels,
        )
        assert congruence(gen, twisted) == pytest.approx(1.0, abs=1e-12)
        assert min(congruence_per_mode(gen, twisted)) == pytest.approx(1.0, abs=1e-12)

    def test_independent_models_score_low(self):
        rng = np.random.default_rng(1234)
        m1 = planted_model(rng, (30, 20, 24), 3)
        m2 = planted_model(rng, (30, 20, 24), 3)
        assert congruence(m1, m2) < 0.5

    def test_rank_mismatch(self):
        rng = np.random.default_rng(3)
        m1 = planted_model(rng, (4, 4, 4), 2)
        m2 = planted_model(rng, (4, 4, 4), 3)
        with pytest.raises(ValueError):
            congruence(m1, m2)


class TestFactorReport:
    def test_rank_one_report_matches_generator(self):
        rng = np.random.default_rng(31)
        gen = planted_model(rng, (4, 3, 5), 1, positive=True)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=1, seed=0))
        for factor, f_true in zip(model.factors, gen.factors):
            loadings = factor[:, 0]
            cos = abs(loadings @ f_true[:, 0]) / np.linalg.norm(loadings)
            assert cos >= 1 - 1e-6

    def test_labels_flow_through(self):
        labels = (("v1", "v2"), ("brakes",), ("2015-01", "2015-02"))
        t = from_array(np.random.default_rng(0).random((2, 1, 2)), labels)
        model = cp_als(t, AlsOptions(rank=1, seed=0))
        assert model.axis_labels == labels


class TestModelSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(44)
        t = from_array(
            rng.random((3, 2, 4)),
            (("u1", "u2", "u3"), ("brakes", "pm service"), ("a", "b", "c", "d")),
        )
        model = cp_als(t, AlsOptions(rank=2, seed=9, max_iters=30))
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.fit == model.fit
        assert back.iterations == model.iterations
        assert back.converged == model.converged
        assert back.fits == model.fits
        assert back.warnings == model.warnings
        assert back.axis_labels == model.axis_labels
        assert np.array_equal(back.weights, model.weights)
        for f1, f2 in zip(back.factors, model.factors):
            assert np.array_equal(f1, f2)

    def test_every_proper_prefix_rejected(self, tmp_path):
        t = from_array(np.random.default_rng(5).random((2, 1, 2)), (("u1", "u2"), ("b",), ("x", "y")))
        model = cp_als(t, AlsOptions(rank=2, seed=1, max_iters=3))
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text()
        cut = tmp_path / "cut.txt"
        for n in range(len(text)):
            cut.write_text(text[:n])
            with pytest.raises(ValueError):
                load_model(cut)
        cut.write_text(text)
        assert load_model(cut).fits == model.fits

    @pytest.mark.parametrize("old, new", [
        ("\niterations ", "\niteration "),
        ("\nrank 2\n", "\nrank\n"),
        ("\nfits ", "\nfits 9"),
        ("\ndims 2 1 2\n", "\ndims 2 1\n"),
        ("\nrank 2\n", "\n\n"),
    ])
    def test_malformed_keyword_line_rejected(self, tmp_path, old, new):
        t = from_array(np.random.default_rng(5).random((2, 1, 2)))
        path = tmp_path / "model.txt"
        save_model(cp_als(t, AlsOptions(rank=2, seed=1, max_iters=3)), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="malformed|declares"):
            load_model(path)

    @pytest.mark.parametrize("line, match", [
        (f"iterations {MAX_ITERS + 1}",
         rf"line 5: cpmodel iterations must be <= {MAX_ITERS}, got {MAX_ITERS + 1}$"),
        (f"fits {MAX_ITERS + 1}" + " 0.5" * (MAX_ITERS + 1),
         rf"line 8: cpmodel fits must be <= {MAX_ITERS}, got {MAX_ITERS + 1}$"),
        (f"rank {MAX_RANK + 500}",
         rf"line 2: cpmodel rank must be <= {MAX_RANK}, got {MAX_RANK + 500}$"),
        # no edit: a consistent rank-1 model of a 0x0x0 tensor, with no
        # labels and empty factor blocks
        (None, r"line 3: cpmodel dims must be >= 1, got 0$"),
    ], ids=["iterations", "fits", "rank", "dims"])
    def test_sweep_count_past_max_iters_rejected(self, tmp_path, line, match):
        """A header integer past the bound that cp_als or the format obeys is rejected."""
        path = tmp_path / "model.txt"
        if line is None:
            empty = np.zeros((0, 1))
            save_model(CpModel(factors=(empty,) * 3, weights=np.ones(1), fit=0.5, iterations=1,
                               converged=False, axis_labels=((), (), ()), fits=(0.5,)), path)
        else:
            t = from_array(np.random.default_rng(5).random((2, 1, 2)))
            save_model(cp_als(t, AlsOptions(rank=1, seed=1, max_iters=3)), path)
            lines = path.read_text().split("\n")
            keyword = line.split()[0]
            at = next(i for i, text in enumerate(lines) if text.startswith(keyword + " "))
            lines[at] = line
            path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    def test_save_deterministic(self, tmp_path):
        t = from_array(np.random.default_rng(4).random((2, 3, 2)))
        model = cp_als(t, AlsOptions(rank=1, seed=2, max_iters=20))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReconstruct:
    def test_matches_composition(self):
        rng = np.random.default_rng(55)
        gen = planted_model(rng, (3, 4, 2), 2)
        direct = cp_compose(gen.weights, gen.factors)
        np.testing.assert_array_equal(reconstruct(gen).data, direct)
        assert reconstruct(gen).axis_labels == gen.axis_labels

    def test_round_trip_of_exact_low_rank_tensor(self):
        rng = np.random.default_rng(60)
        gen = planted_model(rng, (8, 6, 7), 2)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=2, seed=1, n_restarts=3))
        err = frob_norm(t.data - reconstruct(model).data) / frob_norm(t.data)
        assert err <= 1e-6
