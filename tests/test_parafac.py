import math
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.ingest import TensorizeSpec, build_tensor, parse_maintenance, parse_vehicles
from fleetmaint.parafac import (
    AlsOptions,
    CpModel,
    congruence,
    congruence_per_mode,
    cp_als,
    factor_report,
    fit_score,
    load_model,
    reconstruct,
    save_model,
)
from fleetmaint.synth import demo_spec, generate, month_labels
from fleetmaint.tensor import Tensor3, cp_compose, frob_norm

# fits of cp_als on the demo tensor, recorded with the einsum MTTKRP kernels
GOLDEN_DEMO_FITS = Path(__file__).parent / "data" / "cp_demo_fits.txt"


def planted_model(rng, dims, rank, positive=False):
    draw = rng.random if positive else rng.normal
    a, b, c = (draw(size=(d, rank)) for d in dims)
    return CpModel.from_factors(a, b, c)


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
        t = Tensor3.from_array(np.full((3, 4, 2), 2.5))
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

    def test_fit_history_monotone(self):
        rng = np.random.default_rng(21)
        t = Tensor3.from_array(rng.random((6, 7, 5)))
        model = cp_als(t, AlsOptions(rank=2, seed=4))
        diffs = np.diff(np.array(model.fits))
        assert diffs.min() >= -1e-12

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        t = Tensor3.from_array(rng.random((5, 4, 6)))
        opts = AlsOptions(rank=2, seed=11, n_restarts=2)
        m1 = cp_als(t, opts)
        m2 = cp_als(t, opts)
        assert m1.fit == m2.fit
        assert np.array_equal(m1.weights, m2.weights)
        for f1, f2 in zip(m1.factors, m2.factors):
            assert np.array_equal(f1, f2)

    def test_unit_columns_and_sorted_weights(self):
        rng = np.random.default_rng(13)
        t = Tensor3.from_array(rng.random((6, 5, 4)))
        model = cp_als(t, AlsOptions(rank=3, seed=5))
        for f in model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert np.all(np.diff(model.weights) <= 0)

    def test_zero_tensor_rejected(self):
        t = Tensor3.from_array(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            cp_als(t, AlsOptions(rank=1))

    def test_oversized_rank_flagged_not_fatal(self):
        t = Tensor3.from_array(np.random.default_rng(2).random((2, 2, 2)))
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
            cp_als(Tensor3.from_array(data), AlsOptions(rank=1))

    def test_overflowing_norm_rejected(self):
        # every entry is finite, but the Frobenius norm overflows to inf
        t = Tensor3.from_array(np.full((2, 2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
            cp_als(t, AlsOptions(rank=1, max_iters=5))

    def test_equal_weights_ordered_by_a_column(self):
        # unit A columns and identical B and C columns give equal weights
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        ones = np.ones((2, 3))
        model = CpModel.from_factors(a, ones, ones)
        assert len(set(model.weights)) == 1
        np.testing.assert_array_equal(model.factors[0], a[:, [0, 2, 1]])

    def test_options_validation(self):
        with pytest.raises(ValueError):
            AlsOptions(rank=0)
        with pytest.raises(ValueError):
            AlsOptions(rank=1, tol=1.5)
        with pytest.raises(ValueError):
            AlsOptions(rank=1, n_restarts=0)


class TestFitScore:
    def test_exact_model_scores_one(self):
        rng = np.random.default_rng(3)
        gen = planted_model(rng, (4, 5, 3), 2)
        t = planted_tensor(gen)
        assert fit_score(t, gen) == pytest.approx(1.0, abs=1e-9)

    def test_zero_factors_score_zero(self):
        rng = np.random.default_rng(4)
        t = Tensor3.from_array(rng.random((3, 3, 3)))
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
        t = Tensor3.from_array(rng.random((2, 2, 2)))
        gen = planted_model(rng, (2, 2, 2), 1, positive=True)
        (a, b, c), w = gen.factors, gen.weights[0]
        resid_sq = sum(
            (t.data[i, j, k] - w * a[i, 0] * b[j, 0] * c[k, 0]) ** 2
            for i in range(2) for j in range(2) for k in range(2)
        )
        expected = 1.0 - math.sqrt(resid_sq) / frob_norm(t)
        assert fit_score(t, gen) == pytest.approx(expected, abs=1e-12)

    def test_sweep_fit_matches_fit_score(self):
        # cp_als scores each sweep from its mode-3 MTTKRP and Gram; the
        # final fit must equal the fit of a full reconstruction
        rng = np.random.default_rng(6)
        cases = [((2, 3, 4), 1, 500), ((5, 4, 3), 2, 500), ((7, 6, 5), 3, 500),
                 ((9, 4, 6), 4, 500), ((4, 5, 6), 3, 4), ((3, 8, 2), 5, 2)]
        stopped_at_max = 0
        for seed, (dims, rank, max_iters) in enumerate(cases):
            t = Tensor3.from_array(rng.normal(size=dims))
            model = cp_als(t, AlsOptions(rank=rank, seed=seed, max_iters=max_iters))
            assert model.fit == pytest.approx(fit_score(t, model), abs=1e-9)
            stopped_at_max += not model.converged and model.iterations == max_iters
        assert stopped_at_max >= 1

    def test_zero_tensor_rejected(self):
        t = Tensor3.from_array(np.zeros((2, 2, 2)))
        gen = planted_model(np.random.default_rng(1), (2, 2, 2), 1)
        with pytest.raises(ValueError):
            fit_score(t, gen)

    def test_dims_mismatch(self):
        rng = np.random.default_rng(2)
        t = Tensor3.from_array(rng.random((2, 2, 2)))
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
        report = factor_report(model, 1)
        assert set(report.series) == {"vehicle", "system", "time"}
        for mode_name, f_true in zip(("vehicle", "system", "time"), gen.factors):
            loadings = np.array([v for _, v in report.series[mode_name]])
            cos = abs(loadings @ f_true[:, 0]) / np.linalg.norm(loadings)
            assert cos >= 1 - 1e-6

    def test_labels_flow_through(self):
        labels = (("v1", "v2"), ("brakes",), ("2015-01", "2015-02"))
        t = Tensor3(np.random.default_rng(0).random((2, 1, 2)), labels)
        model = cp_als(t, AlsOptions(rank=1, seed=0))
        report = factor_report(model, 1)
        assert [lbl for lbl, _ in report.series["vehicle"]] == ["v1", "v2"]
        assert [lbl for lbl, _ in report.series["time"]] == ["2015-01", "2015-02"]

    def test_component_out_of_range(self):
        gen = planted_model(np.random.default_rng(1), (3, 3, 3), 2)
        with pytest.raises(ValueError):
            factor_report(gen, 3)
        with pytest.raises(ValueError):
            factor_report(gen, 0)


class TestModelSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(44)
        t = Tensor3(
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
        t = Tensor3(np.random.default_rng(5).random((2, 1, 2)), (("u1", "u2"), ("b",), ("x", "y")))
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
    ])
    def test_malformed_keyword_line_rejected(self, tmp_path, old, new):
        t = Tensor3.from_array(np.random.default_rng(5).random((2, 1, 2)))
        path = tmp_path / "model.txt"
        save_model(cp_als(t, AlsOptions(rank=2, seed=1, max_iters=3)), path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="malformed|declares"):
            load_model(path)

    def test_save_deterministic(self, tmp_path):
        t = Tensor3.from_array(np.random.default_rng(4).random((2, 3, 2)))
        model = cp_als(t, AlsOptions(rank=1, seed=2, max_iters=20))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReconstruct:
    def test_matches_composition(self):
        rng = np.random.default_rng(55)
        gen = planted_model(rng, (3, 4, 2), 2)
        direct = cp_compose(gen.weights, gen.factors, gen.axis_labels)
        np.testing.assert_array_equal(reconstruct(gen).data, direct.data)

    def test_round_trip_of_exact_low_rank_tensor(self):
        rng = np.random.default_rng(60)
        gen = planted_model(rng, (8, 6, 7), 2)
        t = planted_tensor(gen)
        model = cp_als(t, AlsOptions(rank=2, seed=1, n_restarts=3))
        err = frob_norm(
            Tensor3.from_array(t.data - reconstruct(model).data)
        ) / frob_norm(t)
        assert err <= 1e-6
