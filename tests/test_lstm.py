import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint import lstm
from fleetmaint.lstm import (
    EOS_TOKEN,
    LstmConfig,
    SeqModel,
    TrainingDiverged,
    UnigramModel,
    Vocab,
    _backward_chunk,
    _chunk_loss,
    _clip_gradients,
    _forward_chunk,
    _init_params,
    _log_softmax,
    _pack_batch,
    _param_shapes,
    _sample_drop_masks,
    _target_log_probs,
    _zero_state,
    perplexity,
    predict_next,
    split_by_vehicle,
    train,
    unigram_baseline,
)
from oracles import backward_chunk_copying, grad_check

FAST_CFG = dict(
    embed_dim=8, hidden_dim=16, layers=1, dropout_keep=1.0,
    bptt_steps=20, batch_size=4, lr=1.0, lr_constant_epochs=10,
    lr_decay=0.8,
)


def alternating_sequences(n=24, length=400):
    return [["A", "B"] * (length // 2) for _ in range(n)]


class TestVocab:
    def test_reserved_tokens(self):
        vocab = Vocab.from_sequences([["b", "a"], ["c"]])
        assert vocab.labels == ("a", "b", "c")
        assert vocab.unk == 3
        assert vocab.eos == 4
        assert vocab.size == 5
        assert vocab.token_label(vocab.unk) == "<unk>"
        assert vocab.token_label(vocab.eos) == EOS_TOKEN

    def test_encode_maps_unseen_to_unk(self):
        vocab = Vocab.from_sequences([["a", "b"]])
        np.testing.assert_array_equal(vocab.encode(["a", "zzz", "b"]), [0, vocab.unk, 1])


class TestSplit:
    def test_exact_proportions(self):
        train_s, valid_s, test_s = split_by_vehicle(list(range(8)), seed=1)
        assert (len(train_s), len(valid_s), len(test_s)) == (4, 2, 2)

    def test_remainder_goes_to_train(self):
        train_s, valid_s, test_s = split_by_vehicle(list(range(329)), seed=1)
        assert (len(train_s), len(valid_s), len(test_s)) == (165, 82, 82)

    def test_deterministic_and_disjoint(self):
        items = [f"v{i}" for i in range(37)]
        a = split_by_vehicle(items, seed=7)
        b = split_by_vehicle(items, seed=7)
        assert a == b
        combined = a[0] + a[1] + a[2]
        assert sorted(combined) == sorted(items)

    def test_too_few(self):
        with pytest.raises(ValueError):
            split_by_vehicle([1, 2, 3], seed=0)


class TestGradCheck:
    def test_analytic_matches_finite_differences(self):
        assert grad_check() < 1e-4

    def test_corrupted_forget_gate_detected(self):
        assert grad_check(corrupt_block="lstm0_wx") > 1e-2

    def test_zero_length_input(self):
        assert grad_check(sequences=[[]]) == 0.0

    def test_requires_dropout_off(self):
        with pytest.raises(ValueError):
            grad_check(cfg=LstmConfig(dropout_keep=0.5))


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        seqs = [["a", "b", "c"], ["b", "c"]]
        cfg = LstmConfig(embed_dim=4, hidden_dim=4, layers=1, epochs=1, seed=0)
        vocab = Vocab.from_sequences(seqs)
        model = train(seqs, [], LstmConfig(embed_dim=4, hidden_dim=4, layers=1,
                                           epochs=1, dropout_keep=1.0, seed=0))
        model.params["out_w"][:] = 0.0
        model.params["out_b"][:] = 0.0
        assert perplexity(model, seqs) == pytest.approx(vocab.size, abs=1e-9)

    def test_perfect_model_scores_one(self):
        class Oracle:
            def nll(self, seqs):
                return 0.0, sum(len(seq) + 1 for seq in seqs)

        assert perplexity(Oracle(), [["a", "b"], ["c"]]) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_to_sequence_order(self):
        seqs = [["a", "b", "a"], ["b", "b"], ["a"]]
        model = unigram_baseline(seqs)
        assert perplexity(model, seqs) == pytest.approx(
            perplexity(model, seqs[::-1]), rel=1e-12
        )

    def test_empty_set_has_zero_nll(self):
        seqs = [["a", "b"], ["b"]]
        lstm_model = train(seqs, [], LstmConfig(epochs=1, **FAST_CFG))
        for model in (lstm_model, unigram_baseline(seqs)):
            total, items = model.nll([])
            assert (total, items) == (0.0, 0) and math.copysign(1.0, total) == 1.0
            assert type(total) is float and type(items) is int


class TestUnigram:
    def test_add_one_arithmetic(self):
        model = unigram_baseline([["a", "a", "b"]])
        # targets are a, a, b, EOS over V = {a, b, UNK, EOS}
        assert math.exp(model.log_probs[0]) == pytest.approx((2 + 1) / (4 + 4), abs=1e-12)

    def test_perplexity_at_least_one(self):
        model = unigram_baseline([["a", "b", "a", "a"]])
        assert perplexity(model, [["a", "a"], ["b"]]) >= 1.0

    def test_counts_match_per_item_loop(self):
        rng = np.random.default_rng(3)
        seqs = [[str(v) for v in rng.integers(0, 9, size=rng.integers(0, 30))]
                for _ in range(40)]
        model = unigram_baseline(seqs)
        counts = np.zeros(model.vocab.size)
        for seq in seqs:
            for idx in model.vocab.encode(seq):
                counts[idx] += 1
            counts[model.vocab.eos] += 1
        expected = np.log((counts + 1.0) / (counts.sum() + model.vocab.size))
        assert np.array_equal(model.log_probs, expected)

    def test_matches_closed_form_on_own_training_set(self):
        seqs = [["a", "a", "b"], ["b", "c"]]
        model = unigram_baseline(seqs)
        vocab = model.vocab
        counts = {"a": 2, "b": 2, "c": 1, EOS_TOKEN: 2}
        n = sum(counts.values())
        v = vocab.size
        log_p = {
            lab: math.log((c + 1) / (n + v)) for lab, c in counts.items()
        }
        expected_nll = -(
            2 * log_p["a"] + 2 * log_p["b"] + 1 * log_p["c"] + 2 * log_p[EOS_TOKEN]
        ) / n
        assert perplexity(model, seqs) == pytest.approx(math.exp(expected_nll), rel=1e-12)


class TestTraining:
    def test_alternating_data_learned(self):
        seqs = alternating_sequences()
        tr, va, te = split_by_vehicle(seqs, seed=5)
        model = train(tr, va, LstmConfig(epochs=6, seed=3, **FAST_CFG))
        assert perplexity(model, te) < 1.05
        assert model.history["valid_perplexity"][-1] < 1.05

    def test_bitwise_deterministic(self):
        seqs = [["a", "b", "c", "a"] * 5 for _ in range(8)]
        tr, va = seqs[:6], seqs[6:]
        cfg = LstmConfig(embed_dim=6, hidden_dim=8, layers=2, dropout_keep=0.75,
                         batch_size=2, epochs=3, seed=21)
        m1 = train(tr, va, cfg)
        m2 = train(tr, va, cfg)
        assert m1.params.keys() == m2.params.keys()
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name]), name

    def test_best_validation_model_returned(self):
        seqs = alternating_sequences(n=12, length=100)
        tr, va, _ = split_by_vehicle(seqs, seed=2)
        model = train(tr, va, LstmConfig(epochs=5, seed=1, **FAST_CFG))
        returned_ppl = perplexity(model, va)
        history = model.history["valid_perplexity"]
        assert returned_ppl == pytest.approx(min(history), rel=1e-12)
        assert returned_ppl <= history[-1] + 1e-12

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        seqs = [["a", "b"] * 10 for _ in range(4)]
        cfg = LstmConfig(embed_dim=4, hidden_dim=4, layers=1, dropout_keep=1.0,
                         epochs=2, seed=0)

        def overflowing_init(*args):
            # finite parameters whose loss overflows: every label but the
            # first is all but impossible
            params = _init_params(*args)
            params["out_b"][1:] = -np.finfo(np.float64).max
            return params

        monkeypatch.setattr(lstm, "_init_params", overflowing_init)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(seqs[:3], seqs[3:], cfg)

    def test_overflowing_gradient_norm_aborts(self, monkeypatch):
        seqs = [["a", "b"] * 10 for _ in range(4)]
        cfg = LstmConfig(embed_dim=4, hidden_dim=4, layers=1, dropout_keep=1.0,
                         epochs=1, seed=0)

        def huge_backward(*args, **kwargs):
            # finite gradients whose squared norm overflows, which clipping
            # would otherwise scale to zero
            grads = _backward_chunk(*args, **kwargs)
            grads["out_b"][:] = 1e200
            return grads

        monkeypatch.setattr(lstm, "_backward_chunk", huge_backward)
        with pytest.raises(TrainingDiverged, match="non-finite gradient norm at epoch 1"):
            train(seqs[:3], seqs[3:], cfg)

    def test_unseen_eval_labels_hit_unk(self):
        seqs = [["a", "b"] * 10 for _ in range(4)]
        model = train(seqs[:3], seqs[3:], LstmConfig(
            embed_dim=4, hidden_dim=4, layers=1, dropout_keep=1.0, epochs=1, seed=0))
        ppl = perplexity(model, [["a", "mystery", "b"]])
        assert np.isfinite(ppl)

    def test_lr_schedule(self):
        cfg = LstmConfig(lr=1.0, lr_constant_epochs=6, lr_decay=0.7)
        assert cfg.lr_at_epoch(0) == 1.0
        assert cfg.lr_at_epoch(5) == 1.0
        assert cfg.lr_at_epoch(6) == pytest.approx(0.7)
        assert cfg.lr_at_epoch(7) == pytest.approx(0.49)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LstmConfig(dropout_keep=0.0)
        with pytest.raises(ValueError):
            LstmConfig(bptt_steps=0)
        with pytest.raises(ValueError):
            LstmConfig(lr=-1.0)
        with pytest.raises(ValueError, match="lr_constant_epochs must be >= 0"):
            LstmConfig(lr_constant_epochs=-5)
        assert LstmConfig(lr_constant_epochs=0).lr_at_epoch(0) == pytest.approx(0.7)

    def test_numpy_integer_config_saves(self, tmp_path):
        # the config line is JSON, which has no numpy integers
        cfg = LstmConfig(embed_dim=np.int64(2), hidden_dim=2, layers=1, dropout_keep=1.0,
                         epochs=np.int32(1), seed=np.int64(2))
        assert type(cfg.embed_dim) is int and type(cfg.epochs) is int
        seqs = [["a", "b"] * 3 for _ in range(5)]
        path = tmp_path / "model.txt"
        train(seqs[:4], seqs[4:], cfg).save(path)
        assert SeqModel.load(path).config == cfg

    @pytest.mark.parametrize("name, cap", [
        ("embed_dim", lstm.MAX_WIDTH), ("hidden_dim", lstm.MAX_WIDTH),
        ("layers", lstm.MAX_LAYERS), ("bptt_steps", lstm.MAX_BPTT_STEPS),
        ("batch_size", lstm.MAX_BATCH_SIZE), ("epochs", lstm.MAX_EPOCHS),
    ])
    def test_sizes_capped(self, name, cap):
        assert getattr(LstmConfig(**{name: cap}), name) == cap
        with pytest.raises(ValueError, match=f"{name} must be <= {cap}"):
            LstmConfig(**{name: cap + 1})

    def test_caps_admit_zaremba_large(self):
        # 2 layers of 1500 units, 35 BPTT steps and batch 20 over the
        # 10,000-word Penn Treebank vocabulary plus UNK and EOS
        cfg = LstmConfig(embed_dim=1500, hidden_dim=1500, layers=2, bptt_steps=35,
                         batch_size=20)
        cfg.check_working_set(10_002)

    def test_working_set_bounded_before_allocation(self, monkeypatch):
        cfg = LstmConfig(embed_dim=4096, hidden_dim=4096, layers=16, **{
            k: v for k, v in FAST_CFG.items() if k not in ("embed_dim", "hidden_dim", "layers")})
        with pytest.raises(ValueError, match="past 268435456"):
            cfg.check_working_set(10)

        def no_init(*args):
            raise AssertionError("parameters allocated")

        monkeypatch.setattr(lstm, "_init_params", no_init)
        with pytest.raises(ValueError, match="past 268435456"):
            train([["a", "b"]] * 3, [], cfg)

    @pytest.mark.parametrize("name", ["lr", "lr_decay", "grad_clip"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            LstmConfig(**{name: value})


@pytest.fixture(scope="module")
def ab_model():
    seqs = alternating_sequences(n=12, length=200)
    tr, va, _ = split_by_vehicle(seqs, seed=5)
    return train(tr, va, LstmConfig(epochs=4, seed=3, **FAST_CFG))


class TestPredictNext:
    def test_distribution_sums_to_one(self, ab_model):
        probs = ab_model.next_distribution([])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()

    def test_alternation_argmax(self, ab_model):
        top = predict_next(ab_model, ["A", "B", "A"], top_k=1)
        assert top[0][0] == "B"
        top = predict_next(ab_model, ["A", "B"], top_k=1)
        assert top[0][0] == "A"

    def test_context_capped_at_window(self, ab_model):
        long_prefix = ["A", "B"] * 40
        short = long_prefix[-ab_model.config.bptt_steps:]
        np.testing.assert_array_equal(
            ab_model.next_distribution(long_prefix),
            ab_model.next_distribution(short),
        )

    def test_top_k_ranked(self, ab_model):
        ranked = predict_next(ab_model, ["A"], top_k=4)
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)
        assert len(ranked) == 4


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        seqs = [["a", "b", "c"] * 4 for _ in range(6)]
        cfg = LstmConfig(embed_dim=5, hidden_dim=7, layers=2, dropout_keep=0.9,
                         batch_size=2, epochs=2, seed=13)
        model = train(seqs[:4], seqs[4:], cfg)
        path = tmp_path / "model.txt"
        model.save(path)
        back = SeqModel.load(path)
        assert back.vocab == model.vocab
        assert back.config == model.config
        assert back.params.keys() == model.params.keys()
        for name in model.params:
            assert np.array_equal(back.params[name], model.params[name]), name

    def test_save_deterministic(self, tmp_path):
        seqs = [["a", "b"] * 5 for _ in range(5)]
        cfg = LstmConfig(embed_dim=4, hidden_dim=4, layers=1, dropout_keep=1.0,
                         epochs=1, seed=2)
        model = train(seqs[:4], seqs[4:], cfg)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_proper_prefix_rejected(self, tmp_path):
        seqs = [["a", "b"] * 3 for _ in range(5)]
        cfg = LstmConfig(embed_dim=2, hidden_dim=2, layers=1, dropout_keep=1.0,
                         epochs=1, seed=2)
        path = tmp_path / "model.txt"
        train(seqs[:4], seqs[4:], cfg).save(path)
        text = path.read_text()
        cut = tmp_path / "cut.txt"
        for n in range(len(text)):
            cut.write_text(text[:n])
            with pytest.raises(ValueError):
                SeqModel.load(cut)
        cut.write_text(text)
        assert SeqModel.load(cut).config == cfg

    @pytest.mark.parametrize("config_line", ['{"bogus": 1}', "[1, 2]", '{"embed_dim": "x"}'])
    def test_bad_config_line(self, tmp_path, config_line):
        path = tmp_path / "bad.txt"
        path.write_text(f'seqmodel v1\n{config_line}\n["a"]\nblocks 0\n')
        with pytest.raises(ValueError, match="config"):
            SeqModel.load(path)

    @pytest.mark.parametrize("config, message", [
        ('{"lr_constant_epochs": -5}', "lr_constant_epochs must be >= 0"),
        ('{"hidden_dim": 100000000}', "hidden_dim must be <= 4096"),
        ('{"epochs": 1000000000}', "epochs must be <= 1000"),
        ('{"layers": 16, "hidden_dim": 4096}', "past 268435456"),
        ('{"seed": -1}', "seed must be >= 0, got -1"),
        ('{"lr": true}', "lr must be a finite number, got True"),
        ('{"dropout_keep": "0.5"}', "dropout_keep must be a finite number, got '0.5'"),
    ])
    def test_config_out_of_range_rejected(self, tmp_path, config, message):
        path = tmp_path / "bad.txt"
        path.write_text(f'seqmodel v1\n{config}\n["a"]\nblocks 0\n')
        with pytest.raises(ValueError, match=message):
            SeqModel.load(path)

    @staticmethod
    def edit_first_value_line(tmp_path, edit):
        """Save a tiny model, apply ``edit`` to its first value line, return the path."""
        seqs = [["a", "b"] * 3 for _ in range(5)]
        cfg = LstmConfig(embed_dim=2, hidden_dim=2, layers=1, dropout_keep=1.0,
                         epochs=1, seed=2)
        path = tmp_path / "model.txt"
        train(seqs[:4], seqs[4:], cfg).save(path)
        lines = path.read_text().split("\n")
        assert lines[4].startswith("block ")
        lines[5] = edit(lines[5])
        path.write_text("\n".join(lines))
        return path

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "0x1p3", "1.0.0"])
    def test_bad_value_rejected(self, tmp_path, token):
        path = self.edit_first_value_line(
            tmp_path, lambda line: token + " " + line.split(" ", 1)[1])
        with pytest.raises(ValueError):
            SeqModel.load(path)

    def test_extra_value_rejected(self, tmp_path):
        path = self.edit_first_value_line(tmp_path, lambda line: line + " 0.5")
        with pytest.raises(ValueError, match="expected 8 values, found 9"):
            SeqModel.load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            SeqModel.load(path)


# ---------------------------------------------------------------------------
# step-by-step reference kernels
# ---------------------------------------------------------------------------


def sigmoid_oracle(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward_chunk_oracle(params, cfg, ids, state, drop_masks):
    """One time step at a time, every layer per step, one cache dict per step and layer."""
    steps, batch = ids.shape
    hidden = cfg.hidden_dim
    h_prev, c_prev = state
    caches = []
    log_probs = np.empty((steps, batch, params["out_b"].shape[0]))
    for t in range(steps):
        x = params["embedding"][ids[t]]
        if drop_masks is not None:
            x = x * drop_masks["input"][t]
        inp = x
        step_cache = []
        for layer in range(cfg.layers):
            z = (
                inp @ params[f"lstm{layer}_wx"]
                + h_prev[layer] @ params[f"lstm{layer}_wh"]
                + params[f"lstm{layer}_b"]
            )
            gate_i = sigmoid_oracle(z[:, :hidden])
            gate_f = sigmoid_oracle(z[:, hidden : 2 * hidden])
            gate_g = np.tanh(z[:, 2 * hidden : 3 * hidden])
            gate_o = sigmoid_oracle(z[:, 3 * hidden :])
            c = gate_f * c_prev[layer] + gate_i * gate_g
            tanh_c = np.tanh(c)
            h = gate_o * tanh_c
            step_cache.append(
                dict(
                    inp=inp,
                    h_prev=h_prev[layer],
                    c_prev=c_prev[layer],
                    i=gate_i,
                    f=gate_f,
                    g=gate_g,
                    o=gate_o,
                    tanh_c=tanh_c,
                )
            )
            h_prev[layer] = h
            c_prev[layer] = c
            out = h
            if drop_masks is not None:
                out = out * drop_masks["layer"][t][layer]
            step_cache[-1]["out_mask_applied"] = out
            inp = out
        logits = inp @ params["out_w"] + params["out_b"]
        log_probs[t] = _log_softmax(logits)
        caches.append(step_cache)
    return log_probs, caches, (h_prev, c_prev)


def backward_chunk_oracle(params, cfg, ids, targets, mask, log_probs, caches, drop_masks,
                          norm):
    """Step-by-step BPTT over the caches of :func:`forward_chunk_oracle`."""
    steps, batch = ids.shape
    hidden = cfg.hidden_dim
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_next = [np.zeros((batch, hidden)) for _ in range(cfg.layers)]
    dc_next = [np.zeros((batch, hidden)) for _ in range(cfg.layers)]
    for t in range(steps - 1, -1, -1):
        probs = np.exp(log_probs[t])
        dlogits = probs * mask[t][:, None]
        dlogits[np.arange(batch), targets[t]] -= mask[t]
        dlogits /= norm
        top_out = caches[t][-1]["out_mask_applied"]
        grads["out_w"] += top_out.T @ dlogits
        grads["out_b"] += dlogits.sum(axis=0)
        dinp = dlogits @ params["out_w"].T
        for layer in range(cfg.layers - 1, -1, -1):
            cache = caches[t][layer]
            if drop_masks is not None:
                dh = dinp * drop_masks["layer"][t][layer] + dh_next[layer]
            else:
                dh = dinp + dh_next[layer]
            do = dh * cache["tanh_c"]
            dc = dh * cache["o"] * (1.0 - cache["tanh_c"] ** 2) + dc_next[layer]
            di = dc * cache["g"]
            df = dc * cache["c_prev"]
            dg = dc * cache["i"]
            dc_next[layer] = dc * cache["f"]
            dz = np.concatenate(
                [
                    di * cache["i"] * (1.0 - cache["i"]),
                    df * cache["f"] * (1.0 - cache["f"]),
                    dg * (1.0 - cache["g"] ** 2),
                    do * cache["o"] * (1.0 - cache["o"]),
                ],
                axis=1,
            )
            grads[f"lstm{layer}_wx"] += cache["inp"].T @ dz
            grads[f"lstm{layer}_wh"] += cache["h_prev"].T @ dz
            grads[f"lstm{layer}_b"] += dz.sum(axis=0)
            dh_next[layer] = dz @ params[f"lstm{layer}_wh"].T
            dinp = dz @ params[f"lstm{layer}_wx"].T
        if drop_masks is not None:
            dinp = dinp * drop_masks["input"][t]
        np.add.at(grads["embedding"], ids[t], dinp)
    return grads


def assert_close(actual, expected, what, rel=1e-12, scale=None):
    """Max abs error over ``scale`` (default: the largest abs reference value)."""
    if scale is None:
        scale = np.abs(expected).max(initial=0.0)
    err = float(np.abs(actual - expected).max(initial=0.0)) / max(float(scale), 1e-300)
    assert err <= rel, f"{what}: relative error {err:.3e}"


@st.composite
def kernel_cases(draw):
    layers = draw(st.integers(1, 3))
    keep = draw(st.sampled_from([1.0, 0.6]))
    steps = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 4))
    cfg = LstmConfig(
        embed_dim=draw(st.integers(1, 5)), hidden_dim=draw(st.integers(1, 5)),
        layers=layers, dropout_keep=keep, bptt_steps=steps, batch_size=batch,
        seed=draw(st.integers(0, 2**16)),
    )
    vocab_size = draw(st.integers(3, 7))
    # per-column counts of real slots; column 0 has at least one
    lengths = [draw(st.integers(1 if b == 0 else 0, steps)) for b in range(batch)]
    carried = draw(st.booleans())
    use_norm = draw(st.booleans())
    return cfg, vocab_size, lengths, carried, use_norm


class TestKernelsMatchOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    # lstm0_wh differs here by 1.2e-12 of its own largest entry, a summation-
    # order rounding that stays far below the largest gradient entry
    @example((LstmConfig(embed_dim=1, hidden_dim=3, layers=2, dropout_keep=0.6, bptt_steps=3,
                         batch_size=4, seed=57470), 5, [1, 0, 0, 2], False, False))
    def test_forward_and_backward_match_step_by_step(self, case):
        cfg, vocab_size, lengths, carried, use_norm = case
        steps, batch = cfg.bptt_steps, cfg.batch_size
        rng = np.random.default_rng(cfg.seed)
        params = _init_params(cfg, vocab_size, rng)
        for name in params:
            params[name] = rng.uniform(-0.8, 0.8, size=params[name].shape)
        ids = rng.integers(0, vocab_size, size=(steps, batch))
        targets = rng.integers(0, vocab_size, size=(steps, batch))
        mask = (np.arange(steps)[:, None] < np.array(lengths)).astype(float)
        shape = (batch, cfg.hidden_dim)
        if carried:
            state = ([rng.uniform(-1, 1, shape) for _ in range(cfg.layers)],
                     [rng.uniform(-2, 2, shape) for _ in range(cfg.layers)])
        else:
            state = ([np.zeros(shape) for _ in range(cfg.layers)],
                     [np.zeros(shape) for _ in range(cfg.layers)])
        drop = _sample_drop_masks(cfg, rng, steps, batch)
        norm = float(steps * batch + 3) if use_norm else float(mask.sum())

        log_probs, caches, (h_out, c_out) = _forward_chunk(
            params, cfg, ids, copy.deepcopy(state), drop)
        ref_lp, ref_caches, (ref_h, ref_c) = forward_chunk_oracle(
            params, cfg, ids, copy.deepcopy(state), drop)
        assert_close(log_probs, ref_lp, "log-probs")
        for layer in range(cfg.layers):
            assert_close(h_out[layer], ref_h[layer], f"carried h{layer}")
            assert_close(c_out[layer], ref_c[layer], f"carried c{layer}")

        grads = _backward_chunk(params, cfg, ids, targets, mask, log_probs, caches, drop,
                                norm=norm)
        ref = backward_chunk_oracle(params, cfg, ids, targets, mask, ref_lp, ref_caches, drop,
                                    norm=norm)
        assert list(grads) == list(params)
        # summation-order rounding tracks the largest gradient entry, not the
        # largest entry of a block that may itself be small
        grad_scale = max(np.abs(g).max(initial=0.0) for g in ref.values())
        for name in params:
            assert grads[name].shape == params[name].shape, name
            assert_close(grads[name], ref[name], name, scale=grad_scale)


# train(...).history of GOLDEN_SEQS under GOLDEN_CFG, recorded with the
# step-by-step kernels above
GOLDEN_SEQS = [list(s) for s in [
    "abcabd", "abdc", "cab", "a", "bbcadcab", "dcba", "acbdabcd", "ba", "cabbad", "abcdabcdab",
]]
GOLDEN_CFG = dict(embed_dim=5, hidden_dim=6, layers=2, dropout_keep=0.8, bptt_steps=4,
                  batch_size=3, epochs=4, lr=0.9, lr_constant_epochs=2, lr_decay=0.5, seed=11)
GOLDEN_HISTORY = {
    "train_loss": [1.7691849559781567, 1.7005144732193422, 1.6717991281282274,
                   1.6638130564836413],
    "valid_perplexity": [5.452688676028218, 5.2210913015037015, 5.157799998629607,
                         5.132644119875572],
}


def test_training_history_matches_golden():
    model = train(GOLDEN_SEQS[:7], GOLDEN_SEQS[7:], LstmConfig(**GOLDEN_CFG))
    assert model.history.keys() == GOLDEN_HISTORY.keys()
    for key, expected in GOLDEN_HISTORY.items():
        np.testing.assert_allclose(model.history[key], expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# full-batch training and per-sequence evaluation references
# ---------------------------------------------------------------------------


def train_oracle(train_seqs, valid_seqs, cfg):
    """The training loop that runs every window on the whole batch, ended rows included."""
    rng = np.random.default_rng([cfg.seed, 0])
    vocab = Vocab.from_sequences(train_seqs)
    model = SeqModel(vocab, cfg, _init_params(cfg, vocab.size, rng))
    encoded_train = [vocab.encode(s) for s in train_seqs]
    best_ppl = np.inf
    best_params = None
    val_history, loss_history = [], []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at_epoch(epoch)
        order = rng.permutation(len(encoded_train))
        epoch_nll = 0.0
        epoch_items = 0
        for start in range(0, len(order), cfg.batch_size):
            group = [encoded_train[i] for i in order[start : start + cfg.batch_size]]
            ids, targets, mask = _pack_batch(group, vocab.eos)
            state = _zero_state(cfg, len(group))
            for lo in range(0, ids.shape[0], cfg.bptt_steps):
                hi = min(lo + cfg.bptt_steps, ids.shape[0])
                sub_mask = mask[lo:hi]
                if sub_mask.sum() == 0:
                    break
                drop = _sample_drop_masks(cfg, rng, hi - lo, len(group))
                log_probs, caches, state = _forward_chunk(
                    model.params, cfg, ids[lo:hi], state, drop)
                loss = _chunk_loss(sub_mask, targets[lo:hi], log_probs)
                epoch_nll += loss * sub_mask.sum()
                epoch_items += int(sub_mask.sum())
                grads = _backward_chunk(
                    model.params, cfg, ids[lo:hi], targets[lo:hi], sub_mask,
                    log_probs, caches, drop, norm=float(cfg.batch_size * cfg.bptt_steps))
                _clip_gradients(grads, cfg.grad_clip)
                for name, g in grads.items():
                    model.params[name] -= lr * g
        loss_history.append(epoch_nll / max(epoch_items, 1))
        if valid_seqs:
            val_ppl = perplexity(model, valid_seqs)
            val_history.append(val_ppl)
            if val_ppl < best_ppl:
                best_ppl = val_ppl
                best_params = {k: v.copy() for k, v in model.params.items()}
    if best_params is not None:
        model.params = best_params
    model.history = {"train_loss": loss_history, "valid_perplexity": val_history}
    return model


def perplexity_oracle(model, seqs):
    """exp(sum of NLLs / sum of items), each sequence scored alone in one full-length window."""
    total_nll = 0.0
    total_items = 0
    for seq in seqs:
        ids, targets, _ = _pack_batch([model.vocab.encode(seq)], model.vocab.eos)
        log_probs, _, _ = _forward_chunk(model.params, model.config, ids,
                                         _zero_state(model.config, 1), None)
        total_nll -= float(_target_log_probs(log_probs, targets).sum())
        total_items += ids.shape[0]
    return math.exp(total_nll / total_items)


label_seqs = st.lists(st.lists(st.sampled_from("abcd"), max_size=12), min_size=1, max_size=9)


@st.composite
def training_cases(draw):
    cfg = LstmConfig(
        embed_dim=draw(st.integers(1, 4)), hidden_dim=draw(st.integers(1, 5)),
        layers=draw(st.integers(1, 2)), dropout_keep=draw(st.sampled_from([0.7, 1.0])),
        bptt_steps=draw(st.integers(1, 4)), batch_size=draw(st.integers(1, 5)),
        epochs=draw(st.integers(1, 2)), lr=0.9, lr_constant_epochs=1, lr_decay=0.5,
        grad_clip=draw(st.sampled_from([0.1, 5.0])), seed=draw(st.integers(0, 2**16)),
    )
    train_seqs = draw(label_seqs.filter(lambda seqs: any(seqs)))
    return train_seqs, draw(label_seqs), cfg


class TestLiveRowWindows:
    # the "ab" row's 3 packed slots end exactly where the second window starts
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(training_cases())
    @example(([list("ab"), list("abcab")], [list("ba")],
              LstmConfig(embed_dim=3, hidden_dim=4, layers=2, dropout_keep=0.7, bptt_steps=3,
                         batch_size=2, epochs=2, lr=0.9, lr_constant_epochs=1, lr_decay=0.5,
                         seed=5)))
    def test_training_matches_full_batch_loop(self, case):
        train_seqs, valid_seqs, cfg = case
        model = train(train_seqs, valid_seqs, cfg)
        ref = train_oracle(train_seqs, valid_seqs, cfg)
        assert model.history.keys() == ref.history.keys()
        for key, values in ref.history.items():
            np.testing.assert_allclose(model.history[key], values, rtol=1e-12, atol=0)
        assert model.params.keys() == ref.params.keys()
        for name, value in ref.params.items():
            assert_close(model.params[name], value, name)

    # batches of 3 sequences with 3, 4 and 10 packed slots: only the longest
    # row is live in the windows starting at steps 4 and 8
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(label_seqs, st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**16))
    @example([list("ab"), list("abc"), list("abcdabcda")], 4, 3, 1)
    def test_perplexity_scores_each_sequence_alone(self, seqs, bptt_steps, batch_size, seed):
        cfg = LstmConfig(embed_dim=3, hidden_dim=4, layers=2, bptt_steps=bptt_steps,
                         batch_size=batch_size, seed=seed)
        vocab = Vocab.from_sequences([list("abc")])  # "d" is unseen and maps to UNK
        rng = np.random.default_rng(seed)
        params = {name: rng.uniform(-0.8, 0.8, size=shape)
                  for name, shape in _param_shapes(cfg, vocab.size).items()}
        model = SeqModel(vocab, cfg, params)
        assert perplexity(model, seqs) == pytest.approx(perplexity_oracle(model, seqs),
                                                        rel=1e-12)


# ---------------------------------------------------------------------------
# evaluation width and the window kernels' bits
# ---------------------------------------------------------------------------


@st.composite
def width_cases(draw):
    """A model with batch_size 1 and sequences whose lengths include 0, 1,
    bptt_steps and bptt_steps + 1; "d" is not in the vocabulary."""
    bptt = draw(st.integers(1, 5))
    cfg = LstmConfig(embed_dim=draw(st.integers(1, 4)), hidden_dim=draw(st.integers(1, 5)),
                     layers=draw(st.integers(1, 2)), bptt_steps=bptt, batch_size=1,
                     seed=draw(st.integers(0, 2**16)))
    length = st.sampled_from([0, 1, bptt, bptt + 1]) | st.integers(0, 3 * bptt + 1)
    seqs = draw(st.lists(length.flatmap(
        lambda n: st.lists(st.sampled_from("abcd"), min_size=n, max_size=n)), max_size=40))
    return cfg, seqs


class TestEvaluationWidth:
    # 40 sequences, more than EVAL_BATCH: lengths 0, 1, bptt_steps and
    # bptt_steps + 1, unknown labels, and one row left alone in its windows
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(width_cases())
    @example((LstmConfig(embed_dim=3, hidden_dim=4, layers=2, bptt_steps=4, batch_size=1,
                         seed=9),
              [[], list("a"), list("abcd"), list("dcbab"), list("abcabcabcabcab")] * 8))
    def test_nll_bits_do_not_depend_on_the_width(self, case):
        cfg, seqs = case
        vocab = Vocab.from_sequences([list("abc")])
        rng = np.random.default_rng(cfg.seed)
        params = {name: rng.uniform(-0.8, 0.8, size=shape)
                  for name, shape in _param_shapes(cfg, vocab.size).items()}
        model = SeqModel(vocab, cfg, params)
        results = set()
        for width in (1, 2, 3, 8, 32, max(len(seqs), 1)):
            with mock.patch.object(lstm, "EVAL_BATCH", width):
                total, items = model.nll(seqs)
            results.add((total.hex(), items))
        assert len(results) == 1, results

    def test_width_stays_within_the_working_set(self, monkeypatch):
        cfg = LstmConfig(embed_dim=3, hidden_dim=4, layers=1, bptt_steps=4, batch_size=3)
        vocab = Vocab.from_sequences([list("abc")])
        params = {name: np.zeros(shape) for name, shape in _param_shapes(cfg, vocab.size).items()}
        model = SeqModel(vocab, cfg, params)
        widths = []

        def pack_batch(encoded, eos):
            widths.append(len(encoded))
            return _pack_batch(encoded, eos)

        monkeypatch.setattr(lstm, "_pack_batch", pack_batch)
        model.nll([list("ab")] * 40)
        assert widths == [32, 8]
        # the config is admitted at batch 3, where a window of 4 rows would not fit
        fixed, per_row = cfg._working_floats(vocab.size)
        monkeypatch.setattr(lstm, "MAX_WORKING_FLOATS", fixed + 3 * per_row)
        cfg.check_working_set(vocab.size)
        widths.clear()
        model.nll([list("ab")] * 10)
        assert widths == [3, 3, 3, 1]


class TestWindowGradientBits:
    # sequences of 2, 3 and 12 labels (3, 4 and 13 packed slots) in windows
    # of 4 steps: ids repeat (a, b and EOS only), and the last three windows
    # have one live row
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("keep", [1.0, 0.6])
    def test_gradients_match_the_copying_kernel(self, layers, keep):
        cfg = LstmConfig(embed_dim=3, hidden_dim=5, layers=layers, dropout_keep=keep,
                         bptt_steps=4, batch_size=3, seed=4)
        vocab = Vocab.from_sequences([list("ab")])
        rng = np.random.default_rng(cfg.seed)
        params = {name: rng.uniform(-0.8, 0.8, size=shape)
                  for name, shape in _param_shapes(cfg, vocab.size).items()}
        encoded = [vocab.encode(list(s)) for s in ("ab", "bab", "abbabaabbaba")]
        ids, targets, mask = _pack_batch(encoded, vocab.eos)
        live = []
        for rows, ids_w, targets_w, mask_w, log_probs, caches, drop in lstm._live_windows(
                params, cfg, ids, targets, mask, np.random.default_rng(1)):
            live.append(len(rows))
            args = (params, cfg, ids_w, targets_w, mask_w, log_probs, caches, drop, 12.0)
            grads, ref = _backward_chunk(*args), backward_chunk_copying(*args)
            assert list(grads) == list(ref)
            for name, value in ref.items():
                assert grads[name].tobytes() == value.tobytes(), name
        assert live == [3, 1, 1, 1]
