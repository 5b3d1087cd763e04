"""From-scratch LSTM next-system predictor over per-vehicle job sequences.

A stacked LSTM with an embedding layer and a softmax head, trained by plain
SGD on truncated backpropagation-through-time windows (20 items by default)
with gradient-norm clipping and dropout on the non-recurrent connections
only. Every sequence is one vehicle and is never concatenated with another;
a reserved EOS token both marks the start of a sequence and is itself
predicted at the end, so models assign a proper probability to a complete
sequence. Labels unseen at training time map to a reserved UNK token.

All arithmetic is float64 and all randomness flows from the config seed, so
training twice with the same inputs is bitwise reproducible at a fixed BLAS
thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .knobs import Checked, Seeded, json_form
from .tensor import FloatBlock, FormatReader, write_floats, writing

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


class TrainingDiverged(ValueError):
    """Raised when a training loss, gradient norm or validation perplexity is not finite."""


@dataclass(frozen=True)
class Vocab(Checked):
    """Label-to-index map over training labels plus reserved UNK and EOS."""

    labels: tuple[str, ...]

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[str]]) -> "Vocab":
        return cls(labels=tuple(sorted({lab for seq in sequences for lab in seq})))

    @property
    def unk(self) -> int:
        return len(self.labels)

    @property
    def eos(self) -> int:
        return len(self.labels) + 1

    @property
    def size(self) -> int:
        return len(self.labels) + 2

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def encode(self, seq: Sequence[str]) -> np.ndarray:
        index, unk = self._index, self.unk
        return np.array([index.get(lab, unk) for lab in seq], dtype=np.int64)

    def token_label(self, idx: int) -> str:
        if idx == self.unk:
            return UNK_TOKEN
        if idx == self.eos:
            return EOS_TOKEN
        return self.labels[idx]


# caps well above Zaremba et al. 2014's largest model (2 layers of 1500 units,
# 35 BPTT steps, batch 20, 55 epochs); a larger value is a config error
MAX_WIDTH = 1 << 12  # embed_dim and hidden_dim
MAX_LAYERS = 16
MAX_BPTT_STEPS = 1000
MAX_BATCH_SIZE = 1 << 12
MAX_EPOCHS = 1000
# floats of the working set that LstmConfig.check_working_set bounds: 2 GiB,
# which admits that model over its 10,000-word vocabulary (about 2.3e8)
MAX_TRAINING_FLOATS = 1 << 28
EVAL_BATCH = 32  # least rows of an evaluation batch: wider ones ran no faster
_MAGIC = "seqmodel v1"
_VALUES_PER_LINE = 8


@dataclass(frozen=True)
class LstmConfig(Seeded):
    embed_dim: int = field(default=32, metadata=dict(ge=1, le=MAX_WIDTH))
    hidden_dim: int = field(default=64, metadata=dict(ge=1, le=MAX_WIDTH))
    layers: int = field(default=2, metadata=dict(ge=1, le=MAX_LAYERS))
    dropout_keep: float = field(default=0.75, metadata=dict(gt=0, le=1))
    bptt_steps: int = field(default=20, metadata=dict(ge=1, le=MAX_BPTT_STEPS))
    batch_size: int = field(default=8, metadata=dict(ge=1, le=MAX_BATCH_SIZE))
    epochs: int = field(default=20, metadata=dict(ge=1, le=MAX_EPOCHS))
    lr: float = field(default=1.0, metadata=dict(gt=0))
    lr_constant_epochs: int = field(default=6, metadata=dict(ge=0))
    lr_decay: float = field(default=0.7, metadata=dict(gt=0))
    grad_clip: float = field(default=5.0, metadata=dict(gt=0))

    def _working_floats(self, vocab_size: int) -> tuple[int, int]:
        """Floats of the working set over ``vocab_size`` tokens: three copies of the parameters
        (the weights, their gradients and the best validation snapshot), and about one BPTT
        window's caches per row."""
        params = sum(math.prod(shape) for shape in _param_shapes(self, vocab_size).values())
        # per step and row: each layer's input, gates, h, c and tanh(c), and
        # the head's log-probabilities and their gradient
        slot = self.layers * (max(self.embed_dim, self.hidden_dim) + 7 * self.hidden_dim)
        return 3 * params, self.bptt_steps * (slot + 2 * vocab_size)

    def check_working_set(self, vocab_size: int) -> None:
        """Raise ValueError when training over ``vocab_size`` tokens, ``batch_size`` rows
        a window, would hold more than ``MAX_TRAINING_FLOATS`` floats (:meth:`_working_floats`)."""
        fixed, per_row = self._working_floats(vocab_size)
        working = fixed + self.batch_size * per_row
        if working > MAX_TRAINING_FLOATS:
            raise ValueError(
                f"a {self.layers}x{self.hidden_dim} LSTM with embed_dim {self.embed_dim} over "
                f"{vocab_size} tokens needs {working} floats of parameters, gradients and "
                f"caches, past {MAX_TRAINING_FLOATS}"
            )

    def lr_at_epoch(self, epoch: int) -> float:
        """Learning rate for a 0-based epoch index."""
        return self.lr * self.lr_decay ** max(0, epoch + 1 - self.lr_constant_epochs)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _param_shapes(cfg: LstmConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter block, in initialization order."""
    gates = 4 * cfg.hidden_dim
    shapes = {"embedding": (vocab_size, cfg.embed_dim)}
    for layer in range(cfg.layers):
        in_dim = cfg.embed_dim if layer == 0 else cfg.hidden_dim
        shapes[f"lstm{layer}_wx"] = (in_dim, gates)
        shapes[f"lstm{layer}_wh"] = (cfg.hidden_dim, gates)
        shapes[f"lstm{layer}_b"] = (gates,)
    shapes["out_w"] = (cfg.hidden_dim, vocab_size)
    shapes["out_b"] = (vocab_size,)
    return shapes


def _init_params(cfg: LstmConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    scale = 0.1
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg, vocab_size).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.uniform(-scale, scale, size=shape)
    for layer in range(cfg.layers):  # forget gate open at init
        params[f"lstm{layer}_b"][cfg.hidden_dim : 2 * cfg.hidden_dim] = 1.0
    return params


def _pack_batch(encoded: list[np.ndarray], eos: int):
    """Inputs/targets/mask arrays of shape (T, B) for one padded batch.

    Inputs are [EOS, x1, ..., xn]; targets are [x1, ..., xn, EOS]; the mask
    marks real prediction slots. Padding rows keep EOS inputs and mask 0.
    """
    batch = len(encoded)
    lengths = [s.shape[0] + 1 for s in encoded]
    horizon = max(lengths)
    ids = np.full((horizon, batch), eos, dtype=np.int64)
    targets = np.zeros((horizon, batch), dtype=np.int64)
    mask = np.zeros((horizon, batch))
    for b, seq in enumerate(encoded):
        n = seq.shape[0]
        ids[1 : n + 1, b] = seq
        targets[:n, b] = seq
        targets[n, b] = eos
        mask[: n + 1, b] = 1.0
    return ids, targets, mask


def _forward_chunk(params, cfg, ids, state, drop_masks):
    """Run one BPTT window layer by layer; returns log-probs, caches and the carried state.

    Each layer projects its whole (T, B) input with one GEMM and keeps only
    ``h @ Wh`` and the cell update in its time loop; the head is one GEMM.
    """
    steps, batch = ids.shape
    hidden = cfg.hidden_dim
    # gate columns are [i, f, g, o]; sigmoid(z) = (1 + tanh(z/2)) / 2, so one
    # tanh serves all four: the i, f and o columns are halved before it (by
    # halving their weights, which is exact) and mapped by a/2 + 1/2 after it
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    offset = 1.0 - scale
    inp = params["embedding"][ids]
    if drop_masks is not None:
        inp = inp * drop_masks["input"]
    layer_caches, h_out, c_out = [], [], []
    for layer in range(cfg.layers):
        wx = params[f"lstm{layer}_wx"] * scale
        wh = params[f"lstm{layer}_wh"] * scale
        bias = params[f"lstm{layer}_b"] * scale
        gates = (inp.reshape(steps * batch, -1) @ wx + bias).reshape(steps, batch, 4 * hidden)
        # hs[t] and cs[t] are the state entering step t; hs[0], cs[0] the carried one
        hs = np.empty((steps + 1, batch, hidden))
        cs = np.empty((steps + 1, batch, hidden))
        tanh_c = np.empty((steps, batch, hidden))
        hs[0] = state[0][layer]
        cs[0] = state[1][layer]
        gate_i, gate_f, gate_g, gate_o = (gates[:, :, k * hidden : (k + 1) * hidden]
                                          for k in range(4))
        for t in range(steps):
            z = gates[t]
            z += hs[t] @ wh
            np.tanh(z, out=z)
            z *= scale
            z += offset
            np.multiply(gate_f[t], cs[t], out=cs[t + 1])
            cs[t + 1] += gate_i[t] * gate_g[t]
            np.tanh(cs[t + 1], out=tanh_c[t])
            np.multiply(gate_o[t], tanh_c[t], out=hs[t + 1])
        layer_caches.append((inp, hs, cs, gates, tanh_c))
        h_out.append(hs[-1])
        c_out.append(cs[-1])
        inp = hs[1:]
        if drop_masks is not None:
            inp = inp * drop_masks["layer"][:, layer]
    logits = inp.reshape(steps * batch, hidden) @ params["out_w"] + params["out_b"]
    log_probs = _log_softmax(logits).reshape(steps, batch, -1)
    return log_probs, (layer_caches, inp), (h_out, c_out)


def _backward_chunk(params, cfg, ids, targets, mask, log_probs, caches, drop_masks,
                    norm: float):
    """Gradients of the masked cross-entropy over one window.

    ``norm`` divides the summed per-token gradients. Training passes the
    constant batch_size * bptt_steps so every token in the epoch carries the
    same weight regardless of how full its window is; the window's own token
    count, ``mask.sum()``, gives the gradient of :func:`_chunk_loss`'s mean.
    The gradients come back in ``params`` order.
    """
    steps, batch = ids.shape
    slots = steps * batch
    hidden = cfg.hidden_dim
    layer_caches, top = caches
    grads = dict.fromkeys(params)
    dlogits = np.exp(log_probs) * mask[:, :, None]
    dlogits[np.arange(steps)[:, None], np.arange(batch), targets] -= mask
    dlogits /= norm
    dlogits = dlogits.reshape(slots, -1)
    grads["out_w"] = top.reshape(slots, hidden).T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dinp = dlogits @ params["out_w"].T
    for layer in range(cfg.layers - 1, -1, -1):
        inp, hs, cs, gates, tanh_c = layer_caches[layer]
        dh_in = dinp.reshape(steps, batch, hidden)
        if drop_masks is not None:
            dh_in = dh_in * drop_masks["layer"][:, layer]
        gate_i, gate_f, gate_g, gate_o = (gates[:, :, k * hidden : (k + 1) * hidden]
                                          for k in range(4))
        # window-wide factors: dc = dh * dc_dh + dc_next, the i, f and g
        # columns of dz are dc * dz_dc and the o column is dh * dzo_dh
        dc_dh = gate_o * (1.0 - tanh_c**2)
        dz_dc = np.empty((steps, batch, 3, hidden))
        np.multiply(gate_g * gate_i, 1.0 - gate_i, out=dz_dc[:, :, 0])
        np.multiply(cs[:-1] * gate_f, 1.0 - gate_f, out=dz_dc[:, :, 1])
        np.multiply(gate_i, 1.0 - gate_g**2, out=dz_dc[:, :, 2])
        dzo_dh = tanh_c * gate_o * (1.0 - gate_o)
        wh_t = params[f"lstm{layer}_wh"].T
        dz = np.empty((steps, batch, 4, hidden))
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            dh = dh_in[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            np.multiply(dc[:, None, :], dz_dc[t], out=dz[t, :, :3])
            np.multiply(dh, dzo_dh[t], out=dz[t, :, 3])
            dc_next = dc * gate_f[t]
            dh_next = dz[t].reshape(batch, 4 * hidden) @ wh_t
        dz = dz.reshape(slots, 4 * hidden)
        grads[f"lstm{layer}_wx"] = inp.reshape(slots, -1).T @ dz
        grads[f"lstm{layer}_wh"] = hs[:-1].reshape(slots, hidden).T @ dz
        grads[f"lstm{layer}_b"] = dz.sum(axis=0)
        dinp = dz @ params[f"lstm{layer}_wx"].T
    if drop_masks is not None:
        dinp = dinp * drop_masks["input"].reshape(slots, -1)
    # one bin per (id, column), summed in row order from +0.0 as np.add.at does
    vocab, embed = params["embedding"].shape
    bins = (ids.reshape(-1, 1) * embed + np.arange(embed)).ravel()
    grads["embedding"] = np.bincount(bins, weights=dinp.ravel(),
                                     minlength=vocab * embed).reshape(vocab, embed)
    return grads


def _target_log_probs(log_probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(T, B) log-probabilities of the targets."""
    steps, batch = targets.shape
    return log_probs[np.arange(steps)[:, None], np.arange(batch), targets]


def _chunk_loss(mask, targets, log_probs) -> float:
    n = float(mask.sum())
    return -float((_target_log_probs(log_probs, targets) * mask).sum()) / n if n else 0.0


def _sample_drop_masks(cfg, rng, steps, batch):
    if cfg.dropout_keep >= 1.0:
        return None
    keep = cfg.dropout_keep
    return {
        "input": (rng.random((steps, batch, cfg.embed_dim)) < keep) / keep,
        "layer": (rng.random((steps, cfg.layers, batch, cfg.hidden_dim)) < keep) / keep,
    }


def _live_windows(params, cfg, ids, targets, mask, rng=None):
    """Run the forward pass of a packed batch one BPTT window at a time.

    A window runs only on its live rows, those whose sequence has not ended
    before its first step: every later slot of an ended row is padding, so
    the row adds nothing to the loss or the gradients. The state carried
    between windows is sliced as rows drop out. With ``rng``, every window
    draws dropout masks for the whole batch and keeps the live rows' part,
    so a row's draws do not depend on which other rows are live.

    Yields ``(rows, ids, targets, mask, log_probs, caches, drop)`` per window,
    where ``rows`` indexes the live rows in the batch and the arrays are
    restricted to the window and those rows. ``params`` is read at every
    window, so updates made between windows take effect.
    """
    horizon, batch = ids.shape
    lengths = np.count_nonzero(mask, axis=0)
    rows = np.arange(batch)
    state = _zero_state(cfg, batch)
    for lo in range(0, horizon, cfg.bptt_steps):
        hi = min(lo + cfg.bptt_steps, horizon)
        live = lengths[rows] > lo
        if not live.all():
            rows = rows[live]
            state = ([h[live] for h in state[0]], [c[live] for c in state[1]])
        drop = None if rng is None else _sample_drop_masks(cfg, rng, hi - lo, batch)
        if drop is not None:
            drop = {"input": drop["input"][:, rows], "layer": drop["layer"][:, :, rows]}
        window_ids = ids[lo:hi, rows]
        log_probs, caches, state = _forward_chunk(params, cfg, window_ids, state, drop)
        yield (rows, window_ids, targets[lo:hi, rows], mask[lo:hi, rows], log_probs, caches,
               drop)


def _clip_gradients(grads, max_norm: float) -> float:
    """Scale the gradients down to norm ``max_norm``; returns the norm before."""
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _check_finite(value: float, quantity: str, epoch: int, lr: float) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {quantity} at epoch {epoch + 1}, lr={lr}: {value}")


class SeqModel:
    """Trained LSTM with its vocabulary and config snapshot."""

    def __init__(self, vocab: Vocab, config: LstmConfig, params: dict[str, np.ndarray]):
        self.vocab = vocab
        self.config = config
        self.params = params
        self.history: dict[str, list[float]] = {}

    # -- evaluation ---------------------------------------------------------

    def nll(self, seqs: list[Sequence[str]]) -> tuple[float, int]:
        """Total negative log-likelihood and item count (EOS included), dropout disabled.

        Batches hold sequences of similar length (a stable sort by length), ``EVAL_BATCH`` or
        ``batch_size`` of them, but no more than a window's working set admits. Each sequence's
        NLL is summed in time order and the sequences' totals are added in input order, so the
        total does not depend on how the batches are formed.
        """
        cfg = self.config
        fixed, per_row = cfg._working_floats(self.vocab.size)
        width = max(cfg.batch_size, min(EVAL_BATCH, (MAX_TRAINING_FLOATS - fixed) // per_row))
        encoded = [self.vocab.encode(s) for s in seqs]
        order = np.argsort([s.shape[0] for s in encoded], kind="stable")
        seq_nll = np.zeros(len(encoded))
        for start in range(0, len(order), width):
            group = order[start : start + width]
            ids, targets, mask = _pack_batch([encoded[i] for i in group], self.vocab.eos)
            nll = np.zeros(len(group))
            for rows, _, targets_w, mask_w, log_probs, _, _ in _live_windows(
                    self.params, cfg, ids, targets, mask):
                # cumsum from the carried total adds one step at a time
                item_nll = -_target_log_probs(log_probs, targets_w) * mask_w
                nll[rows] = np.cumsum(np.vstack([nll[rows], item_nll]), axis=0)[-1]
            seq_nll[group] = nll
        total_items = sum(s.shape[0] + 1 for s in encoded)
        return float(np.cumsum(seq_nll)[-1]) if encoded else 0.0, total_items

    def next_distribution(self, prefix: Sequence[str]) -> np.ndarray:
        """Probability distribution over the vocabulary for the next item.

        Context is capped at the trailing ``bptt_steps`` items of the prefix.
        """
        capped = list(prefix)[-self.config.bptt_steps :]
        ids = np.concatenate(
            [np.array([self.vocab.eos], dtype=np.int64), self.vocab.encode(capped)]
        )[:, None]
        state = _zero_state(self.config, 1)
        log_probs, _, _ = _forward_chunk(self.params, self.config, ids, state, None)
        return np.exp(log_probs[-1, 0])

    # -- serialization ------------------------------------------------------

    def save(self, path) -> None:
        with writing(path) as fh:
            fh.write(_MAGIC + "\n")
            fh.write(json.dumps(self.config, default=json_form, sort_keys=True) + "\n")
            fh.write(json.dumps(list(self.vocab.labels)) + "\n")
            fh.write(f"blocks {len(self.params)}\n")
            for name, arr in sorted(self.params.items()):
                fh.write(f"block {name} {arr.ndim} {' '.join(map(str, arr.shape))}\n")
                write_floats(fh, FloatBlock.of(arr), _VALUES_PER_LINE)

    @classmethod
    def load(cls, path) -> "SeqModel":
        with FormatReader.open(path, _MAGIC) as reader:
            config = _json_line(reader, lambda values: LstmConfig(**values))
            vocab = _json_line(reader, Vocab)
            config.check_working_set(vocab.size)
            # the blocks save writes for this config and vocabulary, by name
            expected = sorted(_param_shapes(config, vocab.size).items())
            n_blocks, = reader.integers("blocks")
            if n_blocks != len(expected):
                raise ValueError(f"seqmodel declares {n_blocks} blocks, its config needs "
                                 f"{len(expected)}")
            params = {}
            for name, shape in expected:
                header = reader.fields("block")
                if header != [name, str(len(shape)), *map(str, shape)]:
                    raise ValueError(f"seqmodel block line {' '.join(header)!r} does not match "
                                     f"the config and vocabulary, which need block {name} {shape}")
                block = reader.floats(math.prod(shape), f"block {name}", _VALUES_PER_LINE)
                params[name] = block.dense().reshape(shape)
            reader.end()
            return cls(vocab=vocab, config=config, params=params)


def _json_line(reader, build):
    """``build`` applied to the JSON value of the reader's next line."""
    line = reader.line()
    try:
        return build(json.loads(line))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed seqmodel config or vocab: {exc}") from None


def _zero_state(cfg: LstmConfig, batch: int):
    h = [np.zeros((batch, cfg.hidden_dim)) for _ in range(cfg.layers)]
    c = [np.zeros((batch, cfg.hidden_dim)) for _ in range(cfg.layers)]
    return h, c


def split_by_vehicle(items: list, seed: int) -> tuple[list, list, list]:
    """Disjoint 50/25/25 split (train keeps the rounding remainder)."""
    n = len(items)
    if n < 4:
        raise ValueError(f"need at least 4 sequences to split, got {n}")
    n_valid = n // 4
    n_test = n // 4
    n_train = n - n_valid - n_test
    perm = np.random.default_rng(seed).permutation(n)
    train = [items[i] for i in perm[:n_train]]
    valid = [items[i] for i in perm[n_train : n_train + n_valid]]
    test = [items[i] for i in perm[n_train + n_valid :]]
    return train, valid, test


# warnings off: a nan or inf that an overflow leads to raises TrainingDiverged
@np.errstate(all="ignore")
def train(
    train_seqs: list[Sequence[str]],
    valid_seqs: list[Sequence[str]],
    cfg: LstmConfig,
) -> SeqModel:
    """SGD training with truncated BPTT; returns the best-validation model."""
    rng = np.random.default_rng([cfg.seed, 0])
    vocab = Vocab.from_sequences(train_seqs)
    cfg.check_working_set(vocab.size)
    model = SeqModel(vocab, cfg, _init_params(cfg, vocab.size, rng))
    encoded_train = [vocab.encode(s) for s in train_seqs]

    best_ppl = np.inf
    best_params = None
    val_history: list[float] = []
    loss_history: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at_epoch(epoch)
        order = rng.permutation(len(encoded_train))
        epoch_nll = 0.0
        epoch_items = 0
        for start in range(0, len(order), cfg.batch_size):
            group = [encoded_train[i] for i in order[start : start + cfg.batch_size]]
            ids, targets, mask = _pack_batch(group, vocab.eos)
            for _, ids_w, targets_w, mask_w, log_probs, caches, drop in _live_windows(
                    model.params, cfg, ids, targets, mask, rng):
                loss, items = _chunk_loss(mask_w, targets_w, log_probs), mask_w.sum()
                _check_finite(loss, "loss", epoch, lr)
                epoch_nll += loss * items
                epoch_items += int(items)
                grads = _backward_chunk(
                    model.params, cfg, ids_w, targets_w, mask_w, log_probs, caches, drop,
                    norm=float(cfg.batch_size * cfg.bptt_steps),
                )
                _check_finite(_clip_gradients(grads, cfg.grad_clip), "gradient norm", epoch, lr)
                for name, g in grads.items():
                    model.params[name] -= lr * g
        loss_history.append(epoch_nll / max(epoch_items, 1))
        if valid_seqs:
            val_ppl = perplexity(model, valid_seqs)
            _check_finite(val_ppl, "validation perplexity", epoch, lr)
            val_history.append(val_ppl)
            if val_ppl < best_ppl:
                best_ppl = val_ppl
                best_params = {k: v.copy() for k, v in model.params.items()}
    if best_params is not None:
        model.params = best_params
    model.history = {"train_loss": loss_history, "valid_perplexity": val_history}
    return model


# warnings off: a model whose weights overflow gets a nan or inf perplexity,
# which its callers reject
@np.errstate(all="ignore")
def perplexity(model, seqs: list[Sequence[str]]) -> float:
    """exp of the mean negative log-probability per predicted item (EOS included),
    from ``model.nll``: a SeqModel's or a UnigramModel's."""
    total_nll, total_items = model.nll(seqs)
    return float(np.exp(total_nll / total_items))


class UnigramModel:
    """Position-independent add-1 frequency baseline over the same vocabulary."""

    def __init__(self, vocab: Vocab, log_probs: np.ndarray):
        self.vocab = vocab
        self.log_probs = log_probs

    def nll(self, seqs: list[Sequence[str]]) -> tuple[float, int]:
        """Total negative log-likelihood and item count (EOS included)."""
        total_nll = 0.0
        total_items = 0
        for seq in seqs:
            lp = self.log_probs[np.concatenate([self.vocab.encode(seq), [self.vocab.eos]])]
            total_nll -= float(lp.sum())
            total_items += lp.shape[0]
        return total_nll, total_items


def unigram_baseline(train_seqs: list[Sequence[str]]) -> UnigramModel:
    vocab = Vocab.from_sequences(train_seqs)
    targets = [vocab.encode(seq) for seq in train_seqs] + [np.full(len(train_seqs), vocab.eos)]
    counts = np.bincount(np.concatenate(targets), minlength=vocab.size).astype(float)
    probs = (counts + 1.0) / (counts.sum() + vocab.size)
    return UnigramModel(vocab, np.log(probs))


def predict_next(model: SeqModel, prefix: Sequence[str], top_k: int) -> list[tuple[str, float]]:
    """Ranked (label, probability) list for the next item after ``prefix``."""
    probs = model.next_distribution(prefix)
    order = np.lexsort((np.arange(probs.shape[0]), -probs))
    return [(model.vocab.token_label(int(i)), float(probs[i])) for i in order[:top_k]]
