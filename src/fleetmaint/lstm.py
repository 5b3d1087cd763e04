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
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .tensor import parse_floats, write_floats

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class Vocab:
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


@dataclass
class LstmConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    layers: int = 2
    dropout_keep: float = 0.75
    bptt_steps: int = 20
    batch_size: int = 8
    epochs: int = 20
    lr: float = 1.0
    lr_constant_epochs: int = 6
    lr_decay: float = 0.7
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("embed_dim", "hidden_dim", "layers", "bptt_steps", "batch_size", "epochs",
                     "lr_constant_epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config field {name} must be an integer, got {value!r}")
        for name in ("embed_dim", "hidden_dim", "layers", "bptt_steps", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.dropout_keep <= 1:
            raise ValueError("dropout_keep must be in (0, 1]")
        if not all(0 < v < math.inf for v in (self.lr, self.lr_decay, self.grad_clip)):
            raise ValueError("lr, lr_decay and grad_clip must be positive and finite")

    def lr_at_epoch(self, epoch: int) -> float:
        """Learning rate for a 0-based epoch index."""
        return self.lr * self.lr_decay ** max(0, epoch + 1 - self.lr_constant_epochs)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _init_params(cfg: LstmConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    scale = 0.1
    params: dict[str, np.ndarray] = {
        "embedding": rng.uniform(-scale, scale, size=(vocab_size, cfg.embed_dim))
    }
    for layer in range(cfg.layers):
        in_dim = cfg.embed_dim if layer == 0 else cfg.hidden_dim
        params[f"lstm{layer}_wx"] = rng.uniform(-scale, scale, size=(in_dim, 4 * cfg.hidden_dim))
        params[f"lstm{layer}_wh"] = rng.uniform(-scale, scale, size=(cfg.hidden_dim, 4 * cfg.hidden_dim))
        bias = np.zeros(4 * cfg.hidden_dim)
        bias[cfg.hidden_dim : 2 * cfg.hidden_dim] = 1.0  # forget gate open at init
        params[f"lstm{layer}_b"] = bias
    params["out_w"] = rng.uniform(-scale, scale, size=(cfg.hidden_dim, vocab_size))
    params["out_b"] = np.zeros(vocab_size)
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
        gate_i, gate_f, gate_g, gate_o = np.split(gates, 4, axis=2)
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
                    norm: float | None = None):
    """Gradients of the masked cross-entropy over one window.

    ``norm`` divides the summed per-token gradients. Training passes the
    constant batch_size * bptt_steps so every token in the epoch carries the
    same weight regardless of how full its window is; by default the window's
    own token count is used, matching the mean loss of :func:`_chunk_loss`.
    The gradients come back in ``params`` order.
    """
    steps, batch = ids.shape
    slots = steps * batch
    hidden = cfg.hidden_dim
    n_items = norm if norm is not None else mask.sum()
    layer_caches, top = caches
    grads = dict.fromkeys(params)
    dlogits = np.exp(log_probs) * mask[:, :, None]
    dlogits[np.arange(steps)[:, None], np.arange(batch), targets] -= mask
    dlogits /= n_items
    dlogits = dlogits.reshape(slots, -1)
    grads["out_w"] = top.reshape(slots, hidden).T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dinp = dlogits @ params["out_w"].T
    for layer in range(cfg.layers - 1, -1, -1):
        inp, hs, cs, gates, tanh_c = layer_caches[layer]
        dh_in = dinp.reshape(steps, batch, hidden)
        if drop_masks is not None:
            dh_in = dh_in * drop_masks["layer"][:, layer]
        gate_i, gate_f, gate_g, gate_o = np.split(gates, 4, axis=2)
        # window-wide factors: dc = dh * dc_dh + dc_next, the i, f and g
        # columns of dz are dc * dz_dc and the o column is dh * dzo_dh
        dc_dh = gate_o * (1.0 - tanh_c**2)
        dz_dc = np.stack([gate_g * gate_i * (1.0 - gate_i), cs[:-1] * gate_f * (1.0 - gate_f),
                          gate_i * (1.0 - gate_g**2)], axis=2)
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
    grads["embedding"] = np.zeros_like(params["embedding"])
    np.add.at(grads["embedding"], ids.ravel(), dinp)
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


def _clip_gradients(grads, max_norm: float) -> None:
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


class SeqModel:
    """Trained LSTM with its vocabulary and config snapshot."""

    def __init__(self, vocab: Vocab, config: LstmConfig, params: dict[str, np.ndarray]):
        self.vocab = vocab
        self.config = config
        self.params = params
        self.history: dict[str, list[float]] = {}

    # -- evaluation ---------------------------------------------------------

    def _run_eval(self, encoded: list[np.ndarray]) -> tuple[float, int]:
        """Total negative log-likelihood and item count, dropout disabled."""
        cfg = self.config
        step_nll = []
        total_items = 0
        for start in range(0, len(encoded), cfg.batch_size):
            group = encoded[start : start + cfg.batch_size]
            ids, targets, mask = _pack_batch(group, self.vocab.eos)
            state = _zero_state(cfg, len(group))
            log_probs, _, _ = _forward_chunk(self.params, cfg, ids, state, None)
            step_nll.append((_target_log_probs(log_probs, targets) * mask).sum(axis=1))
            total_items += int(mask.sum())
        # cumsum adds the per-step totals one at a time, in window order, so
        # the perplexity keeps the last bits of a plain running total
        return -float(np.cumsum(np.concatenate(step_nll))[-1]), total_items

    def log_prob_items(self, seq: Sequence[str]) -> np.ndarray:
        """Log-probability of each predicted item of one sequence, EOS included."""
        encoded = self.vocab.encode(seq)
        ids, targets, mask = _pack_batch([encoded], self.vocab.eos)
        state = _zero_state(self.config, 1)
        log_probs, _, _ = _forward_chunk(self.params, self.config, ids, state, None)
        return _target_log_probs(log_probs, targets)[:, 0]

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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seqmodel v1\n")
            fh.write(json.dumps(asdict(self.config), sort_keys=True) + "\n")
            fh.write(json.dumps(list(self.vocab.labels)) + "\n")
            fh.write(f"blocks {len(self.params)}\n")
            for name in sorted(self.params):
                arr = self.params[name]
                dims = " ".join(str(d) for d in arr.shape)
                fh.write(f"block {name} {arr.ndim} {dims}\n")
                write_floats(fh, arr, 8)

    @classmethod
    def load(cls, path) -> "SeqModel":
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != "seqmodel v1":
                raise ValueError("not a seqmodel file")
            try:
                config = LstmConfig(**json.loads(fh.readline()))
                vocab = Vocab(labels=tuple(json.loads(fh.readline())))
            except TypeError as exc:
                raise ValueError(f"malformed seqmodel config or vocab: {exc}") from None
            n_blocks = int(_read_fields(fh, "blocks", 2)[1])
            params = {}
            for _ in range(n_blocks):
                header = _read_fields(fh, "block", 3)
                name, ndim = header[1], int(header[2])
                shape = tuple(int(v) for v in header[3 : 3 + ndim])
                count = math.prod(shape)
                # write_floats puts 8 values on a line; islice stops at EOF
                block = "".join(islice(fh, -(-count // 8)))
                values = parse_floats(block, count, f"seqmodel block {name}")
                params[name] = values.reshape(shape)
        return cls(vocab=vocab, config=config, params=params)


def _read_fields(fh, keyword: str, min_fields: int) -> list[str]:
    line = fh.readline()
    if not line.endswith("\n"):
        raise ValueError(f"seqmodel file ends before a complete {keyword} line")
    fields = line.split()
    if len(fields) < min_fields or fields[0] != keyword:
        raise ValueError(f"malformed {keyword} line {line.strip()!r}")
    return fields


def _zero_state(cfg: LstmConfig, batch: int):
    h = [np.zeros((batch, cfg.hidden_dim)) for _ in range(cfg.layers)]
    c = [np.zeros((batch, cfg.hidden_dim)) for _ in range(cfg.layers)]
    return h, c


def split_by_vehicle(items: list, seed: int = 0) -> tuple[list, list, list]:
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


def train(
    train_seqs: list[Sequence[str]],
    valid_seqs: list[Sequence[str]],
    cfg: LstmConfig,
    initial: SeqModel | None = None,
) -> SeqModel:
    """SGD training with truncated BPTT; returns the best-validation model.

    ``initial`` warm-starts from an existing model's parameters and
    vocabulary instead of a fresh seeded initialization.
    """
    if not train_seqs:
        raise ValueError("training set is empty")
    rng = np.random.default_rng([cfg.seed, 0])
    if initial is not None:
        vocab = initial.vocab
        model = SeqModel(vocab, cfg, {k: v.copy() for k, v in initial.params.items()})
    else:
        vocab = Vocab.from_sequences(train_seqs)
        model = SeqModel(vocab, cfg, _init_params(cfg, vocab.size, rng))
    if vocab.size <= 2:
        raise ValueError("empty vocabulary: no labels in the training sequences")
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
            state = _zero_state(cfg, len(group))
            for lo in range(0, ids.shape[0], cfg.bptt_steps):
                hi = min(lo + cfg.bptt_steps, ids.shape[0])
                sub_mask = mask[lo:hi]
                if sub_mask.sum() == 0:
                    break
                drop = _sample_drop_masks(cfg, rng, hi - lo, len(group))
                log_probs, caches, state = _forward_chunk(
                    model.params, cfg, ids[lo:hi], state, drop
                )
                loss = _chunk_loss(sub_mask, targets[lo:hi], log_probs)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch + 1}, lr={lr}: {loss}"
                    )
                epoch_nll += loss * sub_mask.sum()
                epoch_items += int(sub_mask.sum())
                grads = _backward_chunk(
                    model.params, cfg, ids[lo:hi], targets[lo:hi], sub_mask,
                    log_probs, caches, drop,
                    norm=float(cfg.batch_size * cfg.bptt_steps),
                )
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


def perplexity(model, seqs: list[Sequence[str]]) -> float:
    """exp of the mean negative log-probability per predicted item (EOS included)."""
    if not seqs:
        raise ValueError("evaluation set is empty")
    if isinstance(model, SeqModel):
        encoded = [model.vocab.encode(s) for s in seqs]
        total_nll, total_items = model._run_eval(encoded)
        return float(np.exp(total_nll / total_items))
    total_nll = 0.0
    total_items = 0
    for seq in seqs:
        lp = model.log_prob_items(seq)
        total_nll -= float(lp.sum())
        total_items += lp.shape[0]
    return float(np.exp(total_nll / total_items))


class UnigramModel:
    """Position-independent add-1 frequency baseline over the same vocabulary."""

    def __init__(self, vocab: Vocab, log_probs: np.ndarray):
        self.vocab = vocab
        self.log_probs = log_probs

    def log_prob_items(self, seq: Sequence[str]) -> np.ndarray:
        encoded = self.vocab.encode(seq)
        targets = np.concatenate([encoded, [self.vocab.eos]])
        return self.log_probs[targets]


def unigram_baseline(train_seqs: list[Sequence[str]]) -> UnigramModel:
    if not train_seqs:
        raise ValueError("training set is empty")
    vocab = Vocab.from_sequences(train_seqs)
    targets = [vocab.encode(seq) for seq in train_seqs] + [np.full(len(train_seqs), vocab.eos)]
    counts = np.bincount(np.concatenate(targets), minlength=vocab.size).astype(float)
    probs = (counts + 1.0) / (counts.sum() + vocab.size)
    return UnigramModel(vocab, np.log(probs))


def predict_next(model: SeqModel, prefix: Sequence[str], top_k: int = 5) -> list[tuple[str, float]]:
    """Ranked (label, probability) list for the next item after ``prefix``."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    probs = model.next_distribution(prefix)
    order = np.lexsort((np.arange(probs.shape[0]), -probs))
    return [(model.vocab.token_label(int(i)), float(probs[i])) for i in order[:top_k]]


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(
    cfg: LstmConfig | None = None,
    sequences: list[Sequence[str]] | None = None,
    step: float = 1e-5,
    corrupt_block: str | None = None,
) -> float:
    """Max relative error between analytic BPTT gradients and central differences.

    Dropout must be disabled (keep = 1). ``corrupt_block`` scales one analytic
    gradient block and serves as the negative control. Zero-length input
    touches no parameters and returns 0.
    """
    if cfg is None:
        cfg = LstmConfig(
            embed_dim=5, hidden_dim=6, layers=2, dropout_keep=1.0,
            bptt_steps=20, batch_size=2, epochs=1, seed=7,
        )
    if cfg.dropout_keep < 1.0:
        raise ValueError("grad_check requires dropout_keep == 1")
    if sequences is None:
        sequences = [["a", "b", "c", "a", "b", "c", "b", "a", "c", "a", "a", "b"]]
    if sum(len(s) for s in sequences) == 0:
        return 0.0
    vocab = Vocab.from_sequences(sequences)
    rng = np.random.default_rng(cfg.seed)
    params = _init_params(cfg, vocab.size, rng)
    # wide redraw keeps every gradient well above finite-difference noise
    for name in params:
        params[name] = rng.uniform(-0.8, 0.8, size=params[name].shape)
    encoded = [vocab.encode(s) for s in sequences]
    ids, targets, mask = _pack_batch(encoded, vocab.eos)

    def loss_of(p) -> float:
        log_probs, _, _ = _forward_chunk(p, cfg, ids, _zero_state(cfg, ids.shape[1]), None)
        return _chunk_loss(mask, targets, log_probs)

    log_probs, caches, _ = _forward_chunk(params, cfg, ids, _zero_state(cfg, ids.shape[1]), None)
    grads = _backward_chunk(params, cfg, ids, targets, mask, log_probs, caches, None)
    if corrupt_block is not None:
        hidden = cfg.hidden_dim
        grads[corrupt_block][:, hidden : 2 * hidden] *= 1.05  # skew the forget gate
    worst = 0.0
    for name, value in params.items():
        flat = value.ravel()
        grad_flat = grads[name].ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            upper = loss_of(params)
            flat[idx] = original - step
            lower = loss_of(params)
            flat[idx] = original
            numeric = (upper - lower) / (2.0 * step)
            analytic = grad_flat[idx]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
