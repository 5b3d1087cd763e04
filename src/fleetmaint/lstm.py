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
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

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

    def encode(self, seq: Sequence[str]) -> np.ndarray:
        index = {lab: i for i, lab in enumerate(self.labels)}
        return np.array([index.get(lab, self.unk) for lab in seq], dtype=np.int64)

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
        for name in ("embed_dim", "hidden_dim", "layers", "bptt_steps", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.dropout_keep <= 1:
            raise ValueError("dropout_keep must be in (0, 1]")
        if self.lr <= 0 or self.lr_decay <= 0 or self.grad_clip <= 0:
            raise ValueError("lr, lr_decay and grad_clip must be positive")

    def lr_at_epoch(self, epoch: int) -> float:
        """Learning rate for a 0-based epoch index."""
        return self.lr * self.lr_decay ** max(0, epoch + 1 - self.lr_constant_epochs)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    """Run one BPTT window; returns log-probs, caches and the carried state."""
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
            gate_i = _sigmoid(z[:, :hidden])
            gate_f = _sigmoid(z[:, hidden : 2 * hidden])
            gate_g = np.tanh(z[:, 2 * hidden : 3 * hidden])
            gate_o = _sigmoid(z[:, 3 * hidden :])
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


def _backward_chunk(params, cfg, ids, targets, mask, log_probs, caches, drop_masks,
                    norm: float | None = None):
    """Gradients of the masked cross-entropy over one window.

    ``norm`` divides the summed per-token gradients. Training passes the
    constant batch_size * bptt_steps so every token in the epoch carries the
    same weight regardless of how full its window is; by default the window's
    own token count is used, matching the mean loss of :func:`_chunk_loss`.
    """
    steps, batch = ids.shape
    hidden = cfg.hidden_dim
    n_items = norm if norm is not None else mask.sum()
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_next = [np.zeros((batch, hidden)) for _ in range(cfg.layers)]
    dc_next = [np.zeros((batch, hidden)) for _ in range(cfg.layers)]
    for t in range(steps - 1, -1, -1):
        probs = np.exp(log_probs[t])
        dlogits = probs * mask[t][:, None]
        dlogits[np.arange(batch), targets[t]] -= mask[t]
        dlogits /= n_items
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


def _chunk_loss(mask, targets, log_probs) -> float:
    batch_idx = np.arange(targets.shape[1])
    nll = 0.0
    for t in range(targets.shape[0]):
        nll -= float((log_probs[t][batch_idx, targets[t]] * mask[t]).sum())
    n = float(mask.sum())
    return nll / n if n else 0.0


def _sample_drop_masks(cfg, rng, steps, batch):
    if cfg.dropout_keep >= 1.0:
        return None
    keep = cfg.dropout_keep
    return {
        "input": (rng.random((steps, batch, cfg.embed_dim)) < keep) / keep,
        "layer": (rng.random((steps, cfg.layers, batch, cfg.hidden_dim)) < keep) / keep,
    }


def _clip_gradients(grads, max_norm: float) -> None:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
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
        total_nll = 0.0
        total_items = 0
        for start in range(0, len(encoded), cfg.batch_size):
            group = encoded[start : start + cfg.batch_size]
            ids, targets, mask = _pack_batch(group, self.vocab.eos)
            state = _zero_state(cfg, len(group))
            log_probs, _, _ = _forward_chunk(self.params, cfg, ids, state, None)
            batch_idx = np.arange(len(group))
            for t in range(ids.shape[0]):
                total_nll -= float((log_probs[t][batch_idx, targets[t]] * mask[t]).sum())
            total_items += int(mask.sum())
        return total_nll, total_items

    def log_prob_items(self, seq: Sequence[str]) -> np.ndarray:
        """Log-probability of each predicted item of one sequence, EOS included."""
        encoded = self.vocab.encode(seq)
        ids, targets, mask = _pack_batch([encoded], self.vocab.eos)
        state = _zero_state(self.config, 1)
        log_probs, _, _ = _forward_chunk(self.params, self.config, ids, state, None)
        return log_probs[np.arange(ids.shape[0]), 0, targets[:, 0]]

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
                flat = arr.ravel()
                for start in range(0, flat.size, 8):
                    chunk = flat[start : start + 8]
                    fh.write(" ".join(repr(float(v)) for v in chunk) + "\n")

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
                count = int(np.prod(shape)) if shape else 1
                values: list[float] = []
                while len(values) < count:
                    line = fh.readline()
                    # the writer ends every line with a newline; a line
                    # without one was cut, possibly inside a value
                    if not line.endswith("\n"):
                        raise ValueError(f"seqmodel file ends inside block {name}")
                    values.extend(float(v) for v in line.split())
                params[name] = np.array(values).reshape(shape)
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
    counts = np.zeros(vocab.size)
    for seq in train_seqs:
        for idx in vocab.encode(seq):
            counts[idx] += 1
        counts[vocab.eos] += 1
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
