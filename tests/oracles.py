"""Slow reference implementations that the tests check fleetmaint against.

Nothing in the package calls these. They are the explicit forms of what the
package computes faster, or helpers that build test inputs and score
results:

- tensor: tensors from dense arrays with numeric labels, the
  one-``repr``-per-value float writer, the mode-n unfolding and its
  inverse, the Khatri-Rao product and the ``unfold @ khatri_rao`` MTTKRP
  that the mttkrp kernels must match;
- parafac: a CP model from known factors, its full reconstruction (the
  einsum of ``cp_als``'s near-exact fit) and fit,
  the greedy component matching behind the congruence scores, and CP-ALS
  with its restarts run one after another on single matrices;
- lstm: the finite-difference gradient check of the BPTT backward pass,
  and that pass as it was written with ``np.split``, ``np.stack`` and
  ``np.add.at``, whose gradients the package's must match bit for bit;
- seqmine: a SequenceSet built straight from label lists, and the
  per-record grouping and sorting that ``extract_sequences`` must match;
- synth: the per-event tuple list, cursor-driven motif rebuild and
  ``Counter`` of cells that ``generate`` must match byte for byte;
- report: each component's labeled loadings as (label, value) tuples, the
  CSV written one ``writerow`` per loading and the SVG panels laid out anew
  for every component, which the factor reports must match byte for byte.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from fleetmaint.lstm import (
    LstmConfig,
    Vocab,
    _backward_chunk,
    _chunk_loss,
    _forward_chunk,
    _init_params,
    _pack_batch,
    _zero_state,
)
from fleetmaint.parafac import (
    _DIRECT_FIT_ABOVE,
    _RIDGE_SCALE,
    AlsOptions,
    CpModel,
    _component_order,
    _flag_degenerate_components,
    _normalize_factors,
)
from fleetmaint.ingest import MaintenanceRecord, RejectedRow, VehicleRecord, csv_text
from fleetmaint.ingest import normalize_system
from fleetmaint.report import (
    _AXIS,
    _BAR_FILL,
    _BAR_NEG_FILL,
    _FONT,
    _MARGIN,
    _PANEL_H,
    _PANEL_W,
    _TEXT,
    REPORT_CSV_COLUMNS,
    _escape,
)
from fleetmaint.seqmine import EventSequence, SequenceSet
from fleetmaint.synth import (
    MAINTENANCE_COLUMNS,
    VEHICLE_COLUMNS,
    FleetSpec,
    GeneratedFleet,
    _job_draws,
    _money_fields,
    _motif_count,
    _sample_markov,
    month_labels,
)
from fleetmaint.tensor import AxisLabels, FloatBlock, Tensor3, _segment_sums, frob_norm


def default_labels(dims: tuple[int, int, int]) -> AxisLabels:
    """Numeric stand-in labels for tensors without real axis metadata."""
    return tuple(tuple(str(i) for i in range(n)) for n in dims)  # type: ignore[return-value]


def from_array(data: np.ndarray, axis_labels: AxisLabels | None = None) -> Tensor3:
    """A Tensor3 of ``data``, with numeric labels unless given. It stores each
    entry whose bit pattern is not 0, so its ``data`` is ``data`` bit for bit."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"Tensor3 data must be 3-dimensional, got ndim={arr.ndim}")
    if axis_labels is None:
        axis_labels = default_labels(arr.shape)  # type: ignore[arg-type]
    _, positions, values = FloatBlock.of(arr)
    return Tensor3(arr.shape, positions, values, axis_labels)  # type: ignore[arg-type]


def float_lines(values: np.ndarray, per_line: int) -> str:
    """``values`` in C order, ``per_line`` to a line, one ``repr`` per value:
    the writer whose bytes ``tensor.write_floats`` must reproduce."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    out = []
    for start in range(0, flat.size, per_line):
        chunk = flat[start : start + per_line]
        out.append(" ".join(repr(float(v)) for v in chunk) + "\n")
    return "".join(out)


def _as_array(t: "Tensor3 | np.ndarray") -> np.ndarray:
    return t.data if isinstance(t, Tensor3) else np.asarray(t, dtype=np.float64)


def _check_factor(name: str, f: np.ndarray, rows: int, rank: int | None) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if f.shape[0] != rows:
        raise ValueError(f"{name} has {f.shape[0]} rows, expected {rows}")
    if rank is not None and f.shape[1] != rank:
        raise ValueError(f"{name} has {f.shape[1]} columns, expected {rank}")
    return f


# ---------------------------------------------------------------------------
# tensor unfolding and the reference MTTKRP
#
# Mode-n unfolding puts the remaining axes on the columns with the earlier
# axis varying fastest (Kolda & Bader 2009):
#
#     mode 1: rows i, column = j + k*J
#     mode 2: rows j, column = i + k*I
#     mode 3: rows k, column = i + j*I
#
# _UNFOLD_PERM is the single source of truth for that convention; unfold,
# fold and mttkrp_reference derive from it.
# ---------------------------------------------------------------------------

# axis permutation applied before a C-order reshape, per mode
_UNFOLD_PERM = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def unfold(t: Tensor3 | np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization of a 3-mode tensor."""
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    x = _as_array(t)
    perm = _UNFOLD_PERM[mode]
    rows = x.shape[mode - 1]
    return np.ascontiguousarray(x.transpose(perm)).reshape(rows, -1)


def fold(mat: np.ndarray, mode: int, dims: tuple[int, int, int],
         axis_labels: AxisLabels | None = None) -> Tensor3:
    """Inverse of :func:`unfold`: rebuild the tensor from its matricization."""
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    mat = np.asarray(mat, dtype=np.float64)
    perm = _UNFOLD_PERM[mode]
    shape_permuted = tuple(dims[p] for p in perm)
    if mat.shape != (dims[mode - 1], shape_permuted[1] * shape_permuted[2]):
        raise ValueError(
            f"matrix shape {mat.shape} does not match mode-{mode} unfolding of dims {dims}"
        )
    inverse = tuple(perm.index(ax) for ax in range(3))
    data = mat.reshape(shape_permuted).transpose(inverse)
    return from_array(data, axis_labels)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product; column r is kron(a[:, r], b[:, r])."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def mttkrp_reference(t: Tensor3 | np.ndarray, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Explicit unfold @ khatri_rao path; the slow oracle mttkrp must match."""
    return unfold(t, mode) @ khatri_rao(f2, f1)


# ---------------------------------------------------------------------------
# CP models from known factors, reconstruction and fit
# ---------------------------------------------------------------------------


def from_factors(a, b, c, axis_labels=None) -> CpModel:
    """Wrap raw factor matrices, normalizing columns into weights."""
    unit, w = _normalize_factors([np.asarray(f, dtype=np.float64) for f in (a, b, c)])
    a, b, c = unit
    order = _component_order(w, unit)
    if axis_labels is None:
        axis_labels = default_labels((a.shape[0], b.shape[0], c.shape[0]))
    return CpModel(
        factors=(a[:, order], b[:, order], c[:, order]),
        weights=w[order],
        fit=float("nan"),
        iterations=0,
        converged=False,
        axis_labels=axis_labels,
    )


def cp_compose(weights: np.ndarray,
               factors: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The (I, J, K) array sum_r weights[r] * a_r (outer) b_r (outer) c_r."""
    a, b, c = factors
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    rank = weights.shape[0]
    a = _check_factor("A", a, a.shape[0], rank)
    b = _check_factor("B", b, b.shape[0], rank)
    c = _check_factor("C", c, c.shape[0], rank)
    return np.einsum("r,ir,jr,kr->ijk", weights, a, b, c, optimize=True)


def fit_score(t: Tensor3, model: CpModel) -> float:
    """1 - relative Frobenius reconstruction error of the model on t, by full reconstruction."""
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")
    norm_t = frob_norm(t.data)
    if norm_t == 0.0:
        raise ValueError("fit is undefined for a zero tensor")
    resid = t.data - cp_compose(model.weights, model.factors)
    return 1.0 - frob_norm(resid) / norm_t


def reconstruct(model: CpModel) -> Tensor3:
    """Tensor equal to sum_r weight_r * a_r (outer) b_r (outer) c_r."""
    return from_array(cp_compose(model.weights, model.factors), model.axis_labels)


# ---------------------------------------------------------------------------
# CP-ALS with its restarts run one after another, each on single matrices:
# the fit that cp_als, which runs them in lockstep, must match bit for bit
# ---------------------------------------------------------------------------


def mttkrp(t: Tensor3, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """``tensor.mttkrp`` on single matrices, in the memory layouts it rounds by."""
    x = t.data
    others = [d for m, d in enumerate(x.shape, start=1) if m != mode]
    f1 = _check_factor("f1", f1, others[0], None)
    f2 = _check_factor("f2", f2, others[1], f1.shape[1])
    if mode == 1:
        # the product is laid out r fastest, so each KR is an F-ordered view
        kr = (f1.T[:, :, None] * f2.T[:, None, :]).reshape(f1.shape[1], -1)
        nonzeros = t._nonzeros
        if nonzeros is not None:
            return _segment_sums(kr, nonzeros[0], x.shape[0]).T
        return (kr @ x.reshape(x.shape[0], -1).T).T
    return mttkrp_from_partial(mttkrp_partial(t, f1), f2, mode)


def mttkrp_partial(t: Tensor3, a: np.ndarray) -> np.ndarray:
    """``tensor.mttkrp_partial`` on a single matrix."""
    x = t.data
    a = _check_factor("a", a, x.shape[0], None)
    nonzeros = t._nonzeros
    if nonzeros is not None:
        z = _segment_sums(a.T, nonzeros[1], x.shape[1] * x.shape[2])
    else:
        z = a.T @ x.reshape(x.shape[0], -1)
    return z.reshape(a.shape[1], x.shape[1], x.shape[2])


def mttkrp_from_partial(z: np.ndarray, f: np.ndarray, mode: int) -> np.ndarray:
    """``tensor.mttkrp_from_partial`` on a single matrix."""
    if mode == 2:
        return np.einsum("rjk,kr->jr", z, f)
    return np.einsum("rjk,jr->kr", z, f)


def _solve(m: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Least-squares factor update from its MTTKRP and Hadamard-product Gram."""
    ridge = _RIDGE_SCALE * float(np.trace(gram))
    if ridge == 0.0:
        ridge = _RIDGE_SCALE
    return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), m.T).T


def _als_single_run(t: Tensor3, opts: AlsOptions, restart: int, norm_t: float,
                    warnings: list[str]):
    rng = np.random.default_rng([opts.seed, restart])
    rank = opts.rank
    a, b, c = (rng.random((dim, rank)) for dim in t.dims)
    gram_b, gram_c = b.T @ b, c.T @ c

    fits: list[float] = []
    converged = False
    for _ in range(opts.max_iters):
        a = _solve(mttkrp(t, b, c, 1), gram_b * gram_c)
        gram_a = a.T @ a
        # modes 2 and 3 share Z = A'X_(1) of the new A (dimension tree)
        z = mttkrp_partial(t, a)
        b = _solve(mttkrp_from_partial(z, c, 2), gram_a * gram_c)
        gram_b = b.T @ b
        m3, gram = mttkrp_from_partial(z, b, 3), gram_a * gram_b
        c = _solve(m3, gram)
        gram_c = c.T @ c
        # |X - X_hat|^2 = |X|^2 - 2<X, X_hat> + |X_hat|^2 with A and B unchanged
        # since the mode-3 solve: <X, X_hat> = sum(C * M3) and |X_hat|^2 =
        # sum((A'A * B'B) * C'C), so no reconstruction (Kolda & Bader 2009)
        resid_sq = norm_t**2 - 2.0 * float(np.sum(c * m3)) + float(np.sum(gram * gram_c))
        fit = 1.0 - float(np.sqrt(max(resid_sq, 0.0))) / norm_t
        if fit > _DIRECT_FIT_ABOVE:
            # the subtraction above cancels to ~1e-8 here, as large as tol:
            # score the reconstruction instead
            resid = t.data - cp_compose(np.ones(rank), (a, b, c))
            fit = 1.0 - frob_norm(resid) / norm_t
        fits.append(fit)
        if len(fits) > 1 and abs(fits[-1] - fits[-2]) < opts.tol:
            converged = True
            break
        # keep iterating on the unnormalized factors; scale is re-absorbed
        # by the next least-squares solve
    unit, weights = _normalize_factors([a, b, c])
    order = _component_order(weights, unit)
    unit = [f[:, order] for f in unit]
    weights = weights[order]
    _flag_degenerate_components(unit, warnings)
    return unit, weights, fits, converged


def cp_als_sequential(t: Tensor3, opts: AlsOptions) -> CpModel:
    """Best-of-n-restarts CP-ALS, one restart after another."""
    norm_t = frob_norm(t.data)
    dim_i, dim_j, dim_k = t.dims
    warnings: list[str] = []
    if opts.rank > dim_i * dim_j and opts.rank > dim_j * dim_k and opts.rank > dim_i * dim_k:
        warnings.append(
            f"rank {opts.rank} exceeds every pairwise dimension product of {t.dims}; "
            "components cannot all be independent"
        )

    best = None
    for restart in range(opts.n_restarts):
        run_warnings: list[str] = []
        unit, weights, fits, converged = _als_single_run(t, opts, restart, norm_t, run_warnings)
        if best is None or fits[-1] > best[2][-1]:
            best = (unit, weights, fits, converged, run_warnings)
    unit, weights, fits, converged, run_warnings = best
    return CpModel(
        factors=tuple(unit),
        weights=weights,
        fit=fits[-1],
        iterations=len(fits),
        converged=converged,
        axis_labels=t.axis_labels,
        fits=tuple(fits),
        warnings=tuple(warnings + run_warnings),
    )


# ---------------------------------------------------------------------------
# component matching / recovery scoring
# ---------------------------------------------------------------------------


def _greedy_match(m1: CpModel, m2: CpModel) -> list[tuple[int, int, float]]:
    a1, b1, c1 = m1.factors
    a2, b2, c2 = m2.factors
    score = np.abs(a1.T @ a2) * np.abs(b1.T @ b2) * np.abs(c1.T @ c2)
    pairs = []
    remaining = score.copy()
    for _ in range(m1.rank):
        r, s = np.unravel_index(int(np.argmax(remaining)), remaining.shape)
        pairs.append((int(r), int(s), float(score[r, s])))
        remaining[r, :] = -np.inf
        remaining[:, s] = -np.inf
    return pairs


def _check_comparable(m1: CpModel, m2: CpModel) -> None:
    if m1.rank != m2.rank:
        raise ValueError(f"rank mismatch: {m1.rank} vs {m2.rank}")
    if m1.dims != m2.dims:
        raise ValueError(f"dims mismatch: {m1.dims} vs {m2.dims}")


def congruence(m1: CpModel, m2: CpModel) -> float:
    """Mean greedy-matched product of absolute per-mode cosine similarities."""
    _check_comparable(m1, m2)
    pairs = _greedy_match(m1, m2)
    return float(np.mean([p[2] for p in pairs]))


def congruence_per_mode(m1: CpModel, m2: CpModel) -> tuple[float, float, float]:
    """Per-mode mean absolute cosines of the greedy-matched components."""
    _check_comparable(m1, m2)
    pairs = _greedy_match(m1, m2)
    out = []
    for f1, f2 in zip(m1.factors, m2.factors):
        out.append(float(np.mean([abs(f1[:, r] @ f2[:, s]) for r, s, _ in pairs])))
    return tuple(out)  # type: ignore[return-value]


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
    grads = _backward_chunk(params, cfg, ids, targets, mask, log_probs, caches, None,
                            mask.sum())
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


def backward_chunk_copying(params, cfg, ids, targets, mask, log_probs, caches, drop_masks,
                           norm: float):
    """``lstm._backward_chunk`` with the gate blocks split off by ``np.split``,
    the cell factors stacked by ``np.stack`` and the embedding gradient
    scattered by ``np.add.at`` into zeros."""
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
        gate_i, gate_f, gate_g, gate_o = np.split(gates, 4, axis=2)
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


# ---------------------------------------------------------------------------
# sequence sets from label lists and from job records
# ---------------------------------------------------------------------------


def sequence_set_from_lists(
    label_lists: list[list[str]],
    make_models: list[str] | None = None,
    units: list[str] | None = None,
) -> SequenceSet:
    """Build a SequenceSet directly from lists of labels (tests, adapters)."""
    labels = tuple(sorted({lab for seq in label_lists for lab in seq}))
    index = {label: i for i, label in enumerate(labels)}
    sequences = []
    for i, seq in enumerate(label_lists):
        sequences.append(
            EventSequence(
                unit_no=units[i] if units else f"U{i:04d}",
                make_model=make_models[i] if make_models else "UNKNOWN UNKNOWN",
                events=np.array([index[lab] for lab in seq], dtype=np.int32),
            )
        )
    return SequenceSet(labels=labels, sequences=sequences)


def extract_sequences(
    maintenance: list[MaintenanceRecord], vehicles: list[VehicleRecord]
) -> tuple[SequenceSet, list[RejectedRow]]:
    """Per-vehicle event sequences ordered by (job open date, job id)."""
    by_unit = {v.unit_no: v for v in vehicles}
    rejects: list[RejectedRow] = []
    kept: list[MaintenanceRecord] = []
    for idx, record in enumerate(maintenance):
        if record.unit_no not in by_unit:
            rejects.append(RejectedRow(idx, "unknown_vehicle", record.unit_no))
            continue
        kept.append(record)

    labels = tuple(sorted({normalize_system(r.system_desc) for r in kept}))
    index = {label: i for i, label in enumerate(labels)}

    grouped: dict[str, list[MaintenanceRecord]] = {}
    for record in kept:
        grouped.setdefault(record.unit_no, []).append(record)

    sequences = []
    for unit in sorted(grouped, key=lambda u: (by_unit[u].model_year, u)):
        jobs = sorted(grouped[unit], key=lambda r: (r.job_open_date, r.job_id))
        events = np.array([index[normalize_system(r.system_desc)] for r in jobs], dtype=np.int32)
        sequences.append(
            EventSequence(unit_no=unit, make_model=by_unit[unit].make_model, events=events)
        )
    return SequenceSet(labels=labels, sequences=sequences), rejects


# ---------------------------------------------------------------------------
# synthetic fleets, one event tuple at a time
# ---------------------------------------------------------------------------


def generate(spec: FleetSpec, out_dir) -> GeneratedFleet:
    """Write vehicles.csv, maintenance.csv and manifest.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    labels = month_labels(spec.window_start, spec.months)
    if spec.purchase_years is None:
        purchase_years = tuple(sorted({int(lbl[:4]) for lbl in labels}))
    else:
        purchase_years = spec.purchase_years

    # vehicle roster
    roster = []  # (unit, make_model, purchase_year)
    counter = 0
    for make_model, count in spec.vehicles.items():
        for _ in range(count):
            counter += 1
            unit = f"{counter:06d}"
            year = purchase_years[(counter - 1) % len(purchase_years)]
            roster.append((unit, make_model, year))

    system_index = {label: i for i, label in enumerate(spec.systems)}
    n_sys = len(spec.systems)
    system_norm = {label: normalize_system(label) for label in spec.systems}
    # per system label: the csv text of a job's fields before its money fields
    # (Job Code, Job Description) and after its meter reading
    system_fields = {
        label: (csv_text((f"{i:02d}-13-000", f"REPAIR {label}")),
                csv_text(("DON", "24", "REPAIR", f"{i:02d}", label, "CODRF")) + "\n")
        for label, i in system_index.items()
    }
    # per month: the year, and at index d the csv text from WO Open Date to
    # Job Completed Date of a job on day d (jobs past the 28th share the 28th)
    years = [label[:4] for label in labels]
    date_fields = [
        [""] + [f"{d},{d},CODRF,{d},B,BREAKDOWN / REPAIR,{d},{d}"
                for d in (f"{label}-{day:02d}" for day in range(1, 29))]
        for label in labels
    ]

    cells: dict[str, int] = {}
    sequences: dict[str, list[str]] = {}
    motif_bookkeeping = [
        {"make_model": m.make_model, "labels": [normalize_system(x) for x in m.labels],
         "rate": m.rate, "injected_per_unit": {}, "positions_per_unit": {},
         "total_injected": 0}
        for m in spec.motifs
    ]
    component_units: list[dict[str, float]] = [{} for _ in spec.components]

    maintenance_path = out_dir / "maintenance.csv"
    n_jobs = 0
    with open(maintenance_path, "w", encoding="utf-8", newline="") as jobs_out:
        csv.writer(jobs_out, lineterminator="\n").writerow(MAINTENANCE_COLUMNS)
        for unit, make_model, purchase_year in roster:
            # per-vehicle event list: (month index, display label)
            if make_model in spec.markov:
                chain = spec.markov[make_model]
                drawn = _sample_markov(chain, rng)
                events = [
                    (min(pos * spec.months // max(len(drawn), 1), spec.months - 1), lbl)
                    for pos, lbl in enumerate(drawn)
                ]
            else:
                means = np.full((len(spec.systems), spec.months), float(spec.background_rate))
                for ci, comp in enumerate(spec.components):
                    vw = comp.vehicle_weights.get(make_model, 0.0)
                    if vw == 0.0:
                        continue
                    component_units[ci][unit] = vw
                    profile = np.asarray(comp.time_profile)
                    for sys_label, sw in comp.system_weights.items():
                        means[system_index[sys_label]] += comp.intensity * vw * sw * profile
                # a negative mean emits no job
                if spec.noiseless:
                    counts = np.rint(means).astype(np.int64).clip(0)
                else:
                    counts = rng.poisson(means.clip(0))
                # month-major: cell c is (month c // n_sys, system c % n_sys)
                cell = np.repeat(np.arange(spec.months * n_sys), counts.T.ravel())
                events = [(c // n_sys, spec.systems[c % n_sys]) for c in cell.tolist()]

            # motif injection (contiguous runs, months inherited from neighbors)
            for mi, motif in enumerate(spec.motifs):
                if motif.make_model != make_model:
                    continue
                width = len(motif.labels)
                n_inject = _motif_count(len(events), width, motif.rate)
                if n_inject == 0:
                    continue
                gaps = sorted(int(g) for g in rng.integers(0, len(events) + 1, size=n_inject))
                rebuilt = []
                positions = []
                gi = 0
                for pos in range(len(events) + 1):
                    while gi < len(gaps) and gaps[gi] == pos:
                        month = (
                            events[pos - 1][0] if pos > 0
                            else (events[0][0] if events else 0)
                        )
                        positions.append(len(rebuilt))
                        rebuilt.extend((month, lbl) for lbl in motif.labels)
                        gi += 1
                    if pos < len(events):
                        rebuilt.append(events[pos])
                events = rebuilt
                book = motif_bookkeeping[mi]
                book["injected_per_unit"][unit] = n_inject
                book["positions_per_unit"][unit] = positions
                book["total_injected"] += n_inject

            # one row per event; within a month, days ascend with list position
            labor, meter = _job_draws(rng, len(events))
            per_month_seen: dict[int, int] = {}
            lines = []
            for (month, sys_label), hours, reading in zip(events, labor.tolist(), meter.tolist()):
                day = per_month_seen[month] = per_month_seen.get(month, 0) + 1
                n_jobs += 1
                job_id = f"{n_jobs:07d}"
                before_money, after_meter = system_fields[sys_label]
                lines.append(
                    f"{job_id},{years[month]},{unit},{job_id},{date_fields[month][min(day, 28)]},"
                    f"{before_money},{_money_fields(round(hours, 2))},{reading},{after_meter}"
                )
            jobs_out.writelines(lines)
            for (month, sys_label), count in Counter(events).items():
                # labels that normalize alike count into one cell
                key = f"{unit}|{system_norm[sys_label]}|{labels[month]}"
                cells[key] = cells.get(key, 0) + count
            if events:
                sequences[unit] = [system_norm[sys_label] for _, sys_label in events]

    vehicles_path = out_dir / "vehicles.csv"
    with open(vehicles_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VEHICLE_COLUMNS)
        for unit, make_model, year in roster:
            make, _, model = make_model.partition(" ")
            cost = int(rng.integers(18, 95)) * 1000 + int(rng.integers(0, 1000))
            writer.writerow((
                unit, "19", "GENERAL SERVICES", make, model, str(year),
                str(int(rng.integers(500, 120000))), f"{year + 1}-06-15 08:30:00",
                f"${cost:,}", "A", "Active Unit",
                f"${float(rng.integers(100, 9000)):,.2f}",
                f"${float(rng.integers(100, 9000)):,.2f}",
                f"{float(rng.integers(100, 4000)):,.1f}",
            ))

    manifest = {
        "seed": spec.seed,
        "window_start": spec.window_start,
        "months": spec.months,
        "month_labels": labels,
        "systems": list(spec.systems),
        "totals": {"vehicles": len(roster), "jobs": n_jobs},
        "vehicles": {
            unit: {"make_model": mm, "purchase_year": year} for unit, mm, year in roster
        },
        "cells": cells,
        "sequences": sequences,
        "components": [
            {
                "name": comp.name,
                "intensity": comp.intensity,
                "vehicle_units": component_units[ci],
                "system_weights": {
                    normalize_system(k): v for k, v in comp.system_weights.items()
                },
                "time_profile": list(comp.time_profile),
                "active_months": [
                    labels[t] for t, v in enumerate(comp.time_profile) if v > 0
                ],
            }
            for ci, comp in enumerate(spec.components)
        ],
        "motifs": motif_bookkeeping,
        "markov": {
            name: {
                "labels": [normalize_system(x) for x in chain.labels],
                "transition": [list(row) for row in chain.transition],
                "start": list(chain.start),
                "length": chain.length,
            }
            for name, chain in spec.markov.items()
        },
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return GeneratedFleet(
        vehicles_path=vehicles_path,
        maintenance_path=maintenance_path,
        manifest_path=manifest_path,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# factor reports, one writerow per loading and each panel laid out per component
# ---------------------------------------------------------------------------


@dataclass
class FactorReport:
    """Labeled loadings of one component across the three modes."""

    component: int
    weight: float
    series: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


def factor_report(model: CpModel, component: int) -> FactorReport:
    """Loading series (label, value) for each mode of a 1-based component."""
    if not 1 <= component <= model.rank:
        raise ValueError(f"component must be in [1, {model.rank}], got {component}")
    col = component - 1
    series = {}
    for mode_name, factor, labels in zip(("vehicle", "system", "time"), model.factors,
                                         model.axis_labels):
        series[mode_name] = [(label, float(v)) for label, v in zip(labels, factor[:, col])]
    return FactorReport(component=component, weight=float(model.weights[col]), series=series)


def write_factor_csv(model: CpModel, path, components: list[int] | None = None) -> None:
    """One CSV holding the loading series of the requested (1-based) components."""
    chosen = components or list(range(1, model.rank + 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for comp in chosen:
            report = factor_report(model, comp)
            for mode in ("vehicle", "system", "time"):
                for label, loading in report.series[mode]:
                    writer.writerow([comp, mode, label, repr(loading)])
            writer.writerow([comp, "weight", "component_weight", repr(report.weight)])


def _panel(series: list[tuple[str, float]], title: str, y_offset: int) -> list[str]:
    values = [v for _, v in series]
    peak = max((abs(v) for v in values), default=1.0) or 1.0
    n = len(values)
    plot_w = _PANEL_W - 2 * _MARGIN
    plot_h = _PANEL_H - 46
    baseline = y_offset + 24 + plot_h / 2
    slot = plot_w / n
    bar_w = max(1.0, slot * 0.8)
    parts = [
        f'<text x="{_MARGIN}" y="{y_offset + 14}" font-size="12" font-weight="bold" '
        f'fill="{_TEXT}">{_escape(title)}</text>',
        f'<line x1="{_MARGIN}" y1="{baseline:.1f}" x2="{_MARGIN + plot_w}" '
        f'y2="{baseline:.1f}" stroke="{_AXIS}" stroke-width="1"/>',
    ]
    for idx, (label, value) in enumerate(series):
        height = abs(value) / peak * (plot_h / 2)
        x = _MARGIN + idx * slot + (slot - bar_w) / 2
        if value >= 0:
            y = baseline - height
            fill = _BAR_FILL
        else:
            y = baseline
            fill = _BAR_NEG_FILL
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{height:.2f}" '
            f'fill="{fill}"><title>{_escape(label)}: {value:.6f}</title></rect>'
        )
    # thin the tick labels so long axes stay readable
    step = max(1, (n + 15) // 16)
    for idx in range(0, n, step):
        x = _MARGIN + idx * slot + slot / 2
        parts.append(
            f'<text x="{x:.1f}" y="{y_offset + _PANEL_H - 6}" font-size="8" '
            f'text-anchor="middle" fill="{_AXIS}">{_escape(series[idx][0][:14])}</text>'
        )
    return parts


def render_factor_svg(report: FactorReport) -> str:
    """Standalone SVG string: three stacked bar panels for one component."""
    total_h = 3 * _PANEL_H + 34
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_PANEL_W} {total_h}" '
        f'font-family="{_FONT}">',
        f'<rect width="{_PANEL_W}" height="{total_h}" fill="#F8FAFC"/>',
        f'<text x="{_PANEL_W / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-weight="bold" fill="{_TEXT}">Component {report.component} '
        f'(weight {report.weight:.4f})</text>',
    ]
    for row, mode in enumerate(("vehicle", "system", "time")):
        parts.extend(_panel(report.series[mode], mode, 30 + row * _PANEL_H))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_component_reports(
    model: CpModel,
    out_dir,
    components: list[int] | None = None,
    svg: bool = True,
) -> list[Path]:
    """Write factor_report.csv plus one SVG per component; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = out_dir / "factor_report.csv"
    write_factor_csv(model, csv_path, components)
    written.append(csv_path)
    if svg:
        for comp in components or range(1, model.rank + 1):
            report = factor_report(model, comp)
            svg_path = out_dir / f"component_{comp:02d}.svg"
            svg_path.write_text(render_factor_svg(report), encoding="utf-8", newline="\n")
            written.append(svg_path)
    return written
