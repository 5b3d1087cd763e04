"""CP (PARAFAC) factorization of 3-mode tensors via alternating least squares.

Each sweep solves the normal equations for one factor matrix at a time using
the mttkrp kernel and the Hadamard product of the other factors' Gram
matrices. Factor columns are stored unit-norm with the absorbed scales kept
as per-component weights, sorted non-increasing, so components can be
ordered, compared and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .knobs import Checked
from .tensor import (
    MAX_TENSOR_FLOATS,
    AxisLabels,
    FloatBlock,
    FormatReader,
    Tensor3,
    frob_norm,
    mttkrp,
    mttkrp_from_partial,
    mttkrp_partial,
    parse_floats,
    write_floats,
    writing,
)

_RIDGE_SCALE = 1e-12
# the largest rank, sweep count and restart count AlsOptions accepts; the
# stacked restarts of cp_als may hold at most MAX_TENSOR_FLOATS floats of
# factors, Grams and partial products, n_restarts * rank * (I + J + K + J*K +
# rank). They also bound a saved model: MAX_RANK its rank, and MAX_ITERS, 20
# times the default, its iterations and fits
MAX_RANK = 1000
MAX_ITERS = 10_000
MAX_RESTARTS = 100
# sweeps whose fit passes this score it from a full reconstruction
_DIRECT_FIT_ABOVE = 1.0 - 1e-6


@dataclass
class AlsOptions(Checked):
    """Knobs for :func:`cp_als`."""

    rank: int = field(default=25, metadata=dict(ge=1, le=MAX_RANK))
    max_iters: int = field(default=500, metadata=dict(ge=1, le=MAX_ITERS))
    tol: float = field(default=1e-8, metadata=dict(gt=0, lt=1))
    seed: int = field(default=0, metadata=dict(ge=0))
    n_restarts: int = field(default=1, metadata=dict(ge=1, le=MAX_RESTARTS, flag="restarts"))


@dataclass
class CpModel:
    """Factor matrices with unit-norm columns plus per-component weights.

    ``fit`` is 1 - |T - T_hat|_F / |T|_F for the tensor the model was fit
    to: ``cp_als`` computes it from the Gram matrices each sweep, and
    ``load_model`` reads it back as saved (nan for a model assembled from
    known factors).
    """

    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    weights: np.ndarray
    fit: float
    iterations: int
    converged: bool
    axis_labels: AxisLabels
    fits: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        a, b, c = (np.ascontiguousarray(f, dtype=np.float64) for f in self.factors)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        self.factors = (a, b, c)
        self.weights = w

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)  # type: ignore[return-value]


def _component_order(weights: np.ndarray, factors) -> list[int]:
    """Non-increasing weight order; ties broken by factor-column lexicographic compare."""
    a, b, c = factors
    return sorted(
        range(weights.shape[0]),
        key=lambda r: (-weights[r], tuple(a[:, r]), tuple(b[:, r]), tuple(c[:, r])),
    )


def _normalize_factors(factors):
    """Pull column norms out of every factor; returns unit factors and weights."""
    weights = np.ones(factors[0].shape[1])
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        weights = weights * norms
        out.append(f / np.where(norms > 0, norms, 1.0))
    return out, weights


def _solve(m: np.ndarray, gram: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Least-squares factor updates of a stack of restarts from their MTTKRPs
    (S, n, R) and Hadamard-product Grams (S, R, R): one batched solve, each
    slice with its own ridge. ``eye`` is the (R, R) identity."""
    ridge = _RIDGE_SCALE * gram.diagonal(0, 1, 2).sum(1)
    ridge[ridge == 0.0] = _RIDGE_SCALE
    # each slice is the transpose of a C-contiguous (R, n) array, as a single
    # solve's .T is: the Grams, the einsums and the column norms round by layout
    return np.linalg.solve(gram + ridge[:, None, None] * eye, m.swapaxes(1, 2)).swapaxes(1, 2)


def _gram(f: np.ndarray) -> np.ndarray:
    """F^T F of every factor in a stack."""
    return f.swapaxes(1, 2) @ f


def _flag_degenerate_components(unit, warnings: list[str]) -> None:
    a, b, c = unit
    triple = (a.T @ a) * (b.T @ b) * (c.T @ c)
    rank = triple.shape[0]
    for r in range(rank):
        for s in range(r + 1, rank):
            if triple[r, s] < -0.95:
                warnings.append(
                    f"components {r + 1} and {s + 1} are nearly canceling "
                    f"(congruence product {triple[r, s]:.4f}); the solution may be degenerate"
                )


def cp_als(t: Tensor3, opts: AlsOptions) -> CpModel:
    """Best-of-n-restarts CP-ALS factorization of ``t``.

    Restart r starts from ``default_rng([seed, r])`` and stops on its own
    convergence test. The restarts run in lockstep: every sweep updates the
    factors of all unconverged restarts as one (S, n, R) stack, with one
    batched kernel call per step, and each restart's factors, fits and
    iteration count are bit-identical to running it alone. The model is the
    restart with the best final fit, the first one on a tie.

    Raises ValueError on a zero tensor, on one whose Frobenius norm
    overflows float64 (``Tensor3`` holds only finite entries) and when the
    restarts' working set, n_restarts * rank * (I + J + K + J*K + rank)
    floats, passes ``MAX_TENSOR_FLOATS``. A rank larger than all
    pairwise dimension products is permitted but flagged in ``model.warnings``.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        square = float(t.values @ t.values)
        # integers whose squares sum below 2**53 square and add exactly in
        # any order: the dense array's norm, to the bit, from the stored values
        exact = square < 2**53 and bool((np.trunc(t.values) == t.values).all())
        norm_t = math.sqrt(square) if exact else frob_norm(t.data)
    if not np.isfinite(norm_t):
        raise ValueError("cannot factorize a tensor whose norm overflows float64")
    if norm_t == 0.0:
        raise ValueError("cannot factorize a zero tensor: fit is undefined")
    dim_i, dim_j, dim_k = t.dims
    rank, n_restarts = opts.rank, opts.n_restarts
    working = n_restarts * rank * (dim_i + dim_j + dim_k + dim_j * dim_k + rank)
    if working > MAX_TENSOR_FLOATS:
        raise ValueError(
            f"{n_restarts} restarts at rank {rank} on a {dim_i}x{dim_j}x{dim_k} tensor need "
            f"{working} floats of factors, Grams and partial products, past {MAX_TENSOR_FLOATS}"
        )
    warnings: list[str] = []
    if rank > dim_i * dim_j and rank > dim_j * dim_k and rank > dim_i * dim_k:
        warnings.append(
            f"rank {rank} exceeds every pairwise dimension product of {t.dims}; "
            "components cannot all be independent"
        )

    eye = np.eye(rank)
    rngs = [np.random.default_rng([opts.seed, r]) for r in range(n_restarts)]
    a, b, c = (np.stack([rng.random((dim, rank)) for rng in rngs]) for dim in t.dims)
    gram_b, gram_c = _gram(b), _gram(c)
    live = list(range(n_restarts))  # the restart of each stack slice
    fits: list[list[float]] = [[] for _ in live]
    final = [None] * n_restarts  # each restart's last (A, B, C) and whether it converged
    for sweep in range(opts.max_iters):
        a = _solve(mttkrp(t, b, c, 1), gram_b * gram_c, eye)
        gram_a = _gram(a)
        # modes 2 and 3 share Z = A'X_(1) of the new A (dimension tree)
        z = mttkrp_partial(t, a)
        b = _solve(mttkrp_from_partial(z, c, 2), gram_a * gram_c, eye)
        gram_b = _gram(b)
        m3, gram = mttkrp_from_partial(z, b, 3), gram_a * gram_b
        c = _solve(m3, gram, eye)
        gram_c = _gram(c)
        # |X - X_hat|^2 = |X|^2 - 2<X, X_hat> + |X_hat|^2 with A and B unchanged
        # since the mode-3 solve: <X, X_hat> = sum(C * M3) and |X_hat|^2 =
        # sum((A'A * B'B) * C'C), so no reconstruction (Kolda & Bader 2009)
        inner = (c * m3).sum(axis=(1, 2)).tolist()
        norm_hat_sq = (gram * gram_c).sum(axis=(1, 2)).tolist()
        keep = []
        for s, r in enumerate(live):
            resid_sq = norm_t**2 - 2.0 * inner[s] + norm_hat_sq[s]
            fit = 1.0 - math.sqrt(max(resid_sq, 0.0)) / norm_t
            if fit > _DIRECT_FIT_ABOVE:
                # the subtraction above cancels to ~1e-8 here, as large as tol:
                # score the reconstruction instead
                resid = t.data - np.einsum("r,ir,jr,kr->ijk", np.ones(rank), *(
                    np.ascontiguousarray(f[s]) for f in (a, b, c)), optimize=True)
                fit = 1.0 - frob_norm(resid) / norm_t
            fits[r].append(fit)
            converged = len(fits[r]) > 1 and abs(fits[r][-1] - fits[r][-2]) < opts.tol
            if converged or sweep == opts.max_iters - 1:
                final[r] = (a[s], b[s], c[s]), converged
            else:
                keep.append(s)
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[s] for s in keep]
            # indexing keeps each slice's layout, which the mode-2 einsum rounds by
            b, c, gram_b, gram_c = b[keep], c[keep], gram_b[keep], gram_c[keep]
        # keep iterating on the unnormalized factors; scale is re-absorbed
        # by the next least-squares solve

    # max keeps the first of equal fits
    best = max(range(n_restarts), key=lambda r: fits[r][-1])
    factors, converged = final[best]
    unit, weights = _normalize_factors(factors)
    order = _component_order(weights, unit)
    unit = [f[:, order] for f in unit]
    _flag_degenerate_components(unit, warnings)
    return CpModel(
        factors=tuple(unit),
        weights=weights[order],
        fit=fits[best][-1],
        iterations=len(fits[best]),
        converged=converged,
        axis_labels=t.axis_labels,
        fits=tuple(fits[best]),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# plain-text model serialization (grammar in README.md)
# ---------------------------------------------------------------------------

_MAGIC = "cpmodel v1"


def save_model(model: CpModel, path) -> None:
    with writing(path) as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"rank {model.rank}\n")
        fh.write("dims %d %d %d\n" % model.dims)
        fh.write(f"fit {model.fit!r}\n")
        fh.write(f"iterations {model.iterations}\n")
        fh.write(f"converged {int(model.converged)}\n")
        fh.write("weights " + " ".join(repr(float(w)) for w in model.weights) + "\n")
        fh.write(f"fits {len(model.fits)}" + "".join(f" {f!r}" for f in model.fits) + "\n")
        fh.write(f"warnings {len(model.warnings)}\n")
        for w in model.warnings:
            fh.write(w.replace("\n", " ") + "\n")
        for axis in model.axis_labels:
            for label in axis:
                fh.write(label + "\n")
        for f in model.factors:
            write_floats(fh, FloatBlock.of(f), model.rank)


def load_model(path) -> CpModel:
    with FormatReader.open(path, _MAGIC) as reader:
        rank, = reader.integers("rank", ge=1, le=MAX_RANK)
        dims = tuple(reader.integers("dims", 3, ge=1))
        fit = reader.fields("fit", 1)[0]
        # nan is the fit that a model assembled from known factors saves
        fit = math.nan if fit == "nan" else parse_floats(fit + "\n", 1, "cpmodel fit").dense().item()
        iterations, = reader.integers("iterations", le=MAX_ITERS)
        converged, = reader.integers("converged", le=1)
        weights = parse_floats(" ".join(reader.fields("weights", rank)) + "\n", rank,
                               "cpmodel weights").dense()
        n_fits, *fit_values = reader.fields("fits")
        n_fits = reader.integer("fits", n_fits, le=MAX_ITERS)
        if len(fit_values) != n_fits:
            raise ValueError(f"fits line declares {n_fits} values, has {len(fit_values)}")
        fits = parse_floats(" ".join(fit_values) + "\n", n_fits, "cpmodel fits").dense()
        n_warn, = reader.integers("warnings")
        warnings = tuple(reader.line() for _ in range(n_warn))
        labels = reader.labels(dims)
        factors = tuple(reader.floats(n * rank, f"factor {name}", rank).dense().reshape(n, rank)
                        for name, n in zip("ABC", dims))
        reader.end()
        return CpModel(
            factors=factors,
            weights=weights,
            fit=fit,
            iterations=iterations,
            converged=bool(converged),
            axis_labels=labels,  # type: ignore[arg-type]
            fits=tuple(fits.tolist()),
            warnings=warnings,
        )
