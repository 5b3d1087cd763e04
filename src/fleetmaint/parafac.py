"""CP (PARAFAC) factorization of 3-mode tensors via alternating least squares.

Each sweep solves the normal equations for one factor matrix at a time using
the mttkrp kernel and the Hadamard product of the other factors' Gram
matrices. Factor columns are stored unit-norm with the absorbed scales kept
as per-component weights, sorted non-increasing, so components can be
ordered, compared and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    AxisLabels,
    Tensor3,
    cp_compose,
    default_labels,
    frob_norm,
    mttkrp,
    mttkrp_from_partial,
    mttkrp_partial,
    parse_floats,
    write_floats,
)

_RIDGE_SCALE = 1e-12
# sweeps whose fit passes this score it from a full reconstruction
_DIRECT_FIT_ABOVE = 1.0 - 1e-6


@dataclass
class AlsOptions:
    """Knobs for :func:`cp_als`."""

    rank: int
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    n_restarts: int = 1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 < self.tol < 1):
            raise ValueError("tol must be in (0, 1)")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")


@dataclass
class CpModel:
    """Factor matrices with unit-norm columns plus per-component weights.

    ``fit`` is 1 - |T - T_hat|_F / |T|_F for the tensor the model was fit
    to; models assembled from known factors carry fit = nan.
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
        rank = w.shape[0]
        for name, f in (("A", a), ("B", b), ("C", c)):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(f"factor {name} must have {rank} columns")
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

    @classmethod
    def from_factors(cls, a, b, c, axis_labels=None) -> "CpModel":
        """Wrap raw factor matrices, normalizing columns into weights."""
        unit, w = _normalize_factors([np.asarray(f, dtype=np.float64) for f in (a, b, c)])
        a, b, c = unit
        order = _component_order(w, unit)
        if axis_labels is None:
            axis_labels = default_labels((a.shape[0], b.shape[0], c.shape[0]))
        return cls(
            factors=(a[:, order], b[:, order], c[:, order]),
            weights=w[order],
            fit=float("nan"),
            iterations=0,
            converged=False,
            axis_labels=axis_labels,
        )


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


def fit_score(t: Tensor3, model: CpModel) -> float:
    """1 - relative Frobenius reconstruction error of the model on t, by full reconstruction."""
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")
    norm_t = frob_norm(t)
    if norm_t == 0.0:
        raise ValueError("fit is undefined for a zero tensor")
    resid = t.data - cp_compose(model.weights, model.factors).data
    return 1.0 - frob_norm(resid) / norm_t


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
            resid = t.data - cp_compose(np.ones(rank), (a, b, c)).data
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

    Raises ValueError on a zero tensor and on one whose Frobenius norm is
    not finite: a nan or inf entry, or entries so large that the norm
    overflows. A rank larger than all pairwise dimension products is
    permitted but flagged in ``model.warnings``.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norm_t = frob_norm(t)
    if not np.isfinite(norm_t):
        raise ValueError(
            "cannot factorize a tensor with nan or inf entries or whose norm overflows float64"
        )
    if norm_t == 0.0:
        raise ValueError("cannot factorize a zero tensor: fit is undefined")
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


def reconstruct(model: CpModel) -> Tensor3:
    """Tensor equal to sum_r weight_r * a_r (outer) b_r (outer) c_r."""
    return cp_compose(model.weights, model.factors, model.axis_labels)


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
# per-component reporting
# ---------------------------------------------------------------------------

_MODE_NAMES = ("vehicle", "system", "time")


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
    for mode_name, factor, labels in zip(_MODE_NAMES, model.factors, model.axis_labels):
        series[mode_name] = [(label, float(v)) for label, v in zip(labels, factor[:, col])]
    return FactorReport(component=component, weight=float(model.weights[col]), series=series)


# ---------------------------------------------------------------------------
# plain-text model serialization (grammar in README.md)
# ---------------------------------------------------------------------------

_MAGIC = "cpmodel v1"


def save_model(model: CpModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
            write_floats(fh, f, model.rank)


def load_model(path) -> CpModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # both writers end every line with a newline: without one the file was
    # cut, possibly inside its last value
    if not text.endswith("\n"):
        raise ValueError("cpmodel file is truncated: no final newline")
    lines = iter(text[:-1].split("\n"))

    def line() -> str:
        value = next(lines, None)
        if value is None:
            raise ValueError("cpmodel file ends early")
        return value

    def fields(keyword: str, count: int | None = None) -> list[str]:
        parts = line().split()
        if len(parts) < 2 or parts[0] != keyword or count not in (None, len(parts) - 1):
            raise ValueError(f"malformed {keyword} line")
        return parts[1:]

    if line() != _MAGIC:
        raise ValueError("not a cpmodel file")
    rank = int(fields("rank", 1)[0])
    dims = tuple(int(v) for v in fields("dims", 3))
    fit = float(fields("fit", 1)[0])
    iterations = int(fields("iterations", 1)[0])
    converged = bool(int(fields("converged", 1)[0]))
    weights = parse_floats(" ".join(fields("weights", rank)) + "\n", rank, "cpmodel weights")
    n_fits, *fit_values = fields("fits")
    fits = tuple(float(v) for v in fit_values)
    if len(fits) != int(n_fits):
        raise ValueError(f"fits line declares {n_fits} values, has {len(fits)}")
    n_warn = int(fields("warnings", 1)[0])
    warnings = tuple(line() for _ in range(n_warn))
    labels = tuple(tuple(line() for _ in range(n)) for n in dims)
    factors = []
    for name, n in zip("ABC", dims):
        block = "".join(line() + "\n" for _ in range(n))
        factors.append(parse_floats(block, n * rank, f"cpmodel factor {name}").reshape(n, rank))
    if next(lines, None) is not None:
        raise ValueError("cpmodel file has data after the factors")
    return CpModel(
        factors=tuple(factors),
        weights=weights,
        fit=fit,
        iterations=iterations,
        converged=converged,
        axis_labels=labels,  # type: ignore[arg-type]
        fits=fits,
        warnings=warnings,
    )
