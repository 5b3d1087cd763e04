"""Dense 3-mode labeled tensors and the multilinear kernels behind CP-ALS.

Layout is fixed repo-wide: values are stored row-major with the first axis
slowest and the third fastest, i.e. a C-contiguous float64 array of shape
(I, J, K). Mode-n unfolding follows the convention where the remaining axes
index the columns with the earlier axis varying fastest:

    mode 1: rows i, column = j + k*J
    mode 2: rows j, column = i + k*I
    mode 3: rows k, column = i + j*I

``_UNFOLD_PERM`` below is the single source of truth for that convention;
``unfold``, ``fold`` and ``mttkrp_reference`` derive from it. The fast
mttkrp kernels read the tensor through its (I, J*K) view instead, with no
copy, and are checked against ``mttkrp_reference``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

AxisLabels = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]

# axis permutation applied before a C-order reshape, per mode
_UNFOLD_PERM = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def default_labels(dims: tuple[int, int, int]) -> AxisLabels:
    """Numeric stand-in labels for tensors without real axis metadata."""
    return tuple(tuple(str(i) for i in range(n)) for n in dims)  # type: ignore[return-value]


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense 3-mode tensor with one label per index of each axis."""

    data: np.ndarray
    axis_labels: AxisLabels

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 data must be 3-dimensional, got ndim={arr.ndim}")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"Tensor3 dims must be positive, got {arr.shape}")
        labels = tuple(tuple(str(x) for x in axis) for axis in self.axis_labels)
        if len(labels) != 3:
            raise ValueError("axis_labels must hold exactly three label lists")
        for ax, (n, lab) in enumerate(zip(arr.shape, labels)):
            if len(lab) != n:
                raise ValueError(
                    f"axis {ax} has {n} indices but {len(lab)} labels"
                )
            if any("\n" in s or "\r" in s for s in lab):
                raise ValueError("labels must not contain newlines")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "axis_labels", labels)

    @classmethod
    def from_array(cls, data: np.ndarray, axis_labels: AxisLabels | None = None) -> "Tensor3":
        arr = np.asarray(data, dtype=np.float64)
        if axis_labels is None:
            axis_labels = default_labels(arr.shape)  # type: ignore[arg-type]
        return cls(arr, axis_labels)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


def _as_array(t: "Tensor3 | np.ndarray") -> np.ndarray:
    return t.data if isinstance(t, Tensor3) else np.asarray(t, dtype=np.float64)


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
    if axis_labels is None:
        axis_labels = default_labels(dims)
    return Tensor3(data, axis_labels)


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


def _check_factor(name: str, f: np.ndarray, rows: int, rank: int | None) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if f.shape[0] != rows:
        raise ValueError(f"{name} has {f.shape[0]} rows, expected {rows}")
    if rank is not None and f.shape[1] != rank:
        raise ValueError(f"{name} has {f.shape[1]} columns, expected {rank}")
    return f


def mttkrp(t: Tensor3 | np.ndarray, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product for the target mode.

    ``f1`` and ``f2`` are the factor matrices of the two non-target modes in
    ascending mode order. Equivalent to ``unfold(t, mode) @ khatri_rao(f2, f1)``.
    Mode 1 is one GEMM of the (I, J*K) view of the tensor with the Khatri-Rao
    product built as an (R, J*K) array; modes 2 and 3 contract over i first
    (:func:`mttkrp_partial`) and finish with :func:`mttkrp_from_partial`.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    x = _as_array(t)
    others = [d for m, d in enumerate(x.shape, start=1) if m != mode]
    f1 = _check_factor("f1", f1, others[0], None)
    f2 = _check_factor("f2", f2, others[1], f1.shape[1])
    if mode == 1:
        # row r, column j*K + k holds f1[j, r] * f2[k, r], matching the
        # column order of the C-contiguous (I, J*K) view; the GEMM runs as
        # (KR X_(1)^T)^T, which BLAS does faster than X_(1) KR^T
        kr = (f1.T[:, :, None] * f2.T[:, None, :]).reshape(f1.shape[1], -1)
        return (kr @ x.reshape(x.shape[0], -1).T).T
    return mttkrp_from_partial(mttkrp_partial(x, f1), f2, mode)


def mttkrp_partial(t: Tensor3 | np.ndarray, a: np.ndarray) -> np.ndarray:
    """Z = A^T X_(1) as an (R, J, K) array: the contraction over i that the
    mode-2 and mode-3 MTTKRPs share (a dimension tree, Phan et al. 2013)."""
    x = _as_array(t)
    a = _check_factor("a", a, x.shape[0], None)
    return (a.T @ x.reshape(x.shape[0], -1)).reshape(a.shape[1], x.shape[1], x.shape[2])


def mttkrp_from_partial(z: np.ndarray, f: np.ndarray, mode: int) -> np.ndarray:
    """Mode-2 (``f`` = C) or mode-3 (``f`` = B) MTTKRP from Z = A^T X_(1)."""
    # one O(R*J*K) pass; einsum without path search, a plain C loop
    if mode == 2:
        return np.einsum("rjk,kr->jr", z, f)
    if mode == 3:
        return np.einsum("rjk,jr->kr", z, f)
    raise ValueError(f"mode must be 2 or 3, got {mode}")


def mttkrp_reference(t: Tensor3 | np.ndarray, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Explicit unfold @ khatri_rao path; the slow oracle mttkrp must match."""
    return unfold(t, mode) @ khatri_rao(f2, f1)


def cp_compose(weights: np.ndarray, factors: tuple[np.ndarray, np.ndarray, np.ndarray],
               axis_labels: AxisLabels | None = None) -> Tensor3:
    """Tensor equal to sum_r weights[r] * a_r (outer) b_r (outer) c_r."""
    a, b, c = factors
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    rank = weights.shape[0]
    a = _check_factor("A", a, a.shape[0], rank)
    b = _check_factor("B", b, b.shape[0], rank)
    c = _check_factor("C", c, c.shape[0], rank)
    data = np.einsum("r,ir,jr,kr->ijk", weights, a, b, c, optimize=True)
    if axis_labels is None:
        axis_labels = default_labels(data.shape)
    return Tensor3(data, axis_labels)


def frob_norm(t: Tensor3 | np.ndarray) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    return float(np.linalg.norm(_as_array(t).ravel()))


# ---------------------------------------------------------------------------
# plain-text serialization
#
# Grammar (documented in README.md):
#   line 1: "tensor3 v1"
#   line 2: "dims I J K"
#   next I+J+K lines: axis labels, axis 1 first, one label per line, verbatim
#   remaining lines: I*J*K whitespace-separated finite float values in the
#   fixed layout (axis 1 slowest, axis 3 fastest); line wrapping is
#   insignificant, but the file ends with a newline
# ---------------------------------------------------------------------------

_MAGIC = "tensor3 v1"
_VALUES_PER_LINE = 8
_CHUNK_LINES = 1 << 15


def write_floats(fh, values: np.ndarray, per_line: int) -> None:
    """Write ``values`` in C order as ``repr`` floats, ``per_line`` to a line.

    Every line, the last one included, ends with a newline; an empty array
    writes nothing. The tensor, CP model and sequence model formats write
    their float blocks through this one function.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return
    lines = min(_CHUNK_LINES, -(-flat.size // per_line))
    step = lines * per_line
    # even slots take the values, odd slots a space or, after every
    # per_line-th value, a newline
    parts = ([None, " "] * (per_line - 1) + [None, "\n"]) * lines
    zeros = ["0.0"] * step
    for start in range(0, flat.size, step):
        chunk = flat[start : start + step]
        if chunk.size < step:
            parts = parts[: 2 * chunk.size]
            parts[-1] = "\n"
            zeros = zeros[: chunk.size]
        # count tensors are mostly zeros: +0.0 (bit pattern 0) is written as
        # its repr literal and only the other values go through repr
        parts[0::2] = zeros
        nonzero = np.flatnonzero(chunk.view(np.uint64))
        for slot, v in zip((2 * nonzero).tolist(), chunk[nonzero].tolist()):
            parts[slot] = repr(v)
        fh.write("".join(parts))


def parse_floats(text: str, count: int, what: str) -> np.ndarray:
    """The ``count`` finite floats of a ``write_floats`` block, named ``what`` in errors.

    The writer ends every line with a newline: a block without one was cut,
    possibly inside its last value.
    """
    if text and not text.endswith("\n"):
        raise ValueError(f"{what} is truncated: no final newline")
    if text.isspace():
        values = np.empty(0)  # fromstring reads a blank string as [-1.0]
    else:
        with warnings.catch_warnings():
            # older numpy only warns on unmatched data and returns the prefix
            warnings.simplefilter("error", DeprecationWarning)
            try:
                values = np.fromstring(text, sep=" ")
            except DeprecationWarning as exc:
                raise ValueError(str(exc)) from None
    if values.size != count:
        raise ValueError(f"{what}: expected {count} values, found {values.size}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds nan or inf values")
    return values


def save_tensor(t: Tensor3, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("dims %d %d %d\n" % t.dims)
        for axis in t.axis_labels:
            for label in axis:
                fh.write(label + "\n")
        write_floats(fh, t.data, _VALUES_PER_LINE)


def load_tensor(path) -> Tensor3:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _MAGIC:
            raise ValueError(f"not a tensor3 file: bad header {magic!r}")
        dims_line = fh.readline().split()
        if len(dims_line) != 4 or dims_line[0] != "dims":
            raise ValueError("malformed dims line")
        dims = tuple(int(v) for v in dims_line[1:])
        labels = []
        for n in dims:
            axis = []
            for _ in range(n):
                line = fh.readline()
                if line == "":
                    raise ValueError("unexpected end of file in label block")
                axis.append(line.rstrip("\n"))
            labels.append(tuple(axis))
        block = fh.read()
    values = parse_floats(block, dims[0] * dims[1] * dims[2], "tensor3 file")
    return Tensor3(values.reshape(dims), tuple(labels))  # type: ignore[arg-type]
