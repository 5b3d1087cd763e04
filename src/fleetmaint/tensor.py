"""Sparse 3-mode labeled tensors and the multilinear kernels behind CP-ALS.

Layout is fixed repo-wide: entries are row-major, the first axis slowest and
the third fastest. A tensor holds its entries' flat positions and values (a
coordinate tensor, Bader & Kolda 2007); the mttkrp kernels read one at most
1/``_SPARSE_FILL`` full through its nonzeros, and any other through the (I,
J*K) view of its dense C-contiguous float64 array. They are internal and
check no argument: ``cp_als`` builds their stacks. The mode-n unfolding they
are checked against (Kolda & Bader 2009) and the explicit ``unfold @
khatri_rao`` reference live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import errno
import functools
import math
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .knobs import _check

AxisLabels = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]

# the most entries a dense tensor, built or loaded, may hold, and the most
# floats of the CP-ALS working set: 2**27 floats are 1 GiB
MAX_TENSOR_FLOATS = 1 << 27


def check_dims(dims) -> None:
    """Raise ValueError unless the dims hold at most ``MAX_TENSOR_FLOATS``
    entries, so the dense array may be built."""
    if math.prod(dims) > MAX_TENSOR_FLOATS:
        raise ValueError(f"a {'x'.join(map(str, dims))} tensor holds {math.prod(dims)} "
                         f"entries, past {MAX_TENSOR_FLOATS}")


@dataclass(frozen=True)
class Tensor3:
    """Immutable 3-mode tensor with one label per index of each axis.

    It holds the strictly increasing flat positions of its stored entries
    and their finite values; every other entry is +0.0. A stored zero (a
    file's ``-0.0`` or ``0``) is kept, so a file writes back to the same
    bytes, but the kernels skip it. The positions and values are copied
    read-only, so no other array writes to them. ``data``, the dense (I, J,
    K) array, is built on first use, read-only."""

    dims: tuple[int, int, int]
    positions: np.ndarray
    values: np.ndarray
    axis_labels: AxisLabels

    def __post_init__(self) -> None:
        dims = _check("Tensor3 dims", self.dims, "tuple[int, ...]", {"ge": 1})
        check_dims(dims)
        pos = np.array(self.positions, dtype=np.int64)
        vals = np.array(self.values, dtype=np.float64)
        if pos.ndim != 1 or pos.shape != vals.shape or pos.size and (
                pos[0] < 0 or pos[-1] >= math.prod(dims) or (pos[1:] <= pos[:-1]).any()):
            raise ValueError("Tensor3 positions must be one per value, increasing within dims")
        if not np.isfinite(vals).all():
            raise ValueError("Tensor3 data holds nan or inf values")
        labels = tuple(tuple(str(x) for x in axis) for axis in self.axis_labels)
        if len(dims) != 3 or len(labels) != 3:
            raise ValueError("Tensor3 must have three dims and three label lists")
        for ax, (n, lab) in enumerate(zip(dims, labels)):
            if len(lab) != n:
                raise ValueError(f"axis {ax} has {n} indices but {len(lab)} labels")
            if any("\n" in s or "\r" in s for s in lab):
                raise ValueError("labels must not contain newlines")
        # the dims hold at most 2**27 entries: int32 halves the positions' memory
        pos = pos.astype(np.int32)
        pos.flags.writeable = vals.flags.writeable = False
        for name, value in zip(("dims", "positions", "values", "axis_labels"),
                               (dims, pos, vals, labels)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The dense (I, J, K) array, read-only."""
        out = FloatBlock(math.prod(self.dims), self.positions, self.values).dense()
        out.shape, out.flags.writeable = self.dims, False
        return out

    @functools.cached_property
    def _nonzeros(self) -> "tuple[_Chunks, _Chunks] | None":
        """The nonzeros (stored values != 0) of the (I, J*K) view grouped by row
        and, in a stable sort, by column; None when more than 1/_SPARSE_FILL
        of the entries are nonzero. Built once: the tensor is immutable."""
        nonzero = self.values != 0
        nnz = np.count_nonzero(nonzero)
        if nnz * _SPARSE_FILL > math.prod(self.dims):
            return None
        # with no stored zero the values are shared, not copied
        pos, vals = (self.positions, self.values) if nnz == nonzero.size else (
            self.positions[nonzero], self.values[nonzero])
        # int64 indices, which np.take reads without a converted copy
        rows, cols = np.divmod(pos, np.int64(self.dims[1] * self.dims[2]))
        # unique keys sort faster than a stable sort by column, to the same order
        order = np.argsort(cols * self.dims[0] + rows)
        return _chunks(rows, cols, vals), _chunks(cols[order], rows[order], vals[order])


# a tensor at most 1/_SPARSE_FILL nonzero takes the nonzero-list kernels: at
# rank 25 on a 1087x81x96 tensor they beat the GEMMs up to about 3.5% fill; at
# rank 5 on a 60x8x48 one either path takes tens of microseconds (README)
_SPARSE_FILL = 32
# nonzeros per pass of the segment sum: an (R, _SEGMENT_CHUNK) buffer is a few MB
_SEGMENT_CHUNK = 1 << 14


class _Chunk(NamedTuple):
    """Consecutive runs of nonzeros that share one coordinate, the group."""

    idx: np.ndarray  # the other coordinate of each nonzero
    vals: np.ndarray  # its value
    groups: np.ndarray  # the group of each run
    starts: np.ndarray  # the offset of each run's first nonzero in the chunk


_Chunks = tuple[_Chunk, ...]


def _chunks(keys: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> _Chunks:
    """The nonzeros ``(keys, idx, vals)``, sorted by ``keys``, in chunks of
    about ``_SEGMENT_CHUNK`` that each begin where a run begins."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    # each chunk begins with the run that holds its first wanted nonzero
    first = np.unique(np.searchsorted(starts, np.arange(0, keys.size, _SEGMENT_CHUNK),
                                      side="right") - 1)
    bounds = np.append(starts[first], keys.size).tolist()
    return tuple(
        _Chunk(idx[lo:hi], vals[lo:hi], keys[runs], runs - lo)
        for lo, hi, runs in zip(bounds, bounds[1:], np.split(starts, first[1:]))
    )


def _segment_sums(table_t: np.ndarray, chunks: _Chunks, n: int) -> np.ndarray:
    """The (R, n) array whose column g sums ``val * table_t[:, idx]`` over the
    nonzeros of group g; a group with no nonzero gives a zero column."""
    table_t = np.ascontiguousarray(table_t)
    rank = table_t.shape[0]
    out = np.zeros((rank, n))
    buf = np.empty(rank * max((chunk.idx.size for chunk in chunks), default=0))
    for idx, vals, groups, starts in chunks:
        part = buf[: rank * idx.size].reshape(rank, idx.size)
        # mode="clip" writes into out= directly; "raise" goes through a copy
        np.take(table_t, idx, axis=1, out=part, mode="clip")
        part *= vals
        out[:, groups] = np.add.reduceat(part, starts, axis=1)
    return out


def mttkrp(t: Tensor3, f1: np.ndarray, f2: np.ndarray, mode: int) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product for the target mode, for a
    stack of S factor pairs at once, as CP-ALS passes its restarts.

    ``f1`` and ``f2`` are (S, n, R) stacks of the factor matrices of the two
    non-target modes in ascending mode order; slice s of the (S, I_mode, R)
    result is ``unfold(t, mode) @ khatri_rao(f2[s], f1[s])``, the reference
    in ``tests/oracles.py``, bit-identical to the call on that pair alone as
    a stack of one. Mode 1 multiplies the (I, J*K) view of the tensor by the
    Khatri-Rao product built as an (R, J*K) array: one GEMM, or for a tensor
    at most 1/32 full a sum over each row's nonzeros. Modes 2 and 3 contract
    over i first (:func:`mttkrp_partial`) and finish with
    :func:`mttkrp_from_partial`.
    """
    f1, f2 = (np.ascontiguousarray(f, dtype=np.float64) for f in (f1, f2))
    if mode != 1:
        return mttkrp_from_partial(mttkrp_partial(t, f1), f2, mode)
    dims = t.dims
    stack, rank = f1.shape[0], f1.shape[2]
    # row r, column j*K + k holds f1[j, r] * f2[k, r], matching the column
    # order of the C-contiguous (I, J*K) view; the product comes out r
    # fastest, so each slice is an F-ordered view, a layout the GEMM rounds by
    kr = (f1.swapaxes(1, 2)[:, :, :, None] * f2.swapaxes(1, 2)[:, :, None, :]).reshape(
        stack, rank, -1)
    nonzeros = t._nonzeros
    if nonzeros is not None:
        m = _segment_sums(kr.reshape(stack * rank, -1), nonzeros[0], dims[0])
        m = m.reshape(stack, rank, -1)
    else:
        # (KR X_(1)^T)^T, which BLAS does faster than X_(1) KR^T
        m = kr @ t.data.reshape(dims[0], -1).T
    return m.swapaxes(1, 2)


def mttkrp_partial(t: Tensor3, a: np.ndarray) -> np.ndarray:
    """Z = A^T X_(1) for each (I, R) factor A of the (S, I, R) stack ``a``,
    as the (S, R, J, K) stack: the contraction over i that the mode-2 and
    mode-3 MTTKRPs share (a dimension tree, Phan et al. 2013). One GEMM, or
    for a tensor at most 1/32 full a sum over each column's nonzeros."""
    dims = t.dims
    a = np.ascontiguousarray(a, dtype=np.float64)
    stack, rank = a.shape[0], a.shape[2]
    nonzeros = t._nonzeros
    if nonzeros is not None:
        z = _segment_sums(a.swapaxes(1, 2).reshape(stack * rank, -1), nonzeros[1],
                          dims[1] * dims[2])
    else:
        z = a.swapaxes(1, 2) @ t.data.reshape(dims[0], -1)
    return z.reshape(stack, rank, dims[1], dims[2])


def mttkrp_from_partial(z: np.ndarray, f: np.ndarray, mode: int) -> np.ndarray:
    """The stack of mode-2 (``f`` = C) or mode-3 (``f`` = B) MTTKRPs from
    the (S, R, J, K) stack of Z = A^T X_(1) and the (S, n, R) stack ``f``."""
    # one O(R*J*K) pass; einsum without path search, a plain C loop
    return np.einsum("srjk,skr->sjr" if mode == 2 else "srjk,sjr->skr", z, f)


def frob_norm(x: np.ndarray) -> float:
    """Frobenius norm of an array: square root of the sum of squared entries."""
    return float(np.linalg.norm(x.ravel()))


# ---------------------------------------------------------------------------
# plain-text serialization (grammar in README.md): "tensor3 v1", "dims I J K",
# the I+J+K axis labels one per line, then the I*J*K values in the fixed layout
# ---------------------------------------------------------------------------

_MAGIC = "tensor3 v1"
_VALUES_PER_LINE = 8
_CHUNK_LINES = 1 << 15
_PARSE_CHARS = 1 << 18
# every byte but the whitespace np.fromstring skips
_TOKEN_BYTES = bytes(sorted(set(range(256)) - set(b" \t\n\v\f\r")))


class FloatBlock(NamedTuple):
    """``count`` floats in C order: the strictly increasing positions of some
    entries and their values; every other entry is +0.0."""

    count: int
    positions: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, values) -> "FloatBlock":
        """The entries of ``values`` whose bit pattern is not 0 (-0.0 too)."""
        flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        positions = np.flatnonzero(flat.view(np.uint64))
        return cls(flat.size, positions, flat[positions])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.count)
        out[self.positions] = self.values
        return out


def write_floats(fh, block: FloatBlock, per_line: int) -> None:
    """Write ``block`` as ``repr`` floats, ``per_line`` to a line, each line
    ending with a newline (an empty block writes nothing): the one writer of
    the float blocks of the tensor, CP model and sequence model formats."""
    count, positions, values = block
    if count == 0:
        return
    lines = min(_CHUNK_LINES, -(-count // per_line))
    step = lines * per_line
    # a chunk of +0.0 values: value k's token "0.0" at 4k, its separator at 4k + 3
    template = ("0.0 " * (per_line - 1) + "0.0\n") * lines
    # count tensors are mostly zeros: only the listed entries of each chunk
    # go through repr, spliced over their token
    bounds = np.searchsorted(positions, np.arange(0, count + step, step)).tolist()
    for start, first, last in zip(range(0, count, step), bounds, bounds[1:]):
        if count - start < step:
            template = template[: 4 * (count - start) - 1] + "\n"
        cuts = (4 * (positions[first:last] - start)).tolist()
        parts = [None] * (2 * len(cuts) + 1)
        parts[0::2] = [template[lo:hi] for lo, hi in zip([0, *[c + 3 for c in cuts]],
                                                         [*cuts, len(template)])]
        parts[1::2] = map(repr, values[first:last].tolist())
        fh.write("".join(parts))


def parse_floats(source, count: int, what: str) -> FloatBlock:
    """The ``count`` finite floats of a ``write_floats`` block, named ``what`` in errors.

    ``source`` is the block's text, or a text file read from where it stands
    to its end. The writer ends every line with a newline: a block without
    one was cut, possibly inside its last value. Count tensors are mostly
    zeros, written as the token ``0.0``: a token that is exactly ``0.0`` is
    +0.0, left out of the block's positions unparsed, and every other token
    goes through ``np.fromstring``, so the block is accepted or rejected,
    and read to the same values, as if ``np.fromstring`` read it whole. It
    is read in pieces of ``_PARSE_CHARS`` characters, so no temporary is the
    size of the block; the output takes 16 bytes for each of the first
    ``count`` tokens that is not ``0.0``, at most 8 per character of text.
    The errors do not depend on where the pieces end: a cut block fails
    before a malformed token, which fails before a wrong count."""
    if isinstance(source, str):
        pieces = (source[i : i + _PARSE_CHARS] for i in range(0, len(source), _PARSE_CHARS))
    else:
        pieces = iter(functools.partial(source.read, _PARSE_CHARS), "")
    positions, values = [np.zeros(0, np.intp)], [np.zeros(0)]
    found, finite, malformed, carry, piece = 0, True, None, b"", ""
    for piece in pieces:
        # cut after the piece's last whitespace; the partial token after
        # it opens the next piece
        buf = carry + piece.encode()
        head = buf.rstrip(_TOKEN_BYTES)
        carry = buf[len(head):]
        b = np.frombuffer(head, dtype=np.uint8)
        ws = (b == 32) | (b - 9 < 5)  # space, or \t \n \v \f \r (uint8 wraps)
        first = ~ws  # the first byte of each token
        first[1:] &= ws[:-1]
        zero = np.zeros_like(first)  # the first byte of each 0.0 token
        zero[:-3] = first[:-3] & (b[:-3] == 48) & (b[1:-2] == 46) & (b[2:-1] == 48) & ws[3:]
        # the start marks, 64 to a little-endian word: bit i of word w marks byte 64w + i
        packed = np.packbits(first, bitorder="little")
        words = np.zeros(-(-packed.size // 8), "<u8")
        words.view(np.uint8)[: packed.size] = packed
        ones = np.bitwise_count(words)
        # zero marks a subset of first, so first ^ zero marks the other tokens; a
        # token's index counts the marks through its word less its own and later ones
        other = np.flatnonzero(first ^ zero)
        index = (found + np.cumsum(ones, dtype=np.intp)[other >> 6]
                 - np.bitwise_count(words[other >> 6] >> (other & 63).astype(np.uint64)))
        found += int(ones.sum())
        if not index.size or malformed:  # a blank string reads as [-1.0]
            continue
        # drop each 0.0 token with the whitespace byte after it: the
        # other tokens keep their order and a separator each
        drop = zero.copy()
        for shift in (1, 2, 3):
            drop[shift:] |= zero[:-shift]
        try:
            parsed = np.fromstring(b[~drop], sep=" ")
        except ValueError as exc:
            malformed = str(exc)
            continue
        finite = finite and bool(np.isfinite(parsed).all())
        if found <= count:
            positions.append(index)
            values.append(parsed)
    if piece and not piece.endswith("\n"):
        raise ValueError(f"{what} is truncated: no final newline")
    if malformed:
        raise ValueError(f"{what}: {malformed}")
    if found != count:
        raise ValueError(f"{what}: expected {count} values, found {found}")
    if not finite:
        raise ValueError(f"{what} holds nan or inf values")
    return FloatBlock(count, np.concatenate(positions), np.concatenate(values))


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for ``exc``, raised reading ``path`` as UTF-8 text. The text
    layer decodes ahead of the reader, so the position in ``exc`` counts
    within a chunk: the message names the first line that is not UTF-8."""
    with open(path, "rb") as fh:
        # no UTF-8 sequence holds the newline byte, so lines decode alone
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}: line {line_no}: not UTF-8 text: {exc.reason}"
    return f"{path}: not UTF-8 text: {exc.reason}"


@contextmanager
def writing(path):
    """``path`` opened to write UTF-8 text with no newline translation, as
    every artifact is written. The text goes to a new sibling file that then
    replaces the file whole, with its permission bits, so an error or an
    interrupt leaves an earlier file as it was; a link is followed, and stays
    a link. A path that exists but is not a regular file, such as a device or
    a FIFO, is written directly. An OSError names ``path``, as open() does."""
    target = os.path.realpath(path) if os.path.islink(path) else path
    mode = os.stat(target).st_mode if os.path.exists(target) else None
    # a name of fixed length, which fits wherever the target's name does
    tmp = None if mode and not stat.S_ISREG(mode) else os.path.join(
        os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp or target, "x" if tmp else "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        if tmp and mode:
            os.chmod(tmp, stat.S_IMODE(mode))
        if tmp:
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp:
            with suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            exc.filename = str(path)
        raise


def check_target(path):
    """Return ``path``, or raise the OSError :func:`writing` raises for a directory or a path
    whose parent is not one; the type of each output flag, checked before any input is read."""
    target = os.path.realpath(path)
    try:  # os.stat raises for a parent that is missing or under a file
        if os.path.isdir(target) or not stat.S_ISDIR(os.stat(os.path.dirname(target)).st_mode):
            code = errno.EISDIR if os.path.isdir(target) else errno.ENOTDIR
            raise OSError(code, os.strerror(code))
    except OSError as exc:
        exc.filename = str(path)
        raise
    return path


class FormatReader:
    """The line rules of the tensor3, cpmodel and seqmodel formats.

    A file opens with its ``magic`` line, whose first word names the format
    in errors. Every line written ends with a newline, so a line without one
    means the file was cut short. ``where`` names the part read last, for
    errors: a line, a float block's lines, or "" past the end of the file."""

    def __init__(self, fh, magic: str):
        self._fh = fh
        self._kind = magic.split()[0]
        self._lines = 1  # lines read
        self.where = "line 1"
        header = fh.readline()
        if header != magic + "\n":
            raise ValueError(f"not a {self._kind} file, or one cut short: bad header {header!r}")

    @classmethod
    @contextmanager
    def open(cls, path, magic: str):
        """A reader of the file at ``path``. A ValueError raised while it is
        open, by the reader or by its caller, is raised again prefixed with
        the path and ``where``; a byte that is not UTF-8 names its line."""
        reader = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reader = cls(fh, magic)
                yield reader
        except UnicodeDecodeError as exc:
            raise ValueError(not_utf8(path, exc)) from None
        except ValueError as exc:
            where = reader.where if reader else "line 1"
            raise ValueError(f"{path}: {where}: {exc}" if where else f"{path}: {exc}") from None

    def line(self) -> str:
        """The next line, without its newline."""
        line = self._fh.readline()
        self._lines += 1
        self.where = f"line {self._lines}"
        if not line.endswith("\n"):
            raise ValueError(f"{self._kind} file is truncated: it ends before a complete line")
        return line[:-1]

    def fields(self, keyword: str, count: int | None = None) -> list[str]:
        """The values of a ``keyword v1 v2 ...`` line: at least one, or exactly ``count``."""
        line = self.line()
        parts = line.split()
        if len(parts) < 2 or parts[0] != keyword or count not in (None, len(parts) - 1):
            raise ValueError(f"malformed {keyword} line {line!r}")
        return parts[1:]

    def integer(self, keyword: str, value: str, **bounds) -> int:
        """A value of a ``keyword`` line read as a header integer: one or more
        of the ASCII digits 0-9, and nothing else, within the knobs ``bounds``
        (``ge``, ``le``), checked as a config field named ``<kind> <keyword>``."""
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{keyword} must be written in the digits 0-9, got {value!r}")
        return _check(f"{self._kind} {keyword}", int(value), "int", bounds)

    def integers(self, keyword: str, count: int = 1, **bounds) -> list[int]:
        """The values of a ``keyword n1 n2 ...`` line of ``count`` header integers."""
        return [self.integer(keyword, value, **bounds) for value in self.fields(keyword, count)]

    def labels(self, dims) -> AxisLabels:
        """One verbatim label per line for each index of each axis, axis 1 first."""
        return tuple(tuple(self.line() for _ in range(n)) for n in dims)  # type: ignore[return-value]

    def floats(self, count: int, what: str, per_line: int | None = None) -> FloatBlock:
        """A ``write_floats`` block of ``count`` values: its ceil(count / per_line)
        lines, or with no ``per_line`` the rest of the file."""
        if per_line is None:
            block, self.where = self._fh, ""
        else:
            first = self._lines + 1
            block = "".join(self.line() + "\n" for _ in range(-(-count // per_line)))
            if self._lines > first:
                self.where = f"lines {first}-{self._lines}"
        return parse_floats(block, count, f"{self._kind} {what}")

    def end(self) -> None:
        """Check that the file ends here."""
        self._lines += 1
        self.where = f"line {self._lines}"
        if self._fh.read():
            raise ValueError(f"{self._kind} file has data after the last block")
        self.where = ""


def save_tensor(t: Tensor3, path) -> None:
    with writing(path) as fh:
        fh.write(_MAGIC + "\n")
        fh.write("dims %d %d %d\n" % t.dims)
        for axis in t.axis_labels:
            for label in axis:
                fh.write(label + "\n")
        write_floats(fh, FloatBlock(math.prod(t.dims), t.positions, t.values), _VALUES_PER_LINE)


def load_tensor(path) -> Tensor3:
    with FormatReader.open(path, _MAGIC) as reader:
        dims = tuple(reader.integers("dims", 3, ge=1))
        check_dims(dims)
        labels = reader.labels(dims)
        block = reader.floats(math.prod(dims), "values")
        return Tensor3(dims, block.positions, block.values, labels)  # type: ignore[arg-type]
