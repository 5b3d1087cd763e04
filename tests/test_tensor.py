import io
import os
import re
import stat
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fleetmaint
from fleetmaint import tensor as tensor_module
from fleetmaint.ingest import TensorizeSpec, build_tensor, parse_maintenance, parse_vehicles
from fleetmaint.synth import demo_spec, generate, month_labels
from fleetmaint.tensor import (
    FloatBlock,
    FormatReader,
    Tensor3,
    check_target,
    frob_norm,
    load_tensor,
    mttkrp,
    mttkrp_from_partial,
    mttkrp_partial,
    not_utf8,
    parse_floats,
    save_tensor,
    write_floats,
    writing,
)
import oracles
from oracles import (
    cp_compose,
    default_labels,
    float_lines,
    fold,
    from_array,
    khatri_rao,
    mttkrp_reference,
    unfold,
)


def unfold_oracle(x: np.ndarray, mode: int) -> np.ndarray:
    """Independent unfolding by index arithmetic.

    Column conventions: mode 1 -> j + k*J, mode 2 -> i + k*I, mode 3 -> i + j*I
    (remaining axes with the earlier axis varying fastest).
    """
    dim_i, dim_j, dim_k = x.shape
    if mode == 1:
        out = np.zeros((dim_i, dim_j * dim_k))
    elif mode == 2:
        out = np.zeros((dim_j, dim_i * dim_k))
    else:
        out = np.zeros((dim_k, dim_i * dim_j))
    for i in range(dim_i):
        for j in range(dim_j):
            for k in range(dim_k):
                if mode == 1:
                    out[i, j + k * dim_j] = x[i, j, k]
                elif mode == 2:
                    out[j, i + k * dim_i] = x[i, j, k]
                else:
                    out[k, i + j * dim_i] = x[i, j, k]
    return out


def parse_floats_oracle(text: str, count: int, what: str) -> np.ndarray:
    """The former ``parse_floats``: one ``np.fromstring`` call on the whole block."""
    if text and not text.endswith("\n"):
        raise ValueError(f"{what} is truncated: no final newline")
    if text.isspace():
        values = np.empty(0)  # fromstring reads a blank string as [-1.0]
    else:
        values = np.fromstring(text, sep=" ")
    if values.size != count:
        raise ValueError(f"{what}: expected {count} values, found {values.size}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds nan or inf values")
    return values


def save_tensor_oracle(t: Tensor3, path) -> None:
    """The former ``save_tensor``: header and labels, then 8 values per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tensor3 v1\n")
        fh.write("dims %d %d %d\n" % t.dims)
        for axis in t.axis_labels:
            for label in axis:
                fh.write(label + "\n")
        fh.write(float_lines(t.data, 8))


# zeros dominate count tensors; the rest covers signed zero, subnormals and
# the ends of the finite range
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1.0, 0.1, -3.0,
]
float_values = st.one_of(
    st.just(0.0),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def random_tensor(rng, max_dim=6):
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=3))
    return from_array(rng.normal(size=dims))


class TestUnfold:
    def test_degenerate_single_entry(self):
        t = from_array(np.array([[[5.0]]]))
        for mode in (1, 2, 3):
            assert unfold(t, mode).tolist() == [[5.0]]

    def test_mode1_of_2x2x2_enumerated(self):
        # entries 0..7 in the fixed layout: x[i,j,k] = 4i + 2j + k
        t = from_array(np.arange(8.0).reshape(2, 2, 2))
        expected = np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]])
        np.testing.assert_array_equal(unfold(t, 1), expected)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_index_arithmetic_oracle(self, mode):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_tensor(rng)
            np.testing.assert_array_equal(unfold(t, mode), unfold_oracle(t.data, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_fold_round_trip_exact(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_tensor(rng)
            back = fold(unfold(t, mode), mode, t.dims, t.axis_labels)
            np.testing.assert_array_equal(back.data, t.data)
            assert back.axis_labels == t.axis_labels

    def test_unfold_is_linear(self):
        rng = np.random.default_rng(3)
        for mode in (1, 2, 3):
            a = rng.normal(size=(3, 4, 2))
            b = rng.normal(size=(3, 4, 2))
            alpha = 2.75
            lhs = unfold(from_array(alpha * a + b), mode)
            rhs = alpha * unfold(from_array(a), mode) + unfold(from_array(b), mode)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_bad_mode_rejected(self):
        t = from_array(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        mode=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_property(self, dims, mode, seed):
        x = np.random.default_rng(seed).normal(size=dims)
        t = from_array(x)
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, dims).data, x)


class TestKhatriRao:
    def test_scalar_rows(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(khatri_rao(a, b), [[4.0, 10.0, 18.0]])

    def test_hand_expanded_column(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(khatri_rao(a, b), [[3.0], [4.0], [6.0], [8.0]])

    def test_zero_columns(self):
        out = khatri_rao(np.zeros((2, 0)), np.zeros((3, 0)))
        assert out.shape == (6, 0)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_columns_are_kronecker_products(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        out = khatri_rao(a, b)
        for r in range(3):
            np.testing.assert_allclose(out[:, r], np.kron(a[:, r], b[:, r]), atol=1e-14)


class TestMttkrp:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_zero_tensor(self, mode):
        t = from_array(np.zeros((3, 4, 5)))
        shapes = {1: (4, 5), 2: (3, 5), 3: (3, 4)}
        f1 = np.ones((shapes[mode][0], 2))
        f2 = np.ones((shapes[mode][1], 2))
        out = mttkrp(t, f1[None], f2[None], mode)[0]
        assert out.shape == (t.dims[mode - 1], 2)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_explicit_path(self, mode):
        rng = np.random.default_rng(17)
        t = from_array(rng.normal(size=(3, 4, 5)))
        shapes = {1: (4, 5), 2: (3, 5), 3: (3, 4)}
        f1 = rng.normal(size=(shapes[mode][0], 2))
        f2 = rng.normal(size=(shapes[mode][1], 2))
        np.testing.assert_allclose(
            mttkrp(t, f1[None], f2[None], mode)[0], mttkrp_reference(t, f1, f2, mode),
            atol=1e-10
        )

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=4)
        b = rng.normal(size=3)
        c = rng.normal(size=5)
        t = from_array(np.einsum("i,j,k->ijk", a, b, c))
        out = mttkrp(t, b[None, :, None], c[None, :, None], 1)[0]
        expected = a[:, None] * (b @ b) * (c @ c)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        t = from_array(np.ones((3, 4, 5)))
        with pytest.raises(ValueError):
            mttkrp(t, np.ones((1, 4, 2)), np.ones((1, 5, 3)), 1)
        with pytest.raises(ValueError):
            mttkrp(t, np.ones((1, 3, 2)), np.ones((1, 5, 2)), 1)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 6)] * 3),
        rank=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(1, 1, 1), rank=3, seed=0)
    @example(dims=(5, 1, 4), rank=7, seed=1)
    @example(dims=(1, 6, 1), rank=8, seed=2)
    def test_shared_partial_matches_reference(self, dims, rank, seed):
        # cp_als takes modes 2 and 3 from one Z = A'X_(1); mttkrp builds on
        # the same two helpers
        rng = np.random.default_rng(seed)
        t = from_array(rng.normal(size=dims))
        a, b, c = (rng.normal(size=(d, rank)) for d in dims)
        z = mttkrp_partial(t, a[None])
        assert z.shape == (1, rank, dims[1], dims[2])
        cases = [(mttkrp_from_partial(z, c[None], 2)[0], mttkrp_reference(t, a, c, 2)),
                 (mttkrp_from_partial(z, b[None], 3)[0], mttkrp_reference(t, a, b, 3))]
        cases += [(mttkrp(t, f1[None], f2[None], mode)[0], mttkrp_reference(t, f1, f2, mode))
                  for mode, f1, f2 in ((1, b, c), (2, a, c), (3, a, b))]
        for fast, slow in cases:
            assert fast.shape == slow.shape
            assert np.abs(fast - slow).max() <= 1e-10


def sparse_tensor(dims, nnz, seed):
    """A tensor with ``nnz`` nonzero entries at random places."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(int(np.prod(dims)))
    flat[rng.choice(flat.size, nnz, replace=False)] = rng.normal(size=nnz)
    return flat.reshape(dims)


class TestSparseMttkrp:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9)),
        share=st.floats(0, 1),
        rank=st.integers(1, 6),
        chunk=st.sampled_from([1, 2, 5, 1 << 14]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(1, 1, 1), share=1.0, rank=2, chunk=1 << 14, seed=0)  # all zero
    @example(dims=(4, 2, 4), share=1.0, rank=3, chunk=1 << 14, seed=1)  # one nonzero
    @example(dims=(40, 9, 9), share=1.0, rank=1, chunk=1, seed=2)
    def test_matches_reference(self, dims, share, rank, chunk, seed):
        # at most 1/32 of the entries nonzero, so many rows and columns are empty
        nnz = int(share * (np.prod(dims) // 32))
        x = sparse_tensor(dims, nnz, seed)
        rng = np.random.default_rng(seed + 1)
        a, b, c = (rng.normal(size=(d, rank)) for d in dims)
        # chunks of a few nonzeros put runs across chunk boundaries
        with mock.patch.object(tensor_module, "_SEGMENT_CHUNK", chunk):
            t = from_array(x)
            assert t._nonzeros is not None
            z = mttkrp_partial(t, a[None])[0]
            assert np.abs(z - np.einsum("ir,ijk->rjk", a, x)).max(initial=0) <= 1e-10
            for mode, f1, f2 in ((1, b, c), (2, a, c), (3, a, b)):
                fast = mttkrp(t, f1[None], f2[None], mode)[0]
                slow = mttkrp_reference(x, f1, f2, mode)
                assert fast.shape == slow.shape
                assert np.abs(fast - slow).max(initial=0) <= 1e-10

    def test_write_through_a_view_leaves_the_tensor_alone(self):
        # the tensor owns its positions and values, so a write through a view
        # of the wrapped array, made before wrapping, changes neither the
        # dense view nor the nonzero lists cached by the first call
        base = np.zeros((4, 4, 8))
        base[0, 0, 0] = 1
        v = base[:]
        t = from_array(base)
        b, c = np.ones((4, 1)), np.ones((8, 1))
        mttkrp(t, b[None], c[None], 1)
        v[1, 1, 1] = 5
        assert t.data[1, 1, 1] == 0
        np.testing.assert_array_equal(mttkrp(t, b[None], c[None], 1)[0], [[1], [0], [0], [0]])
        np.testing.assert_array_equal(mttkrp(t, b[None], c[None], 1)[0],
                                      mttkrp_reference(t, b, c, 1))

    @pytest.mark.parametrize("nnz, sparse", [(0, True), (4, True), (5, False)])
    def test_path_follows_fill(self, nnz, sparse):
        # 128 entries: 4 nonzeros are 1/32 of them, 5 are more
        t = from_array(sparse_tensor((4, 4, 8), nnz, 3))
        spy = mock.patch.object(tensor_module, "_segment_sums", wraps=tensor_module._segment_sums)
        with spy as segment_sums:
            mttkrp(t, np.ones((1, 4, 2)), np.ones((1, 8, 2)), 1)
            mttkrp_partial(t, np.ones((1, 4, 2)))
        assert segment_sums.call_count == (2 if sparse else 0)

    def test_demo_tensor_takes_the_gemms(self, tmp_path):
        spec = demo_spec(seed=1234)
        fleet = generate(spec, tmp_path)
        labels = month_labels(spec.window_start, spec.months)
        t = build_tensor(
            parse_vehicles(fleet.vehicles_path), parse_maintenance(fleet.maintenance_path)[0],
            TensorizeSpec(window_start=labels[0], window_end=labels[-1]),
        ).tensor
        assert 32 * np.count_nonzero(t.data) > t.data.size
        rank = 5
        with mock.patch.object(tensor_module, "_segment_sums") as segment_sums:
            mttkrp(t, np.ones((1, t.dims[1], rank)), np.ones((1, t.dims[2], rank)), 1)
            mttkrp_partial(t, np.ones((1, t.dims[0], rank)))
        segment_sums.assert_not_called()


# a zero spelled other than the writer's 0.0, and values at the ends of the
# finite range
ZERO_TOKENS = ["-0.0", "0", "0.00", "+0.0", "0e0", "-0"]
VALUE_TOKENS = ["5e-324", "-5e-324", "1e-310", "1e308", "1.0", "3", "-2.5"]


class TestStoredZeros:
    """A file's zero tokens are stored entries: saved back as their ``repr``,
    never counted as nonzeros by the path choice or the kernels."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8)),
        cells=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.sampled_from(ZERO_TOKENS + VALUE_TOKENS)), max_size=12),
        rank=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # 5 stored zeros and 4 values in 128 entries: 9 stored, 4 nonzero, so the
    # nonzero path
    @example(dims=(4, 4, 8), cells=[(k / 9, tok) for k, tok in enumerate(
        ZERO_TOKENS[:5] + ["1e308", "5e-324", "-2.5", "3"])], rank=2, seed=0)
    @example(dims=(1, 1, 6), cells=[(k / 6, tok) for k, tok in enumerate(ZERO_TOKENS)],
             rank=1, seed=0)
    def test_zero_spellings(self, tmp_path, dims, cells, rank, seed):
        size = int(np.prod(dims))
        tokens = ["0.0"] * size
        for where, token in cells:
            tokens[int(where * size)] = token
        values = np.array([float(token) for token in tokens])
        header = "tensor3 v1\ndims %d %d %d\n" % dims + "".join(
            label + "\n" for axis in default_labels(dims) for label in axis)
        path = tmp_path / "t.txt"
        path.write_text(header + " ".join(tokens) + "\n")
        t = load_tensor(path)
        np.testing.assert_array_equal(bits(t.data.ravel()), bits(values))
        save_tensor(t, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == header + float_lines(values, 8)
        nnz = np.count_nonzero(values)
        assert (t._nonzeros is not None) == (32 * nnz <= size)
        for chunks in t._nonzeros or ():
            listed = np.concatenate([np.zeros(0), *(chunk.vals for chunk in chunks)])
            assert listed.size == nnz and np.all(listed != 0)
        # the factors keep every product finite; the error is bounded by the
        # sum of the absolute terms, and by a subnormal's rounding
        rng = np.random.default_rng(seed)
        a, b, c = (rng.random((d, rank)) / 64 for d in dims)
        x = values.reshape(dims)
        for mode, f1, f2 in ((1, b, c), (2, a, c), (3, a, b)):
            error = np.abs(mttkrp(t, f1[None], f2[None], mode)[0]
                           - mttkrp_reference(x, f1, f2, mode))
            assert np.all(error <= 1e-12 * mttkrp_reference(np.abs(x), f1, f2, mode) + 1e-300)
        error = np.abs(mttkrp_partial(t, a[None])[0] - np.einsum("ir,ijk->rjk", a, x))
        assert np.all(error <= 1e-12 * np.einsum("ir,ijk->rjk", a, np.abs(x)) + 1e-300)


class TestStackedMttkrp:
    """A stack of factors gives, slice for slice and bit for bit, what the
    single-matrix kernels in tests/oracles.py give on each slice."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9)),
        sparse=st.booleans(),
        rank=st.integers(1, 10),
        stack=st.integers(1, 4),
        solved=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(40, 9, 9), sparse=True, rank=10, stack=3, solved=True, seed=0)
    @example(dims=(12, 9, 9), sparse=False, rank=9, stack=2, solved=False, seed=1)
    def test_each_slice_matches_its_single_call(self, dims, sparse, rank, stack, solved, seed):
        rng = np.random.default_rng(seed)
        if sparse:
            x = sparse_tensor(dims, max(1, int(np.prod(dims)) // 32), seed)
        else:
            x = rng.normal(size=dims)
        t = from_array(x)
        # C-contiguous factors, or the transposed views a batched solve returns
        a, b, c = (
            f.swapaxes(1, 2) if solved else np.ascontiguousarray(f.swapaxes(1, 2))
            for f in (rng.normal(size=(stack, rank, d)) for d in dims)
        )
        z = mttkrp_partial(t, a)
        stacked = (mttkrp(t, b, c, 1), mttkrp(t, a, c, 2), mttkrp(t, a, b, 3), z,
                   mttkrp_from_partial(z, c, 2), mttkrp_from_partial(z, b, 3))
        for s in range(stack):
            single = (oracles.mttkrp(t, b[s], c[s], 1), oracles.mttkrp(t, a[s], c[s], 2),
                      oracles.mttkrp(t, a[s], b[s], 3), oracles.mttkrp_partial(t, a[s]),
                      oracles.mttkrp_from_partial(z[s], c[s], 2),
                      oracles.mttkrp_from_partial(z[s], b[s], 3))
            for got, want in zip(stacked, single):
                assert got.shape == (stack, *want.shape)
                assert got[s].tobytes() == want.tobytes()


class TestCpCompose:
    def test_single_component(self):
        t = cp_compose(
            np.array([2.0]),
            (np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0]])),
        )
        assert t.shape == (2, 1, 1)
        np.testing.assert_array_equal(t.ravel(), [2.0, 0.0])

    def test_zero_weights(self):
        rng = np.random.default_rng(2)
        t = cp_compose(
            np.zeros(3),
            (rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))),
        )
        np.testing.assert_array_equal(t, 0.0)

    def test_matches_einsum_reference(self):
        rng = np.random.default_rng(9)
        w = rng.random(3)
        a, b, c = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
        expected = np.einsum("r,ir,jr,kr->ijk", w, a, b, c)
        np.testing.assert_allclose(cp_compose(w, (a, b, c)), expected, atol=1e-12)

    def test_norm_matches_gram_closed_form(self):
        rng = np.random.default_rng(13)
        w = rng.random(4)
        a, b, c = rng.normal(size=(6, 4)), rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
        t = cp_compose(w, (a, b, c))
        gram = np.outer(w, w) * (a.T @ a) * (b.T @ b) * (c.T @ c)
        np.testing.assert_allclose(frob_norm(t) ** 2, gram.sum(), rtol=1e-8)


class TestFrobNorm:
    def test_zeros(self):
        assert frob_norm(np.zeros((2, 3, 4))) == 0.0

    def test_absolute_value(self):
        assert frob_norm(np.array([[[-3.0]]])) == 3.0

    def test_three_four_five(self):
        t = np.array([3.0, 4.0]).reshape(2, 1, 1)
        assert frob_norm(t) == pytest.approx(5.0, abs=1e-15)


class TestTensor3Construction:
    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            from_array(np.ones((2, 2, 2)), (("a",), ("b", "c"), ("d", "e")))

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            from_array(np.ones((2, 2)), (("a", "b"), ("c", "d"), ()))
        with pytest.raises(ValueError, match="three dims"):
            Tensor3((2, 2), [], [], (("a", "b"), ("c", "d")))

    def test_newline_in_label_rejected(self):
        with pytest.raises(ValueError):
            from_array(np.ones((1, 1, 1)), (("a\nb",), ("c",), ("d",)))

    def test_data_is_immutable(self):
        t = from_array(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 7.0
        for stored in (t.positions, t.values):
            with pytest.raises(ValueError):
                stored[0] = 1


    @pytest.mark.parametrize("at", [0, 5, 7])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad, at):
        data = np.arange(8.0).reshape(2, 2, 2)
        data.flat[at] = bad
        with pytest.raises(ValueError, match="nan or inf"):
            from_array(data)

    def test_finite_check_makes_no_full_size_temporary(self):
        dims = (100, 80, 250)
        positions = np.arange(0, 100 * 80 * 250, 997)
        values = np.ones(positions.size)
        labels = default_labels(dims)
        tracemalloc.start()
        try:
            Tensor3(dims, positions, values, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a boolean mask of the 2,000,000 entries alone would be 2 MB; the
        # copied positions and values are 16 bytes for each of 2,007 entries
        assert peak < 100 * 80 * 250 // 8, peak

    @pytest.mark.parametrize("dims, message", [
        ((2.7, 1, 1), "Tensor3 dims[0] must be an integer, got 2.7"),
        ((True, 1, 1), "Tensor3 dims[0] must be an integer, got True"),
        ((0, 1, 1), "Tensor3 dims[0] must be >= 1, got 0"),
        ((np.int64(2), 1, 1), None),
    ], ids=["float", "bool", "zero", "numpy int"])
    def test_dims_are_checked(self, dims, message):
        labels = (("a", "b"), ("c",), ("d",))
        if message is None:
            t = Tensor3(dims, [0], [1.0], labels)
            assert t.dims == (2, 1, 1) and all(type(n) is int for n in t.dims)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Tensor3(dims, [0], [1.0], labels)

    def test_package_exports_only_tensor3(self):
        assert fleetmaint.__all__ == ["Tensor3", "__version__"]

    @pytest.mark.parametrize("positions", [[0, 2, 2], [3, 1, 5], [-1, 0, 1], [0, 1, 8], [0, 1]],
                             ids=["repeated", "unsorted", "negative", "past the end", "short"])
    def test_positions_are_checked(self, positions):
        with pytest.raises(ValueError, match="positions must be one per value, increasing"):
            Tensor3((2, 2, 2), positions, [1.0, 2.0, 3.0], default_labels((2, 2, 2)))

class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        labels = (
            ("unit 007", "unit 011"),
            ("tires, tubes, liners & valves", "pm service all levels", "brakes"),
            ("2015-01", "2015-02", "2015-03", "2015-04"),
        )
        t = from_array(rng.normal(size=(2, 3, 4)), labels)
        path = tmp_path / "t.txt"
        save_tensor(t, path)
        back = load_tensor(path)
        np.testing.assert_array_equal(back.data, t.data)
        assert back.axis_labels == t.axis_labels

    def test_save_is_deterministic(self, tmp_path):
        t = from_array(np.random.default_rng(1).normal(size=(3, 2, 5)))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_tensor(t, p1)
        save_tensor(t, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_value_count_checked(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("tensor3 v1\ndims 1 1 2\na\nb\nc\n1.0\n")
        with pytest.raises(ValueError):
            load_tensor(path)

    @pytest.mark.parametrize("dims, message", [
        ("0 1 1", "tensor3 dims must be >= 1, got 0"),
        # a product of two negative dims is a positive count
        ("-1 -1 1", "dims must be written in the digits 0-9, got '-1'"),
        ("-2 1 -2", "dims must be written in the digits 0-9, got '-2'"),
    ], ids=["0 1 1", "-1 -1 1", "-2 1 -2"])
    def test_dims_below_one_rejected_at_their_line(self, tmp_path, dims, message):
        path = tmp_path / "t.txt"
        path.write_text(f"tensor3 v1\ndims {dims}\na\n1.0 2.0 3.0 4.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: "
                                             f"{re.escape(message)}"):
            load_tensor(path)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5)),
        elements=float_values,
    ))
    @example(data=np.array(EDGE_FLOATS[:-1]).reshape(1, 1, 11))
    def test_save_matches_per_value_writer(self, tmp_path, data):
        t = from_array(data)
        save_tensor(t, tmp_path / "new.txt")
        save_tensor_oracle(t, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        np.testing.assert_array_equal(bits(load_tensor(tmp_path / "new.txt").data), bits(data))

    def test_every_proper_prefix_rejected(self, tmp_path):
        data = np.array([[[0.25, 0.0, -2.0]], [[0.0, 3.0, 1.5]]])
        t = from_array(data, (("u1", "u2"), ("b",), ("x", "y", "z")))
        path = tmp_path / "t.txt"
        save_tensor(t, path)
        text = path.read_text()
        cut = tmp_path / "cut.txt"
        for n in range(len(text)):
            cut.write_text(text[:n])
            with pytest.raises(ValueError):
                load_tensor(cut)
        cut.write_text(text)
        np.testing.assert_array_equal(load_tensor(cut).data, data)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "t.txt"
        path.write_text(f"tensor3 v1\ndims 1 1 2\na\nb\nc\nd\n1.0 {bad}\n")
        with pytest.raises(ValueError, match="nan or inf"):
            load_tensor(path)

    def test_blank_value_block_rejected(self, tmp_path):
        # numpy reads a whitespace-only string as one value, -1.0
        path = tmp_path / "t.txt"
        path.write_text("tensor3 v1\ndims 1 1 1\na\nb\nc\n \n")
        with pytest.raises(ValueError, match="found 0"):
            load_tensor(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
                    elements=float_values),
        junk=st.sampled_from(["1_0", "abc", "2.0x", "0x1p3", "\u0663", "1,5", "--1", ".", "1e"]),
        where=st.floats(0.0, 1.0),
        replace=st.booleans(),
    )
    def test_malformed_token_rejected(self, tmp_path, data, junk, where, replace):
        t = from_array(data)
        path = tmp_path / "t.txt"
        save_tensor(t, path)
        lines = path.read_text().split("\n")
        n_head = 2 + sum(t.dims)
        tokens = " ".join(lines[n_head:]).split()

        def write(values):
            path.write_text("\n".join(lines[:n_head] + [" ".join(values)]) + "\n")

        write(tokens)
        np.testing.assert_array_equal(bits(load_tensor(path).data), bits(data))
        # the junk replaces a value, or follows one: at the end it is trailing data
        at = min(int(where * len(tokens)), len(tokens) - 1)
        tokens[at : at + 1] = [junk] if replace else [tokens[at], junk]
        write(tokens)
        with pytest.raises(ValueError):
            load_tensor(path)


class TestStreamedValueBlock:
    """``load_tensor`` and ``FormatReader.floats`` read the value block from the
    stream in ``_PARSE_CHARS`` pieces: where the pieces end changes nothing."""

    # long reprs, so that with pieces of 1-16 characters tokens straddle them
    VALUES = [0.0, 0.1234567890123, 0.0, -2.5e-300, 0.0, 0.0, 1.7976931348623157e308, 3.0]
    BLOCKS = {
        "valid": " ".join(map(repr, VALUES)) + "\n",
        "wrapped": "0.0 0.1234567890123\n0.0\t-2.5e-300 0.0\n0.0 1.7976931348623157e308 3.0\n",
        "no final newline": " ".join(map(repr, VALUES)),
        "malformed": "0.0 0.1234567890123 0.0 1x5 0.0 0.0 1.0 3.0\n",
        "malformed and cut": "0.0 0.1234567890123 0.0 1x5 0.0 0.0 1.0 3.0",
        "malformed and short": "0.0 1x5 0.0\n",
        "short": "0.0 0.1234567890123 0.0\n",
        "long": " ".join(map(repr, VALUES * 2)) + "\n",
        "nan": "0.0 0.1234567890123 0.0 nan 0.0 0.0 1.0 3.0\n",
        "inf and short": "0.0 -inf\n",
        "blank": "   \n",
        "empty": "",
    }

    @staticmethod
    def outcome(read):
        try:
            return "ok", bits(read()).ravel().tolist()
        except ValueError as exc:
            return "error", str(exc)

    @pytest.mark.parametrize("block", list(BLOCKS))
    def test_load_tensor_ignores_piece_size(self, tmp_path, block):
        path = tmp_path / "t.txt"
        path.write_text("tensor3 v1\ndims 2 1 4\nu1\nu2\nb\nw\nx\ny\nz\n" + self.BLOCKS[block])
        expected = self.outcome(lambda: load_tensor(path).data)
        for chunk in range(1, 17):
            with mock.patch.object(tensor_module, "_PARSE_CHARS", chunk):
                assert self.outcome(lambda: load_tensor(path).data) == expected, chunk
        if block in ("valid", "wrapped"):
            assert expected == ("ok", bits(np.array(self.VALUES)).tolist())
        else:
            assert expected[0] == "error"

    @pytest.mark.parametrize("block", list(BLOCKS))
    def test_stream_reader_ignores_piece_size(self, tmp_path, block):
        path = tmp_path / "f.txt"
        path.write_text("demo v1\n" + self.BLOCKS[block])

        def read():
            with open(path, encoding="utf-8") as fh:
                return FormatReader(fh, "demo v1").floats(len(self.VALUES), "w").dense()

        expected = self.outcome(read)
        # the whole block as one string gives the same outcome
        assert self.outcome(lambda: parse_floats(
            self.BLOCKS[block], len(self.VALUES), "demo w").dense()) == expected
        for chunk in range(1, 17):
            with mock.patch.object(tensor_module, "_PARSE_CHARS", chunk):
                assert self.outcome(read) == expected, chunk

    def test_errors_keep_their_order(self, tmp_path):
        path = tmp_path / "block.txt"
        count = len(self.VALUES)
        for block, message in [
            ("malformed and cut", "demo w is truncated: no final newline"),
            ("no final newline", "demo w is truncated: no final newline"),
            ("malformed and short", "demo w: string or file could not be read to its end"),
            ("short", "demo w: expected 8 values, found 3"),
            ("inf and short", "demo w: expected 8 values, found 2"),
            ("blank", "demo w: expected 8 values, found 0"),
            ("nan", "demo w holds nan or inf values"),
        ]:
            path.write_text(self.BLOCKS[block])
            with open(path, encoding="utf-8") as fh, \
                    pytest.raises(ValueError, match="^" + re.escape(message)):
                parse_floats(fh, count, "demo w")

    def test_malformed_token_names_the_block(self):
        # numpy 2 raises ValueError on unmatched data; a release that only
        # warned and returned the prefix fails here with DeprecationWarning
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match="^tensor3 values: .*unmatched data"):
            warnings.simplefilter("error", DeprecationWarning)
            parse_floats("1.0 1x5\n", 2, "tensor3 values")

    def test_load_makes_no_file_size_temporary(self, tmp_path):
        values = np.zeros((1 << 8, 1 << 4, 1 << 8))
        values.flat[::97] = 1.5
        path = tmp_path / "t.txt"
        save_tensor(from_array(values), path)
        chunk = 1 << 14
        with mock.patch.object(tensor_module, "_PARSE_CHARS", chunk):
            tracemalloc.start()
            try:
                got = load_tensor(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(bits(got.data), bits(values))
        # the array plus piece-sized buffers: the block's text alone would be
        # path.stat().st_size characters, about half the array's bytes
        assert path.stat().st_size > values.nbytes // 3
        assert peak <= values.nbytes + 16 * chunk, peak

    def test_count_the_file_could_hold_costs_at_most_four_bytes_a_byte(self, tmp_path):
        # dims that claim as many values as a file of this size could hold,
        # over a block 10 values short: the count check fails, and the
        # allocation stays within 8 bytes per 2 bytes of file
        labels = "".join(f"{i}\n" for _ in range(3) for i in range(100))
        path = tmp_path / "t.txt"
        path.write_text(f"tensor3 v1\ndims 100 100 100\n{labels}" + "0.0\n" * (10**6 - 10))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 1000000 values, found 999990$"):
                load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size + (1 << 20), (peak, size)

    def test_tokens_not_zero_cost_at_most_eight_bytes_a_byte(self, tmp_path):
        # the shortest tokens that are not 0.0, a digit and a newline: the
        # reader holds a position and a value, 16 bytes, for each 2 bytes of
        # the block until the count check fails, beside one piece's temporaries
        labels = "".join(f"{i}\n" for _ in range(3) for i in range(100))
        path = tmp_path / "t.txt"
        path.write_text(f"tensor3 v1\ndims 100 100 100\n{labels}" + "1\n" * (10**6 - 10))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 1000000 values, found 999990$"):
                load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * size < peak <= 8 * size + 16 * tensor_module._PARSE_CHARS, (peak, size)

    def test_count_past_the_file_is_a_count_error(self, tmp_path):
        # 1.25e8 values, within the dims bound, would take 1 GB: the count
        # check must come first
        labels = "".join(f"{i}\n" for _ in range(3) for i in range(500))
        path = tmp_path / "t.txt"
        path.write_text(f"tensor3 v1\ndims 500 500 500\n{labels}0.0 1.0 2.0\n")
        with pytest.raises(ValueError, match="expected 125000000 values, found 3$"):
            load_tensor(path)
        block = tmp_path / "block.txt"
        block.write_text("0.0 1.0 2.0\n")
        with open(block, encoding="utf-8") as fh, \
                pytest.raises(ValueError, match="expected 1000000000000000000 values, found 3$"):
            parse_floats(fh, 10**18, "block")


class TestFormatReader:
    def test_reads_each_part_in_order(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("demo v1\ndims 2 1\nu1\nu2\nb\n"
                        "block w 3\n0.5 0.0\n-2.0\n"
                        "block v 2\n1.0 2.0\n")
        with open(path, encoding="utf-8") as fh:
            reader = FormatReader(fh, "demo v1")
            assert reader.fields("dims", 2) == ["2", "1"]
            assert reader.labels((2, 1)) == (("u1", "u2"), ("b",))
            assert reader.fields("block") == ["w", "3"]
            # ceil(3 / 2) = 2 lines, leaving the next keyword line unread
            np.testing.assert_array_equal(reader.floats(3, "w", per_line=2).dense(),
                                          [0.5, 0.0, -2.0])
            assert reader.fields("block", 2) == ["v", "2"]
            np.testing.assert_array_equal(reader.floats(2, "v").dense(), [1.0, 2.0])
            reader.end()

    def test_bad_magic_names_the_format(self):
        with pytest.raises(ValueError, match="not a demo file"):
            FormatReader(io.StringIO("demo v2\n"), "demo v1")

    def test_line_without_newline_is_truncation(self):
        reader = FormatReader(io.StringIO("demo v1\nlast"), "demo v1")
        with pytest.raises(ValueError, match="demo file is truncated"):
            reader.line()

    @pytest.mark.parametrize("line, count", [
        ("rank\n", None),
        ("ranks 2\n", None),
        ("rank 2 3\n", 1),
        ("rank 2\n", 2),
        ("\n", None),
    ], ids=["no value", "other keyword", "extra value", "missing value", "empty line"])
    def test_malformed_keyword_line_rejected(self, line, count):
        reader = FormatReader(io.StringIO("demo v1\n" + line), "demo v1")
        with pytest.raises(ValueError, match="malformed rank line"):
            reader.fields("rank", count)

    def test_float_block_short_of_its_lines_rejected(self):
        # three values at two per line need two lines
        reader = FormatReader(io.StringIO("demo v1\n1.0 2.0 3.0\n"), "demo v1")
        with pytest.raises(ValueError, match="truncated"):
            reader.floats(3, "w", per_line=2)

    def test_data_after_last_block_rejected(self):
        reader = FormatReader(io.StringIO("demo v1\n1.0\n\n"), "demo v1")
        np.testing.assert_array_equal(reader.floats(1, "w", per_line=4).dense(), [1.0])
        with pytest.raises(ValueError, match="demo file has data after the last block"):
            reader.end()


    @pytest.mark.parametrize("text, read, where", [
        ("demo v2\n", lambda r: None, "line 1: not a demo file"),
        ("demo v1\nrank 2\nranks 2\n", lambda r: r.fields("rank") + r.fields("rank"),
         "line 3: malformed rank line"),
        ("demo v1\nrank x\n", lambda r: int(r.fields("rank")[0]), "line 2: invalid literal"),
        ("demo v1\nu1\nu2", lambda r: r.labels((3,)), "line 3: demo file is truncated"),
        ("demo v1\n1.0 2.0\n3.0 4.0\n", lambda r: r.floats(3, "w", per_line=2),
         "lines 2-3: demo w: expected 3 values, found 4"),
        ("demo v1\n1.0 2.0\n", lambda r: r.floats(3, "w", per_line=4),
         "line 2: demo w: expected 3 values, found 2"),
        ("demo v1\n1.0 2.0\n", lambda r: r.floats(3, "w"), "demo w: expected 3 values, found 2"),
        ("demo v1\n1.0\nx\n", lambda r: (r.floats(1, "w", per_line=1), r.end()),
         "line 3: demo file has data after the last block"),
        ("demo v1\n1.0\n", lambda r: (r.floats(1, "w", per_line=1), r.end(), int("x")),
         "invalid literal"),
    ], ids=["header", "keyword line", "caller error", "label", "float block",
            "one-line float block", "rest of file", "end", "after the end"])
    def test_open_names_the_file_and_the_part_read_last(self, tmp_path, text, read, where):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info, FormatReader.open(path, "demo v1") as reader:
            read(reader)
        assert str(info.value).startswith(f"{path}: {where}")


    def test_not_utf8_on_clean_text_names_no_line(self, tmp_path):
        # a decode error that no single line of the file reproduces
        path = tmp_path / "f.txt"
        path.write_text("demo v1\nlabel \u00e9\n", encoding="utf-8")
        exc = UnicodeDecodeError("utf-8", b"\xc3", 0, 1, "unexpected end of data")
        assert not_utf8(path, exc) == f"{path}: not UTF-8 text: unexpected end of data"


class TestWriting:
    def test_an_error_leaves_the_earlier_file_and_no_other(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("earlier\n")
        for exc in (KeyboardInterrupt(), OSError(28, "No space left on device")):
            with pytest.raises(type(exc)) as info, writing(path) as fh:
                fh.write("partial")
                fh.flush()
                raise exc
            assert path.read_text() == "earlier\n"
            assert os.listdir(tmp_path) == ["a.txt"]
        assert str(info.value) == f"[Errno 28] No space left on device: '{path}'"

    def test_replaces_the_file_keeping_its_bits_and_its_link(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("earlier\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        inode = target.stat().st_ino
        with writing(link) as fh:
            fh.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert target.stat().st_ino != inode  # a new file, not the old one rewritten
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]

    def test_a_new_file_takes_the_umask_mode(self, tmp_path):
        # a name as long as most file systems take: the temporary name is no longer
        new = tmp_path / ("n" * 250)
        with writing(new) as fh:
            fh.write("x")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        assert new.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == [new.name, "plain.txt"]

    def test_a_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()))
        reader.start()
        with writing(fifo) as fh:
            fh.write("through\n")
        reader.join(timeout=10)
        assert read == ["through\n"] and stat.S_ISFIFO(fifo.stat().st_mode)

    def test_a_missing_directory_is_named(self, tmp_path):
        path = tmp_path / "missing" / "a.txt"
        with pytest.raises(FileNotFoundError, match=f"No such file or directory: '{path}'$"):
            with writing(path):
                pass

    @pytest.mark.parametrize("name", ["dir", "dir-link", "missing/a.txt", "file/a.txt",
                                      "file/sub/a.txt"])
    @pytest.mark.parametrize("as_path", [False, True], ids=["str", "Path"])
    def test_check_target_raises_what_writing_raises(self, tmp_path, monkeypatch, name, as_path):
        monkeypatch.chdir(tmp_path)
        os.mkdir("dir")
        os.symlink("dir", "dir-link")
        with open("file", "w") as fh:
            fh.write("x")
        target = Path(name) if as_path else name
        with pytest.raises(OSError) as written:
            with writing(target):
                pass
        with pytest.raises(OSError) as checked:
            check_target(target)
        assert (type(checked.value), str(checked.value)) == (type(written.value),
                                                             str(written.value))
        assert checked.value.filename == name
        assert sorted(os.listdir()) == ["dir", "dir-link", "file"]

    @pytest.mark.parametrize("name", ["new.txt", "file", "file-link", "/dev/null"])
    def test_check_target_passes_what_writing_writes(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        with open("file", "w") as fh:
            fh.write("x")
        os.symlink("file", "file-link")
        for target in (name, tmp_path / name):
            assert check_target(target) is target
        assert sorted(os.listdir()) == ["file", "file-link"]


class TestWriteFloats:
    def test_empty_block_writes_nothing(self):
        fh = io.StringIO()
        write_floats(fh, FloatBlock.of(np.empty((0, 3))), 3)
        assert fh.getvalue() == ""

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.one_of(
            arrays(np.float64, st.integers(0, 70), elements=float_values),
            # runs of +0.0 broken by a few -0.0 and edge values, as in a
            # count tensor
            arrays(np.float64, st.integers(0, 70), elements=st.sampled_from(EDGE_FLOATS),
                   fill=st.just(0.0)),
        ),
        per_line=st.integers(1, 30),
        chunk_lines=st.sampled_from([1, 2, 3, 1 << 15]),
    )
    # 13 values in chunks of 2 lines of 4: the last chunk is 1 line and 1 value
    @example(values=np.array([0.0] * 5 + [-0.0] + [0.0] * 6 + [5e-324]), per_line=4,
             chunk_lines=2)
    def test_matches_per_value_writer(self, values, per_line, chunk_lines):
        fh = io.StringIO()
        with mock.patch.object(tensor_module, "_CHUNK_LINES", chunk_lines):
            write_floats(fh, FloatBlock.of(values), per_line)
        assert fh.getvalue() == float_lines(values, per_line)


# tokens that look like the 0.0 token but are not it: each one parses to
# some value or is rejected, never taken as +0.0 unread
NEAR_ZERO = [
    "0.0.0", "00.0", "0.00", "-0.0", "+0.0", "0.0e0", "0.", ".0", "0.0x", "x0.0", "0x0", "0.1",
]
# the whitespace np.fromstring skips, a run of spaces, and no separator at all
SEPARATORS = [" ", "\t", "\n", "\v", "\f", "\r", "   ", ""]


def parse_outcome(parse, text, count):
    """Bits of the parsed values, or None if ``parse`` raised ValueError."""
    try:
        block = parse(text, count, "block")
        return bits(block if parse is parse_floats_oracle else block.dense())
    except ValueError:
        return None


class TestParseFloats:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        values=arrays(np.float64, st.integers(0, 40),
                      elements=st.one_of(st.just(0.0), st.just(0.0), float_values)),
        per_line=st.integers(1, 9),
        tokens=st.lists(st.tuples(st.floats(0.0, 1.0),
                                  st.sampled_from(NEAR_ZERO + ["nan", "-inf", "1e999"])),
                        max_size=3),
        separators=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(SEPARATORS)),
                            max_size=3),
        lead=st.sampled_from(["", " ", "\n", " \t\r "]),
        trail=st.sampled_from(["", " ", "\v\f ", "\n\n"]),
        count_delta=st.sampled_from([0, 0, 0, -1, 1]),
        chunk=st.integers(1, 16),
    )
    def test_matches_oracle(self, values, per_line, tokens, separators, lead, trail,
                            count_delta, chunk):
        fh = io.StringIO()
        write_floats(fh, FloatBlock.of(values), per_line)
        # alternating tokens and the whitespace after each; a mutation
        # replaces one of either
        pieces = re.split(r"(\s+)", fh.getvalue())
        for where, token in tokens:
            pieces[2 * int(where * (len(pieces) // 2))] = token
        for where, sep in separators:
            if len(pieces) > 2:
                pieces[2 * int(where * (len(pieces) // 2 - 1)) + 1] = sep
        text = lead + "".join(pieces)
        if text:
            text = text[:-1] + trail + "\n"
        count = values.size + count_delta
        expected = parse_outcome(parse_floats_oracle, text, count)
        with mock.patch.object(tensor_module, "_PARSE_CHARS", chunk):
            got = parse_outcome(parse_floats, text, count)
        if expected is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, expected)

    def test_makes_no_block_size_temporary(self):
        values = np.zeros(1 << 20)
        values[::97] = 1.5
        fh = io.StringIO()
        write_floats(fh, FloatBlock.of(values), 8)
        text = fh.getvalue()
        chunk = 1 << 14
        with mock.patch.object(tensor_module, "_PARSE_CHARS", chunk):
            tracemalloc.start()
            try:
                got = parse_floats(text, values.size, "block")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(bits(got.dense()), bits(values))
        # the output plus chunk-sized temporaries: an encoded copy of the
        # block would be len(text) bytes, a finiteness mask values.size
        assert peak <= values.nbytes + 16 * chunk, peak
