import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fleetmaint import tensor as tensor_module
from fleetmaint.tensor import (
    Tensor3,
    cp_compose,
    default_labels,
    fold,
    frob_norm,
    khatri_rao,
    load_tensor,
    mttkrp,
    mttkrp_from_partial,
    mttkrp_partial,
    mttkrp_reference,
    save_tensor,
    unfold,
    write_floats,
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


def float_lines_oracle(values: np.ndarray, per_line: int) -> str:
    """The per-value writer ``write_floats`` replaced: its output is the reference."""
    flat = values.ravel()
    out = []
    for start in range(0, flat.size, per_line):
        chunk = flat[start : start + per_line]
        out.append(" ".join(repr(float(v)) for v in chunk) + "\n")
    return "".join(out)


def save_tensor_oracle(t: Tensor3, path) -> None:
    """The former ``save_tensor``: header and labels, then 8 values per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tensor3 v1\n")
        fh.write("dims %d %d %d\n" % t.dims)
        for axis in t.axis_labels:
            for label in axis:
                fh.write(label + "\n")
        fh.write(float_lines_oracle(t.data, 8))


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
    return Tensor3.from_array(rng.normal(size=dims))


class TestUnfold:
    def test_degenerate_single_entry(self):
        t = Tensor3.from_array(np.array([[[5.0]]]))
        for mode in (1, 2, 3):
            assert unfold(t, mode).tolist() == [[5.0]]

    def test_mode1_of_2x2x2_enumerated(self):
        # entries 0..7 in the fixed layout: x[i,j,k] = 4i + 2j + k
        t = Tensor3.from_array(np.arange(8.0).reshape(2, 2, 2))
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
            lhs = unfold(Tensor3.from_array(alpha * a + b), mode)
            rhs = alpha * unfold(Tensor3.from_array(a), mode) + unfold(Tensor3.from_array(b), mode)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_bad_mode_rejected(self):
        t = Tensor3.from_array(np.ones((2, 2, 2)))
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
        t = Tensor3.from_array(x)
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
        t = Tensor3.from_array(np.zeros((3, 4, 5)))
        shapes = {1: (4, 5), 2: (3, 5), 3: (3, 4)}
        f1 = np.ones((shapes[mode][0], 2))
        f2 = np.ones((shapes[mode][1], 2))
        out = mttkrp(t, f1, f2, mode)
        assert out.shape == (t.dims[mode - 1], 2)
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_explicit_path(self, mode):
        rng = np.random.default_rng(17)
        t = Tensor3.from_array(rng.normal(size=(3, 4, 5)))
        shapes = {1: (4, 5), 2: (3, 5), 3: (3, 4)}
        f1 = rng.normal(size=(shapes[mode][0], 2))
        f2 = rng.normal(size=(shapes[mode][1], 2))
        np.testing.assert_allclose(
            mttkrp(t, f1, f2, mode), mttkrp_reference(t, f1, f2, mode), atol=1e-10
        )

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=4)
        b = rng.normal(size=3)
        c = rng.normal(size=5)
        t = Tensor3.from_array(np.einsum("i,j,k->ijk", a, b, c))
        out = mttkrp(t, b[:, None], c[:, None], 1)
        expected = a[:, None] * (b @ b) * (c @ c)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        t = Tensor3.from_array(np.ones((3, 4, 5)))
        with pytest.raises(ValueError):
            mttkrp(t, np.ones((4, 2)), np.ones((5, 3)), 1)
        with pytest.raises(ValueError):
            mttkrp(t, np.ones((3, 2)), np.ones((5, 2)), 1)

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
        t = Tensor3.from_array(rng.normal(size=dims))
        a, b, c = (rng.normal(size=(d, rank)) for d in dims)
        z = mttkrp_partial(t, a)
        assert z.shape == (rank, dims[1], dims[2])
        cases = [(mttkrp_from_partial(z, c, 2), mttkrp_reference(t, a, c, 2)),
                 (mttkrp_from_partial(z, b, 3), mttkrp_reference(t, a, b, 3))]
        cases += [(mttkrp(t, f1, f2, mode), mttkrp_reference(t, f1, f2, mode))
                  for mode, f1, f2 in ((1, b, c), (2, a, c), (3, a, b))]
        for fast, slow in cases:
            assert fast.shape == slow.shape
            assert np.abs(fast - slow).max() <= 1e-10

    def test_from_partial_rejects_mode_one(self):
        z = mttkrp_partial(Tensor3.from_array(np.ones((2, 3, 4))), np.ones((2, 2)))
        with pytest.raises(ValueError, match="mode must be 2 or 3"):
            mttkrp_from_partial(z, np.ones((4, 2)), 1)


class TestCpCompose:
    def test_single_component(self):
        t = cp_compose(
            np.array([2.0]),
            (np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0]])),
        )
        assert t.dims == (2, 1, 1)
        np.testing.assert_array_equal(t.data.ravel(), [2.0, 0.0])

    def test_zero_weights(self):
        rng = np.random.default_rng(2)
        t = cp_compose(
            np.zeros(3),
            (rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))),
        )
        np.testing.assert_array_equal(t.data, 0.0)

    def test_matches_einsum_reference(self):
        rng = np.random.default_rng(9)
        w = rng.random(3)
        a, b, c = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
        expected = np.einsum("r,ir,jr,kr->ijk", w, a, b, c)
        np.testing.assert_allclose(cp_compose(w, (a, b, c)).data, expected, atol=1e-12)

    def test_norm_matches_gram_closed_form(self):
        rng = np.random.default_rng(13)
        w = rng.random(4)
        a, b, c = rng.normal(size=(6, 4)), rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
        t = cp_compose(w, (a, b, c))
        gram = np.outer(w, w) * (a.T @ a) * (b.T @ b) * (c.T @ c)
        np.testing.assert_allclose(frob_norm(t) ** 2, gram.sum(), rtol=1e-8)


class TestFrobNorm:
    def test_zeros(self):
        assert frob_norm(Tensor3.from_array(np.zeros((2, 3, 4)))) == 0.0

    def test_absolute_value(self):
        assert frob_norm(Tensor3.from_array(np.array([[[-3.0]]]))) == 3.0

    def test_three_four_five(self):
        t = Tensor3.from_array(np.array([3.0, 4.0]).reshape(2, 1, 1))
        assert frob_norm(t) == pytest.approx(5.0, abs=1e-15)


class TestTensor3Construction:
    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor3(np.ones((2, 2, 2)), (("a",), ("b", "c"), ("d", "e")))

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            Tensor3(np.ones((2, 2)), (("a", "b"), ("c", "d"), ()))

    def test_newline_in_label_rejected(self):
        with pytest.raises(ValueError):
            Tensor3(np.ones((1, 1, 1)), (("a\nb",), ("c",), ("d",)))

    def test_data_is_immutable(self):
        t = Tensor3.from_array(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 7.0


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        labels = (
            ("unit 007", "unit 011"),
            ("tires, tubes, liners & valves", "pm service all levels", "brakes"),
            ("2015-01", "2015-02", "2015-03", "2015-04"),
        )
        t = Tensor3(rng.normal(size=(2, 3, 4)), labels)
        path = tmp_path / "t.txt"
        save_tensor(t, path)
        back = load_tensor(path)
        np.testing.assert_array_equal(back.data, t.data)
        assert back.axis_labels == t.axis_labels

    def test_save_is_deterministic(self, tmp_path):
        t = Tensor3.from_array(np.random.default_rng(1).normal(size=(3, 2, 5)))
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

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5)),
        elements=float_values,
    ))
    @example(data=np.array(EDGE_FLOATS[:-1]).reshape(1, 1, 11))
    def test_save_matches_per_value_writer(self, tmp_path, data):
        t = Tensor3.from_array(data)
        save_tensor(t, tmp_path / "new.txt")
        save_tensor_oracle(t, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        np.testing.assert_array_equal(bits(load_tensor(tmp_path / "new.txt").data), bits(data))

    def test_every_proper_prefix_rejected(self, tmp_path):
        data = np.array([[[0.25, 0.0, -2.0]], [[0.0, 3.0, 1.5]]])
        t = Tensor3(data, (("u1", "u2"), ("b",), ("x", "y", "z")))
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
        t = Tensor3.from_array(data)
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


class TestWriteFloats:
    def test_empty_block_writes_nothing(self):
        fh = io.StringIO()
        write_floats(fh, np.empty((0, 3)), 3)
        assert fh.getvalue() == ""

    @settings(max_examples=80, deadline=None)
    @given(
        values=arrays(np.float64, st.integers(0, 70), elements=float_values),
        per_line=st.integers(1, 30),
        chunk_lines=st.sampled_from([1, 2, 3, 1 << 15]),
    )
    def test_matches_per_value_writer(self, values, per_line, chunk_lines):
        fh = io.StringIO()
        with mock.patch.object(tensor_module, "_CHUNK_LINES", chunk_lines):
            write_floats(fh, values, per_line)
        assert fh.getvalue() == float_lines_oracle(values, per_line)
