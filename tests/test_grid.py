import json

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from torusmfg.grid import (
    GridFunction,
    TorusGrid,
    _normal_pinv_symbol,
    central_diff2_values,
    central_diff_values,
    from_json_record,
    integrate_values,
    nested_dissection_order,
    normal_pinv_values,
    to_json_record,
    upwind_slopes,
)


def grid1(n=64):
    return TorusGrid(1, n)


def sample(grid, fn):
    return grid.from_callable(fn)


def gradient(v, h):
    """Component k is the 5-point central difference along axis k."""
    return [central_diff_values(v, h, k) for k in range(v.ndim)]


def divergence(w, h):
    """Sum over axes k of the central difference of component k."""
    out = np.zeros(w[0].shape)
    for k, wk in enumerate(w):
        out += central_diff_values(wk, h, k)
    return out


def fitted_order(ns, errs):
    """Log-log slope of err vs h = 1/N."""
    h = np.log(1.0 / np.asarray(ns, dtype=float))
    return np.polyfit(h, np.log(np.asarray(errs)), 1)[0]


class TestTorusGrid:
    def test_spacing_times_n_is_one(self):
        for n in (5, 64, 200):
            g = TorusGrid(1, n)
            assert g.h * g.n == 1.0

    def test_rejects_small_n_and_bad_dim(self):
        with pytest.raises(ValueError):
            TorusGrid(1, 4)
        with pytest.raises(ValueError):
            TorusGrid(3, 32)

    @pytest.mark.parametrize("dim, n", [(1, 64.5), (2.0, 16)])
    def test_rejects_non_integer_dim_and_n(self, dim, n):
        # (1, 64.5) built a grid of shape (64.5,), and (2.0, 16) failed later
        # with a TypeError
        with pytest.raises(ValueError, match="integer"):
            TorusGrid(dim, n)

    def test_accepts_numpy_integers(self):
        assert TorusGrid(np.int64(2), np.int64(16)) == TorusGrid(2, 16)

    def test_gridfunction_shape_checks(self):
        g = TorusGrid(2, 8)
        GridFunction(g, np.zeros(64))  # flat input reshaped
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(63))


class TestCentralDiff:
    def test_constant_maps_to_zero(self):
        g = grid1()
        assert np.all(central_diff_values(np.full(g.shape, 3.7), g.h, 0) == 0.0)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            central_diff_values(np.zeros(64), 1.0 / 64, 1)

    def test_fourth_order_on_sine(self):
        errs = []
        ns = (32, 64, 128)
        for n in ns:
            g = grid1(n)
            f = sample(g, lambda x: np.sin(2 * np.pi * x))
            exact = 2 * np.pi * np.cos(2 * np.pi * g.axis_coords())
            errs.append(np.max(np.abs(central_diff_values(f.values, g.h, 0) - exact)))
        assert fitted_order(ns, errs) >= 3.8

    def test_discrete_integration_by_parts_exact(self):
        rng = np.random.default_rng(1)
        g = grid1(16)
        f = rng.normal(size=16)
        w = rng.normal(size=16)
        lhs = integrate_values(w * central_diff_values(f, g.h, 0), g.h)
        rhs = -integrate_values(f * central_diff_values(w, g.h, 0), g.h)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(2)
        g = TorusGrid(2, 12)
        f = rng.normal(size=(12, 12))
        for axis in (0, 1):
            d = central_diff_values(f, g.h, axis)
            d_shift = central_diff_values(np.roll(f, 3, axis=0), g.h, axis)
            assert np.array_equal(np.roll(d, 3, axis=0), d_shift)


def roll_central_diff(v, h, axis):
    """Reference 5-point stencil built from np.roll, same grouping."""
    d1 = np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)
    d2 = np.roll(v, -2, axis=axis) - np.roll(v, 2, axis=axis)
    return (8.0 * d1 - d2) / (12.0 * h)


def roll_central_diff2(v, h, axis):
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


def roll_upwind_slopes(u, p, h):
    a, b = [], []
    for k in range(u.ndim):
        fwd = (np.roll(u, -1, axis=k) - u) / h
        bwd = (u - np.roll(u, 1, axis=k)) / h
        a.append(np.maximum(-p[k] - fwd, 0.0))
        b.append(np.maximum(p[k] + bwd, 0.0))
    return a, b


class TestShiftTableMatchesRoll:
    """The cached-index stencils give bit-for-bit the np.roll values."""

    SHAPES = [(64,), (37,), (16, 16), (12, 20)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_central_differences(self, shape):
        v = np.random.default_rng(5).normal(size=shape)
        h = 1.0 / shape[0]
        for axis in range(len(shape)):
            assert np.array_equal(central_diff_values(v, h, axis),
                                  roll_central_diff(v, h, axis))
            assert np.array_equal(central_diff2_values(v, h, axis),
                                  roll_central_diff2(v, h, axis))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_upwind_slopes(self, shape):
        rng = np.random.default_rng(6)
        u = rng.normal(size=shape)
        p = rng.normal(size=len(shape))
        h = 1.0 / shape[0]
        a, b = upwind_slopes(u, p, h)
        a_ref, b_ref = roll_upwind_slopes(u, p, h)
        for k in range(len(shape)):
            assert np.array_equal(a[k], a_ref[k])
            assert np.array_equal(b[k], b_ref[k])


def dense_normal_operator(shape, h):
    """sum_k D_k^T D_k as a dense matrix, columns from unit vectors."""
    size = int(np.prod(shape))
    out = np.zeros((size, size))
    for k in range(len(shape)):
        d = np.column_stack([
            central_diff_values(e.reshape(shape), h, k).ravel()
            for e in np.eye(size)
        ])
        out += d.T @ d
    return out


def null_modes(shape):
    """The constant mode and, per even axis length, the Nyquist checkerboards."""
    idx = np.indices(shape)
    modes = []
    for signs in np.ndindex(*(2,) * len(shape)):
        if any(s and n % 2 for s, n in zip(signs, shape)):
            continue
        parity = sum(s * i for s, i in zip(signs, idx))
        modes.append((-1.0) ** parity)
    return modes


class TestNormalPinv:
    """pinv(sum_k D_k^T D_k) by FFT against the dense pseudo-inverse."""

    SHAPES = [(12,), (13,), (8, 8), (7, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_dense_pinv(self, shape):
        h = 1.0 / shape[0]
        size = int(np.prod(shape))
        ref = np.linalg.pinv(dense_normal_operator(shape, h), hermitian=True,
                             rtol=1e-10)
        fft = np.column_stack([
            normal_pinv_values(e.reshape(shape), h).ravel() for e in np.eye(size)
        ])
        assert np.max(np.abs(fft - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_null_modes_map_to_zero(self, shape):
        h = 1.0 / shape[0]
        modes = null_modes(shape)
        assert len(modes) == 2 ** sum(n % 2 == 0 for n in shape)
        for mode in modes:
            assert np.max(np.abs(normal_pinv_values(mode, h))) <= 1e-15

    @pytest.mark.parametrize("n", [12, 13, 64, 96, 128])
    def test_1d_equals_the_rfftn_form(self, n):
        # a 1D v takes rfft/irfft, which must equal the n-dimensional form
        # bit for bit
        v = np.random.default_rng(n).normal(size=n)
        h = 1.0 / n
        spec = np.fft.rfftn(v, axes=(0,)) * _normal_pinv_symbol(v.shape)
        want = h**2 * np.fft.irfftn(spec, s=v.shape, axes=(0,))
        assert np.array_equal(normal_pinv_values(v, h), want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_output_has_mean_zero(self, shape):
        v = 3.0 + np.random.default_rng(8).normal(size=shape)
        out = normal_pinv_values(v, 1.0 / shape[0])
        assert abs(out.mean()) <= 1e-15 * np.max(np.abs(out))


class TestGradientDivergence:
    def test_gradient_of_zero(self):
        g = TorusGrid(2, 8)
        v = gradient(np.zeros(g.shape), g.h)
        for k in range(2):
            assert np.all(v[k] == 0.0)

    def test_no_cross_axis_dependence(self):
        g = TorusGrid(2, 16)
        f = sample(g, lambda x, y: np.sin(2 * np.pi * x))
        v = gradient(f.values, g.h)
        assert np.all(v[1] == 0.0)

    def test_components_match_central_diff(self):
        rng = np.random.default_rng(3)
        g = TorusGrid(2, 10)
        f = rng.normal(size=(10, 10))
        v = gradient(f, g.h)
        for k in range(2):
            # each component is the 1D stencil applied line by line
            lines = np.moveaxis(f, k, -1)
            along = np.stack([central_diff_values(line, g.h, 0) for line in lines])
            assert np.array_equal(v[k], np.moveaxis(along, -1, k))

    def test_divergence_of_constant_field(self):
        g = TorusGrid(2, 8)
        v = [np.full(g.shape, 2.0), np.full(g.shape, -1.0)]
        assert np.all(divergence(v, g.h) == 0.0)

    def test_divergence_laplacian_order(self):
        ns, errs = (32, 64), []
        for n in ns:
            g = grid1(n)
            f = sample(g, lambda x: np.sin(2 * np.pi * x))
            lap = divergence(gradient(f.values, g.h), g.h)
            exact = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * g.axis_coords())
            errs.append(np.max(np.abs(lap - exact)))
        assert fitted_order(ns, errs) >= 3.7

    def test_divergence_integrates_to_zero(self):
        rng = np.random.default_rng(4)
        g = TorusGrid(2, 9)
        v = [rng.normal(size=(9, 9)), rng.normal(size=(9, 9))]
        total = integrate_values(divergence(v, g.h), g.h)
        assert total == pytest.approx(0.0, abs=1e-14)


class TestNestedDissection:
    @pytest.mark.parametrize("shape", [(2,), (7,), (3, 3), (5, 9), (12, 12), (48, 48)])
    def test_read_only_permutation_and_its_inverse(self, shape):
        perm, inv = nested_dissection_order(shape)
        size = int(np.prod(shape))
        assert np.array_equal(np.sort(perm), np.arange(size))
        assert np.array_equal(inv[perm], np.arange(size))
        assert np.array_equal(perm[inv], np.arange(size))
        assert not perm.flags.writeable and not inv.flags.writeable
        assert nested_dissection_order(shape)[0] is perm

    def test_periodic_axis_is_cut_at_zero_and_midpoint(self):
        # the halves {1, 2} and {4, 5, 6} first, then the separator {0, 3};
        # at most 3 nodes per axis keep C order
        assert nested_dissection_order((7,))[0].tolist() == [1, 2, 4, 5, 6, 0, 3]
        assert nested_dissection_order((3, 3))[0].tolist() == list(range(9))

    def test_halves_lu_fill_of_the_five_point_model_matrix(self):
        # 4.001 I - adjacency of the periodic 64 x 64 lattice, factored with
        # the given order and the diagonal as pivot: 257,004 entries in the
        # nested-dissection order against 1,032,442 in C order
        n = 64
        cycle = sps.diags([1.0, 1.0, 1.0, 1.0], [-1, 1, 1 - n, n - 1], shape=(n, n))
        eye = sps.identity(n)
        adjacency = sps.kron(cycle, eye) + sps.kron(eye, cycle)
        model = (4.001 * sps.identity(n * n) - adjacency).tocsc()
        perm, _ = nested_dissection_order((n, n))

        def fill(a):
            lu = spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            return lu.L.nnz + lu.U.nnz

        assert fill(model[perm][:, perm].tocsc()) <= fill(model) / 2


class TestIntegrate:
    def test_unit_constant(self):
        for g in (grid1(5), TorusGrid(2, 7)):
            total = integrate_values(np.ones(g.shape), g.h)
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_cosine_orthogonality(self):
        for n in (5, 16, 37):
            g = grid1(n)
            f = sample(g, lambda x: np.cos(2 * np.pi * x))
            assert integrate_values(f.values, g.h) == pytest.approx(0.0, abs=1e-13)

    def test_sampled_potential_mean_zero(self):
        g = grid1(200)
        f = sample(g, lambda x: 10 * np.cos(2 * np.pi * (x - 0.25)))
        assert abs(integrate_values(f.values, g.h)) <= 1e-12


class TestSerialization:
    def test_json_record_roundtrip(self):
        rng = np.random.default_rng(9)
        g = TorusGrid(2, 5)
        f = GridFunction(g, rng.normal(size=(5, 5)))
        rec = json.loads(json.dumps(to_json_record(f)))
        back = from_json_record(rec)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
