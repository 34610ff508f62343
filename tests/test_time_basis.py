import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import schur

from memwave import (
    MemoryOrder,
    build_basis,
    coupling_matrix,
    reconstruct,
    source_weights,
)
from memwave import time_basis
from memwave.time_basis import (
    QuadratureError,
    _unit_block,
    kernel_convolution,
    march,
    mode_factors,
    mode_solve,
    unit_blocks,
)

# coupling entries at alpha=1.5, T=1, frozen from an adaptive nested-quadrature
# oracle (mpmath, 30 digits)
ORACLE_A_1P5 = {
    (0, 0): 0.30090111122547001971,
    (0, 1): -0.22336114829847767844,
    (1, 0): 0.22336114829847767844,
    (1, 1): -0.10030037040849000657,
    (2, 1): 0.045404610102527961373,
}
ORACLE_A11_1P5_T6 = 4.4223251132330941346


def gauss_legendre_gram(basis, num_nodes=80):
    x, w = np.polynomial.legendre.leggauss(num_nodes)
    t = basis.horizon_T * (x + 1.0) / 2.0
    phi = basis.evaluate(t)
    return (phi * (w * basis.horizon_T / 2.0)) @ phi.T


class TestBasis:
    def test_normalized_constant(self):
        basis = build_basis(1.0, 1)
        assert np.allclose(basis.evaluate(np.array([0.0, 0.3, 1.0])), 1.0)
        basis4 = build_basis(4.0, 1)
        assert np.allclose(basis4.evaluate(np.array([0.0, 2.0, 4.0])), 0.5)

    def test_orthogonality_two_functions(self):
        basis = build_basis(1.0, 2)
        gram = gauss_legendre_gram(basis)
        assert abs(gram[0, 1]) < 1e-14

    @pytest.mark.parametrize("T", [1.0, 6.0])
    def test_orthonormality_up_to_32(self, T):
        basis = build_basis(T, 32)
        gram = gauss_legendre_gram(basis)
        assert np.max(np.abs(gram - np.eye(32))) < 1e-12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_basis(1.0, 0)
        with pytest.raises(ValueError):
            build_basis(0.0, 3)
        with pytest.raises(ValueError):
            build_basis(-2.0, 3)
        # a fractional count is refused, not truncated
        with pytest.raises(ValueError, match="basis size n must be a positive integer"):
            build_basis(1.0, 2.7)
        with pytest.raises(ValueError, match="slab count must be a positive integer"):
            build_basis(1.0, 3, 2.5)

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="horizon T"):
            build_basis(T, 3)


class TestCouplingMatrix:
    def test_hand_values_constant_kernel(self):
        basis = build_basis(1.0, 2)
        a = coupling_matrix(basis, MemoryOrder(1.0)).entries
        assert abs(a[0, 0] - 0.5) < 1e-12
        assert abs(a[0, 1] + math.sqrt(3.0) / 6.0) < 1e-12
        assert abs(a[1, 0] - math.sqrt(3.0) / 6.0) < 1e-12

    def test_hand_value_linear_kernel(self):
        basis = build_basis(1.0, 1)
        a = coupling_matrix(basis, MemoryOrder(2.0)).entries
        assert abs(a[0, 0] - 1.0 / 6.0) < 1e-12

    def test_fractional_oracle_values(self):
        basis = build_basis(1.0, 3)
        a = coupling_matrix(basis, MemoryOrder(1.5)).entries
        for (j, k), ref in ORACLE_A_1P5.items():
            assert abs(a[j, k] - ref) < 1e-12
        basis6 = build_basis(6.0, 1)
        a6 = coupling_matrix(basis6, MemoryOrder(1.5)).entries
        assert abs(a6[0, 0] - ORACLE_A11_1P5_T6) < 1e-12

    def test_non_symmetric(self):
        basis = build_basis(1.0, 4)
        a = coupling_matrix(basis, MemoryOrder(1.5)).entries
        assert not np.allclose(a, a.T)

    @pytest.mark.parametrize("T", [1.0, 6.0])
    def test_constant_kernel_identity(self, T):
        # a_jk + a_kj = w_j w_k when the kernel is constant
        basis = build_basis(T, 16)
        a = coupling_matrix(basis, MemoryOrder(1.0)).entries
        w = source_weights(basis).weights
        assert np.max(np.abs(a + a.T - np.outer(w, w))) < 1e-11

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_quadrature_doubling(self, alpha):
        # the one-slab coupling on [0, 6] is 6^alpha B_0
        T, q = 6.0, 2 * 8 + 8
        a1 = T**alpha * _unit_block(8, MemoryOrder(alpha), 0, q)
        a2 = T**alpha * _unit_block(8, MemoryOrder(alpha), 0, 2 * q)
        assert np.max(np.abs(a1 - a2)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("c", [2.0, 4.0])
    def test_scaling_law(self, alpha, c):
        # a_jk(cT) = c^alpha a_jk(T)
        n, T = 6, 1.5
        a1 = coupling_matrix(build_basis(T, n), MemoryOrder(alpha)).entries
        a2 = coupling_matrix(build_basis(c * T, n), MemoryOrder(alpha)).entries
        assert np.max(np.abs(a2 - c**alpha * a1)) < 1e-11

    def test_doubling_check_raises(self, monkeypatch):
        # with a zero tolerance the rounding between the two quadrature orders fails the check
        monkeypatch.setattr(time_basis, "_UNIT_BLOCKS", {})
        monkeypatch.setattr(time_basis, "ENTRY_TOL", 0.0)
        with pytest.raises(QuadratureError, match="B_0 did not converge"):
            coupling_matrix(build_basis(1.0, 4), MemoryOrder(1.5))


class TestKernelConvolution:
    def test_vanishes_at_zero(self):
        basis = build_basis(1.0, 3)
        out = kernel_convolution(basis, MemoryOrder(1.5), np.array([0.0, 0.5]), 20)
        assert np.all(out[:, 0] == 0.0)
        assert np.any(out[:, 1] != 0.0)

    def test_constant_kernel_primitive(self):
        # with a(t) = 1 and phi_1 = 1/sqrt(T):  I_1(t) = t/sqrt(T)
        basis = build_basis(2.0, 1)
        t = np.array([0.5, 1.0, 2.0])
        out = kernel_convolution(basis, MemoryOrder(1.0), t, 20)
        assert np.allclose(out[0], t / math.sqrt(2.0), atol=1e-14)


class TestSourceWeights:
    def test_values(self):
        assert np.allclose(source_weights(build_basis(1.0, 3)).weights, [1.0, 0.0, 0.0],
                           atol=1e-12)
        assert np.allclose(source_weights(build_basis(4.0, 2)).weights, [2.0, 0.0], atol=1e-12)
        assert np.allclose(source_weights(build_basis(9.0, 1)).weights, [3.0], atol=1e-12)


class TestReconstruct:
    def test_zero_expansion(self):
        basis = build_basis(1.0, 4)
        assert reconstruct(np.zeros(4), basis, 0.7) == 0.0

    def test_constant_mode(self):
        basis = build_basis(1.0, 2)
        assert abs(reconstruct(np.array([1.0, 0.0]), basis, 0.3) - 1.0) < 1e-15

    def test_linear_mode_endpoint(self):
        basis = build_basis(1.0, 2)
        assert abs(reconstruct(np.array([0.0, 1.0]), basis, 1.0) - math.sqrt(3.0)) < 1e-15

    def test_field_shaped_coefficients(self):
        basis = build_basis(1.0, 2)
        coeffs = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = reconstruct(coeffs, basis, 0.5)
        assert out.shape == (3,)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_rejects_time_outside_horizon(self):
        basis = build_basis(1.0, 2)
        with pytest.raises(ValueError):
            reconstruct(np.zeros(2), basis, 1.5)
        with pytest.raises(ValueError):
            reconstruct(np.zeros(2), basis, -0.1)

    def test_rejects_wrong_length(self):
        basis = build_basis(1.0, 3)
        with pytest.raises(ValueError):
            reconstruct(np.zeros(2), basis, 0.5)


class TestSlabBasis:
    def test_single_slab_reproduces_interval_basis(self):
        # one slab is the single-interval shifted Legendre basis, bit for bit
        from memwave.time_basis import unit_blocks

        T, n = 6.0, 8
        basis = build_basis(T, n)
        assert basis == build_basis(T, n, slabs=1) and basis.dimension == n
        t = np.linspace(0.0, T, 41)
        u = 2.0 * t / T - 1.0
        P = [np.ones_like(u), u]
        for k in range(1, n - 1):
            P.append(((2 * k + 1) * u * P[k] - k * P[k - 1]) / (k + 1))
        expected = np.array(P) * np.sqrt((2.0 * np.arange(1, n + 1) - 1.0) / T)[:, None]
        assert np.array_equal(basis.evaluate(t), expected)
        # the weights are exact: sqrt(T) for phi_1 and 0 for the rest, which a
        # Gauss-Legendre rule reproduces to rounding
        exact_w = np.zeros(n)
        exact_w[0] = np.sqrt(T)
        assert np.array_equal(source_weights(basis).weights, exact_w)
        x, w = np.polynomial.legendre.leggauss(n // 2 + 2)
        quadrature_w = basis.evaluate(T * (x + 1.0) / 2.0) @ w * (T / 2.0)
        assert np.max(np.abs(quadrature_w - exact_w)) <= 1e-14
        for alpha in (1.0, 1.5, 2.0):
            order = MemoryOrder(alpha)
            assert np.array_equal(coupling_matrix(basis, order).entries,
                                  T**alpha * unit_blocks(n, order, 1)[0])
        coeffs = np.arange(3.0 * n).reshape(n, 3)
        assert np.array_equal(reconstruct(coeffs, basis, 2.5),
                              np.tensordot(basis.evaluate(2.5), coeffs, axes=(0, 0)))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.0, max_value=2.0), st.integers(min_value=1, max_value=32),
           st.floats(min_value=0.5, max_value=12.0))
    def test_single_slab_scaling_law(self, alpha, n, T):
        # a(T) = T^alpha a(1): the scaled unit block matches a direct quadrature on [0, T]
        from memwave.time_basis import _coupling_entries

        basis, order = build_basis(T, n), MemoryOrder(alpha)
        a = coupling_matrix(basis, order).entries
        direct = _coupling_entries(basis, order, 2 * n + 8)
        assert np.max(np.abs(a - direct)) <= 1e-13 * np.max(np.abs(a))

    def test_long_horizon_does_not_raise(self):
        # the entries grow like T^alpha; the doubling check runs at unit scale
        a = coupling_matrix(build_basis(6.0, 96), MemoryOrder(1.5)).entries
        assert a.shape == (96, 96) and np.all(np.isfinite(a))

    def test_entries_do_not_alias_the_cached_blocks(self):
        from memwave.time_basis import unit_blocks

        order = MemoryOrder(1.5)
        a = coupling_matrix(build_basis(1.0, 4), order).entries
        a[:] = 0.0
        assert np.any(unit_blocks(4, order, 1)[0] != 0.0)

    def test_slab_functions_are_local_and_orthonormal(self):
        T, n, K = 6.0, 5, 3
        basis = build_basis(T, n, slabs=K)
        assert basis.dimension == K * n and basis.slab_length == 2.0
        x, w = np.polynomial.legendre.leggauss(20)
        gram = np.zeros((K * n, K * n))
        for k in range(K):
            t = 2.0 * k + (x + 1.0)
            phi = basis.evaluate(t)
            outside = np.delete(phi, np.s_[k * n:(k + 1) * n], axis=0)
            assert np.all(outside == 0.0)
            gram += (phi * w) @ phi.T
        assert np.max(np.abs(gram - np.eye(K * n))) < 1e-13
        # the slab of length 2 carries the single-interval basis of [0, 2]
        local = build_basis(2.0, n).evaluate(x + 1.0)
        assert np.max(np.abs(basis.evaluate(x + 5.0)[2 * n:] - local)) < 1e-13

    def test_breaks_belong_to_the_later_slab(self):
        basis = build_basis(3.0, 2, slabs=3)
        assert list(basis.slab_index(np.array([0.0, 0.999, 1.0, 2.5, 3.0]))) == [0, 0, 1, 2, 2]
        c = np.zeros(6)
        c[2] = 1.0  # constant on slab 1
        assert reconstruct(c, basis, 1.0) == 1.0
        assert reconstruct(c, basis, 0.5) == 0.0

    def test_block_toeplitz_lower_triangular(self):
        from memwave.time_basis import unit_blocks

        T, n, K, alpha = 6.0, 4, 3, 1.5
        a = coupling_matrix(build_basis(T, n, slabs=K), MemoryOrder(alpha)).entries
        B = unit_blocks(n, MemoryOrder(alpha), K)
        unit = coupling_matrix(build_basis(1.0, n), MemoryOrder(alpha)).entries
        assert np.array_equal(B[0], unit)
        for j in range(K):
            for k in range(K):
                block = a[j * n:(j + 1) * n, k * n:(k + 1) * n]
                expected = 2.0**alpha * B[j - k] if j >= k else np.zeros((n, n))
                assert np.array_equal(block, expected)

    @pytest.mark.parametrize("K", [2, 5])
    def test_constant_kernel_identity_on_slabs(self, K):
        # a_jk + a_kj = w_j w_k holds for any basis when the kernel is constant
        basis = build_basis(6.0, 6, slabs=K)
        a = coupling_matrix(basis, MemoryOrder(1.0)).entries
        w = source_weights(basis).weights
        assert np.max(np.abs(a + a.T - np.outer(w, w))) < 1e-12

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_adjacent_and_far_blocks_match_mpmath(self, alpha):
        # B_d[p, q] = int_0^1 int_0^1 phi_p(u) a(d + u - v) phi_q(v) du dv on unit slabs.
        # Oracle: the v-integral of v^k (c - v)^(alpha-1) is c^(k+alpha) times an
        # incomplete beta function, and the u-integral is an mpmath quadrature.
        from memwave.time_basis import unit_blocks

        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        n = 3
        B = unit_blocks(n, MemoryOrder(alpha), 3)
        # monomial coefficients of the unit-slab basis sqrt(2p+1) P_p(2x-1)
        coef = [mp.taylor(lambda x, p=p: mp.sqrt(2 * p + 1) * mp.legendre(p, 2 * x - 1), 0, n - 1)
                for p in range(n)]
        for d in (1, 2):
            moments = [[mp.quad(lambda u: u**i * (d + u) ** (k + alpha)
                                * mp.betainc(k + 1, alpha, 0, 1 / (d + u)), [0, 1])
                        for k in range(n)] for i in range(n)]
            oracle = np.array([[float(sum(coef[p][i] * coef[q][k] * moments[i][k]
                                          for i in range(n) for k in range(n))
                                      / mp.gamma(alpha))
                                for q in range(n)] for p in range(n)])
            assert np.max(np.abs(B[d] - oracle)) < 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_endpoint_transfer_matches_dense_solve(self, alpha):
        from memwave import endpoint_transfer

        basis = build_basis(6.0, 4, slabs=3)
        a = coupling_matrix(basis, MemoryOrder(alpha)).entries
        w = source_weights(basis).weights
        end = basis.evaluate(6.0)
        lam = np.array([[0.0, 0.5], [3.0, 40.0]])
        got = endpoint_transfer(basis, MemoryOrder(alpha), lam)
        expected = [end @ np.linalg.solve(np.eye(12) + v * a, w) for v in lam.ravel()]
        assert got.shape == lam.shape
        assert np.max(np.abs(got.ravel() - expected)) < 1e-12

    def test_kernel_convolution_takes_one_slab(self):
        with pytest.raises(ValueError):
            kernel_convolution(build_basis(2.0, 3, slabs=2), MemoryOrder(1.5), 1.0, 10)

    def test_rejects_bad_slab_count(self):
        with pytest.raises(ValueError):
            build_basis(1.0, 3, slabs=0)

    @settings(max_examples=80, deadline=None)
    @given(tau=st.floats(1e-6, 1e6), n=st.integers(1, 64))
    def test_end_values_are_the_basis_at_its_end(self, tau, n):
        # the recurrence gives P_{j-1}(1) = 1 exactly: the closed form is evaluate(tau) bit for bit
        basis = build_basis(tau, n)
        assert basis.end_values.tobytes() == basis.evaluate(tau).tobytes()


class TestModeSolve:
    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(1.0, 2.0), T=st.floats(0.1, 12.0), n=st.integers(1, 12),
           lam=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=20),
           transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_solve_per_mode(self, alpha, T, n, lam, transpose, seed):
        a = T**alpha * unit_blocks(n, MemoryOrder(alpha), 1)[0]
        a = a.T if transpose else a
        lam = np.array(lam)
        rhs = np.random.default_rng(seed).standard_normal((n, lam.size))
        factors = mode_factors(schur(a, output="real"), lam)
        # the transposed factors solve I + lam a^T on the same arrays, each 2 x 2 inverse
        # reused as is: that holds for LAPACK's standard blocks, with equal diagonal entries
        for solver, system in ((factors, a), (factors.transpose(), a.T)):
            assert all(j - i == 1 or solver.T[i, i] == solver.T[i + 1, i + 1]
                       for i, j in solver.blocks)
            x = mode_solve(solver, rhs)
            assert x.dtype == float and x.shape == rhs.shape
            for p in range(lam.size):
                expected = np.linalg.solve(np.eye(n) + lam[p] * system, rhs[:, p])
                assert np.linalg.norm(x[:, p] - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("scale", [1e-240, 1e240, 1e300])
    @pytest.mark.parametrize("alpha, n", [(1.0, 3), (1.5, 8), (2.0, 6)])
    def test_extreme_scales_stay_finite(self, alpha, n, scale):
        # lam a spans 1e-540 to 1e600: the result is finite, and it matches the
        # dense solve wherever I + lam a is representable
        a = scale * unit_blocks(n, MemoryOrder(alpha), 1)[0]
        lam = np.array([0.0, 1e-300, 1.0, 1e300])
        rhs = np.random.default_rng(5).standard_normal((n, lam.size))
        factors = mode_factors(schur(a, output="real"), lam)
        assert any(j - i == 2 for i, j in factors.blocks)
        for solver, operator in ((factors, a), (factors.transpose(), a.T)):
            x = mode_solve(solver, rhs)
            assert np.all(np.isfinite(x))
            compared = 0
            for p in range(lam.size):
                with np.errstate(over="ignore", invalid="ignore"):
                    system = np.eye(n) + lam[p] * operator
                if np.all(np.isfinite(system)):
                    expected = np.linalg.solve(system, rhs[:, p])
                    # max norms: a 2-norm squares entries of 1e-300 to 0
                    assert np.max(np.abs(x[:, p] - expected)) <= 1e-10 * np.max(np.abs(expected))
                    compared += 1
            assert compared == (4 if scale < 1.0 else 3)

    @pytest.mark.parametrize("c", [-1e-90, -1e-80])
    def test_underflowed_subdiagonal(self, c):
        # scaled by 1e-240, the 2 x 2 block's c underflows to 0 (-1e-90) or to a
        # subnormal (-1e-80); either way the block solves exactly
        T = 1e-240 * np.array([[0.5, 2.0, 1.0], [c, 0.5, -1.0], [0.0, 0.0, 0.25]])
        lam = np.array([0.0, 1.0, 1e230, 1e240, 1e250, 1e300])
        rhs = np.random.default_rng(9).standard_normal((3, lam.size))
        x = mode_solve(mode_factors((T, np.eye(3)), lam), rhs)
        for p in range(lam.size):
            expected = np.linalg.solve(np.eye(3) + lam[p] * T, rhs[:, p])
            assert np.max(np.abs(x[:, p] - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), lam=st.lists(st.floats(0.0, 1e6), max_size=12))
    def test_whole_form_matches_each_block_built_alone(self, n, seed, scale, lam):
        # one vectorized pass over T's blocks gives, bit for bit, what each block gives built on
        # its own with scalar root and hypot; lam includes 0, and -1 / t for every real
        # eigenvalue t < 0, where 1 + lam t vanishes and the mode is singular
        T, Z = schur(scale * np.random.default_rng(seed).standard_normal((n, n)), output="real")
        real = [T[i, i] for i in range(n) if (i == 0 or T[i, i - 1] == 0.0)
                and (i == n - 1 or T[i + 1, i] == 0.0)]
        lam = np.array([0.0, *lam, *(-1.0 / t for t in real if t < 0.0)])
        factors = mode_factors((T, Z), lam)
        tiny = n * np.finfo(float).eps
        singular = np.zeros(lam.shape, dtype=bool)
        for (i, j), inverse in zip(factors.blocks, factors.inverses):
            alone, pivot_zero = self._block_alone(T[i:j, i:j], lam, tiny)
            assert inverse.shape == alone.shape and inverse.tobytes() == alone.tobytes()
            singular |= pivot_zero
        assert factors.blocks[0][0] == 0 and factors.blocks[-1][1] == n
        assert all(k == i for (_, k), (i, _) in zip(factors.blocks, factors.blocks[1:]))
        assert np.array_equal(factors.singular, singular)
        assert factors.singular.any() == any(t < 0.0 for t in real)

    @staticmethod
    def _block_alone(block, lam, tiny):
        """One diagonal block of I + lam T inverted per mode, and its singular flags, by the
        formula of mode_factors' docstring, one block at a time; a 1 x 1 block has b = c = 0."""
        w = np.maximum(1.0, np.abs(lam))
        mu, nu = 1.0 / w, lam / w
        reach = np.abs(nu)
        size = len(block)
        t = block[0, 0]
        s = mu + nu * t
        b, c = (block[0, 1], block[1, 0]) if size == 2 else (0.0, 0.0)
        root = math.sqrt(abs(b)) * math.sqrt(abs(c))
        bound = mu + reach * math.hypot(t, root)
        s_rel, nu_rel = s / bound, nu / bound
        q_rel = nu_rel * root
        rho2 = s_rel * s_rel + q_rel * q_rel
        inverse = np.empty((2, 2) + lam.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = mu / bound / rho2
            inverse[0, 0] = inverse[1, 1] = s_rel * share
            inverse[0, 1] = -b * nu_rel * share
            inverse[1, 0] = -c * nu_rel * share
        return inverse[:size, :size], rho2 <= tiny * tiny

    def test_factors_and_result_are_float64(self):
        a = 6.0**1.5 * unit_blocks(8, MemoryOrder(1.5), 1)[0]
        lam = np.linspace(0.0, 400.0, 11)
        factors = mode_factors(schur(a, output="real"), lam)
        stored = [factors.T, factors.Z, factors.lam, *factors.inverses]
        assert all(x.dtype == np.float64 for x in stored)
        assert [x.shape for x in factors.inverses] == [(j - i, j - i, 11) for i, j in factors.blocks]
        assert factors.singular.dtype == bool and not factors.singular.any()
        assert mode_solve(factors, np.ones((8, 11))).dtype == np.float64

    def test_transpose_allocates_nothing(self):
        a = 6.0**1.5 * unit_blocks(8, MemoryOrder(1.5), 1)[0]
        factors = mode_factors(schur(a, output="real"), np.linspace(0.0, 400.0, 11))
        flipped = factors.transpose()
        pairs = [(flipped.T, factors.T), (flipped.Z, factors.Z), (flipped.lam, factors.lam),
                 (flipped.singular, factors.singular),
                 *zip(flipped.inverses, reversed(factors.inverses))]
        assert len(pairs) == 4 + len(factors.blocks)
        assert all(np.shares_memory(x, y) for x, y in pairs)


class TestMarch:
    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 6), n=st.integers(1, 5), trailing=st.sampled_from([(7,), (3, 4)]),
           seed=st.integers(0, 2**32 - 1))
    def test_history_is_the_tensordot_sum_bit_for_bit(self, K, n, trailing, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((K, n, n))
        b = rng.standard_normal((n,) + trailing)

        def solve(rhs, j):
            return np.tanh(rhs) / (j + 1.5)

        def op(x):
            return np.cos(x) * 2.0

        X = march(blocks, b, solve, op)
        ref = np.empty((2, K) + b.shape)
        for j in range(K):
            rhs = b - np.tensordot(blocks[j:0:-1], ref[1, :j], axes=([0, 2], [0, 1])) if j else b
            ref[0, j] = solve(rhs, j)
            ref[1, j] = op(ref[0, j])
        assert X.tobytes() == ref[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_dense_block_lower_triangular_solve(self, K, n, M, seed):
        # slab j solves S_j x_j = rhs_j; op(x) = x P^T, so slab k reaches slab j through
        # kron(blocks[j - k], P) in the (n, M) C-order layout
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((K, n, n)) / 2
        P = rng.standard_normal((M, M)) / 2
        S = 2.0 * np.eye(n * M) + rng.standard_normal((K, n * M, n * M)) / (2 * n * M)
        b = rng.standard_normal((n, M))

        def solve(rhs, j):
            return np.linalg.solve(S[j], rhs.ravel()).reshape(n, M)

        X = march(blocks, b, solve, lambda x: x @ P.T)
        dense = np.zeros((K * n * M, K * n * M))
        for j in range(K):
            for k in range(j + 1):
                block = S[j] if j == k else np.kron(blocks[j - k], P)
                dense[j * n * M:(j + 1) * n * M, k * n * M:(k + 1) * n * M] = block
        expected = np.linalg.solve(dense, np.tile(b.ravel(), K))
        assert X.shape == (K, n, M)
        assert np.max(np.abs(X.ravel() - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))
