"""Affine-dynamics operators, convergence, fixed points, and scaling-map claims."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import recloop
from recloop import (
    ItemCatalog,
    ModelParams,
    build_operators,
    build_social_graph,
    convergence_margin,
    expected_entropy_series,
    fixed_point,
    homogenization_condition,
    infinity_norm_bound,
    linearized_expected_update,
    matrix_step,
    steady_homogenization_check,
)
from recloop.theory import OperatorSet
from recloop.verify import CONSENSUS_PARAMS, consensus_world
from recloop.errors import DegenerateCatalog, InvalidRequest, SingularSystem

from oracles import kronecker_fixed_point, unvec, vec


def random_instance(rng, n_max=10, c_max=5, m_max=50, multi=True):
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    m = int(rng.integers(c, m_max + 1))
    sets = []
    for _ in range(m):
        k = int(rng.integers(1, min(3, c) + 1)) if multi else 1
        sets.append(tuple(sorted(rng.choice(c, size=k, replace=False).tolist())))
    catalog = ItemCatalog.from_category_sets(sets, c)
    edges = {(int(i), int(j)) for i, j in rng.integers(0, n, (3 * n, 2))
             if i != j}
    graph = build_social_graph(edges, n)
    U = rng.standard_normal((c, n))
    return catalog, graph, U


class TestBuildOperators:
    def test_epsilon_zero_collapses_x_and_z(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (1,)], 2)
        graph = build_social_graph({(0, 1)}, 2)
        ops = build_operators(cat, graph, ModelParams(epsilon=0.0, h=1))
        assert not ops.x.any() and not ops.Z.any()
        expected_y = np.eye(2) + (0.1 * 5.0 / 3) * np.diag([2.0, 1.0])
        np.testing.assert_allclose(ops.Y, expected_y, atol=1e-15)

    def test_single_category_gram_is_diagonal(self):
        rng = np.random.default_rng(4)
        cat = ItemCatalog.from_category_sets(
            [(int(rng.integers(0, 4)),) for _ in range(30)], 4)
        vvt = cat.item_vectors @ cat.item_vectors.T
        np.testing.assert_allclose(vvt, np.diag(cat.category_mass), atol=1e-12)

    def test_worked_diagonal_example(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (0,), (1,)], 2)
        graph = build_social_graph(set(), 3)
        params = ModelParams(beta=2.0, epsilon=0.0, eta=0.1, h=1)
        ops = build_operators(cat, graph, params)
        np.testing.assert_allclose(ops.Y, np.diag([1.15, 1.05]), atol=1e-15)

    def test_y_minus_identity_symmetric(self):
        rng = np.random.default_rng(5)
        catalog, graph, _ = random_instance(rng)
        params = ModelParams(alpha=2.0, beta=1.0, gamma=0.4, epsilon=0.3, h=1)
        ops = build_operators(catalog, graph, params)
        np.testing.assert_allclose(ops.Y, ops.Y.T, atol=1e-13)
        np.testing.assert_allclose(ops.Z, ops.Z.T, atol=1e-13)


class TestMatrixStep:
    def test_identity_dynamics(self):
        ops = OperatorSet(x=np.zeros(2), Y=np.eye(2), Z=np.zeros((2, 2)),
                          S_tilde=sp.csr_matrix(np.eye(3)))
        U = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(matrix_step(U, ops), U)

    def test_self_loop_collapses_social_term(self):
        Y = np.array([[0.3, 0.1], [0.0, 0.5]])
        Z = np.array([[0.2, 0.0], [0.1, 0.1]])
        x = np.array([1.0, 2.0])
        ops = OperatorSet(x=x, Y=Y, Z=Z, S_tilde=sp.csr_matrix(np.eye(1)))
        u = np.array([[0.5], [1.5]])
        np.testing.assert_allclose(matrix_step(u, ops), x[:, None] + (Y + Z) @ u)

    def test_equivalence_with_per_item_route(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            catalog, graph, U = random_instance(rng)
            params = ModelParams(
                alpha=float(rng.uniform(0, 6)), beta=float(rng.uniform(0, 6)),
                gamma=float(rng.uniform(0, 1)),
                epsilon=float(rng.uniform(-0.5, 0.5)),
                eta=float(rng.uniform(0.01, 0.5)), h=1)
            lhs = linearized_expected_update(U, catalog, graph, params)
            rhs = matrix_step(U, build_operators(catalog, graph, params))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestLinearizedExpectedUpdate:
    def test_beta_epsilon_zero_is_identity(self):
        rng = np.random.default_rng(7)
        catalog, graph, U = random_instance(rng)
        params = ModelParams(beta=0.0, epsilon=0.0, h=1)
        np.testing.assert_array_equal(
            linearized_expected_update(U, catalog, graph, params), U)

    def test_bias_only_coordinate_scaling(self):
        rng = np.random.default_rng(8)
        catalog, graph, U = random_instance(rng, multi=False)
        params = ModelParams(alpha=3.0, beta=2.0, gamma=1.0, epsilon=0.0,
                             eta=0.1, h=1)
        out = linearized_expected_update(U, catalog, graph, params)
        factors = 1 + params.eta * params.beta * catalog.category_mass / catalog.m
        np.testing.assert_allclose(out, factors[:, None] * U, atol=1e-12)


class TestConvergenceMargin:
    def test_worked_small_margin(self):
        params = ModelParams(alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.2,
                             eta=0.05, h=1)
        report = convergence_margin(params)
        assert report.margin == pytest.approx(0.09, abs=1e-12)
        assert not report.satisfied and not report.degenerate

    def test_worked_large_margin(self):
        params = ModelParams(alpha=5.0, beta=5.0, gamma=0.5, epsilon=0.1,
                             eta=0.1, h=1)
        report = convergence_margin(params)
        assert report.margin == pytest.approx(1.5125, abs=1e-12)
        assert not report.satisfied

    def test_epsilon_zero_degenerate_falls_back_to_norm_bound(self):
        params = ModelParams(epsilon=0.0, h=1)
        report = convergence_margin(params)
        assert report.degenerate and report.margin is None
        assert not report.satisfied
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        graph = build_social_graph(set(), 2)
        small = ModelParams(beta=0.0, epsilon=0.0, h=1)
        report2 = convergence_margin(small, build_operators(cat, graph, small))
        assert report2.degenerate
        assert report2.norm_bound == pytest.approx(1.0)

    def test_c2_world_is_not_satisfied(self):
        """C2's parameters give margin 0.09, yet on C2's first world the
        consensus mode grows at rho(Y + Z) > 1, so the report is unsatisfied."""
        catalog, graph = consensus_world(np.random.default_rng(22))
        params = CONSENSUS_PARAMS
        ops = build_operators(catalog, graph, params)
        report = convergence_margin(params, ops)
        assert report.margin == pytest.approx(0.09, abs=1e-12)
        assert report.consensus_radius == pytest.approx(
            np.abs(np.linalg.eigvals(ops.Y + ops.Z)).max(), abs=1e-15)
        assert report.consensus_radius > 1
        assert not report.satisfied

    def test_contracting_operators_are_satisfied(self):
        ops = OperatorSet(x=np.zeros(2), Y=0.5 * np.eye(2), Z=0.25 * np.eye(2),
                          S_tilde=sp.csr_matrix(np.eye(2)))
        report = convergence_margin(ModelParams(epsilon=0.0, h=1), ops)
        assert report.degenerate
        assert report.consensus_radius == pytest.approx(0.75)
        assert report.satisfied


class TestInfinityNormBound:
    def test_identity_only(self):
        ops = OperatorSet(x=np.zeros(2), Y=np.eye(2), Z=np.zeros((2, 2)),
                          S_tilde=sp.csr_matrix(np.eye(1)))
        assert infinity_norm_bound(ops) == 1.0

    def test_diagonal_rows(self):
        ops = OperatorSet(x=np.zeros(2), Y=np.diag([1.15, 1.05]),
                          Z=np.zeros((2, 2)), S_tilde=sp.csr_matrix(np.eye(1)))
        assert infinity_norm_bound(ops) == pytest.approx(1.15)

    def test_growth_bound_never_exceeds_analytic_cap(self):
        """For single-category catalogs the closed-form chain bounds
        ||Y - I||inf + ||Z||inf by eta(beta/2 + aeg/2 + beta^2/(8 aeg))
        when aeg > 0 (the identity part of Y drops out of that chain)."""
        rng = np.random.default_rng(9)
        for _ in range(50):
            catalog, graph, _ = random_instance(rng, multi=False)
            params = ModelParams(
                alpha=float(rng.uniform(0.1, 4)), beta=float(rng.uniform(0, 4)),
                gamma=float(rng.uniform(0.05, 1)),
                epsilon=float(rng.uniform(0.01, 0.9)),
                eta=float(rng.uniform(0.01, 0.3)), h=1)
            ops = build_operators(catalog, graph, params)
            report = convergence_margin(params, ops)
            assert not report.degenerate
            # the margin bounds the Y part alone; the Z row sums add at most
            # eta * alpha * eps * (1 - gamma) / 2 on top
            cap = report.margin + (params.eta * params.alpha * params.epsilon
                                   * (1 - params.gamma) / 2)
            growth = (np.abs(ops.Y - np.eye(ops.Y.shape[0])).sum(axis=1).max()
                      + np.abs(ops.Z).sum(axis=1).max())
            assert growth <= cap + 1e-12
            # the with-identity bound reported to callers includes the +1
            assert infinity_norm_bound(ops) >= 1.0


class TestFixedPoint:
    def test_homogeneous_system_zero(self):
        ops = OperatorSet(x=np.zeros(2), Y=0.4 * np.eye(2),
                          Z=0.1 * np.eye(2), S_tilde=sp.csr_matrix(np.eye(2)))
        np.testing.assert_allclose(fixed_point(ops), 0.0, atol=1e-12)

    def test_scalar_solve(self):
        ops = OperatorSet(x=np.array([1.0]), Y=np.array([[0.5]]),
                          Z=np.array([[0.25]]), S_tilde=sp.csr_matrix(np.eye(1)))
        np.testing.assert_allclose(fixed_point(ops), [[4.0]], atol=1e-10)

    def test_iteration_converges_for_contracting_operators(self):
        """When the operator pair genuinely contracts, iterating the affine
        map lands on the direct solve at a geometric rate <= the norm bound."""
        rng = np.random.default_rng(10)
        n, c = 12, 4
        Y = 0.4 * np.eye(c) + 0.02 * rng.standard_normal((c, c))
        Z = 0.05 * rng.standard_normal((c, c))
        S = sp.csr_matrix(np.full((n, n), 1.0 / n))
        ops = OperatorSet(x=rng.standard_normal(c), Y=Y, Z=Z,
                          S_tilde=S)
        bound = infinity_norm_bound(ops)
        assert bound < 1
        star = fixed_point(ops)
        U = rng.standard_normal((c, n))
        gap = [np.max(np.abs(U - star))]
        for _ in range(200):
            U = matrix_step(U, ops)
            gap.append(np.max(np.abs(U - star)))
        assert gap[-1] <= 1e-10 * (1 + np.max(np.abs(star)))
        for a, b in zip(gap[5:-1], gap[6:]):
            if a > 1e-13:
                assert b <= bound * a + 1e-15

    def test_model_operators_have_repelling_fixed_point(self):
        """Catalog-built operators expand along the item span whenever
        beta > 0 (Y - I is PSD there), so the margin being < 1 does not make
        the iteration converge; the solved fixed point is exact but
        repelling. This pins the measured behavior the closed-form
        convergence claim overlooks."""
        rng = np.random.default_rng(20)
        params = ModelParams(alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.2,
                             eta=0.05, h=1)
        assert convergence_margin(params).margin == pytest.approx(0.09)
        catalog, graph, U = random_instance(rng, n_max=8, multi=False)
        ops = build_operators(catalog, graph, params)
        star = fixed_point(ops)
        residual = np.max(np.abs(matrix_step(star, ops) - star))
        assert residual <= 1e-10 * (1 + np.max(np.abs(star)))
        eigs = np.linalg.eigvals(ops.Y)
        assert eigs.real.max() > 1.0
        gap0 = np.max(np.abs(U - star))
        for _ in range(400):
            U = matrix_step(U, ops)
        assert np.max(np.abs(U - star)) > gap0

    def test_matrix_free_matches_dense(self):
        """The c x c consensus solve equals the dense nc x nc Kronecker solve."""
        rng = np.random.default_rng(11)
        params = ModelParams(alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.2,
                             eta=0.05, h=1)
        catalog, graph, _ = random_instance(rng, n_max=10, multi=False)
        ops = build_operators(catalog, graph, params)
        dense, cond = kronecker_fixed_point(ops)
        assert cond < 1e10
        np.testing.assert_allclose(fixed_point(ops), dense, atol=1e-9)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0, 8), beta=st.floats(0, 8), gamma=st.floats(0, 1),
           epsilon=st.floats(-0.9, 0.9), eta=st.floats(0.001, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_kronecker_oracle_over_c1_domain(self, seed, alpha, beta,
                                                      gamma, epsilon, eta):
        """Over C1's worlds and parameters, wherever the full system has
        condition below 1e10, the consensus solve returns its solution.

        The dense oracle's own error grows as cond * eps, so the tolerance
        on 1 + max|U*| is 1e-9 plus 1e-14 cond.
        """
        catalog, graph, _ = random_instance(np.random.default_rng(seed))
        ops = build_operators(catalog, graph, ModelParams(
            alpha=alpha, beta=beta, gamma=gamma, epsilon=epsilon, eta=eta, h=1))
        expected, cond = kronecker_fixed_point(ops)
        if not cond < 1e10:
            return
        star = fixed_point(ops)
        assert (star == star[:, :1]).all()
        tol = (1e-9 + 1e-14 * cond) * (1 + np.max(np.abs(expected)))
        assert np.max(np.abs(star - expected)) <= tol

    def test_singular_system_detected(self):
        """lambda = 1: Y = I and Z = 0 make the consensus block I - Y - Z zero."""
        ops = OperatorSet(x=np.array([1.0]), Y=np.array([[1.0]]),
                          Z=np.zeros((1, 1)), S_tilde=sp.csr_matrix(np.eye(1)))
        with pytest.raises(SingularSystem):
            fixed_point(ops)

    @pytest.mark.parametrize("edges,n,y,z,oracle_cond", [
        # lambda = -1: two users who trust each other alternate, and
        # 1 - Y + Z = 0 while the consensus block 1 - Y - Z = -0.5
        pytest.param({(0, 1), (1, 0)}, 2, 1.25, 0.25, np.inf, id="minus-one"),
        # lambda = -1 - 8e-14: no eigenvalue of S~, but S~ - lambda I has
        # condition near 2.5e13
        pytest.param({(0, 1), (1, 0)}, 2, 1.25 + 1e-14, 0.25, 1e12,
                     id="just-outside-the-disk"),
        # lambda = 0: 1 - Y - 0 Z = 0
        pytest.param({(0, 2), (1, 2)}, 3, 1.0, 0.5, np.inf, id="zero-shared-friend"),
        pytest.param({(0, 1), (1, 2), (2, 3), (3, 2)}, 4, 1.0, 0.5, np.inf,
                     id="zero-defective-chain"),
    ])
    def test_singular_shift_detected(self, edges, n, y, z, oracle_cond):
        """A singular block I - Y - lambda Z with lambda != 1 in spec(S~)
        raises through the sparse condition estimate."""
        ops = OperatorSet(x=np.array([1.0]), Y=np.array([[y]]),
                          Z=np.array([[z]]),
                          S_tilde=build_social_graph(edges, n).influence_matrix)
        assert kronecker_fixed_point(ops)[1] >= oracle_cond
        with pytest.raises(SingularSystem):
            fixed_point(ops)

    def test_vectorization_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            c, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            A = rng.standard_normal((c, c))
            B = rng.standard_normal((n, n))
            U = rng.standard_normal((c, n))
            lhs = vec(A @ U @ B.T)
            rhs = np.kron(B, A) @ vec(U)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            np.testing.assert_array_equal(unvec(vec(U), c, n), U)


def test_import_leaves_scipy_sparse_linalg_unloaded():
    """Only the sparse branch of the uniqueness certificate imports it."""
    env = dict(os.environ, PYTHONPATH=str(Path(recloop.__file__).parents[1]))
    code = "import sys, recloop; sys.exit('scipy.sparse.linalg' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0


class TestHomogenizationCondition:
    def setup_method(self):
        self.mass = np.array([5.0, 3.0, 2.0])
        self.lam = 0.01

    def test_identical_basis_vectors_satisfy(self):
        e0 = np.array([1.0, 0, 0])
        assert homogenization_condition(e0, e0, 0, self.mass, self.lam)

    def test_orthogonal_pair_fails(self):
        e0 = np.array([1.0, 0, 0])
        e1 = np.array([0.0, 1, 0])
        assert not homogenization_condition(e0, e1, 0, self.mass, self.lam)

    def test_degenerate_mass_rejected(self):
        with pytest.raises(DegenerateCatalog):
            homogenization_condition(np.ones(2), np.ones(2), 0,
                                     np.array([4.0, 0.0]), 0.1)

    def test_lam_must_be_positive(self):
        with pytest.raises(InvalidRequest):
            homogenization_condition(np.ones(3), np.ones(3), 0, self.mass, 0.0)

    def test_condition_implies_one_step_growth(self):
        """Any pair passing the test keeps its inner product after one
        application of the coordinate-scaling map, even with mixed signs."""
        rng = np.random.default_rng(13)
        factors = 1 + self.lam * self.mass
        found = 0
        while found < 50:
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            u[0] = abs(u[0]) + 2.0   # push alignment onto coordinate 0
            v[0] = abs(v[0]) + 2.0
            if not homogenization_condition(u, v, 0, self.mass, self.lam):
                continue
            found += 1
            before = float(u @ v)
            after = float((factors * u) @ (factors * v))
            assert after >= before - 1e-12 * max(1.0, abs(before))


class TestSteadyHomogenization:
    def make_catalog(self):
        rng = np.random.default_rng(14)
        return ItemCatalog.from_category_sets(
            [(int(rng.integers(0, 4)),) for _ in range(60)], 4)

    def test_aligned_pairs_monotone_over_many_steps(self):
        catalog = self.make_catalog()
        params = ModelParams(gamma=1.0, epsilon=0.0, beta=5.0, eta=0.1, h=1)
        k = int(np.argmax(catalog.category_mass))
        rng = np.random.default_rng(15)
        cols = []
        for _ in range(40):
            delta = rng.uniform(0, 0.05)
            w = rng.standard_normal(4)
            w[k] = 0
            w /= max(np.linalg.norm(w), 1e-12)
            e = np.zeros(4)
            e[k] = np.sqrt(1 - delta ** 2)
            cols.append(e + delta * w)
        U0 = np.array(cols).T
        report = steady_homogenization_check(U0, catalog, params, 100)
        assert report.monotone
        assert len(report.checked_pairs) > 0

    def test_t_zero_gives_empty_violations(self):
        catalog = self.make_catalog()
        params = ModelParams(gamma=1.0, epsilon=0.0, h=1)
        U0 = np.eye(4)
        report = steady_homogenization_check(U0, catalog, params, 0)
        assert report.violations == []

    def test_violating_pairs_are_excluded_not_asserted(self):
        catalog = self.make_catalog()
        params = ModelParams(gamma=1.0, epsilon=0.0, h=1)
        k = int(np.argmax(catalog.category_mass))
        U0 = np.eye(4)[:, [k, (k + 1) % 4]]   # orthogonal pair fails the test
        report = steady_homogenization_check(U0, catalog, params, 10)
        assert report.excluded_pairs == [(0, 1)]
        assert report.checked_pairs == []

    def test_requires_bias_only_regime(self):
        catalog = self.make_catalog()
        with pytest.raises(InvalidRequest):
            steady_homogenization_check(np.eye(4), catalog,
                                        ModelParams(gamma=0.5, epsilon=0.0, h=1), 5)


class TestExpectedEntropySeries:
    def test_symmetric_setup_keeps_log_c(self):
        c = 6
        mass = np.full(c, 10.0)
        u0 = np.full(c, 1 / np.sqrt(c))
        series = expected_entropy_series(u0, mass, alpha=4.0, lam=0.02, T=30)
        np.testing.assert_allclose(series, np.log(c), atol=1e-12)

    def test_alpha_zero_locks_distribution(self):
        mass = np.array([9.0, 1.0])
        u0 = np.array([0.8, 0.6])
        series = expected_entropy_series(u0, mass, alpha=0.0, lam=0.01, T=20)
        p = mass / mass.sum()
        expected = -(p * np.log(p)).sum()
        np.testing.assert_allclose(series, expected, atol=1e-12)

    def test_skewed_two_category_decay(self):
        series = expected_entropy_series(np.array([0.8, 0.6]),
                                         np.array([9.0, 1.0]),
                                         alpha=5.0, lam=0.01, T=50)
        assert np.all(np.diff(series) < 0)

    def test_balanced_mass_decay_for_positive_users(self):
        rng = np.random.default_rng(16)
        c = 10
        mass = np.full(c, 100.0)
        U0 = np.abs(rng.standard_normal((c, 30)))
        U0 /= np.linalg.norm(U0, axis=0, keepdims=True)
        for alpha in (0.5, 2.0, 5.0):
            for lam in (1e-4, 5e-4, 5e-3):
                series = expected_entropy_series(U0, mass, alpha, lam, T=100)
                assert np.all(np.diff(series, axis=0) <= 1e-12)

    def test_matrix_and_vector_inputs_agree(self):
        rng = np.random.default_rng(17)
        mass = np.array([3.0, 2.0, 5.0])
        U0 = np.abs(rng.standard_normal((3, 4)))
        all_series = expected_entropy_series(U0, mass, 2.0, 0.01, 25)
        for i in range(4):
            one = expected_entropy_series(U0[:, i], mass, 2.0, 0.01, 25)
            np.testing.assert_allclose(all_series[:, i], one, atol=1e-15)
