"""Linearized matrix dynamics, convergence checks, and closed-form fixed points.

The linearization replaces the softmax and the feedback law by their
first-order expansions; the resulting update is exactly an affine map
U -> x 1^T + Y U + Z U S~^T on the c x n user matrix. Because the drift x is
the same for every user and S~ is row-stochastic, the fixed point is a
consensus u 1^T with (I - Y - Z) u = x; its uniqueness is decided block by
block over the spectrum of S~, without forming the nc x nc system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .catalog import ItemCatalog, ModelParams, SocialGraph
from .errors import DegenerateCatalog, InvalidRequest, SingularSystem

# Size cap of the removed dense Kronecker solve; the package no longer reads it.
DENSE_SOLVE_LIMIT = 2000
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class OperatorSet:
    """Affine-update operators x, Y, Z plus the influence matrix they act with."""

    x: np.ndarray                  # c, the drift every user receives
    Y: np.ndarray                  # c x c
    Z: np.ndarray                  # c x c
    S_tilde: sp.csr_matrix         # n x n row-stochastic


def build_operators(catalog: ItemCatalog, graph: SocialGraph,
                    params: ModelParams) -> OperatorSet:
    """Assemble the affine-update operators from the item matrix and parameters.

    With epsilon = 0 the formulas give x = 0 and Z = 0 and reduce Y to
    I + (eta*beta/m) V V^T, which is diagonal for single-category catalogs.
    """
    V = catalog.item_vectors
    m = catalog.m
    a, b, g, e, eta = (params.alpha, params.beta, params.gamma,
                       params.epsilon, params.eta)
    vvt = V @ V.T
    vsum = V.sum(axis=1)
    outer = np.outer(vsum, vsum)

    x = (eta * e / m) * vsum
    Y = (np.eye(catalog.c)
         + (eta * (a * e * g + b) / m) * vvt
         - (eta * a * e * g / m ** 2) * outer)
    Z = ((eta * a * e * (1 - g) / m) * vvt
         - (eta * a * e * (1 - g) / m ** 2) * outer)
    return OperatorSet(x=x, Y=Y, Z=Z, S_tilde=graph.influence_matrix)


def matrix_step(U: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """One application of the affine map x 1^T + Y U + Z U S~^T."""
    U = np.asarray(U, dtype=float)
    social = (ops.S_tilde @ (ops.Z @ U).T).T
    return ops.x[:, None] + ops.Y @ U + social


def linearized_expected_update(U: np.ndarray, catalog: ItemCatalog,
                               graph: SocialGraph,
                               params: ModelParams) -> np.ndarray:
    """Expected one-step update under the first-order expansions, per user.

    Computed directly from per-item sums (not from the assembled operators):
    u_i gains (eta/m) * sum_j (beta v_j.u_i + eps + alpha*eps v_j.s_i
    - (alpha*eps/m) sum_k v_k.s_i) v_j, which is algebraically identical to
    ``matrix_step(U, build_operators(...))``.
    """
    U = np.asarray(U, dtype=float)
    V = catalog.item_vectors
    m = catalog.m
    a, b, g, e, eta = (params.alpha, params.beta, params.gamma,
                       params.epsilon, params.eta)
    if g == 1.0:
        S_rep = U
    else:
        S_rep = g * U + (1 - g) * (graph.influence_matrix @ U.T).T
    vtu = V.T @ U                      # (m, n)
    vts = V.T @ S_rep                  # (m, n)
    coefs = b * vtu + e + a * e * vts - (a * e / m) * vts.sum(axis=0)[None, :]
    return U + (eta / m) * (V @ coefs)


@dataclass(frozen=True)
class ConvergenceReport:
    """Margin test of the linearized dynamics' growth bound.

    ``margin`` is eta*(beta/2 + a*e*g/2 + beta^2/(8*a*e*g)); it is undefined
    (degenerate) when alpha*epsilon*gamma <= 0. On single-category catalogs
    it bounds the max absolute row sum of Y - I (the identity part of Y drops
    out of the closed-form chain), not convergence of plain iteration: Y - I
    is positive semidefinite on the span of the item vectors, so the affine
    map is never a strict contraction when beta > 0. With operators,
    ``consensus_radius`` is rho(Y + Z): lambda = 1 is always in spec(S~),
    so it is the exact growth rate of the consensus mode u 1^T, and a
    radius >= 1 means iteration cannot settle whatever the margin.
    ``satisfied`` requires operators, a consensus radius below 1, and a
    margin or an infinity-norm bound below 1; without operators nothing is
    certified and it is False, whatever the margin.
    """

    margin: float | None
    norm_bound: float | None
    consensus_radius: float | None
    satisfied: bool
    degenerate: bool


def convergence_margin(params: ModelParams,
                       ops: OperatorSet | None = None) -> ConvergenceReport:
    """Evaluate the margin (and, given operators, the norm bound and the
    consensus radius); see ``ConvergenceReport`` for what ``satisfied``
    does and does not certify."""
    aeg = params.alpha * params.epsilon * params.gamma
    degenerate = aeg <= 0
    margin = None
    if not degenerate:
        margin = params.eta * (params.beta / 2 + aeg / 2
                               + params.beta ** 2 / (8 * aeg))
    norm_bound = radius = None
    satisfied = False
    if ops is not None:
        norm_bound = infinity_norm_bound(ops)
        radius = float(np.abs(np.linalg.eigvals(ops.Y + ops.Z)).max())
        satisfied = radius < 1 and (norm_bound < 1
                                    or (margin is not None and margin < 1))
    return ConvergenceReport(margin=margin, norm_bound=norm_bound,
                             consensus_radius=radius, satisfied=satisfied,
                             degenerate=degenerate)


def infinity_norm_bound(ops: OperatorSet) -> float:
    """Max absolute row sums of Y and Z, summed."""
    return float(np.abs(ops.Y).sum(axis=1).max()
                 + np.abs(ops.Z).sum(axis=1).max())


def _shift_condition(S: sp.csr_matrix, lam: complex) -> float:
    """Infinity-norm condition of S - lam I, estimated from a sparse LU.

    ``onenormest`` bounds ||(S - lam I)^-1|| from below, so the estimate
    never exceeds the exact condition.
    """
    A = S - lam * sp.identity(S.shape[0], format="csr")
    import scipy.sparse.linalg as spla    # deferred: only a shift in the disk needs it
    try:
        lu = spla.splu(A.T)               # CSC, and ||A^-1||_inf = ||A^-T||_1
    except RuntimeError:                  # exactly singular
        return math.inf
    inverse = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype,
                                  rmatvec=lambda b: lu.solve(b, "H"))
    return float(spla.norm(A, np.inf) * spla.onenormest(inverse))


def fixed_point(ops: OperatorSet,
                condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """The consensus fixed point U* = u 1^T of U = x 1^T + Y U + Z U S~^T.

    S~ 1 = 1, so u 1^T is fixed exactly when M u = x with M = I - Y - Z.
    It is the only fixed point when no block I - Y - lambda Z with lambda in
    spec(S~) is singular: spec(I (x) Y + S~ (x) Z) is the union of
    spec(Y + lambda Z). lambda = 1 gives M itself. Any other block equals
    M (I + (1 - lambda) M^-1 Z), which is singular exactly when
    lambda = 1 + 1/nu for an eigenvalue nu != 0 of M^-1 Z; only shifts in
    the unit disk can be eigenvalues of the row-stochastic S~, and for each
    the condition of S~ - lambda I decides. SingularSystem is raised when M
    or one of those shifts has a condition above ``condition_limit``, or
    when U* misses the residual bound ||step(U*) - U*||_inf <=
    1e-10 (1 + ||U*||_inf).
    """
    c, n = ops.Y.shape[0], ops.S_tilde.shape[0]
    M = np.eye(c) - ops.Y - ops.Z
    cond = float(np.linalg.cond(M, 1))
    if not cond <= condition_limit:
        raise SingularSystem(f"I - Y - Z has condition {cond:.3e}", condition=cond)
    nu = np.linalg.eigvals(np.linalg.solve(M, ops.Z))
    # Keep the shifts lambda = 1 + 1/nu with |lambda| < 1 + 2 / (limit - 1).
    # Farther out, cond_inf(S~ - lambda I) <= (|lambda| + 1) / (|lambda| - 1)
    # <= limit certifies the block without a factorization.
    near = np.abs(nu + 1) < (1 + 2 / (condition_limit - 1)) * np.abs(nu)
    for lam in 1 + 1 / nu[near]:
        cond = _shift_condition(ops.S_tilde, lam)
        if not cond <= condition_limit:
            raise SingularSystem(f"S~ - lambda I has condition {cond:.3e} at "
                                 f"lambda = {lam:.6g}", condition=cond)
    star = np.repeat(np.linalg.solve(M, ops.x)[:, None], n, axis=1)

    residual = float(np.max(np.abs(matrix_step(star, ops) - star)))
    scale = 1.0 + float(np.max(np.abs(star))) if star.size else 1.0
    if residual > 1e-10 * scale:
        raise SingularSystem(
            f"fixed-point residual {residual:.3e} too large for scale {scale:.3e}")
    return star


def scaling_factors(category_mass: np.ndarray, lam: float) -> np.ndarray:
    """Per-coordinate growth factors 1 + lam * n_o of the bias-only dynamics."""
    return 1.0 + lam * np.asarray(category_mass, dtype=float)


def homogenization_condition(u_i: np.ndarray, u_j: np.ndarray, k: int,
                             category_mass: np.ndarray, lam: float) -> bool:
    """Alignment condition under which the coordinate-scaling map cannot
    decrease the pair's inner product."""
    if lam <= 0:
        raise InvalidRequest("lam must be positive")
    nmass = np.asarray(category_mass, dtype=float)
    terms = 2 * nmass + lam * nmass ** 2
    denom = terms.sum() - terms[k]
    if denom == 0:
        raise DegenerateCatalog(
            "all category mass concentrated on the tested dimension")
    ratio = terms[k] / denom
    rhs = (np.linalg.norm(u_i) * np.linalg.norm(u_j)
           / math.sqrt(1.0 + ratio ** 2))
    return bool(u_i[k] * u_j[k] >= rhs)


@dataclass
class HomogenizationReport:
    """Per-pair monotonicity of inner products under the scaling map."""

    k: int
    steps: int
    checked_pairs: list[tuple[int, int]] = field(default_factory=list)
    excluded_pairs: list[tuple[int, int]] = field(default_factory=list)
    violations: list[tuple[int, int, int, float]] = field(default_factory=list)

    @property
    def monotone(self) -> bool:
        return not self.violations


def steady_homogenization_check(U0: np.ndarray, catalog: ItemCatalog,
                                params: ModelParams, T: int,
                                pairs: list[tuple[int, int]] | None = None,
                                tol: float = 1e-12) -> HomogenizationReport:
    """Run T deterministic scaling steps and check pairwise monotonicity.

    Only pairs that satisfy the alignment condition at k = argmax n_o enter
    the assertion set; the rest are reported as excluded. Requires the
    bias-only regime (epsilon = 0, gamma = 1) and a single-category catalog.
    """
    if params.epsilon != 0 or params.gamma != 1:
        raise InvalidRequest("scaling-map check requires epsilon=0, gamma=1")
    if not catalog.all_single_category():
        raise InvalidRequest("scaling-map check requires a single-category catalog")
    U = np.asarray(U0, dtype=float).copy()
    n = U.shape[1]
    lam = params.eta * params.beta / catalog.m
    mass = catalog.category_mass
    k = int(np.argmax(mass))
    report = HomogenizationReport(k=k, steps=T)

    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j) in pairs:
        if homogenization_condition(U[:, i], U[:, j], k, mass, lam):
            report.checked_pairs.append((i, j))
        else:
            report.excluded_pairs.append((i, j))

    if T == 0 or not report.checked_pairs:
        return report

    idx_i = np.array([p[0] for p in report.checked_pairs])
    idx_j = np.array([p[1] for p in report.checked_pairs])
    factors = scaling_factors(mass, lam)[:, None]
    inner = (U[:, idx_i] * U[:, idx_j]).sum(axis=0)
    for t in range(T):
        U = factors * U
        new_inner = (U[:, idx_i] * U[:, idx_j]).sum(axis=0)
        slack = tol * np.maximum(1.0, np.abs(inner))
        bad = np.flatnonzero(new_inner < inner - slack)
        for b in bad:
            report.violations.append(
                (int(idx_i[b]), int(idx_j[b]), t, float(new_inner[b] - inner[b])))
        inner = new_inner
    return report


def expected_entropy_series(u0: np.ndarray, category_mass: np.ndarray,
                            alpha: float, lam: float, T: int) -> np.ndarray:
    """Category-distribution entropy along the deterministic scaling dynamics.

    Evolves u^(o) <- (1 + lam n_o) u^(o) and at each of the T states computes
    the softmax-with-mass distribution p_o prop. to n_o exp(alpha u^(o)) and
    its entropy (0 ln 0 := 0). Accepts a single vector (returns shape (T,))
    or a (c, n) matrix (returns shape (T, n)).
    """
    u = np.asarray(u0, dtype=float)
    single = u.ndim == 1
    if single:
        u = u[:, None]
    nmass = np.asarray(category_mass, dtype=float)
    if np.any(nmass < 0):
        raise InvalidRequest("category masses must be non-negative")
    factors = scaling_factors(nmass, lam)[:, None]
    with np.errstate(divide="ignore"):
        log_mass = np.where(nmass > 0, np.log(np.where(nmass > 0, nmass, 1.0)),
                            -np.inf)[:, None]
    out = np.empty((T, u.shape[1]))
    cur = u.copy()
    for t in range(T):
        logits = alpha * cur + log_mass
        shifted = logits - logits.max(axis=0, keepdims=True)
        w = np.exp(shifted)
        p = w / w.sum(axis=0, keepdims=True)
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        out[t] = -terms.sum(axis=0)
        cur = factors * cur
    return out[:, 0] if single else out
