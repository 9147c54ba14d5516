"""Conjugate-gradient behavior, preconditioner construction, breakdown
fallback, warm starts, projected guesses, residual histories,
preconditioner reuse, and idle BLAS worker threads."""

import json
import math
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from tripletfem import solver as slv
from tripletfem.errors import (
    BreakdownIC,
    MaxIterExceeded,
    NonFiniteRightHandSide,
    NotPositiveDefinite,
    ToleranceUnreachable,
    TripletFemError,
    ZeroDiagonal,
)


def laplace_1d(n):
    """Tridiagonal second-difference matrix (Dirichlet ends eliminated)."""
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_identity_converges_immediately():
    A = sp.identity(7, format="csr")
    b = np.arange(1.0, 8.0)
    res = slv.solve(A, b)
    assert res.iterations <= 1
    assert np.allclose(res.x, b, atol=1e-12)


def test_three_node_chain():
    # ends fixed at 0 and 1; one free dof in the middle
    A = sp.csr_matrix(np.array([[2.0]]))
    b = np.array([1.0])  # contribution of the u=1 end
    res = slv.solve(A, b)
    assert res.x[0] == pytest.approx(0.5, abs=1e-14)


def test_residual_target_met():
    A = laplace_1d(50)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50)
    cfg = slv.SolverConfig(tol=1e-12)
    res = slv.solve(A, b, cfg)
    assert res.residual <= cfg.tol * np.linalg.norm(b)
    assert np.linalg.norm(b - A @ res.x) <= 1e-12 * np.linalg.norm(b)


def test_warm_start_with_exact_solution():
    A = laplace_1d(30)
    x_exact = np.linspace(0.0, 1.0, 30)
    b = A @ x_exact
    res = slv.solve(A, b, x0=x_exact)
    assert res.iterations <= 1
    assert res.residual <= slv.SolverConfig().tol * np.linalg.norm(b)


def test_default_iteration_budget_is_ten_times_dof():
    A = laplace_1d(12)
    b = np.ones(12)
    tiny_budget = slv.SolverConfig(max_iter=2)
    with pytest.raises(MaxIterExceeded) as err:
        slv.solve(A, b, tiny_budget)
    assert err.value.iterations == 2
    assert err.value.best is not None
    assert err.value.residual > 0
    # the default budget is ample for the model problem
    res = slv.solve(A, b)
    assert res.iterations <= 10 * 12


def test_indefinite_matrix_detected():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        slv.solve(A, np.array([1.0, 1.0]), slv.SolverConfig(preconditioner="none"))


@pytest.mark.parametrize("kind", ["none", "jacobi", "ic0"])
def test_a_target_below_double_precision_is_a_typed_error(kind):
    # a target of 1e-300 * ||b|| lies below what double precision reaches:
    # once the recurrence residual is under eps * ||b|| and a restart from
    # the true residual no longer halves it, the solve stops. Waiting for
    # r^T z or p^T A p to underflow to an exact zero instead depends on
    # the rounding path: with einsum's sums the residual stalled near
    # 1e-130 and the solve ran into MaxIterExceeded.
    A = laplace_1d(12)
    b = np.random.default_rng(1).standard_normal(12)
    cfg = slv.SolverConfig(tol=1e-300, max_iter=2000, preconditioner=kind)
    with pytest.raises(ToleranceUnreachable) as err:
        slv.solve(A, b, cfg)
    e = err.value
    assert str(e).startswith("the true residual stalled at")
    assert "below what double precision reaches" in str(e)
    assert 0 < e.iterations < cfg.max_iter
    assert np.all(np.isfinite(e.best))
    # the residual reported is the best iterate's true residual, and that
    # iterate is the solution to double precision
    r = b - A @ e.best
    assert e.residual == math.sqrt(_dot(r, r))
    norm_b = np.linalg.norm(b)
    assert cfg.tol * norm_b < e.residual <= 1e-14 * norm_b


def test_jacobi_preconditioner_values():
    A = sp.csr_matrix(np.diag([2.0, 4.0]))
    prec = slv.build_preconditioner(A, "jacobi")
    assert np.allclose(prec.apply(np.array([1.0, 1.0])), [0.5, 0.25])
    with pytest.raises(ZeroDiagonal):
        slv.build_preconditioner(sp.csr_matrix(np.diag([1.0, 0.0])), "jacobi")


def test_ic0_of_identity_is_identity():
    A = sp.identity(5, format="csr")
    L = slv.ic0_factor(A)
    assert np.allclose(L.toarray(), np.eye(5))


def test_ic0_exact_for_tridiagonal():
    # tridiagonal pattern suffers no fill-in, so IC(0) is the exact factor
    A = laplace_1d(8)
    L = slv.ic0_factor(A)
    assert np.abs((L @ L.T - A).toarray()).max() <= 1e-12


def test_ic0_breakdown_falls_back_to_jacobi():
    # SPD matrix on which zero-fill incomplete Cholesky hits a negative
    # pivot (Kershaw's counterexample)
    A = np.array([[3.0, -2.0, 0.0, 2.0],
                  [-2.0, 3.0, -2.0, 0.0],
                  [0.0, -2.0, 3.0, -2.0],
                  [2.0, 0.0, -2.0, 3.0]])
    assert np.linalg.eigvalsh(A).min() > 0  # genuinely SPD
    As = sp.csr_matrix(A)
    with pytest.raises(BreakdownIC):
        slv.ic0_factor(As)
    prec = slv.build_preconditioner(As, "ic0")
    assert prec.fallback
    assert prec.kind == "jacobi"
    assert "pivot" in prec.note and "row 3" in prec.note
    res = slv.solve(As, np.ones(4), preconditioner=prec)
    assert res.residual <= slv.SolverConfig().tol * np.linalg.norm(np.ones(4))


def test_ic0_accelerates_cg():
    A = laplace_1d(400)
    b = np.ones(400)
    plain = slv.solve(A, b, slv.SolverConfig(preconditioner="none", tol=1e-10))
    ic = slv.solve(A, b, slv.SolverConfig(preconditioner="ic0", tol=1e-10))
    assert ic.iterations < plain.iterations
    assert np.allclose(ic.x, plain.x, atol=1e-7 * np.abs(plain.x).max())


def test_reused_preconditioner_same_answer_more_iterations():
    """The handle built for one matrix still solves a perturbed one; the
    answer only shifts within tolerance consistency."""
    T = laplace_1d(20)
    eye = sp.identity(20)
    A0 = (sp.kron(T, eye) + sp.kron(eye, T)).tocsr()  # 2D five-point stencil
    rng = np.random.default_rng(4)
    bump = sp.diags(1e-3 * rng.random(400)).tocsr()
    A1 = (A0 + bump).tocsr()
    b = rng.standard_normal(400)
    tol = 1e-10
    cfg = slv.SolverConfig(tol=tol, preconditioner="ic0")

    fresh_prec = slv.build_preconditioner(A1, "ic0")
    stale_prec = slv.build_preconditioner(A0, "ic0")
    fresh = slv.solve(A1, b, cfg, preconditioner=fresh_prec)
    stale = slv.solve(A1, b, cfg, preconditioner=stale_prec)

    norm = np.linalg.norm(fresh.x)
    assert np.linalg.norm(fresh.x - stale.x) <= 10.0 * tol * norm
    assert stale.iterations <= 2 * max(fresh.iterations, 1)


def test_zero_rhs_returns_zero():
    A = laplace_1d(5)
    res = slv.solve(A, np.zeros(5))
    assert res.iterations == 0
    assert np.all(res.x == 0.0)


@pytest.mark.parametrize("value, message", [
    (np.nan, "entry 3 is nan"),
    (np.inf, "entry 3 is inf"),
], ids=["nan", "inf"])
def test_a_right_hand_side_of_no_finite_norm_is_refused(monkeypatch, value,
                                                        message):
    # tol * ||b|| was inf (met at once, residual inf after 0 iterations)
    # or NaN (the whole budget of NaN iterations, then MaxIterExceeded)
    b = np.ones(8)
    b[3] = value
    monkeypatch.setattr(slv, "build_preconditioner",
                        lambda *a: pytest.fail("built a preconditioner"))
    with pytest.raises(NonFiniteRightHandSide, match=message):
        slv.solve(laplace_1d(8), b)


def test_a_solution_beyond_double_precision_is_refused():
    # x[3] = 20/9 * 1e308 overflows; ||b|| = 1e308 does not, and its
    # square, which once refused this b outright, is never formed
    b = np.ones(8)
    b[3] = 1e308
    with pytest.raises(NonFiniteRightHandSide, match="the solution overflows"):
        slv.solve(laplace_1d(8), b)


@pytest.mark.parametrize("scale", [1e-162, 1e200])
@pytest.mark.parametrize("kind", ["none", "jacobi", "ic0"])
def test_a_right_hand_side_far_from_one_is_solved(scale, kind):
    """b * b underflowed to 0 for the tiny b (x = 0 after 0 iterations,
    or ToleranceUnreachable) and overflowed for the huge one
    (NonFiniteRightHandSide): solve runs on b scaled into [0.5, 1)."""
    A = laplace_1d(12)
    b = scale * np.random.default_rng(5).standard_normal(12)
    exact = np.linalg.solve(A.toarray(), b)
    res = slv.solve(A, b, slv.SolverConfig(tol=1e-14, preconditioner=kind))
    assert np.abs(res.x - exact).max() <= 1e-12 * np.abs(exact).max()
    assert res.residual <= 1e-14 * math.sqrt(slv.inner(b / scale, b / scale)) \
        * scale


@pytest.mark.parametrize("kind", ["jacobi", "ic0"])
def test_scaling_b_by_a_power_of_two_scales_every_bit(kind):
    A = laplace_1d(2000)
    b = np.random.default_rng(6).standard_normal(2000)
    cfg = slv.SolverConfig(tol=1e-8, preconditioner=kind)
    one = slv.solve(A, b, cfg)
    for e in (-600, -1, 1, 600):
        scaled = slv.solve(A, np.ldexp(b, e), cfg)
        assert scaled.iterations == one.iterations
        assert np.array_equal(scaled.x, np.ldexp(one.x, e))
        assert scaled.residuals == np.ldexp(one.residuals, e).tolist()


def test_solve_times_its_preconditioner_build_and_cg():
    A, b = laplace_1d(50), np.ones(50)
    own = slv.solve(A, b)
    assert set(own.timings) == {"preconditioner", "cg"}
    assert own.timings["preconditioner"] > 0.0 and own.timings["cg"] > 0.0
    # a preconditioner passed in was built elsewhere
    prec = slv.build_preconditioner(A, "jacobi")
    given = slv.solve(A, b, preconditioner=prec)
    assert given.timings["preconditioner"] == 0.0
    assert given.timings["cg"] > 0.0
    assert set(slv.solve(A, np.zeros(50), preconditioner=prec).timings) \
        == {"preconditioner", "cg"}


def test_config_validation():
    with pytest.raises(ValueError):
        slv.SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        slv.SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        slv.SolverConfig(preconditioner="amg")


# ------------------------------------------------ same numbers as before
#
# Small reference implementations, kept here as test oracles only: the
# per-row dict IC(0) and the allocate-per-step PCG loop the package used
# before its factor loop and PCG loop were rewritten. The package must
# reproduce their bits.


def _ic0_reference(A):
    A = sp.csr_matrix(A)
    A.sort_indices()
    n = A.shape[0]
    indptr, indices, data = A.indptr, A.indices, A.data
    rows = []
    diag = np.zeros(n)
    for i in range(n):
        sl = slice(indptr[i], indptr[i + 1])
        a_ii = None
        row_i = {}
        for c, a in zip(indices[sl], data[sl]):
            if c > i:
                continue
            if c == i:
                a_ii = a
                continue
            s = a
            row_c = rows[c]
            for j, lij in row_i.items():
                lcj = row_c.get(j)
                if lcj is not None:
                    s -= lij * lcj
            row_i[c] = s / diag[c]
        if a_ii is None:
            raise ZeroDiagonal(f"row {i} has no diagonal entry")
        d = a_ii - sum(v * v for v in row_i.values())
        if d <= 0.0:
            raise BreakdownIC(
                f"incomplete Cholesky pivot {d:.3e} at row {i}; the factor "
                "does not exist on this sparsity pattern")
        diag[i] = np.sqrt(d)
        rows.append(row_i)
    r_out, c_out, v_out = [], [], []
    for i, row_i in enumerate(rows):
        for j, v in row_i.items():
            r_out.append(i)
            c_out.append(j)
            v_out.append(v)
        r_out.append(i)
        c_out.append(i)
        v_out.append(diag[i])
    return sp.csc_matrix((v_out, (r_out, c_out)), shape=(n, n))


def _dot(u, v):
    """The reference loop's inner product: numpy's einsum loop, as the
    solver's, written here so the reference does not share its code."""
    return float(np.einsum("i,i->", u, v))


def _pcg_reference(A, b, tol, prec):
    """Returns (x, iterations, residual) of the reference loop."""
    b = np.asarray(b, dtype=float)
    x = np.zeros(b.shape[0])
    target = tol * math.sqrt(_dot(b, b))
    r = b - A @ x
    z = prec.apply(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, 10 * b.shape[0] + 1):
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        res = math.sqrt(_dot(r, r))
        if res <= target:
            true_r = b - A @ x
            true_res = math.sqrt(_dot(true_r, true_r))
            if true_res <= target:
                return x, it, true_res
            r = true_r
            z = prec.apply(r)
            p = z.copy()
            rz = _dot(r, z)
            continue
        z = prec.apply(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference PCG did not converge")


def five_point_2d(m):
    T = laplace_1d(m)
    eye = sp.identity(m)
    return (sp.kron(T, eye) + sp.kron(eye, T)).tocsr()


def annulus_p1(divisions=(32, 12)):
    """Reduced P1 matrix and rhs of the folded open-boundary dipole."""
    from tripletfem import applications as app
    from tripletfem import fem, geometry as geo, triplet as tp

    base = tp.Triplet(chart=geo.Identity(2),
                      metric=geo.MetricField.euclidean(2),
                      material=tp.MaterialField.uniform(1.0, 2))
    ob = app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                              a=1.0, b=2.0)
    spec = app.open_boundary_bvp(
        ob, base, lambda x: np.cos(np.arctan2(x[1], x[0])),
        divisions=divisions)
    system = fem.assemble(spec)
    return system.matrix, system.rhs


REFERENCE_MATRICES = {
    "laplace_1d": lambda: laplace_1d(60),
    "five_point_2d": lambda: five_point_2d(15),
    "annulus_p1": lambda: annulus_p1()[0],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MATRICES))
def test_ic0_factor_bits_match_reference(name):
    A = REFERENCE_MATRICES[name]()
    L = slv.ic0_factor(A)
    ref = _ic0_reference(A)
    assert L.format == "csc"
    assert L.nnz == ref.nnz == sp.tril(A).nnz
    assert np.array_equal(L.toarray(), ref.toarray())


@pytest.mark.parametrize("kind", ["none", "jacobi", "ic0"])
@pytest.mark.parametrize("name", ["five_point_2d", "annulus_p1"])
def test_pcg_bits_match_reference_loop(name, kind):
    A = REFERENCE_MATRICES[name]()
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    prec = slv.build_preconditioner(A, kind)
    tol = 1e-10
    res = slv.solve(A, b, slv.SolverConfig(tol=tol), preconditioner=prec)
    x_ref, it_ref, res_ref = _pcg_reference(A, b, tol, prec)
    assert res.residual <= tol * np.linalg.norm(b)
    assert np.array_equal(res.x, x_ref)
    assert res.iterations == it_ref
    assert res.residual == res_ref


def path_laplacian(order):
    """Tridiagonal-like Laplacian of a path that visits the nodes in
    `order`, so the node numbering is not the path order."""
    n = len(order)
    A = sp.lil_matrix((n, n))
    A.setdiag(2.0)
    for a, b in zip(order, order[1:]):
        A[a, b] = A[b, a] = -1.0
    return A.tocsr()


def permuted(A, seed):
    P = np.random.default_rng(seed).permutation(A.shape[0])
    return A[P][:, P].tocsr()


APPLY_MATRICES = {
    **REFERENCE_MATRICES,
    # node orders other than lexicographic, as from .msh files and
    # merged meshes: L's column elimination tree is not a chain
    "path_0_2_4_3_1": lambda: path_laplacian([0, 2, 4, 3, 1]),
    "five_point_2d_permuted": lambda: permuted(five_point_2d(15), 11),
    "annulus_p1_permuted": lambda: permuted(annulus_p1()[0], 12),
}


def _assert_applies_l_lt_inverse(A, prec):
    from scipy.sparse.linalg import spsolve

    L = slv.ic0_factor(A)
    assert prec.kind == "ic0" and not prec.fallback
    r = np.random.default_rng(7).standard_normal(A.shape[0])
    z = prec.apply(r)
    ref = spsolve((L @ L.T).tocsc(), r)
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", sorted(APPLY_MATRICES))
def test_ic0_apply_is_the_inverse_of_l_lt(name):
    A = APPLY_MATRICES[name]()
    _assert_applies_l_lt_inverse(A, slv.build_preconditioner(A, "ic0"))


class _FakeLU:
    """SuperLU handle with the permutations set by the test; solves are
    delegated to a real natural-order factor."""

    def __init__(self, L, perm_r, perm_c):
        self._lu = splu(L, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self.perm_r = np.array(perm_r)
        self.perm_c = np.array(perm_c)

    def solve(self, r, trans="N"):
        return self._lu.solve(r, trans=trans)


def test_ic0_accepts_an_elimination_tree_renumbering(monkeypatch):
    # L's columns for the path 0-2-4-3-1 are {0,2},{1,3},{2,4},{3,4},{4};
    # the postorder of its column elimination tree swaps 0 and 1 and keeps
    # L lower triangular
    post = [1, 0, 2, 3, 4]
    monkeypatch.setattr(slv, "splu", lambda L, **k: _FakeLU(L, post, post))
    A = path_laplacian([0, 2, 4, 3, 1])
    _assert_applies_l_lt_inverse(A, slv.build_preconditioner(A, "ic0"))


@pytest.mark.parametrize("perm_r, perm_c", [
    ([1, 0, 2], [0, 1, 2]),   # a row pivot off the diagonal
    ([2, 1, 0], [2, 1, 0]),   # symmetric, but L turns upper triangular
])
def test_ic0_rejects_a_reordered_factor(monkeypatch, perm_r, perm_c):
    monkeypatch.setattr(slv, "splu", lambda L, **k: _FakeLU(L, perm_r, perm_c))
    with pytest.raises(TripletFemError, match="reordered"):
        slv.build_preconditioner(laplace_1d(3), "ic0")


def test_ic0_errors_name_the_same_row():
    no_diag = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                      [1.0, 4.0, 1.0],
                                      [0.0, 1.0, 0.0]]))
    no_diag.eliminate_zeros()
    kershaw = sp.csr_matrix(np.array([[3.0, -2.0, 0.0, 2.0],
                                      [-2.0, 3.0, -2.0, 0.0],
                                      [0.0, -2.0, 3.0, -2.0],
                                      [2.0, 0.0, -2.0, 3.0]]))
    cases = ((no_diag, ZeroDiagonal, "row 2 has no diagonal entry"),
             (kershaw, BreakdownIC, "at row 3;"))
    for A, kind, where in cases:
        with pytest.raises(kind) as want:
            _ic0_reference(A)
        with pytest.raises(kind) as got:
            slv.ic0_factor(A)
        assert str(got.value) == str(want.value)
        assert where in str(got.value)


# ------------------------------------------------------- residual history


def test_residual_history_is_what_the_loop_compared():
    A = five_point_2d(15)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A.shape[0])
    x0 = rng.standard_normal(A.shape[0])
    tol = 1e-10
    res = slv.solve(A, b, slv.SolverConfig(tol=tol), x0=x0)
    r0 = b - A @ x0
    target = tol * math.sqrt(_dot(b, b))
    # the start, one recurrence residual per iteration, the true residual
    assert len(res.residuals) == res.iterations + 2
    assert res.residuals[0] == math.sqrt(_dot(r0, r0))
    assert res.residuals[-1] == res.residual
    assert res.residuals[-2] <= target
    assert min(res.residuals[:-2]) > target


def test_a_drifted_recurrence_restarts_from_the_true_residual():
    # ill-conditioned dense SPD system (cond 1e6 to 1e12) without a
    # preconditioner: the recurrence residual meets the target before
    # the true residual does, and the loop carries on from the latter
    rng = np.random.default_rng(23)
    n = int(rng.integers(20, 120))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.logspace(0.0, rng.uniform(6.0, 12.0), n)
    A = (Q * ev) @ Q.T
    A = sp.csr_matrix(0.5 * (A + A.T))
    b = rng.standard_normal(n)
    tol = 1e-10
    res = slv.solve(A, b, slv.SolverConfig(tol=tol, preconditioner="none",
                                           max_iter=20 * n))
    target = tol * math.sqrt(b @ b)
    h = res.residuals
    assert any(h[i] <= target < h[i + 1] for i in range(len(h) - 1))
    r = b - A @ res.x
    assert res.residual <= target
    assert res.residual == math.sqrt(r @ r)
    assert res.residual == h[-1]


def test_residual_history_of_a_start_that_already_meets_the_target():
    A = laplace_1d(30)
    x = np.linspace(0.0, 1.0, 30)
    b = A @ x
    res = slv.solve(A, b, slv.SolverConfig(tol=1e-6), x0=x)
    assert res.iterations == 0
    assert res.residuals == [res.residual]
    assert slv.solve(A, np.zeros(30), x0=x).residuals == [0.0]


# ------------------------------------------------------- projected guess


def _spd(rng, n):
    """Dense SPD matrix with condition number up to 1e3, as CSR."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ np.diag(10.0 ** rng.uniform(0.0, 3.0, n)) @ Q.T
    return sp.csr_matrix(0.5 * (M + M.T))


def _energy_error(A, x):
    def err(v):
        e = v - x
        return math.sqrt(max(float(e @ (A @ e)), 0.0))
    return err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 12),
       k=st.integers(1, 4))
def test_projected_guess_beats_every_vector_of_its_window(seed, n, k):
    rng = np.random.default_rng(seed)
    A = _spd(rng, n)
    x = rng.standard_normal(n)
    b = A @ x
    # earlier "solutions": the answer plus perturbations of mixed sizes
    window = [x + 10.0 ** rng.uniform(-4.0, 0.0) * rng.standard_normal(n)
              for _ in range(k)]
    err = _energy_error(A, x)
    rivals = list(window)
    if k >= 2:
        rivals.append(2.0 * window[-1] - window[-2])  # the secant
    slack = 1e-9 * err(np.zeros(n))
    guess = slv.projected_guess(A, b, window)
    assert err(guess) <= min(err(v) for v in rivals) + slack

    # a repeated and a zero column leave the span and the answer alone
    degenerate = [window[0], window[0], np.zeros(n)] + window[1:]
    guess = slv.projected_guess(A, b, degenerate)
    assert np.all(np.isfinite(guess))
    assert err(guess) <= min(err(v) for v in rivals) + slack

    # a solution inside the span is recovered
    V = rng.standard_normal((n, min(k, n - 1)))
    inside = V @ rng.standard_normal(V.shape[1])
    b_in = A @ inside
    guess = slv.projected_guess(A, b_in, list(V.T))
    assert np.linalg.norm(b_in - A @ guess) <= 1e-10 * np.linalg.norm(b_in)


def test_projected_guess_of_an_empty_or_zero_window():
    A = laplace_1d(6)
    b = np.ones(6)
    assert np.array_equal(slv.projected_guess(A, b, []), np.zeros(6))
    assert np.array_equal(slv.projected_guess(A, b, [np.zeros(6)] * 2),
                          np.zeros(6))


# ---------------------------------------------------- BLAS worker threads

IDLE_WORKER_RUN = """
import glob, json, os, time
import numpy as np
from tripletfem import applications as app, fem, geometry as geo
from tripletfem import mesh, triplet as tp


def ticks():
    # utime + stime of every thread but the main one, in clock ticks
    out = {}
    for stat in glob.glob("/proc/self/task/*/stat"):
        tid = stat.split("/")[-2]
        if tid != str(os.getpid()):
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            out[tid] = int(fields[11]) + int(fields[12])
    return out


m = mesh.generate_structured("box", (128, 128),
                             region_bands=[("gap", 1, 0.5, 1.0)])
base = tp.Triplet(chart=geo.Identity(2),
                  metric=geo.MetricField.euclidean(2),
                  material=tp.MaterialField.uniform(1.0, 2))
spec = fem.BVPSpec(m, base, (("bottom", 0.0), ("top", 1.0)))
steps = [geo.AxisPiecewiseLinear(1, (0.0, 0.5, 1.0), (0.0, 0.5, d))
         for d in (1.0, 1.5)]
sweep = app.MotionSweep(base=spec, moving_region="gap", steps=steps,
                        mode="metric-change")
# a BLAS worker spins for a while after it starts: wait until it sleeps
before, deadline = ticks(), time.monotonic() + 10.0
while time.monotonic() < deadline:
    time.sleep(0.25)
    now = ticks()
    if now == before:
        break
    before = now
sol = fem.solve_bvp(spec)
app.motion_sweep(sweep)
print(json.dumps({"free": int(sol.system.free.size), "before": before,
                  "after": ticks()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads thread times from /proc")
def test_the_solve_path_wakes_no_blas_worker(run_python):
    # a BLAS dot product on vectors of more than about 10,000 entries
    # wakes OpenBLAS's worker threads, which then spin: with CG's inner
    # products as BLAS dot products, this run cost 0.66 CPU-s of worker
    # time on a 2-core host
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task")
    out = run_python("-c", IDLE_WORKER_RUN,
                     env={"OPENBLAS_NUM_THREADS": "2"})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    if not got["before"]:
        pytest.skip("the process runs no thread besides the main one")
    assert got["free"] > 10_000
    grown = {tid: t - got["before"].get(tid, 0)
             for tid, t in got["after"].items()
             if t > got["before"].get(tid, 0)}
    assert not grown, f"worker threads gained CPU ticks: {grown}"
