"""Preconditioned conjugate gradients with warm starts, projected
starting guesses and reusable preconditioners.

The iteration is the textbook PCG loop, run strictly sequentially so a
rerun on identical inputs reproduces every float; every residual norm it
compares with the target is kept on the result. A solve either returns
a result that meets the target or raises MaxIterExceeded, or
ToleranceUnreachable when the recurrence underflows first. Preconditioners
are handles that outlive one solve: the motion driver builds one on its
first step and applies it for the whole sweep while the matrix drifts.
For a sequence of related systems, projected_guess starts each solve
from the Galerkin projection onto earlier solutions (Fischer, CMAME 163,
1998).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    BreakdownIC,
    MaxIterExceeded,
    NotPositiveDefinite,
    ToleranceUnreachable,
    TripletFemError,
    ZeroDiagonal,
)


@dataclass(frozen=True)
class SolverConfig:
    """tol is the relative residual target ||b - Ax|| <= tol * ||b||.
    max_iter defaults to 10 * dof count. A warm start is solve's x0."""

    tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "jacobi"

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie strictly between 0 and 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.preconditioner not in ("none", "jacobi", "ic0"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveResult:
    """residuals holds every residual norm the loop compared with the
    target, in order: ||b - A x0|| first, the returned residual last
    (a zero right-hand side returns x = 0 and [0.0])."""

    x: np.ndarray
    iterations: int
    residual: float
    preconditioner: "Preconditioner"
    residuals: list


class Preconditioner:
    """Reusable application handle M^-1 r.

    kind records what was actually built; fallback marks an IC(0) request
    that broke down and was silently downgraded to jacobi.
    """

    def __init__(self, kind, apply_fn, fallback=False, note=""):
        self.kind = kind
        self._apply = apply_fn
        self.fallback = fallback
        self.note = note

    def apply(self, r):
        return self._apply(r)

    def __repr__(self):
        tail = ", fallback from ic0" if self.fallback else ""
        return f"Preconditioner({self.kind}{tail})"


def ic0_factor(A):
    """Zero-fill incomplete Cholesky: L with the lower-triangle pattern of
    A and A ~ L L^T on that pattern. Raises BreakdownIC on a nonpositive
    pivot, which happens for some SPD matrices; callers fall back.

    Runs over the CSR arrays of tril(A) as Python lists: vals holds A's
    lower triangle and is overwritten row by row with L, and slots[i]
    maps each off-diagonal column of row i to its position in vals.
    Entry (i, c) is a_ic minus l_ij * l_cj over the columns j the two
    rows share, taken in ascending j, divided by l_cc; the diagonal is
    sqrt(a_ii - sum of l_ij^2), summed in ascending j.
    """
    T = sp.tril(sp.csr_matrix(A), format="csr")
    T.sort_indices()
    n = T.shape[0]
    indptr = T.indptr.tolist()
    indices = T.indices.tolist()
    vals = T.data.tolist()
    slots = []
    for i in range(n):
        lo, last = indptr[i], indptr[i + 1] - 1
        if last < lo or indices[last] != i:
            raise ZeroDiagonal(f"row {i} has no diagonal entry")
        row_i = {}
        sq = 0
        for k in range(lo, last):
            c = indices[k]
            s = vals[k]
            row_c = slots[c]
            for j, kij in row_i.items():
                kcj = row_c.get(j)
                if kcj is not None:
                    s -= vals[kij] * vals[kcj]
            lic = s / vals[indptr[c + 1] - 1]
            vals[k] = lic
            sq += lic * lic
            row_i[c] = k
        d = vals[last] - sq
        if d <= 0.0:
            raise BreakdownIC(
                f"incomplete Cholesky pivot {d:.3e} at row {i}; the factor "
                "does not exist on this sparsity pattern")
        vals[last] = math.sqrt(d)
        slots.append(row_i)
    return sp.csr_matrix((vals, T.indices, T.indptr), shape=(n, n)).tocsc()


def build_preconditioner(A, kind="jacobi"):
    """none (identity), jacobi (inverse diagonal), or ic0. An ic0 that
    breaks down degrades to jacobi and flags itself.

    ic0 applies z = (L L^T)^-1 r with the IC(0) factor L as two
    triangular solves, forward with L and backward with L^T, each on L's
    own pattern; no product L L^T is formed or factored.
    """
    if kind == "none":
        return Preconditioner("none", lambda r: r)
    if kind == "jacobi":
        d = A.diagonal().copy()
        bad = np.flatnonzero(d == 0.0)
        if bad.size:
            raise ZeroDiagonal(f"zero diagonal at dof {int(bad[0])}")
        inv = 1.0 / d
        return Preconditioner("jacobi", lambda r: inv * r)
    if kind == "ic0":
        try:
            L = ic0_factor(A)
        except BreakdownIC as e:
            repl = build_preconditioner(A, "jacobi")
            return Preconditioner("jacobi", repl._apply, fallback=True,
                                  note=str(e))
        # natural column order and the diagonal as pivot: SuperLU may
        # renumber rows and columns alike along L's elimination tree, which
        # keeps L lower triangular and adds no fill; the permutations
        # confirm that once
        lu = splu(L, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        q = lu.perm_c
        C = L.tocoo()
        if not (np.array_equal(lu.perm_r, q)
                and np.all(q[C.row] >= q[C.col])):
            raise TripletFemError(
                "SuperLU reordered the IC(0) factor out of lower-triangular "
                "form; the triangular solves would not be those of L")
        return Preconditioner(
            "ic0", lambda r: lu.solve(lu.solve(r), trans="T"))
    raise ValueError(f"unknown preconditioner kind {kind!r}")


def projected_guess(A, b, basis):
    """Starting vector from earlier solutions: x0 = V y, where the columns
    of V are the vectors of basis and y solves (V^T A V) y = V^T b.

    For SPD A this is the point of span(V) closest to the solution in the
    A-norm, so it is never worse there than any vector of the span, such
    as the latest solution or an extrapolation of the last few. The small
    system is solved by least squares, so a window with repeated or zero
    columns still gives a finite guess. An empty basis gives zeros.
    """
    b = np.asarray(b, dtype=float)
    if not basis:
        return np.zeros(b.shape[0])
    V = np.column_stack(basis)
    y = np.linalg.lstsq(V.T @ (A @ V), V.T @ b, rcond=None)[0]
    return V @ y


def _zero_product(quantity, u, v, iterations, x, res, target):
    """The error for u^T v = 0 while the residual is above the target.
    When every product u_i v_i lies below the smallest normal double, the
    zero is underflow: ToleranceUnreachable. Otherwise the vectors are of
    normal size and the form really vanishes: NotPositiveDefinite."""
    scale = float(np.max(np.abs(u))) * float(np.max(np.abs(v)))
    if scale < np.finfo(float).tiny:
        return ToleranceUnreachable(
            f"{quantity} underflowed to 0 after {iterations} iterations "
            f"with the residual {res:.3e} above the target {target:.3e}; "
            "the tolerance lies below what double precision reaches",
            best=x, residual=res, iterations=iterations)
    return NotPositiveDefinite(
        f"{quantity} = 0 after {iterations} iterations; the system or its "
        "preconditioner is not positive definite")


def solve(A, b, config=None, x0=None, preconditioner=None):
    """PCG on an SPD system. Returns a SolveResult whose x satisfies
    ||b - A x|| <= tol * ||b||; convergence is confirmed against the true
    residual, not just the recurrence. A zero r^T z or p^T A p above the
    target raises ToleranceUnreachable where it is underflow
    (_zero_product); a negative p^T A p, or a zero one of normal-sized
    vectors, raises NotPositiveDefinite."""
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    max_iter = config.max_iter if config.max_iter is not None else 10 * max(n, 1)
    prec = preconditioner
    if prec is None:
        prec = build_preconditioner(A, config.preconditioner)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return SolveResult(x=np.zeros(n), iterations=0, residual=0.0,
                           preconditioner=prec, residuals=[0.0])
    target = config.tol * norm_b

    r = b - A @ x
    res = math.sqrt(r @ r)
    history = [res]
    if res <= target:
        return SolveResult(x=x, iterations=0, residual=res,
                           preconditioner=prec, residuals=history)

    z = prec.apply(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    step = np.empty(n)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(np.dot(p, Ap))
        if pAp == 0.0:
            raise _zero_product("p^T A p", p, Ap, it - 1, x, res, target)
        if pAp < 0.0:
            raise NotPositiveDefinite(
                f"p^T A p = {pAp:.3e} at iteration {it}; the reduced system "
                "is not positive definite")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        res = math.sqrt(r @ r)
        history.append(res)
        if res <= target:
            true_r = b - A @ x
            true_res = math.sqrt(true_r @ true_r)
            history.append(true_res)
            if true_res <= target:
                return SolveResult(x=x, iterations=it, residual=true_res,
                                   preconditioner=prec, residuals=history)
            # recurrence drifted: continue from the true residual
            r = true_r
            res = true_res
            z = prec.apply(r)
            p = z.copy()
            rz = float(np.dot(r, z))
            continue
        z = prec.apply(r)
        rz_new = float(np.dot(r, z))
        if rz_new == 0.0:
            raise _zero_product("r^T z", r, z, it, x, res, target)
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    raise MaxIterExceeded(
        f"no convergence within {max_iter} iterations "
        f"(residual {res:.3e}, target {target:.3e})",
        best=x, residual=res, iterations=max_iter)
