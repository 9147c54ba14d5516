"""Preconditioned conjugate gradients with warm starts, projected
starting guesses and reusable preconditioners.

The iteration is the textbook PCG loop, run strictly sequentially; every
residual norm it compares with the target is kept on the result. Every
inner product of the solve path is inner(), numpy's einsum loop rather
than the BLAS dot product, which OpenBLAS splits across its threads on
vectors of more than about 10,000 entries: a rerun on identical inputs
reproduces every float whatever OPENBLAS_NUM_THREADS is, and no BLAS
worker thread wakes for a reduction (in the spirit of Demmel and Nguyen,
"Parallel reproducible summation", IEEE Trans. Comput. 64(7), 2015). A
solve either returns a result that meets the target or raises
MaxIterExceeded, or ToleranceUnreachable for a target below what double
precision reaches; a right-hand side with a NaN or infinite entry raises
NonFiniteRightHandSide before any work. The loop runs on b scaled by a
power of two, exactly, so no inner product over- or underflows for want
of exponent range. Preconditioners are handles that outlive one solve:
the motion driver builds one on its first step and applies it for the
whole sweep while the matrix drifts. For a sequence of related systems,
projected_guess starts each solve from the Galerkin projection onto
earlier solutions (Fischer, CMAME 163, 1998).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    BreakdownIC,
    MaxIterExceeded,
    NonFiniteRightHandSide,
    NotPositiveDefinite,
    ToleranceUnreachable,
    TripletFemError,
    ZeroDiagonal,
)


def inner(u, v):
    """u^T v of two 1-D float arrays, added up by numpy's einsum loop. It
    calls no BLAS, so its bits do not depend on the BLAS thread count and
    it wakes no BLAS worker thread."""
    return float(np.einsum("i,i->", u, v))


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
    target (with eps * ||b|| for a target below it), in order:
    ||b - A x0|| first, the returned residual last (a zero right-hand
    side, or a system of no unknowns, returns x = 0 and [0.0] after 0
    iterations). timings holds the seconds of the solve's phases:
    preconditioner (its build inside solve, 0.0 for one passed in) and
    cg (the iteration). A process's first IC(0) build imports SuperLU
    (splu), about 0.12 s on a 2-core host, and that build's
    preconditioner time includes the import."""

    x: np.ndarray
    iterations: int
    residual: float
    preconditioner: "Preconditioner"
    residuals: list
    timings: dict


class Preconditioner:
    """Reusable application handle M^-1 r.

    kind records what was actually built; fallback marks an IC(0) request
    that broke down and was downgraded to jacobi, and note says why (the
    CLI's report names both).
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


def splu(A, **options):
    """scipy's SuperLU, imported on the first call: a process that builds
    no IC(0) preconditioner never loads scipy.sparse.linalg, nor the
    scipy.linalg it pulls in."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(A, **options)


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
    of V are the vectors of basis and y solves (V^T A V) y = V^T b. A is
    symmetric, so each entry of the upper triangle of V^T A V is one
    inner() and the lower triangle its mirror; each entry of V^T b is one
    inner(), and V y is added up column by column, so no BLAS product is
    called.

    For SPD A this is the point of span(V) closest to the solution in the
    A-norm, so it is never worse there than any vector of the span, such
    as the latest solution or an extrapolation of the last few. The small
    system is solved by least squares, so a window with repeated or zero
    columns still gives a finite guess. An empty basis gives zeros.
    """
    b = np.asarray(b, dtype=float)
    if not basis:
        return np.zeros(b.shape[0])
    V = list(basis)
    AV = [A @ v for v in V]
    G = np.empty((len(V), len(V)))
    for i, v in enumerate(V):
        for j in range(i, len(V)):
            G[i, j] = G[j, i] = inner(v, AV[j])
    y = np.linalg.lstsq(G, [inner(v, b) for v in V], rcond=None)[0]
    x = y[0] * V[0]
    for c, v in zip(y[1:], V[1:]):
        x += c * v
    return x


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
    residual, not just the recurrence. A target below eps * ||b|| is
    checked against the true residual once the recurrence residual falls
    under eps * ||b||, and raises ToleranceUnreachable, with the iterate
    and its true residual, once a restart from the true residual no
    longer halves it. A zero r^T z or p^T A p above the target raises
    ToleranceUnreachable where it is underflow (_zero_product); a
    negative p^T A p, or a zero one of normal-sized vectors, raises
    NotPositiveDefinite. A right-hand side with a NaN or infinite
    entry raises NonFiniteRightHandSide before the preconditioner is
    built: its target tol * ||b|| would be met at once or never; so does
    a solution that overflows. b and x0 enter scaled by 2^-e, e the
    binary exponent of max|b|, and x, the residuals and an error's best
    and residual leave scaled back: every iterate scales exactly, so the
    loop takes its unscaled steps, and r^T r cannot over- or underflow
    for want of exponent range."""
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    peak = float(np.max(np.abs(b), initial=0.0))
    if not math.isfinite(peak):
        bad = int(np.flatnonzero(~np.isfinite(b))[0])
        raise NonFiniteRightHandSide(f"right-hand side entry {bad} is "
                                     f"{b[bad]}")
    e = math.frexp(peak)[1]
    b = np.ldexp(b, -e)

    def unscaled(v, out=None):  # inf where the value overflows
        with np.errstate(over="ignore"):
            return np.ldexp(v, e, out=out)

    norm_b = math.sqrt(inner(b, b))
    max_iter = config.max_iter if config.max_iter is not None else 10 * max(n, 1)
    t0 = time.perf_counter()
    prec = preconditioner
    if prec is None:
        prec = build_preconditioner(A, config.preconditioner)
    t1 = time.perf_counter()
    built = t1 - t0 if preconditioner is None else 0.0

    def result(x, iterations, residual, history):
        timings = {"preconditioner": built, "cg": time.perf_counter() - t1}
        x = unscaled(x, out=x)  # x is the loop's own array
        if not np.isfinite(x).all():
            raise NonFiniteRightHandSide(f"the solution overflows (largest "
                                         f"right-hand side entry {peak:.3e})")
        return SolveResult(x=x, iterations=iterations,
                           residual=float(unscaled(residual)),
                           preconditioner=prec,
                           residuals=unscaled(history).tolist(),
                           timings=timings)

    x = np.zeros(n) if x0 is None else np.ldexp(np.asarray(x0, dtype=float),
                                                 -e)

    if norm_b == 0.0:
        return result(np.zeros(n), 0, 0.0, [0.0])
    target = config.tol * norm_b
    # a residual below eps * ||b|| lies under the rounding of b itself:
    # for a target below that floor the loop checks the true residual
    # from the floor on, and gives up once a restart no longer halves it
    check = max(target, float(np.finfo(float).eps) * norm_b)
    last_true = math.inf

    r = b - A @ x
    res = math.sqrt(inner(r, r))
    history = [res]
    if res <= target:
        return result(x, 0, res, history)

    z = prec.apply(r)
    p = z.copy()
    rz = inner(r, z)
    step = np.empty(n)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = inner(p, Ap)
        if pAp == 0.0:
            raise _zero_product("p^T A p", p, Ap, it - 1,
                                *map(unscaled, (x, res, target)))
        if pAp < 0.0:
            raise NotPositiveDefinite(
                f"p^T A p = {unscaled(unscaled(pAp)):.3e} at iteration "
                f"{it}; the reduced system is not positive definite")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        res = math.sqrt(inner(r, r))
        history.append(res)
        if res <= check:
            true_r = b - A @ x
            true_res = math.sqrt(inner(true_r, true_r))
            history.append(true_res)
            if true_res <= target:
                return result(x, it, true_res, history)
            if target < check and true_res >= 0.5 * last_true:
                raise ToleranceUnreachable(
                    f"the true residual stalled at {unscaled(true_res):.3e} "
                    f"after {it} iterations, above the target "
                    f"{unscaled(target):.3e}; the tolerance lies below what "
                    "double precision reaches (eps * ||b|| = "
                    f"{unscaled(check):.3e})", best=unscaled(x),
                    residual=float(unscaled(true_res)), iterations=it)
            # recurrence drifted: continue from the true residual
            last_true = true_res
            r = true_r
            res = true_res
            z = prec.apply(r)
            p = z.copy()
            rz = inner(r, z)
            continue
        z = prec.apply(r)
        rz_new = inner(r, z)
        if rz_new == 0.0:
            raise _zero_product("r^T z", r, z, it,
                                *map(unscaled, (x, res, target)))
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    raise MaxIterExceeded(
        f"no convergence within {max_iter} iterations (residual "
        f"{unscaled(res):.3e}, target {unscaled(target):.3e})",
        best=unscaled(x), residual=float(unscaled(res)), iterations=max_iter)
