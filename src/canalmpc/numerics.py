"""Dense linear-algebra kernel: Riccati synthesis and small strictly convex QPs.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, so simulation traces are reproducible.  The kernels
are numpy's (solve, inv, cholesky, qr, eigvalsh), so the package needs no
scipy at run time.  solve_dare and QpStructure (positive-definite H) check
their inputs on entry; the certificate helpers and solve_qp work on arrays
those have checked, and solve_qp's right-hand side bin is built by the
controllers from checked configuration, certified gains and finite
measurements.  A QpStructure keeps what its family fixes, the constraint
rows included, in the coordinates z = L'x that solve_qp steps in.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """A row lies in the span of the rows before it, to within tolerance."""


class RiccatiConvergenceError(RuntimeError):
    """Riccati doubling diverged or hit its step cap; the pair is likely not stabilizable."""


# Relative tolerance below which a start or entering row counts as linearly
# dependent on the working rows (solve_qp).
RANK_RTOL = 1e-10


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def block_diag(*blocks):
    """The 2-D `blocks` on the diagonal of one matrix, zeros elsewhere."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def solve_dare(A, B, Q, R):
    """Solve the discrete algebraic Riccati equation by structured doubling.

    Structure-preserving doubling (SDA; Chu, Fan, Lin et al., 2004-05)
    starts from A_0 = A, G_0 = B R^-1 B', H_0 = Q and iterates

        W = I + G_k H_k
        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^-1 A_k

    with one linear solve per step.  H_k converges quadratically to the
    stabilizing solution P; iteration stops once
    ||H_{k+1} - H_k||_inf <= 1e-12 (1 + ||H_{k+1}||_inf), after at most 50
    doubling steps.

    Requires (A, B) stabilizable, Q >= 0 and R > 0 (symmetric); returns the
    stabilizing solution P = P' > 0.  A, B, Q and R are checked for shape
    and finiteness on entry.  Raises RiccatiConvergenceError when an iterate
    turns non-finite or singular, or the 50-step cap is reached.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n) or B.shape[0] != n:
        raise ValueError("inconsistent DARE dimensions")
    m = B.shape[1]
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {R.shape}")

    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    H = 0.5 * (Q + Q.T)
    eye = np.eye(n)
    # An unstabilizable mode grows like lambda^(2^k) and overflows within a
    # few steps: overflow is reported as an error, never as a warning.
    with np.errstate(all="ignore"):
        for _ in range(50):
            # With G, H >= 0 the matrix I + G H is nonsingular in exact
            # arithmetic; the certificates of P catch what rounding does.
            try:
                sol = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
            except np.linalg.LinAlgError as exc:
                raise RiccatiConvergenceError(
                    f"doubling step failed (pair may not be stabilizable): {exc}"
                ) from exc
            WinvA, WinvG = sol[:, :n], sol[:, n:]
            H_next = H + A.T @ H @ WinvA
            G = G + A @ WinvG @ A.T
            A = A @ WinvA
            H_next = 0.5 * (H_next + H_next.T)
            G = 0.5 * (G + G.T)
            # H is finite, so a finite delta means H_next is too.
            delta = np.linalg.norm(H_next - H, np.inf)
            if not np.isfinite(delta):
                raise RiccatiConvergenceError(
                    "non-finite doubling iterate (pair may not be stabilizable)"
                )
            H = H_next
            if delta <= 1e-12 * (1.0 + np.linalg.norm(H, np.inf)):
                return H
    raise RiccatiConvergenceError(
        "no convergence within 50 doubling steps (pair may not be stabilizable)"
    )


def lqr_gain(A, B, R, P):
    """Feedback gain K = -(R + B'PB)^-1 B'PA for a Riccati solution P."""
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def dare_residual(A, B, Q, R, P):
    """Inf-norm of the Riccati equation residual at P."""
    BtP = B.T @ P
    BtPA = BtP @ A
    gain = np.linalg.solve(R + BtP @ B, BtPA)
    return np.linalg.norm(A.T @ P @ A - P - BtPA.T @ gain + Q, np.inf)


def lyapunov_residual(Acl, P, Q, R, K):
    """Largest eigenvalue of Acl'P Acl - P + Q + K'RK.

    A value at or below tolerance certifies that x'Px upper-bounds the
    infinite-horizon cost of the closed loop Acl = A + BK.
    """
    S = Acl.T @ P @ Acl - P + Q + K.T @ R @ K
    return float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))


# ---------------------------------------------------------------------------
# Quadratic programming
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max-iterations"

_FEAS_TOL = 1e-9


class QpStructure:
    """The fixed part of a QP family: H and Ain, checked and factored once.

    The family is min 0.5 x'Hx  s.t.  Ain x <= bin with only bin varying.
    H must be symmetric positive definite; a ValueError is raised when the
    Cholesky factorization H = LL' fails.  Built here: L^-1, in whose
    coordinates z = L'x solve_qp steps (cond(L) = sqrt(cond(H))).  Built on
    first use: `rows`, whose row i is (L^-1 a_i)', and its rank tolerance
    `row_tol`.  A controller keeps one structure per QP.
    """

    def __init__(self, H, Ain=None):
        self.H = _as_matrix(H, "H")
        self.n = n = self.H.shape[0]
        if self.H.shape != (n, n):
            raise ValueError(f"H must be square, got {self.H.shape}")
        self.Ain = np.zeros((0, n)) if Ain is None or np.size(Ain) == 0 else _as_matrix(Ain, "Ain")
        if self.Ain.shape[1] != n:
            raise ValueError("constraint column count inconsistent with n")
        try:
            chol = np.linalg.cholesky(self.H)
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite") from None
        self.chol_inv = np.linalg.inv(chol)

    @cached_property
    def rows(self):
        return self.Ain @ self.chol_inv.T

    @cached_property
    def row_tol(self):
        return RANK_RTOL * np.linalg.norm(self.rows, axis=1)


@dataclass
class QpSolution:
    x: np.ndarray
    status: str
    iterations: int = 0
    active_set: tuple = field(default_factory=tuple)

    @property
    def optimal(self):
        return self.status == OPTIMAL


def _qr_append(q, r, v, tol):
    """Q, R of [QR, v] by Gram-Schmidt with one re-orthogonalisation; raises
    SingularMatrixError when v leaves a residual of norm <= tol off span(Q)."""
    coef = q.T @ v
    w = v - q @ coef
    again = q.T @ w
    w -= q @ again
    norm = np.linalg.norm(w)
    if not norm > tol:
        raise SingularMatrixError("working-set rows are linearly dependent")
    k = r.shape[0]
    r_new = np.zeros((k + 1, k + 1))
    r_new[:k, :k] = r
    r_new[:k, k] = coef + again
    r_new[k, k] = norm
    return np.column_stack([q, w / norm]), r_new


def _warm_start(s, bin_, start):
    """Q, R, z and multipliers on the working rows `start` (a list), or None
    when they outnumber the variables, one is dependent (|R_kk| <= row_tol)
    or a multiplier is negative.  With one QR, L^-1 A_W' = QR, and
    y = R^-T b_W, the minimizer of 0.5 |z|^2 on A_W x = b_W is z = Qy, with
    multipliers -R^-1 y."""
    if len(start) > s.n:
        return None
    q, r = np.linalg.qr(s.rows[start].T)
    if not np.all(np.abs(np.diag(r)) > s.row_tol[start]):
        return None
    y = np.linalg.solve(r.T, bin_[start])
    lam = -np.linalg.solve(r, y)
    if not np.all(lam >= 0.0):
        return None
    return q, r, q @ y, lam


def solve_qp(structure, bin=None, max_iter=None, start=()):
    """Solve a small dense strictly convex QP by the dual active-set method
    of Goldfarb & Idnani (Math. Programming 27, 1983).

    The problem is the member of `structure`'s family with right-hand side
    bin (None for no rows), taken as given, unchecked.  In z = L'x the
    objective is 0.5 |z|^2 and a constraint row a becomes v = L^-1 a', a
    row of the structure's `rows`.  The cold start z = 0 is returned after
    one iteration, active set empty, when it satisfies every row, that is
    when bin >= 0; that check comes before any start or matrix product.
    Otherwise the solve starts at the minimizer on the rows `start` and
    adds the most violated row (lowest index on ties).  With the working
    rows' L^-1 A_w' = QR, adding v moves z along -(I - QQ')v and the
    working multipliers along -R^-1 Q'v; a working row whose multiplier
    reaches zero first (lowest index on ties) leaves before v enters.  A v
    in the span of the working rows that no multiplier makes room for
    proves the rows infeasible.

    `start`, typically the previous solve's active_set, may be any rows:
    Goldfarb & Idnani may start from any working set whose minimizer has
    nonnegative multipliers.  A start with more rows than variables, a
    dependent start row or a negative multiplier is refused for the cold
    start, which start=() selects.  Either way the solve ends at the unique
    minimizer of the strictly convex QP, so a taken start changes only
    round-off and the iteration count, and a refused one gives the cold
    solve bit for bit.

    Deterministic: the same problem always yields the same solution.  Status
    is 'infeasible' when no point satisfies the rows, 'max-iterations' with
    the last iterate attached when the cap is reached.  A ValueError is
    raised when the step onto an entering row all but in the working span
    overflows.  Nothing fixed is factored per solve: L^-1 and `rows` come
    from the QpStructure; the start rows take one QR, an entering row is
    appended to the working rows' QR, a leaving row triggers a fresh QR.
    The solve steps in z alone and maps back to x = L^-T z once, at return.
    """
    s = structure
    if max_iter is None:
        max_iter = 100 + 10 * (s.n + s.Ain.shape[0])
    bin_ = np.zeros(0) if bin is None else bin
    viol = -bin_  # the violations at z = 0, where 0.5 |z|^2 is least
    if viol.max(initial=-np.inf) <= _FEAS_TOL:
        return QpSolution(np.zeros(s.n), OPTIMAL, 1)
    rows = s.rows
    # working: the rows in QR column order; lam: their multipliers
    working = list(start)
    warm = _warm_start(s, bin_, working) if working else None
    if warm is None:
        q, r, z = np.zeros((s.n, 0)), np.zeros((0, 0)), np.zeros(s.n)
        working, lam = [], np.zeros(0)
    else:
        q, r, z, lam = warm
        viol = rows @ z - bin_

    enter = None
    for it in range(1, max_iter + 1):
        if enter is None:
            viol[working] = -np.inf
            if viol.max() <= _FEAS_TOL:
                return QpSolution(s.chol_inv.T @ z, OPTIMAL, it, tuple(sorted(working)))
            enter, lam_enter = int(np.argmax(viol)), 0.0
            v = rows[enter]
        try:
            q_add, r_add = _qr_append(q, r, v, s.row_tol[enter])
            q_v, w_norm = r_add[:-1, -1], r_add[-1, -1]
        except SingularMatrixError:
            q_v, w_norm = q.T @ v, 0.0
        dual = np.linalg.solve(r, q_v) if working else q_v  # R, q_v empty
        with np.errstate(all="ignore"):  # checked below
            t_add = (v @ z - bin_[enter]) / w_norm**2 if w_norm else np.inf
        if w_norm and not np.isfinite(t_add):
            raise ValueError(f"step onto inequality row {enter} overflows")
        shrinking = dual > 0.0
        ratios = lam[shrinking] / dual[shrinking]
        t_drop = ratios.min(initial=np.inf)
        if t_add == t_drop == np.inf:
            return QpSolution(s.chol_inv.T @ z, INFEASIBLE, it, tuple(sorted(working)))
        t = min(t_add, t_drop)
        if w_norm:
            z = z - t * w_norm * q_add[:, -1]
        lam = lam - t * dual
        lam_enter += t
        if t_add <= t_drop:
            working.append(enter)
            lam = np.append(lam, lam_enter)
            q, r = q_add, r_add
            enter = None
            viol = rows @ z - bin_
        else:
            j = working.index(min(np.array(working)[shrinking][ratios == t_drop]))
            del working[j]
            lam = np.delete(lam, j)
            q, r = np.linalg.qr(rows[working].T)
    return QpSolution(s.chol_inv.T @ z, MAX_ITERATIONS, max_iter, tuple(sorted(working)))
