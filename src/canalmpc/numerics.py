"""Dense linear-algebra kernel: linear solves, Riccati synthesis, small convex QPs.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, so simulation traces are reproducible.  Repeated
solves call LAPACK (getrf/getrs, potrf/potrs) directly, not through scipy's
lu_factor/lu_solve/cho_solve wrappers; inputs are checked here instead.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear system has no reliable solution (pivot below threshold)."""


class RiccatiConvergenceError(RuntimeError):
    """Riccati doubling diverged or hit its step cap; the pair is likely not stabilizable."""


# Pivot threshold (relative to the largest matrix entry) under which a
# factorization is declared singular.
PIVOT_RTOL = 1e-12

# Rank tolerance used to detect inconsistent equality systems.
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


def _as_vector(b, name="vector"):
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size and not np.all(np.isfinite(b)):
        raise ValueError(f"{name} contains non-finite entries")
    return b


class LuFactor:
    """LU factor with partial pivoting of a square matrix; each solve reuses it.

    LAPACK getrf factors, getrs solves.  The matrix is checked once, here: a
    non-finite entry raises ValueError, and SingularMatrixError is raised
    when any pivot magnitude (an exact zero included) falls below
    PIVOT_RTOL times the largest entry.
    """

    def __init__(self, A):
        A = _as_matrix(A, "A")
        self.n = A.shape[0]
        if A.shape[1] != self.n:
            raise ValueError(f"A must be square, got {A.shape}")
        self._lu_piv = None
        if self.n == 0:
            return
        scale = np.max(np.abs(A))
        if scale == 0.0:
            raise SingularMatrixError("zero matrix")
        lu, piv = _lapack(dgetrf, A)
        if np.min(np.abs(np.diag(lu))) < PIVOT_RTOL * scale:
            raise SingularMatrixError(
                f"pivot below {PIVOT_RTOL:g} * scale (matrix is singular to working precision)"
            )
        self._lu_piv = (lu, piv)

    def solve(self, b):
        """x with A x = b; the columns of a 2-D b are separate right-hand sides."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"b has {b.shape[0]} rows, expected {self.n}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        if self.n == 0:
            return np.zeros_like(b)
        return _lapack(dgetrs, *self._lu_piv, b)


def _lapack(routine, *args, **kwargs):
    """Outputs of a LAPACK call, which leaves its inputs intact, less the trailing info."""
    *out, info = routine(*args, **kwargs)
    if info < 0:  # getrf's info > 0 is a zero pivot, left to LuFactor's pivot test
        raise ValueError(f"LAPACK argument {-info} has an illegal value")
    return out[0] if len(out) == 1 else out


def solve_linear(A, b):
    """Solve A x = b by LU with partial pivoting (see LuFactor)."""
    return LuFactor(A).solve(b)


def solve_dare(A, B, Q, R, max_iter=50, tol=1e-12):
    """Solve the discrete algebraic Riccati equation by structured doubling.

    Structure-preserving doubling (SDA; Chu, Fan, Lin et al., 2004-05)
    starts from A_0 = A, G_0 = B R^-1 B', H_0 = Q and iterates

        W = I + G_k H_k
        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^-1 A_k

    with one linear solve per step.  H_k converges quadratically to the
    stabilizing solution P; iteration stops once
    ||H_{k+1} - H_k||_inf <= tol * (1 + ||H_{k+1}||_inf).  max_iter caps the
    number of doubling steps.

    Requires (A, B) stabilizable, Q >= 0 and R > 0 (symmetric); returns the
    stabilizing solution P = P' > 0.  Raises RiccatiConvergenceError when an
    iterate turns non-finite or singular, or the cap is reached.
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

    G = B @ solve_linear(R, B.T)
    G = 0.5 * (G + G.T)
    H = 0.5 * (Q + Q.T)
    eye = np.eye(n)
    # An unstabilizable mode grows like lambda^(2^k) and overflows within a
    # few steps: overflow is reported as an error, never as a warning.
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            try:
                # solve_linear rejects a non-finite or singular I + G H.
                sol = solve_linear(eye + G @ H, np.hstack([A, G]))
            except (SingularMatrixError, ValueError) as exc:
                raise RiccatiConvergenceError(
                    f"doubling step failed (pair may not be stabilizable): {exc}"
                ) from exc
            WinvA, WinvG = sol[:, :n], sol[:, n:]
            H_next = H + A.T @ H @ WinvA
            G = G + A @ WinvG @ A.T
            A = A @ WinvA
            H_next = 0.5 * (H_next + H_next.T)
            G = 0.5 * (G + G.T)
            if not all(np.all(np.isfinite(M)) for M in (A, G, H_next)):
                raise RiccatiConvergenceError(
                    "non-finite doubling iterate (pair may not be stabilizable)"
                )
            delta = np.linalg.norm(H_next - H, np.inf)
            H = H_next
            if delta <= tol * (1.0 + np.linalg.norm(H, np.inf)):
                return H
    raise RiccatiConvergenceError(
        f"no convergence within {max_iter} doubling steps (pair may not be stabilizable)"
    )


def lqr_gain(A, B, R, P):
    """Feedback gain K = -(R + B'PB)^-1 B'PA for a Riccati solution P."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    R = _as_matrix(R, "R")
    P = _as_matrix(P, "P")
    BtP = B.T @ P
    return -solve_linear(R + BtP @ B, BtP @ A)


def dare_residual(A, B, Q, R, P):
    """Inf-norm of the Riccati equation residual at P."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    BtP = B.T @ P
    BtPA = BtP @ A
    gain = solve_linear(R + BtP @ B, BtPA)
    return np.linalg.norm(A.T @ P @ A - P - BtPA.T @ gain + Q, np.inf)


def lyapunov_residual(Acl, P, Q, R, K):
    """Largest eigenvalue of Acl'P Acl - P + Q + K'RK.

    A value at or below tolerance certifies that x'Px upper-bounds the
    infinite-horizon cost of the closed loop Acl = A + BK.
    """
    Acl = _as_matrix(Acl, "Acl")
    P = _as_matrix(P, "P")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    K = _as_matrix(K, "K")
    S = Acl.T @ P @ Acl - P + Q + K.T @ R @ K
    return float(np.max(scipy.linalg.eigvalsh(0.5 * (S + S.T))))


# ---------------------------------------------------------------------------
# Quadratic programming
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max-iterations"

_FEAS_TOL = 1e-9
_STEP_TOL = 1e-11
_MULT_TOL = 1e-9


class QpStructure:
    """The fixed part of a QP family: H, Aeq and Ain, checked and factored once.

    The family is min 0.5 x'Hx + f'x  s.t.  Aeq x = beq,  Ain x <= bin with
    only f, beq and bin varying.  H must be symmetric and positive
    semidefinite on the null space of Aeq (positive definite there for a
    unique solution).  Built here: the independent equality rows, the
    Cholesky factor of H and H^-1 Aeq[eq_rows]' (both None when H is not
    positive definite).  A controller keeps one structure per QP it solves
    every step; a one-off problem builds its own.
    """

    def __init__(self, H, Aeq=None, Ain=None):
        self.H = _as_matrix(H, "H")
        self.n = n = self.H.shape[0]
        if self.H.shape != (n, n):
            raise ValueError(f"H must be square, got {self.H.shape}")
        self.Aeq = np.zeros((0, n)) if Aeq is None or np.size(Aeq) == 0 else _as_matrix(Aeq, "Aeq")
        self.Ain = np.zeros((0, n)) if Ain is None or np.size(Ain) == 0 else _as_matrix(Ain, "Ain")
        if self.Aeq.shape[1] != n or self.Ain.shape[1] != n:
            raise ValueError("constraint column count inconsistent with n")
        try:
            self.chol = scipy.linalg.cho_factor(self.H, check_finite=False)
        except np.linalg.LinAlgError:
            self.chol = None
        self.eq_rows = _independent_rows(self.Aeq)
        # With full row rank, Aeq x = beq is consistent for every beq.
        self.eq_full_rank = len(self.eq_rows) == self.Aeq.shape[0]
        self.hinv_aeq_t = None if self.chol is None else self.hinv(self.Aeq[self.eq_rows].T)

    def hinv(self, b):
        """H^-1 b through the Cholesky factor (LAPACK potrs)."""
        return _lapack(dpotrs, self.chol[0], b, lower=self.chol[1])


@dataclass
class QpProblem:
    """One member of a QP family: its structure plus the vectors f, beq and bin."""

    structure: QpStructure
    f: np.ndarray
    beq: np.ndarray | None = None
    bin: np.ndarray | None = None

    def __post_init__(self):
        self.f = _as_vector(self.f, "f")
        self.beq = np.zeros(0) if self.beq is None else _as_vector(self.beq, "beq")
        self.bin = np.zeros(0) if self.bin is None else _as_vector(self.bin, "bin")
        s = self.structure
        if self.f.shape[0] != s.n:
            raise ValueError(f"f has {self.f.shape[0]} entries, expected {s.n}")
        if s.Aeq.shape[0] != self.beq.shape[0]:
            raise ValueError("Aeq/beq row mismatch")
        if s.Ain.shape[0] != self.bin.shape[0]:
            raise ValueError("Ain/bin row mismatch")


@dataclass
class QpSolution:
    x: np.ndarray
    objective: float
    status: str
    iterations: int = 0
    active_set: tuple = field(default_factory=tuple)

    @property
    def optimal(self):
        return self.status == OPTIMAL


def _objective(prob, x):
    return float(0.5 * x @ prob.structure.H @ x + prob.f @ x)


def _independent_rows(A, rtol=RANK_RTOL):
    """Indices of a maximal independent row subset, chosen deterministically."""
    if A.shape[0] == 0:
        return []
    q, r, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return []
    rank = int(np.sum(diag > rtol * diag[0]))
    return sorted(piv[:rank].tolist())


def _range_space_step(hinv_g, A_w, hinv_at):
    """(p, multipliers) minimizing 0.5 p'Hp + g'p s.t. A_w p = 0, H positive definite.

    Range-space step (Nocedal & Wright, Numerical Optimization, 16.2): only
    S = A_w H^-1 A_w' is factored, by Cholesky, which fails exactly when the
    rows of A_w are dependent.  Round-off on an ill-conditioned H leaves p
    off A_w p = 0 and stalls the step-norm stop; one refinement with S
    projects it back.
    """
    if A_w.shape[0] == 0:
        return -hinv_g, np.zeros(0)
    schur, info = dpotrf(A_w @ hinv_at)  # reads the upper triangle
    if info:
        raise SingularMatrixError("working-set rows are linearly dependent")
    mult = _lapack(dpotrs, schur, -(A_w @ hinv_g))
    p = -hinv_g - hinv_at @ mult
    fix = _lapack(dpotrs, schur, A_w @ p)
    return p - hinv_at @ fix, mult + fix


def _kkt_step(H, g, A_w):
    """(p, multipliers) minimizing 0.5 p'Hp + g'p s.t. A_w p = 0, H without a factor."""
    n = H.shape[0]
    nw = A_w.shape[0]
    kkt = np.zeros((n + nw, n + nw))
    kkt[:n, :n] = H
    if nw:
        kkt[:n, n:] = A_w.T
        kkt[n:, :n] = A_w
    rhs = np.concatenate([-g, np.zeros(nw)])
    try:
        sol = solve_linear(kkt, rhs)
    except SingularMatrixError:
        # Semidefinite flat directions: fall back to the minimum-norm KKT
        # solution, which is still a subproblem minimizer for convex H.
        sol, residual, _, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        check = np.linalg.norm(kkt @ sol - rhs, np.inf)
        if check > 1e-6 * (1.0 + np.linalg.norm(rhs, np.inf)):
            raise ValueError("QP subproblem is unbounded below") from None
    return sol[:n], sol[n:]


def _active_set_loop(prob, x, max_iter):
    """Primal active-set iteration from a feasible x.

    The working set starts empty and is populated by blocking constraints;
    degenerately active rows never enter unless the step pushes into them.
    Ties are broken toward the lowest constraint index both when adding a
    blocking constraint and when dropping one with a negative multiplier,
    which prevents cycling and keeps the method deterministic.
    """
    s = prob.structure
    H, f, Ain, bin_ = s.H, prob.f, s.Ain, prob.bin
    A_eq = s.Aeq[s.eq_rows]
    working = []
    if s.chol is not None:
        hinv_f = s.hinv(f)  # so that H^-1 g = x + H^-1 f
        hinv_rows = {}  # row i -> H^-1 a_i, solved as i first enters this solve

    for it in range(1, max_iter + 1):
        A_w = np.vstack([A_eq, Ain[working]]) if working else A_eq
        if s.chol is None:
            p, mult = _kkt_step(H, H @ x + f, A_w)
        else:
            hinv_at = np.column_stack([s.hinv_aeq_t, *(hinv_rows[i] for i in working)])
            p, mult = _range_space_step(x + hinv_f, A_w, hinv_at)
        if np.linalg.norm(p, np.inf) <= _STEP_TOL * (1.0 + np.linalg.norm(x, np.inf)):
            ineq_mult = mult[A_eq.shape[0]:]
            negative = [
                (working[j], ineq_mult[j])
                for j in range(len(working))
                if ineq_mult[j] < -_MULT_TOL
            ]
            if not negative:
                return x, OPTIMAL, it, tuple(working)
            drop = min(idx for idx, _ in negative)
            working.remove(drop)
            continue
        # Step length limited by the nearest inactive constraint; the lowest
        # index wins ties.
        alpha = 1.0
        blocker = -1
        if Ain.shape[0]:
            d = Ain @ p
            candidates = d > _FEAS_TOL
            if working:
                candidates[working] = False
            if np.any(candidates):
                idx = np.nonzero(candidates)[0]
                ratios = (bin_[idx] - Ain[idx] @ x) / d[idx]
                best = np.min(ratios)
                if best < alpha - 1e-12:
                    alpha = max(best, 0.0)
                    blocker = int(idx[np.nonzero(ratios <= best + 1e-12)[0][0]])
        x = x + alpha * p
        if blocker >= 0:
            working = sorted(working + [blocker])
            if s.chol is not None and blocker not in hinv_rows:
                hinv_rows[blocker] = s.hinv(Ain[blocker])
    return x, MAX_ITERATIONS, max_iter, tuple(working)


def _feasible_start(prob, x0, max_iter):
    """Find a feasible point by driving the worst inequality violation to zero."""
    s = prob.structure
    Ain, bin_ = s.Ain, prob.bin
    viol = Ain @ x0 - bin_ if Ain.shape[0] else np.zeros(0)
    worst = float(np.max(viol)) if viol.size else 0.0
    if worst <= _FEAS_TOL:
        return x0, True
    n = s.n
    # Auxiliary problem in (x, t): minimize t^2 subject to the independent
    # original equalities and Ain x - t <= bin; (x0, worst + 1) is strictly
    # feasible.
    H_aux = np.zeros((n + 1, n + 1))
    H_aux[n, n] = 2.0
    Aeq_aux = np.hstack([s.Aeq[s.eq_rows], np.zeros((len(s.eq_rows), 1))])
    Ain_aux = np.hstack([Ain, -np.ones((Ain.shape[0], 1))])
    aux = QpProblem(QpStructure(H_aux, Aeq_aux, Ain_aux), np.zeros(n + 1),
                    prob.beq[s.eq_rows], bin_)
    z0 = np.concatenate([x0, [worst + 1.0]])
    z, status, _, _ = _active_set_loop(aux, z0, max_iter)
    if status != OPTIMAL or z[n] > 1e-7:
        return x0, False
    return z[:n], True


def solve_qp(prob, start=None, max_iter=None):
    """Solve a small dense convex QP with a primal active-set method.

    Deterministic: the same problem (and optional warm start) always yields
    the same solution.  Status is 'infeasible' when the equality system is
    inconsistent or no feasible point exists, 'max-iterations' with the best
    iterate attached when the cap is reached.  Nothing fixed is factored per
    solve: H's factor, H^-1 Aeq' and the independent equality rows come from
    the QpStructure; a step factors only the working set's Schur complement
    (the KKT matrix when H has no factor).  An equality system of full row
    rank is consistent for every beq, so its least-squares point is computed
    only when the start is missing or infeasible.
    """
    if not isinstance(prob, QpProblem):
        raise TypeError("expected a QpProblem")
    s = prob.structure
    if max_iter is None:
        max_iter = 100 + 10 * (s.n + s.Ain.shape[0])

    x0 = None
    if start is not None:
        start = _as_vector(start, "start")
        if start.shape[0] != s.n:
            raise ValueError("start has wrong dimension")
        ok_eq = (
            s.Aeq.shape[0] == 0
            or np.linalg.norm(s.Aeq @ start - prob.beq, np.inf)
            <= _FEAS_TOL * (1.0 + np.linalg.norm(prob.beq, np.inf))
        )
        ok_in = s.Ain.shape[0] == 0 or float(np.max(s.Ain @ start - prob.bin)) <= _FEAS_TOL
        if ok_eq and ok_in:
            x0 = start
    x_eq = np.zeros(s.n)
    if s.Aeq.shape[0] and (x0 is None or not s.eq_full_rank):
        # Consistency of the equality system (relative tolerance).
        x_eq, *_ = np.linalg.lstsq(s.Aeq, prob.beq, rcond=None)
        eq_err = np.linalg.norm(s.Aeq @ x_eq - prob.beq, np.inf)
        if eq_err > RANK_RTOL * (1.0 + np.linalg.norm(prob.beq, np.inf)):
            return QpSolution(x_eq, _objective(prob, x_eq), INFEASIBLE)
    if x0 is None:
        x0, feasible = _feasible_start(prob, x_eq, max_iter)
        if not feasible:
            return QpSolution(x0, _objective(prob, x0), INFEASIBLE)

    x, status, iters, active = _active_set_loop(prob, x0, max_iter)
    return QpSolution(x, _objective(prob, x), status, iters, active)
