"""Dense linear-algebra kernel: linear solves, Riccati synthesis, small convex QPs.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, so simulation traces are reproducible.  The kernels
are numpy's (solve, cholesky, qr, eigvalsh), so the package needs no scipy
at run time; inputs are checked here.
"""

from dataclasses import dataclass, field

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear system has no reliable solution (reciprocal condition number below threshold)."""


class RiccatiConvergenceError(RuntimeError):
    """Riccati doubling diverged or hit its step cap; the pair is likely not stabilizable."""


# A matrix whose reciprocal 1-norm condition number 1 / (||A||_1 ||A^-1||_1)
# falls below this is declared singular.
RCOND_MIN = 1e-12

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


def _rhs(b, n):
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    return b


def _solve_with_inverse(A, b):
    """(x, A^-1) for A x = b from one np.linalg.solve against [b, I].

    A non-finite entry raises ValueError.  SingularMatrixError is raised
    when the reciprocal 1-norm condition number 1 / (||A||_1 ||A^-1||_1)
    falls below RCOND_MIN, an exact zero pivot included.
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"A must be square, got {A.shape}")
    b = _rhs(b, n)
    rhs = np.column_stack([b, np.eye(n)])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:  # an exact zero pivot
        sol = np.full(rhs.shape, np.inf)
    x, inv = np.hsplit(sol, [rhs.shape[1] - n])
    # ||A||_1 ||A^-1||_1 in Python floats: an infinite or NaN product fails
    # the test below without a floating-point warning.
    cond = float(np.abs(A).sum(axis=0).max(initial=0.0)) * float(np.abs(inv).sum(axis=0).max(initial=0.0))
    if not cond * RCOND_MIN <= 1.0:
        raise SingularMatrixError(
            f"reciprocal condition number below {RCOND_MIN:g} (matrix is singular to working precision)"
        )
    return x[:, 0] if b.ndim == 1 else x, inv


class LuFactor:
    """A square matrix's inverse, taken once (see _solve_with_inverse for the
    checks), so that each solve is a product with it."""

    def __init__(self, A):
        self.n = np.shape(A)[0]
        self._inv = _solve_with_inverse(A, np.zeros((self.n, 0)))[1]

    def solve(self, b):
        """x with A x = b; the columns of a 2-D b are separate right-hand sides."""
        return self._inv @ _rhs(b, self.n)


def solve_linear(A, b):
    """Solve A x = b by one np.linalg.solve, checked as in _solve_with_inverse."""
    return _solve_with_inverse(A, b)[0]


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
    return float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))


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
    unique solution).  Built here: the independent equality rows and, when
    H = LL' is positive definite, L', L^-1 and the QR factors eq_q, eq_r of
    L^-1 Aeq[eq_rows]' (all None otherwise); cond(L) = sqrt(cond(H)).  A
    controller keeps one structure per QP it solves every step.
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
        self.eq_rows = _independent_rows(self.Aeq)
        # With full row rank, Aeq x = beq is consistent for every beq.
        self.eq_full_rank = len(self.eq_rows) == self.Aeq.shape[0]
        self.chol_t = self.chol_inv = self.eq_q = self.eq_r = None
        try:
            chol = np.linalg.cholesky(self.H)
        except np.linalg.LinAlgError:
            return
        self.chol_t, self.chol_inv = chol.T.copy(), np.linalg.inv(chol)
        self.eq_q, self.eq_r = np.linalg.qr(self.chol_inv @ self.Aeq[self.eq_rows].T)


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
    """Indices of a maximal independent row subset, chosen deterministically:
    all rows when an unpivoted QR of A' shows no R diagonal entry <= rtol times
    the largest, else rows in order, each kept when Gram-Schmidt leaves more
    than rtol times the largest row norm."""
    m, n = A.shape
    if m == 0:
        return []
    diag = np.abs(np.diag(np.linalg.qr(A.T, mode="r")))
    if m <= n and diag.min() > rtol * diag.max():
        return list(range(m))
    scale = rtol * np.max(np.linalg.norm(A, axis=1))
    keep, q, r = [], np.zeros((n, 0)), np.zeros((0, 0))
    for i, row in enumerate(A):
        try:
            q, r = _qr_append(q, r, row, scale)
        except SingularMatrixError:
            continue
        keep.append(i)
    return keep


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
    r_new = np.block([[r, (coef + again)[:, None]], [np.zeros((1, r.shape[0])), norm]])
    return np.column_stack([q, w / norm]), r_new


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

    When H = LL' is factored, steps are taken in z = L'x (Goldfarb & Idnani,
    Math. Programming 27, 1983).  With L^-1 A_w' = QR, p = -L^-T (I - QQ') g
    and R lambda = -Q'g for the gradient g = L'x + L^-1 f; an entering row
    is appended to Q and R, a leaving row triggers a fresh QR.
    """
    s = prob.structure
    H, f, Ain, bin_ = s.H, prob.f, s.Ain, prob.bin
    A_eq = s.Aeq[s.eq_rows]
    working = []  # in entry order, the order of the working rows in A_w and Q
    factored = s.chol_inv is not None
    if factored:
        linv_f = s.chol_inv @ f
        z = s.chol_t @ x  # advanced with x, so that z + L^-1 f is the gradient in z
        q, r = s.eq_q, s.eq_r

    for it in range(1, max_iter + 1):
        if factored:
            g = z + linv_f
            q_g = q.T @ g
            p_z = q @ q_g - g
            p = s.chol_inv.T @ p_z
        else:
            p, mult = _kkt_step(H, H @ x + f, np.vstack([A_eq, Ain[working]]))
        if np.linalg.norm(p, np.inf) <= _STEP_TOL * (1.0 + np.linalg.norm(x, np.inf)):
            if not working:
                return x, OPTIMAL, it, ()
            if factored:
                mult = np.linalg.solve(r, -q_g)
            ineq_mult = mult[A_eq.shape[0]:]
            negative = [working[j] for j in range(len(working)) if ineq_mult[j] < -_MULT_TOL]
            if not negative:
                return x, OPTIMAL, it, tuple(sorted(working))
            working.remove(min(negative))
            if factored:
                q, r = np.linalg.qr(s.chol_inv @ np.vstack([A_eq, Ain[working]]).T)
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
        if factored:
            z = z + alpha * p_z
        if blocker >= 0:
            working.append(blocker)
            if factored:
                v = s.chol_inv @ Ain[blocker]
                q, r = _qr_append(q, r, v, RANK_RTOL * np.linalg.norm(v))
    return x, MAX_ITERATIONS, max_iter, tuple(sorted(working))


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
    solve: L', L^-1, the QR of L^-1 Aeq' and the independent equality rows
    come from the QpStructure; a step updates that QR by one row (a fresh QR
    when a row leaves), or factors the KKT matrix when H has no factor.
    An equality system of full row
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
