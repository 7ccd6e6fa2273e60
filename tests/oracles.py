"""Independent reference routines used to cross-check the solvers.

These deliberately take different computational paths from the production
code (QR solve vs LU, scipy's Schur-based Riccati solver vs structured
doubling, exhaustive active-set enumeration vs pivoting) so that agreement
is meaningful.
"""

import itertools

import numpy as np
import scipy.linalg


def qr_solve(A, b):
    """Solve A x = b through a QR factorization."""
    q, r = np.linalg.qr(A)
    return scipy.linalg.solve_triangular(r, q.T @ b)


def scipy_dare(A, B, Q, R):
    return scipy.linalg.solve_discrete_are(A, B, Q, R)


def scipy_lqr_gain(A, B, Q, R):
    P = scipy_dare(A, B, Q, R)
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def brute_force_qp(H, f, Aeq=None, beq=None, Ain=None, bin_=None, tol=1e-8):
    """Global QP minimum by enumerating every candidate active set.

    For each subset of inequality constraints, solve the equality-KKT
    system, keep candidates that are primal feasible with nonnegative
    inequality multipliers, and return the best.  Exponential, so only for
    tiny test problems.
    """
    H = np.asarray(H, float)
    f = np.asarray(f, float).reshape(-1)
    n = f.shape[0]
    Aeq = np.zeros((0, n)) if Aeq is None else np.asarray(Aeq, float).reshape(-1, n)
    beq = np.zeros(0) if beq is None else np.asarray(beq, float).reshape(-1)
    Ain = np.zeros((0, n)) if Ain is None else np.asarray(Ain, float).reshape(-1, n)
    bin_ = np.zeros(0) if bin_ is None else np.asarray(bin_, float).reshape(-1)

    best_obj = None
    best_x = None
    for k in range(Ain.shape[0] + 1):
        for subset in itertools.combinations(range(Ain.shape[0]), k):
            A = np.vstack([Aeq, Ain[list(subset)]])
            b = np.concatenate([beq, bin_[list(subset)]])
            na = A.shape[0]
            kkt = np.zeros((n + na, n + na))
            kkt[:n, :n] = H
            if na:
                kkt[:n, n:] = A.T
                kkt[n:, :n] = A
            rhs = np.concatenate([-f, b])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mult_in = sol[n + Aeq.shape[0]:]
            if Ain.shape[0] and np.max(Ain @ x - bin_) > tol:
                continue
            if mult_in.size and np.min(mult_in) < -tol:
                continue
            obj = float(0.5 * x @ H @ x + f @ x)
            if best_obj is None or obj < best_obj - 1e-12:
                best_obj = obj
                best_x = x
    return best_x, best_obj


def union_find_components(n, edges):
    """Connected components of vertices 1..n via union-find with path halving."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))
