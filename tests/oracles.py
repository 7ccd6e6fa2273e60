"""Independent reference routines used to cross-check the solvers and models.

These deliberately take different computational paths from the production
code (a dense solve of the square setpoint system vs the closed-form
upstream walk, scipy's Schur-based Riccati solver vs structured doubling,
exhaustive active-set enumeration vs pivoting, horizon loops vs stacked
prediction maps, a term-by-term condensation vs stacked products, a backward
costate sweep vs the condensed cost's zero gradient, scipy's cho_solve for
the shift that moves a test QP's linear term into its right-hand side
(solve_qp takes none), a triangular solve against scipy's Cholesky factor
vs a product with the inverse factor, reach-by-reach difference equations
vs stacked state-space matrices, a fused filter replay vs a cached gain
schedule, per-coalition filter steps vs a partition's block-diagonal one,
per-coalition controller steps, both QPs always solved, vs a partition's
stacked step that solves only where the zero start fails, a per-candidate
synthesis and per-block setpoint placement vs a
decision's one-pass bookkeeping) so that agreement is meaningful.
"""

import itertools

import numpy as np
import scipy.linalg

from canalmpc.control import compute_setpoint, feasible_setpoint, mpc_step
from canalmpc.supervisor import synthesize, topology_value
from canalmpc.topology import candidate_set, partition_of


def square_setpoint(coalition, rho, omega):
    """(xi_bar, u_bar) from one dense LU solve of the square setpoint system

        [[I - Xi, -Up], [gamma, 0]] [xi; u] = [Phi rho + Psi omega; 0],

    whose solution is the steady state with zero level errors.
    """
    n, m = coalition.n, coalition.m
    lhs = np.block([[np.eye(n) - coalition.Xi, -coalition.Up],
                    [coalition.gamma, np.zeros((m, m))]])
    rhs = np.concatenate([coalition.Phi @ rho + coalition.Psi @ omega, np.zeros(m)])
    sol = np.linalg.solve(lhs, rhs)
    return sol[:n], sol[n:]


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
            # A singular KKT matrix (more active rows than the problem can
            # hold) need not raise; its round-off "solution" misses the rows.
            if np.linalg.norm(kkt @ sol - rhs, np.inf) > tol * (1.0 + np.linalg.norm(rhs, np.inf)):
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


def shift_linear_term(H, f, Ain=None, bin_=None):
    """(x0, bin - Ain x0) for x0 = -H^-1 f, by scipy's cho_solve.

    With x = y + x0, 0.5 x'Hx + f'x = 0.5 y'Hy - 0.5 x0'Hx0, so the QP with
    linear term f is the QP in y without one on the shifted right-hand
    side; its minimizer is x = y + x0.  An absent side (None) stays None.
    """
    x0 = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), f)
    return x0, None if bin_ is None else bin_ - Ain @ x0


def whitened_rows(H, Ain):
    """The rows of Ain in the coordinates z = L'x of H = LL', row i being
    (L^-1 a_i)', by scipy's Cholesky factor and a triangular solve."""
    chol = scipy.linalg.cholesky(H, lower=True)
    return scipy.linalg.solve_triangular(chol, Ain.T, lower=True).T


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


def looped_rollout_value(xi0, blocks, xi_mat, up_mat, phi_rho, yardstick, level_rows,
                         level_weight, input_weight, bound, steps):
    """Candidate rollout score with one feedback law per coalition.

    `blocks` holds (state rows, input columns, K, P, xi_bar) per
    coalition.  Each step gathers every coalition's slice of the global
    state, applies that coalition's own saturated law and scatters its
    inputs into the global input vector, then advances the coupled model.
    Returns the stage plus terminal cost and the number of input entries
    the saturation cut.
    """
    xi = np.array(xi0, dtype=float)
    total = 0.0
    clipped = 0
    for _ in range(steps):
        u = np.zeros(up_mat.shape[1])
        for rows, cols, k_mat, _, xi_bar in blocks:
            raw = k_mat @ (xi[rows] - xi_bar)
            clipped += int(np.count_nonzero(np.abs(raw) > bound))
            u[cols] = np.minimum(np.maximum(raw, -bound), bound)
        dev = (xi - yardstick)[level_rows]
        total += level_weight * (dev @ dev) + input_weight * (u @ u)
        xi = xi_mat @ xi + up_mat @ u + phi_rho
    for rows, _, _, p_mat, _ in blocks:
        z = xi[rows] - yardstick[rows]
        total += z @ p_mat @ z
    return total, clipped


def per_candidate_scores(state, rho, outflow, incumbent, cache, subsystems, cfg, t_lambda,
                         model):
    """select_topology's scores by the per-candidate path, candidate_set order.

    Each candidate gets its own synthesize(partition_of(candidate)) call and
    one compute_setpoint per block, placed blockwise in its xi_bar row; the
    rows are then scored by topology_value.
    """
    candidates = candidate_set(incumbent)
    records = [synthesize(partition_of(cand), subsystems, cfg, cache) for cand in candidates]
    xi_bar = np.empty((len(candidates), model.n))
    for row, gains in zip(xi_bar, records):
        start = 0
        for entry in gains:
            coal = entry.model
            row[start:start + coal.n] = compute_setpoint(
                coal, rho[[s - 1 for s in coal.members]],
                outflow[[s - 1 for s in coal.coupling_sources]])
            start += coal.n
    return topology_value(state, candidates, records, xi_bar, t_lambda, model, rho, cfg)


def looped_mpc_data(acl, up, gain, flow_sel, zeta0, xi_s, u_s, n_p, n_c, bound, margin):
    """Inequality right-hand side and feasible start of the condensed MPC, step by step.

    Propagates the closed-loop state one horizon step at a time instead of
    through precomputed stacked maps.  The right-hand side holds the flow
    floor for t = 1..N_c, the slack sign rows, then the upper and lower
    input-box halves for t = 0..N_p.  The start clamps the feedback law into
    the box for the first N_c steps and lets the slacks absorb floor
    violations; it is None when the unaided law leaves the box for some
    t = N_c..N_p.
    """
    n_q, m = flow_sel.shape[0], gain.shape[0]
    z = np.array(zeta0, dtype=float)
    floor, upper, lower = [], [], []
    for t in range(n_p + 1):
        if 1 <= t <= n_c:
            floor.append(flow_sel @ (z + xi_s) - margin)
        base = gain @ z + u_s
        upper.append(bound - base)
        lower.append(bound + base)
        z = acl @ z
    rhs = np.concatenate(floor + [np.zeros(n_q * n_c)] + upper + lower)

    z = np.array(zeta0, dtype=float)
    moves, slacks = [], []
    for t in range(n_c):
        desired = gain @ z + u_s
        moves.append(np.minimum(np.maximum(desired, -bound), bound) - desired)
        z = acl @ z + up @ moves[-1]
        slacks.append(np.maximum(0.0, margin - flow_sel @ (z + xi_s)))
    tail_peak = 0.0
    for _ in range(n_c, n_p + 1):
        tail_peak = max(tail_peak, float(np.max(np.abs(gain @ z + u_s))))
        z = acl @ z
    start = None
    if tail_peak <= bound + 1e-12:
        start = np.concatenate([np.reshape(moves, m * n_c), np.reshape(slacks, n_q * n_c)])
    return rhs, start


def looped_mpc_program(acl, up, gain, q_mat, r_mat, p_mat, flow_sel, n_p, n_c, slack_weight):
    """Condensed MPC Hessian, inequality rows and free-run maps, one horizon step at a time.

    Over (v'(0..N_c-1), eps) the closed loop gives zeta(t) = Acl^t zeta0 +
    T_t v' and u(t) = K Acl^t zeta0 + M_t v'; T_t and M_t are propagated
    step by step, and H accumulates 2 T_t'Q T_t (t = 1..N_p-1), 2 T_N'P T_N
    and 2 M_t'R M_t (t = 0..N_p-1), each term formed on its own, plus the
    slack block.  The rows are the soft flow floor for t = 1..N_c, eps >= 0,
    then the input box's upper and lower halves for t = 0..N_p.  Returns H,
    Ain, the stacked K Acl^t (t = 0..N_p) and flow_sel Acl^t (t = 1..N_c).
    """
    n, m = acl.shape[0], gain.shape[0]
    n_q = flow_sel.shape[0]
    nu, n_eps, n_box = m * n_c, n_q * n_c, m * (n_p + 1)
    powers = [np.eye(n)]
    t_maps = [np.zeros((n, nu))]
    for t in range(1, n_p + 1):
        powers.append(acl @ powers[-1])
        tm = acl @ t_maps[-1]
        if t - 1 < n_c:
            tm[:, (t - 1) * m:t * m] += up
        t_maps.append(tm)
    select = np.eye(n_box, nu)
    m_maps = [gain @ t_maps[t] + select[t * m:(t + 1) * m] for t in range(n_p + 1)]
    h_uu = np.zeros((nu, nu))
    for t in range(1, n_p):
        h_uu += 2.0 * t_maps[t].T @ q_mat @ t_maps[t]
    h_uu += 2.0 * t_maps[n_p].T @ p_mat @ t_maps[n_p]
    for t in range(n_p):
        h_uu += 2.0 * m_maps[t].T @ r_mat @ m_maps[t]
    h_mat = np.zeros((nu + n_eps, nu + n_eps))
    h_mat[:nu, :nu] = h_uu
    h_mat[nu:, nu:] = 2.0 * slack_weight * np.eye(n_eps)

    ain = np.zeros((2 * n_eps + 2 * n_box, nu + n_eps))
    for t in range(1, n_c + 1):
        r0 = (t - 1) * n_q
        ain[r0:r0 + n_q, :nu] = -flow_sel @ t_maps[t]
        ain[r0:r0 + n_q, nu + r0:nu + r0 + n_q] = -np.eye(n_q)
        ain[n_eps + r0:n_eps + r0 + n_q, nu + r0:nu + r0 + n_q] = -np.eye(n_q)
    for t in range(n_p + 1):
        r0 = 2 * n_eps + t * m
        ain[r0:r0 + m, :nu] = m_maps[t]
        ain[r0 + n_box:r0 + n_box + m, :nu] = -m_maps[t]
    box_map = np.vstack([gain @ p for p in powers])
    floor_map = np.vstack([flow_sel @ p for p in powers[1:n_c + 1]])
    return h_mat, ain, box_map, floor_map


def costate_gradient(acl, up, gain, q_mat, r_mat, p_mat, zeta0, n_p, n_c):
    """Gradient of the MPC cost in v'(0..N_c-1) at v' = 0, by a backward costate sweep.

    The cost is sum_{t=1}^{N_p-1} zeta(t)'Q zeta(t) + zeta(N_p)'P zeta(N_p)
    + sum_{t=0}^{N_p-1} u(t)'R u(t) with u(t) = K zeta(t) + v'(t) and
    zeta(t+1) = Acl zeta(t) + Up v'(t).  A forward pass steps the closed
    loop at v' = 0; the backward pass carries the costate lambda(t) =
    dJ/dzeta(t), from lambda(N_p) = 2 P zeta(N_p) through lambda(t) =
    2 Q zeta(t) + 2 K'R u(t) + Acl' lambda(t+1), and reads off
    dJ/dv'(t) = 2 R u(t) + Up' lambda(t+1).
    """
    zetas = [np.array(zeta0, dtype=float)]
    for _ in range(n_p):
        zetas.append(acl @ zetas[-1])
    lam = 2.0 * p_mat @ zetas[n_p]
    grads = []
    for t in range(n_p - 1, -1, -1):
        r_u = 2.0 * r_mat @ (gain @ zetas[t])
        if t < n_c:
            grads.append(r_u + up.T @ lam)
        lam = 2.0 * q_mat @ zetas[t] + gain.T @ r_u + acl.T @ lam
    return np.concatenate(grads[::-1])


def joseph_correct(filt, xhat, cov, y):
    """One measurement update of a coalition filter: gain computed on the spot,
    covariance in Joseph form."""
    c_mat, v_mat = filt.c_mat, filt.v_mat
    cp = c_mat @ cov
    gain = np.linalg.solve(cp @ c_mat.T + v_mat, cp).T
    xhat = xhat + gain @ (y - c_mat @ xhat)
    ikc = np.eye(cov.shape[0]) - gain @ c_mat
    cov = ikc @ cov @ ikc.T + gain @ v_mat @ gain.T
    return xhat, 0.5 * (cov + cov.T)


def kf_step(filt, xhat, cov, u, rho, y):
    """One plain predict/correct cycle of a coalition filter.

    The state advances through the coalition's own Xi, Psi, Up and Phi (u and
    rho are the members' inputs and offtakes), then y lands by joseph_correct.
    """
    coalition, f_mat = filt.coalition, filt.f_mat
    xhat = f_mat @ xhat
    xhat[:coalition.n] += coalition.Up @ u + coalition.Phi @ rho
    cov = f_mat @ cov @ f_mat.T + filt.w_mat
    return joseph_correct(filt, xhat, 0.5 * (cov + cov.T), y)


def replay_kf_init(filt, window):
    """Filter warm start by the fused replay: covariance and estimate together.

    Each row of the (4, L, N) window runs the whole predict/correct cycle,
    gain computed on the spot, instead of replaying the estimate against a
    precomputed gain schedule.  The prior is the one control.kf_init documents.
    """
    coalition = filt.coalition
    n, r = coalition.n, coalition.n_channels
    idx = [s - 1 for s in coalition.members]
    samples = list(np.swapaxes(window, 0, 1))   # per row: levels, flows, inputs, offtakes
    levels, flows, _, offtakes = samples[0]

    def measurement(sample):
        return np.concatenate([sample[0][idx], sample[1][idx]])

    xhat = np.zeros(n + r)
    xhat[:n] = coalition.stack_state([flows] * max(coalition.delays), levels)
    for c, source in enumerate(coalition.coupling_sources):
        xhat[n + c] = flows[source - 2] - offtakes[source - 2]
    xhat, cov = joseph_correct(filt, xhat, np.diag(filt.prior), measurement(samples[0]))
    for prev, cur in zip(samples, samples[1:]):
        xhat, cov = kf_step(filt, xhat, cov, prev[2][idx], prev[3][idx], measurement(cur))
    return xhat, cov


def setpoint_rhs(prog, xi_bar, xi_k, cfg):
    """One coalition's setpoint QP right-hand side at the state xi_k, on its own:
    the flow floor -delta <= xi_bar - margin, then K (xi_k - xi_bar - delta) + u_s
    within the box."""
    k_xi = prog.gain @ (xi_k - xi_bar)
    return np.concatenate([xi_bar[prog.floor_rows] - cfg.flow_margin,
                           cfg.input_bound - k_xi, cfg.input_bound + k_xi])


def mpc_rhs(prog, coalition, zeta0, xi_s, u_s, cfg):
    """One coalition's MPC right-hand side, on its own, through its flow selector:
    the flow floor for t = 1..N_c, eps >= 0, then the box's upper and lower
    halves for t = 0..N_p."""
    floor = ((prog.floor_map @ zeta0).reshape(prog.n_c, prog.n_q)
             + coalition.flow_selector() @ xi_s - cfg.flow_margin)
    base = (prog.box_map @ zeta0).reshape(prog.n_p + 1, prog.m) + u_s
    return np.concatenate([floor, np.zeros(floor.size), cfg.input_bound - base,
                           cfg.input_bound + base], axis=None)


def per_coalition_step(controllers, starts, xhats, rhos, cfg):
    """Each coalition's step by the per-coalition loop, both QPs always solved.

    Coalition i, from its estimate xhats[i] = [xi_hat; omega_hat], offtakes
    rhos[i] and MPC start starts[i], takes xi_bar from compute_setpoint, its
    projection from feasible_setpoint and its MPC solution from mpc_step, on
    the right-hand sides setpoint_rhs and mpc_rhs form for it alone; u = K
    zeta + u_s + v'(0) and the outflow is xi_s[gate rows] + u_s.  Returns
    the stacked u and outflow and each coalition's next start.
    """
    us, outflows, next_starts = [], [], []
    for ctrl, start, xhat, rho in zip(controllers, starts, xhats, rhos):
        coal, sp_prog = ctrl.model, ctrl.setpoint_program
        xi_hat = xhat[:coal.n]
        xi_bar = compute_setpoint(coal, rho, xhat[coal.n:])
        sp = feasible_setpoint(sp_prog, xi_bar, setpoint_rhs(sp_prog, xi_bar, xi_hat, cfg))
        zeta = xi_hat - sp.xi_s
        sol = mpc_step(ctrl.program, mpc_rhs(ctrl.program, coal, zeta, sp.xi_s, sp.u_s, cfg), start)
        us.append(ctrl.gain @ zeta + sp.u_s + sol.x[:coal.m])
        outflows.append(sp.xi_s[coal.gate_flow_rows()] + sp.u_s)
        next_starts.append(sol.active_set if sol.optimal else ())
    return np.concatenate(us), np.concatenate(outflows), next_starts


def step_reaches(reaches, t_sample, members, state, inputs, offtakes, external):
    """One step of the member reaches' difference equations, reach by reach.

    `reaches` is the whole chain's parameter table and `members` lists the
    simulated reaches in increasing order.  For member s with delay d and
    backwater area A, `state` holds [q_s(k-1), ..., q_s(k-d), e_s(k)], the
    members stacked in order; `inputs` and `offtakes` hold dq_s(k) and
    p_s(k) per member.  The gate flow now is q_s(k) = q_s(k-1) + dq_s(k),
    the delay line shifts by one, and the level follows the mass balance

        e_s(k+1) = e_s(k) + T / A (q_s(k-d) - q_{s+1}(k) - p_s(k)),

    where the downstream gate flow q_{s+1}(k) is computed here when s + 1 is
    a member, read from `external[s + 1]` when it is not, and zero below the
    last reach of the chain.  Returns the next stacked state.
    """
    params = {r.index: r for r in reaches}
    last = max(params)
    lines, levels, pos = {}, {}, 0
    for s in members:
        d = params[s].delay_steps
        lines[s] = [float(v) for v in state[pos:pos + d]]
        levels[s] = float(state[pos + d])
        pos += d + 1
    gate_now = {s: lines[s][0] + float(dq) for s, dq in zip(members, inputs)}
    nxt = []
    for s, p in zip(members, offtakes):
        if s == last:
            down = 0.0
        elif s + 1 in gate_now:
            down = gate_now[s + 1]
        else:
            down = float(external[s + 1])
        inflow = lines[s][-1]
        level = levels[s] + t_sample / params[s].backwater_area * (inflow - down - float(p))
        nxt.extend([gate_now[s]] + lines[s][:-1] + [level])
    return np.array(nxt)


def _fmt_scalar(x):
    return repr(float(x))


def trace_rows(trace):
    """The data rows of a trace file, each value formatted on its own."""
    rows = []
    for k in range(trace.horizon):
        row = [str(k)]
        for array in (trace.levels, trace.flows, trace.inputs, trace.offtakes):
            row += [_fmt_scalar(v) for v in array[k]]
        row += [trace.topology_bits[k], _fmt_scalar(trace.perf_cost[k]),
                str(int(trace.net_links[k])), str(int(trace.n_coalitions[k])),
                _fmt_scalar(trace.mean_decision_vars[k])]
        rows.append(",".join(row))
    return rows


def plot_rows(trace, c_link):
    """File name -> data rows of the plot tables, each value formatted on its own."""
    perf_cum = np.cumsum(trace.perf_cost)
    combined_cum = np.cumsum(trace.perf_cost + c_link * trace.net_links)
    tables = {
        "levels.csv": lambda k: [_fmt_scalar(v) for v in trace.levels[k]],
        "inflows.csv": lambda k: [_fmt_scalar(v) for v in trace.flows[k]],
        "links.csv": lambda k: list(trace.topology_bits[k]),
        "costs_accumulated.csv": lambda k: [_fmt_scalar(perf_cum[k]), _fmt_scalar(combined_cum[k])],
    }
    return {name: [",".join([str(k)] + row(k)) for k in range(trace.horizon)]
            for name, row in tables.items()}
