"""Reflection designs that minimize the radars' (sum) received signal power.

The common problem is a convex QCQP: minimize ||D theta + r||^2 over
per-element amplitude caps |theta_n| <= beta.  The problem is held as its
link factor (D, r) (:class:`~irstealth.power_model.QcqpInstance`, built by
:func:`~irstealth.power_model.link_factor`): one row per radar link, K^2
rows for K radars.  The expanded form theta^H U theta + 2 Re(v^H theta) + c
has U = D^H D, v = D^H r and c = ||r||^2, but no design forms the N1 x N1
matrix U.  One thin SVD of D (O(K^4 N1)) gives the exact step-size bound
lambda_max(U) = sigma_1^2, the minimum-norm stationary point and every ridge
candidate; each projected-gradient iteration or ridge candidate then costs
O(K^2 N1), a duality-gap check O(K^4 N1 + K^6), and the codebook one N1-point
FFT per link row, instead of the O(N1^3) of the expanded form.  The SVD,
the adjoint and the FFTs are computed once per
:class:`~irstealth.power_model.LinkMatrix`, so every design on one factor,
and every trial's true factor at one sweep point, shares them.
Five designs are provided:

* accelerated projected gradient (global optimum of the QCQP), with a
  log-barrier Newton finish for solves that cannot certify within their
  iteration budget (O(K^4 N1) per Newton step, still no N1 x N1 array),
* the semi-closed multiplier form theta = -(U + diag(lam))^{-1} v with a
  KKT certificate and dual value for optimality checking,
* reverse alignment, a closed form for the single-radar case,
* a regularized least-squares design that nulls the stacked link equations,
* two baselines: a DFT codebook search and random phases.

All designs return amplitude-feasible vectors; objectives are reported on
the same scale as :func:`irstealth.power_model.sum_power` (watts when the
factor comes from a scenario).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .power_model import QcqpInstance


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; ``best`` holds the best iterate found."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class InfeasibleError(RuntimeError):
    """No candidate in the search grid satisfied the amplitude constraints."""


@dataclass
class ReflectionSolution:
    """A reflection vector with its achieved objective and solver metadata."""

    theta: np.ndarray
    objective: float
    solver: str
    iterations: int = 0
    kkt_residual: float | None = None
    termination: str | None = None


def _project(theta: np.ndarray, beta: float) -> np.ndarray:
    mag = np.abs(theta)
    over = mag > beta
    if not np.any(over):
        return theta
    out = theta.copy()
    out[over] *= beta / mag[over]
    return out


def _ridge_designs(instance: QcqpInstance, deltas) -> tuple[np.ndarray, np.ndarray]:
    """Ridge designs -(U + delta I)^{-1} v and their residuals ||D theta + r||^2.

    With D = P diag(sigma) Q^H the design for each regularization is
    -Q diag(sigma / (sigma^2 + delta)) P^H r, one column per candidate, and
    its residual is ||r - P P^H r||^2 + sum_i (delta / (sigma_i^2 + delta))^2
    |(P^H r)_i|^2, which carries no cancellation and grows with delta.
    ``delta = 0`` gives the minimum-norm least-squares point, with the
    singular-value cutoff of numpy's ``lstsq``.
    """
    p, sig, qh = instance.link.svd
    deltas = np.asarray(deltas, dtype=float)
    cutoff = np.finfo(float).eps * max(instance.d_mat.shape) * sig[0]
    denom = sig[:, None] ** 2 + deltas[None, :]
    live = (sig[:, None] > cutoff) | (deltas[None, :] > 0)
    gain = np.divide(sig[:, None], denom, out=np.zeros_like(denom), where=live)
    kept = np.divide(deltas[None, :], denom, out=np.ones_like(denom), where=live)
    coords = p.conj().T @ instance.r_vec
    outside = instance.r_vec - p @ coords
    residuals = (float(np.real(np.vdot(outside, outside)))
                 + np.sum((kept * np.abs(coords)[:, None]) ** 2, axis=0))
    return -(qh.conj().T @ (gain * coords[:, None])), residuals


# Stalled-solve hand-off: the first gap check that may hand over, how far
# the barrier parameter grows per centering, and the Newton-step allowance.
_HANDOFF_FROM = 1024
_BARRIER_GROWTH = 10.0
_NEWTON_STEPS = 300


def solve_pgd(instance: QcqpInstance, tol: float = 1e-10,
              max_iter: int = 100_000) -> ReflectionSolution:
    """Globally solve the amplitude-constrained QCQP by projected gradient.

    Runs Nesterov-accelerated projected gradient with restart on objective
    increase, step 1/lambda_max (exact, from the factor's top singular
    value) and per-element amplitude clamping, and stops once the
    projected-gradient norm falls below ``tol`` relative to the gradient
    scale (or once the recovered duality gap certifies the same relative
    accuracy); by convexity the returned point is the global optimum within
    tolerance.  When the minimum-norm stationary point is already feasible
    it is returned directly.  Each iteration tracks the link residual
    D theta + r, so objectives carry no expanded-form cancellation, and
    costs two products with D.

    Every 128 iterations the duality gap is checked.  From iteration 1024
    on, log(gap / threshold) is extrapolated linearly from the first check;
    if the projected certifying iteration lies beyond ``max_iter``, the
    solve is handed once to a log-barrier Newton finish
    (:func:`_barrier_newton`).  Its design is taken only if it passes the
    same duality-gap test and if, measured against its certified lower
    bound, the objective of projected gradient itself still projects past
    the budget: the recovered multipliers can hold the gap on a plateau
    while the objective converges, and on a flat set of optima the barrier
    lands on a different point than projected gradient would.  Otherwise
    projected gradient resumes with its budget unchanged, certifying
    against the better of its own dual value and the Newton bound, and
    falls back to the Newton design only if the budget runs out.
    ``termination`` records the exit taken (``min-norm``, ``gradient``,
    ``gap`` or ``newton``) and ``iterations`` counts projected-gradient
    iterations plus Newton steps.  Raises :class:`ConvergenceError`
    carrying the best iterate if the iteration budget runs out without a
    certified design.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    d_mat, r_vec = instance.d_mat, instance.r_vec
    d_adj = instance.link.adjoint
    beta = instance.beta_max
    n = instance.n_elements

    v_vec = d_adj @ r_vec
    if not np.any(v_vec):
        theta = np.zeros(n, dtype=complex)
        return ReflectionSolution(theta, instance.objective(theta), "pgd", 0,
                                  termination="min-norm")

    lam_max = float(instance.link.svd[1][0]) ** 2
    v_norm = float(np.linalg.norm(v_vec))
    f_zero = float(np.real(np.vdot(r_vec, r_vec)))
    grad_scale = lam_max * beta * math.sqrt(n) + v_norm
    obj_scale = lam_max * beta ** 2 * n + 2.0 * v_norm * beta * math.sqrt(n) + f_zero

    # Unconstrained stationary point: optimal whenever it is feasible.
    theta_u = _ridge_designs(instance, [0.0])[0][:, 0]
    if (np.linalg.norm(d_adj @ (d_mat @ theta_u + r_vec)) <= 1e-10 * grad_scale
            and np.max(np.abs(theta_u)) <= beta * (1.0 + 1e-12)):
        theta_u = _project(theta_u, beta)
        return ReflectionSolution(theta_u, instance.objective(theta_u), "pgd", 0,
                                  termination="min-norm")

    step = 1.0 / lam_max
    theta = np.zeros(n, dtype=complex)
    grad = v_vec
    # The gradient is affine in theta, so the momentum point's gradient is
    # the same combination of the last two iterates' gradients.
    moment, grad_moment = theta, grad
    t_acc = 1.0
    f_cur = f_zero
    best_theta, best_f = theta, f_cur
    first_check = None  # (iteration, objective, threshold, gap level)
    newton = None  # (design, dual lower bound) once the finish has certified
    newton_steps = -1  # -1 until the Newton finish has been tried
    for it in range(1, max_iter + 1):
        candidate = _project(moment - step * grad_moment, beta)
        residual = d_mat @ candidate + r_vec
        f_new = float(np.real(np.vdot(residual, residual)))
        if f_new > f_cur:
            # Momentum overshoot: restart from the last monotone iterate.
            t_acc = 1.0
            candidate = _project(theta - step * grad, beta)
            residual = d_mat @ candidate + r_vec
            f_new = float(np.real(np.vdot(residual, residual)))
        grad_cand = d_adj @ residual
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        mix = (t_acc - 1.0) / t_next
        moment = candidate + mix * (candidate - theta)
        grad_moment = grad_cand + mix * (grad_cand - grad)
        theta, grad, f_cur, t_acc = candidate, grad_cand, f_new, t_next
        if f_cur < best_f:
            best_theta, best_f = theta, f_cur
        spent = it + max(newton_steps, 0)
        pg = (theta - _project(theta - step * grad, beta)) / step
        if np.linalg.norm(pg) <= tol * grad_scale:
            return ReflectionSolution(theta, f_cur, "pgd", spent,
                                      termination="gradient")
        if it % 128 == 0:
            # Duality-gap certificate: cheap safety net for boundary optima
            # on which the gradient criterion converges slowly.
            lower = dual_value(instance, _multipliers_from(grad, theta, beta))
            if newton is not None:
                lower = max(lower, newton[1])
            threshold = tol * (abs(f_cur) + 1e-2 * obj_scale)
            if f_cur - lower <= threshold:
                return ReflectionSolution(theta, f_cur, "pgd", spent,
                                          termination="gap")
            level = math.log((f_cur - lower) / threshold)
            if first_check is None:
                first_check = (it, f_cur, threshold, level)
            elif (newton_steps < 0 and it >= _HANDOFF_FROM
                  and _stalls(first_check[0], first_check[3], it, level, max_iter)):
                finish, bound, newton_steps = _barrier_newton(instance, theta,
                                                              obj_scale, tol)
                if finish is None:
                    continue
                spent = it + newton_steps
                if f_cur - bound <= threshold:
                    return ReflectionSolution(theta, f_cur, "pgd", spent,
                                              termination="gap")
                # The recovered multipliers can hold the gap on a plateau
                # while the objective still converges; against the
                # certified bound the objective's own progress decides.
                it0, f0, threshold0, _ = first_check
                if _stalls(it0, math.log((f0 - bound) / threshold0), it,
                           math.log((f_cur - bound) / threshold), max_iter):
                    return ReflectionSolution(finish, instance.objective(finish), "pgd",
                                              spent, termination="newton")
                newton = (finish, bound)
    if newton is not None:
        return ReflectionSolution(newton[0], instance.objective(newton[0]), "pgd",
                                  max_iter + newton_steps, termination="newton")
    best = ReflectionSolution(best_theta, best_f, "pgd",
                              max_iter + max(newton_steps, 0))
    raise ConvergenceError(f"no convergence within {max_iter} iterations", best)


def _stalls(it0: int, level0: float, it: int, level: float, max_iter: int) -> bool:
    """Whether a log(gap / threshold) going from ``level0`` at iteration
    ``it0`` to ``level`` at ``it``, extrapolated linearly, reaches zero only
    after ``max_iter``."""
    slope = (level - level0) / (it - it0)
    return slope >= 0 or it - level / slope > max_iter


def _barrier_newton(instance: QcqpInstance, theta: np.ndarray, obj_scale: float,
                    tol: float) -> tuple[np.ndarray | None, float, int]:
    """Log-barrier Newton finish of the QCQP from a projected-gradient iterate.

    In the scaled variable z = theta / beta it minimizes
    t ||G z + r'||^2 - sum log(1 - |z_n|^2), with G = beta D / sqrt(s),
    r' = r / sqrt(s) and s = ``obj_scale``, over the real 2 N1-dimensional
    form, centering by Newton steps with a backtracking line search and
    growing t tenfold per centering (Boyd & Vandenberghe, Convex
    Optimization, 11.3).  The barrier Hessian is block diagonal with one
    2 x 2 block per element, inverted in closed form, and the Newton system
    is solved by the Woodbury identity in 2 K^2 real dimensions through one
    SVD of the whitened link matrix J = sqrt(t) A B^(-1/2) (A is the real
    form of G, B the barrier Hessian): O(K^4 N1) per step and no N1 x N1
    array.  After each centering the barrier multipliers
    lambda_n = s / (t (beta^2 - |theta_n|^2)) are checked with
    :func:`dual_value` under the projected-gradient gap test, with those
    below 1e-6 of the largest set to zero.  Returns the
    certified design and its dual lower bound on the optimum, or
    (None, -inf) when no certificate was reached within the step allowance,
    together with the Newton steps taken.
    """
    beta = instance.beta_max
    g_mat = instance.d_mat * (beta / math.sqrt(obj_scale))
    r_hat = instance.r_vec / math.sqrt(obj_scale)
    # Strictly feasible start: pull saturated elements slightly inside.
    z = _project(theta / beta, 1.0 - 1e-3)
    slack = 1.0 - np.abs(z) ** 2
    grad_f = g_mat.conj().T @ (g_mat @ z + r_hat)
    # Barrier weight that best balances the two gradients at the start.
    fit = -float(np.real(np.vdot(grad_f, z / slack))) / max(
        float(np.real(np.vdot(grad_f, grad_f))), 1e-300)
    t = max(fit, 1.0)
    steps = 0
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            while steps < _NEWTON_STEPS:
                while steps < _NEWTON_STEPS:
                    steps += 1
                    res = g_mat @ z + r_hat
                    delta, decrement = _newton_step(g_mat, res, z, slack, t)
                    if decrement <= 2e-9:
                        break
                    alpha, shrink = _line_search(g_mat, res, z, slack, delta,
                                                 decrement, t)
                    if alpha == 0.0:
                        break
                    z = z + alpha * delta
                    # Updated from the step, the slack keeps its relative
                    # accuracy where 1 - |z|^2 would cancel.
                    slack = slack * (1.0 - shrink)
                theta = _project(beta * z, beta)
                f_val = instance.objective(theta)
                lam = obj_scale / (t * beta ** 2 * slack)
                # Multipliers far below the largest (elements well inside
                # the cap) are dropped: any nonnegative vector gives a valid
                # dual value, each drop costs at most its share s / t of the
                # barrier gap, and the whitening in dual_value loses about
                # sqrt(max / min) of relative accuracy across multipliers.
                lam[lam < 1e-6 * lam.max()] = 0.0
                lower = dual_value(instance, lam)
                if f_val - lower <= tol * (abs(f_val) + 1e-2 * obj_scale):
                    return theta, lower, steps
                t *= _BARRIER_GROWTH
        except (FloatingPointError, np.linalg.LinAlgError):
            pass
    return None, -math.inf, steps


def _newton_step(g_mat, res, z, slack, t) -> tuple[np.ndarray, float]:
    """Newton direction and squared decrement of t ||G z + r'||^2 - sum log(slack).

    Per element the halved barrier Hessian B is I/c + 2 x x^T / c^2 in the
    real pair x = (Re z_n, Im z_n), c = 1 - |x|^2 (the slack): in the frame
    of z_n / |z_n| and its normal it is diagonal, so B^(-1/2) scales the
    radial coordinate by c / sqrt(1 + |x|^2) and the tangential one by
    sqrt(c).  With A the real form of G and J = sqrt(t) A B^(-1/2)
    (2 K^2 real rows), the Newton system (B + t A^T A) delta = -grad becomes
    (I + J^T J) y = -B^(-1/2) grad, delta = B^(-1/2) y.  One thin SVD
    J = P S V^T solves it as y = -(g - V V^T g) - V (V^T g / (1 + S^2)),
    whose rounding is relative to the whitened gradient g itself, not to
    the barrier terms that cancel in it.
    """
    n = z.size
    mag = np.abs(z)
    unit = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0)
    radial = slack / np.sqrt(1.0 + mag ** 2)
    tangential = np.sqrt(slack)
    whitened = math.sqrt(t) * np.concatenate(
        [g_mat * (unit * radial), g_mat * (1j * unit * tangential)], axis=1)
    _, sig, vh = np.linalg.svd(np.concatenate([whitened.real, whitened.imag]),
                               full_matrices=False)
    grad = np.conj(unit) * (t * (g_mat.conj().T @ res) + z / slack)
    g_hat = np.concatenate([radial * grad.real, tangential * grad.imag])
    coef = vh @ g_hat
    y = -(g_hat - vh.T @ coef) - vh.T @ (coef / (1.0 + sig ** 2))
    delta = unit * (radial * y[:n] + 1j * (tangential * y[n:]))
    return delta, -2.0 * float(g_hat @ y)


def _line_search(g_mat, res, z, slack, delta, decrement, t) -> tuple[float, np.ndarray]:
    """Backtracking step length with sufficient decrease, or 0 if none is found,
    with the relative slack loss of each element.

    The barrier objective's change is evaluated from the step itself (the
    residual and slack increments), so it carries no cancellation against
    the objective's size.
    """
    moved = g_mat @ delta
    lin = 2.0 * float(np.real(np.vdot(res, moved)))
    quad = float(np.real(np.vdot(moved, moved)))
    radial = 2.0 * np.real(np.conj(z) * delta)
    sq = np.abs(delta) ** 2
    alpha = 1.0
    while alpha > 1e-12:
        shrink = (alpha * radial + alpha * alpha * sq) / slack
        if np.all(shrink < 1.0):
            change = t * (alpha * lin + alpha * alpha * quad) - float(np.sum(np.log1p(-shrink)))
            if change <= -0.25 * alpha * decrement:
                return alpha, shrink
        alpha *= 0.5
    return 0.0, sq


def _checked_multipliers(instance: QcqpInstance, multipliers) -> np.ndarray:
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (instance.n_elements,):
        raise ValueError("multiplier vector length does not match the instance")
    if np.any(lam < 0):
        raise ValueError("multipliers must be nonnegative")
    return lam


def _lagrangian_minimizer(instance: QcqpInstance, lam: np.ndarray):
    """Minimizer of ||D x + r||^2 + sum(lam |x|^2), in link-row dimensions.

    Elements with a positive multiplier are eliminated in closed form: with
    S = D_A diag(lam_A)^(-1/2) and W = I + S S^H, the remaining elements
    solve min ||W^(-1/2) (D_F x_F + r)||, whose squared residual is the
    minimum value, and x_A = -diag(lam_A)^(-1) D_A^H W^(-1) (D_F x_F + r).
    Returns the minimizer, the whitened residual and the whitened free block
    W^(-1/2) D_F.
    """
    d_mat = instance.d_mat
    active = lam > 0
    w_isqrt = np.eye(d_mat.shape[0], dtype=complex)
    if np.any(active):
        p, sig, _ = np.linalg.svd(d_mat[:, active] / np.sqrt(lam[active]),
                                  full_matrices=False)
        w_isqrt += (p * (1.0 / np.sqrt(1.0 + sig ** 2) - 1.0)) @ p.conj().T
    free = w_isqrt @ d_mat[:, ~active]
    residual = w_isqrt @ instance.r_vec
    x = np.zeros(instance.n_elements, dtype=complex)
    if free.shape[1]:
        x_free = np.linalg.lstsq(free, -residual, rcond=None)[0]
        x[~active] = x_free
        residual = residual + free @ x_free
    x[active] = -(d_mat[:, active].conj().T @ (w_isqrt @ residual)) / lam[active]
    return x, residual, free


def lagrange_semiclosed(instance: QcqpInstance, multipliers: np.ndarray) -> np.ndarray:
    """Stationary point -(U + diag(lam))^{-1} v for given multipliers.

    With the multipliers recovered from an optimal solution this reproduces
    the optimizer.  Computed in the factor without forming U; raises
    ``numpy.linalg.LinAlgError`` when the shifted matrix is singular, i.e.
    when the elements with zero multiplier leave a direction of U's null
    space unpenalized.
    """
    lam = _checked_multipliers(instance, multipliers)
    x, _, free = _lagrangian_minimizer(instance, lam)
    if free.shape[1]:
        # free^H free is the Schur complement of U + diag(lam) on the
        # zero-multiplier elements.
        top = float(np.linalg.norm(instance.d_mat, 2)) ** 2 + float(lam.max())
        sig = np.linalg.svd(free, compute_uv=False)
        if free.shape[1] > sig.size or sig[-1] ** 2 <= 1e-13 * max(top, 1e-300):
            raise np.linalg.LinAlgError("U + diag(lam) is singular")
    return x


def _multipliers_from(grad: np.ndarray, theta: np.ndarray, beta: float) -> np.ndarray:
    lam = np.zeros(theta.size)
    active = np.abs(theta) >= beta * (1.0 - 1e-7)
    if np.any(active):
        ratio = -np.real(grad[active] * np.conj(theta[active])) / np.abs(theta[active]) ** 2
        lam[active] = np.maximum(ratio, 0.0)
    return lam


def kkt_certificate(instance: QcqpInstance,
                    solution: ReflectionSolution) -> tuple[np.ndarray, float]:
    """Recover nonnegative multipliers and the KKT residual of a solution.

    On amplitude-active elements the multiplier follows from stationarity,
    (U + diag(lam)) theta + v = 0; inactive elements get zero.  The residual
    adds the stationarity norm and the complementary-slackness norm, so a
    small value certifies global optimality of the convex program.
    """
    theta = np.asarray(solution.theta)
    beta = instance.beta_max
    grad = instance.d_mat.conj().T @ (instance.d_mat @ theta + instance.r_vec)
    lam = _multipliers_from(grad, theta, beta)
    stationarity = np.linalg.norm(grad + lam * theta)
    slack = np.linalg.norm(lam * (np.abs(theta) ** 2 - beta ** 2))
    return lam, float(stationarity + slack)


def dual_value(instance: QcqpInstance, multipliers: np.ndarray) -> float:
    """Lagrangian dual value c - beta^2 sum(lam) - v^H (U + diag(lam))^+ v.

    Evaluated as min_x ||D x + r||^2 + sum(lam |x|^2) - beta^2 sum(lam), a
    least-squares value in link-row dimensions.  Because v = D^H r always
    lies in the range of U + diag(lam), the dual function is finite for
    every nonnegative multiplier vector.
    """
    lam = _checked_multipliers(instance, multipliers)
    _, residual, _ = _lagrangian_minimizer(instance, lam)
    return (float(np.real(np.vdot(residual, residual)))
            - instance.beta_max ** 2 * float(np.sum(lam)))


def reverse_alignment(u: np.ndarray, c_gain: complex, beta_max: float) -> ReflectionSolution:
    """Closed-form single-radar design anti-phasing the coating gain.

    Every used element points opposite to the coating reflection gain along
    the cascaded response.  With too few elements all of them saturate at
    ``beta_max`` and the residual objective is (|c| - N*beta)^2; otherwise
    floor(|c|/beta) elements saturate, one carries the remainder |c| mod beta
    and the rest stay dark, cancelling the gain exactly.
    """
    u = np.asarray(u)
    if np.max(np.abs(np.abs(u) - 1.0), initial=0.0) > 1e-9:
        raise ValueError("cascaded response entries must have unit modulus")
    if not 0 < beta_max <= 1:
        raise ValueError(f"beta_max must be in (0, 1], got {beta_max}")
    n = u.size
    theta = np.zeros(n, dtype=complex)
    mag = abs(c_gain)
    if mag == 0:
        return ReflectionSolution(theta, 0.0, "reverse-alignment", 0)
    unit = c_gain / mag
    needed = math.ceil(mag / beta_max)
    if n < needed:
        theta[:] = -beta_max * u * unit
    else:
        full = math.floor(mag / beta_max)
        remainder = mag - full * beta_max
        theta[:full] = -beta_max * u[:full] * unit
        if full < n:
            theta[full] = -remainder * u[full] * unit
    objective = float(np.abs(np.vdot(u, theta) + c_gain) ** 2)
    return ReflectionSolution(theta, objective, "reverse-alignment", 0)


def single_link(instance: QcqpInstance) -> tuple[np.ndarray, complex]:
    """Cascaded response u and coating gain c of a one-link factor.

    The factor's only row is a * u^H and its coating term a * c, with the
    link amplitude a = |D[0, n]| for every n, so
    ``reverse_alignment(*single_link(instance), beta)`` designs against it.
    """
    if instance.d_mat.shape[0] != 1:
        raise ValueError(f"need a one-link factor, got {instance.d_mat.shape[0]} links")
    row = instance.d_mat[0]
    amp = float(np.abs(row[0]))
    return row.conj() / amp, complex(instance.r_vec[0] / amp)


def mmse_delta_search(instance: QcqpInstance) -> tuple[float, ReflectionSolution]:
    """Smallest-residual amplitude-feasible ridge solution of D theta = -r.

    Evaluates the regularization values of the link matrix's ridge grid
    (:attr:`~irstealth.power_model.LinkMatrix.ridge_grid`) in increasing
    order and keeps the feasible design with the smallest ||D theta + r||^2
    (ties go to the smaller regularization).  All candidates come from one
    SVD of the factor.  When none is feasible the grid widens upward, since
    large regularization shrinks the design to zero, which is always
    feasible.  The solution's ``iterations`` counts the candidates tried.
    """
    beta = instance.beta_max
    deltas = instance.link.ridge_grid
    tried = 0
    for _ in range(6):
        tried += deltas.size
        thetas, residuals = _ridge_designs(instance, deltas)
        feasible = np.max(np.abs(thetas), axis=0) <= beta * (1.0 + 1e-12)
        if np.any(feasible):
            best = int(np.argmin(np.where(feasible, residuals, np.inf)))
            return float(deltas[best]), ReflectionSolution(
                thetas[:, best].copy(), float(residuals[best]), "mmse", tried)
        deltas = np.geomspace(deltas[-1] * 10.0, deltas[-1] * 1e5, 16)
    raise InfeasibleError("no feasible regularization found while widening")


def _codebook_objectives(instance: QcqpInstance) -> np.ndarray:
    """Objective of every DFT codeword; the link responses are one FFT per row of D
    (computed once per link matrix)."""
    links = instance.beta_max * instance.link.fft + instance.r_vec[:, None]
    return np.sum(np.abs(links) ** 2, axis=0)


def dft_codebook_design(instance: QcqpInstance) -> ReflectionSolution:
    """Best codeword of the DFT codebook at full reflection amplitude.

    The codebook holds the columns of the square DFT matrix scaled to
    modulus ``beta_max``; ties break toward the lowest column index.
    """
    n = instance.n_elements
    objectives = _codebook_objectives(instance)
    best = int(np.argmin(objectives))
    theta = instance.beta_max * np.exp(-2j * np.pi * (np.arange(n) * best) / n)
    return ReflectionSolution(theta, float(objectives[best]), "dft-codebook", n)


def random_phase(n1: int, beta_max: float, seed) -> np.ndarray:
    """Full-amplitude reflection with independent uniform phases."""
    if n1 < 1:
        raise ValueError(f"need at least one element, got {n1}")
    rng = np.random.default_rng(seed)
    return beta_max * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n1))


def min_irs_elements(zeta_bar: float, n2: int, beta_max: float,
                     realizations: int) -> int:
    """Element count needed to cancel the worst coating gain among realizations.

    The squared coating gain is exponentially distributed with mean
    (1 - zeta_bar) * n2, so the expected maximum over I independent draws is
    that mean times the I-th harmonic number; enough elements to cancel its
    square root (at full amplitude) guarantee stealth on average.
    """
    if not 0 <= zeta_bar <= 1:
        raise ValueError(f"mean absorbing efficiency must be in [0, 1], got {zeta_bar}")
    if n2 < 0:
        raise ValueError(f"coating element count must be nonnegative, got {n2}")
    if realizations < 1:
        raise ValueError(f"need at least one realization, got {realizations}")
    if not 0 < beta_max <= 1:
        raise ValueError(f"beta_max must be in (0, 1], got {beta_max}")
    harmonic = sum(1.0 / i for i in range(1, realizations + 1))
    return math.ceil(math.sqrt((1.0 - zeta_bar) * n2 * harmonic / beta_max ** 2))
