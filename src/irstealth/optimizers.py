"""Reflection designs that minimize the radars' (sum) received signal power.

The common problem is a convex QCQP: minimize ||D theta + r||^2 over
per-element amplitude caps |theta_n| <= beta.  Every design reads one
problem object, :class:`~irstealth.power_model.QcqpInstance` (built by
:meth:`~irstealth.power_model.ScenarioGeometry.factor`): the link factor D,
one row per radar link (K^2 rows for K radars), with an M x T matrix of
coating terms r, one problem per column.  The expanded form
theta^H U theta + 2 Re(v^H theta) + c has U = D^H D, v = D^H r and
c = ||r||^2, but no design forms the N1 x N1 matrix U.  ``pgd``, ``mmse``
and ``dft-codebook`` read only the instance's reduced problem (B, r'): D's
k significant singular directions plus one residual row
(:attr:`~irstealth.power_model.QcqpInstance.reduced`, built once per
instance from one O(K^4 N1) SVD; k is 5 of 9 for three radars, 11 of 25
for five).  The minimum-norm point and every ridge candidate then cost
O(k N1), each Newton step of the certified solve O(k^2 N1) (a 2 (k + 1)
real system), and the codebook one N1-point FFT per reduced row.  Every
design (``pgd_designs``, ``mmse_designs``, ``codebook_designs``,
``alignment_designs``) returns one solution per column: a sweep point's
trials run as one batch, and a single problem is the one-column case
(``pgd_designs(problem)[0]``).  Every design scores its N x T designs on D
with one :meth:`~irstealth.power_model.QcqpInstance.objective` call
(``mmse`` and ``dft-codebook`` choose by reduced-factor values, but report
D's).  :data:`SOLVERS` maps each solver name to its batched design, for
the sweeps and ``irstealth solve`` alike.  Five designs are provided:

* the certified global optimum of the QCQP (``pgd``): the minimum-norm
  point when it is feasible, otherwise a semismooth Newton ascent on the
  dual of the regularized problem, stopped by a duality-gap certificate,
* the semi-closed multiplier form theta = -(U + diag(lam))^{-1} v with a
  KKT certificate and dual value for optimality checking, on a one-column
  instance,
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
    """Newton-step allowance exhausted; ``best`` holds the last iterate.

    ``column`` is the coating-term column whose solve ran out.
    """

    def __init__(self, message, best, column: int = 0):
        super().__init__(message)
        self.best = best
        self.column = column


class InfeasibleError(RuntimeError):
    """No candidate in the search grid satisfied the amplitude constraints."""


@dataclass
class ReflectionSolution:
    """A reflection vector with its achieved objective and solver metadata."""

    theta: np.ndarray
    objective: float
    solver: str
    iterations: int = 0
    termination: str | None = None


def _solutions(name: str, problem: QcqpInstance, thetas: np.ndarray, iterations=0,
               terminations=None) -> list[ReflectionSolution]:
    """One solution per column of the N x T designs ``thetas``, each scored on D
    by one ``problem.objective`` call; ``iterations`` is one count or one per
    column, ``terminations`` one exit name per column or none."""
    objectives = problem.objective(thetas).tolist()
    iterations = [iterations] * len(objectives) if isinstance(iterations, int) else iterations
    terminations = terminations or [None] * len(objectives)
    return [ReflectionSolution(thetas[:, t], objective, name, iterations[t], terminations[t])
            for t, objective in enumerate(objectives)]


def _project(theta: np.ndarray, beta: float) -> np.ndarray:
    """Radial projection onto |theta_n| <= beta that never lands outside."""
    mag = np.abs(theta)
    over = mag > beta
    if not np.any(over):
        return theta
    out = theta.copy()
    out[over] *= beta / mag[over]
    # Rounding can leave a rescaled element an ulp outside the cap.
    while np.any(over := np.abs(out) > beta):
        out[over] *= 1.0 - 2.0 ** -52
    return out


def _column_chunks(columns: int, per_column: int) -> list[slice]:
    """Slices of at most 4096 // per_column columns (one at least), so that a
    stack of ``per_column`` elements a column stays near 2^12 elements."""
    step = max(1, 4096 // per_column)
    return [slice(start, start + step) for start in range(0, columns, step)]


def _ridge_designs(problem: QcqpInstance, r_mat: np.ndarray, deltas) -> np.ndarray:
    """Ridge designs -(U + delta I)^{-1} D^H r, ``thetas[:, i, t]`` for ``deltas[i]``
    and column t of r.

    With D = P diag(sigma) Q^H the design is
    -Q diag(sigma / (sigma^2 + delta)) P^H r, and its residual
    ||D theta + r||^2 = ||r - P P^H r||^2
    + sum_i (delta / (sigma_i^2 + delta))^2 |(P^H r)_i|^2 grows with delta.
    ``delta = 0`` gives the minimum-norm least-squares point and needs every
    singular value positive, as a reduced factor's are.  ``r_mat`` holds
    coating terms on the link matrix of ``problem``, whose SVD is read.
    """
    p, sig, qh = problem.svd
    deltas = np.asarray(deltas, dtype=float)
    gain = sig[:, None] / (sig[:, None] ** 2 + deltas[None, :])
    scaled = -gain[:, :, None] * (p.conj().T @ r_mat)[:, None, :]
    thetas = qh.conj().T @ scaled.reshape(sig.size, deltas.size * r_mat.shape[1])
    return thetas.reshape(-1, deltas.size, r_mat.shape[1])


_NEWTON_STEPS = 300  # Newton-step allowance of a ``pgd`` solve


def pgd_designs(problem: QcqpInstance, tol: float = 1e-10) -> list[ReflectionSolution]:
    """Certified optimum of ||D theta + r||^2 over |theta_n| <= beta, one per column r.

    Solved on the reduced factor, whose full row rank makes a feasible
    minimum-norm point optimal (``termination`` ``min-norm``); one product
    gives those points for all columns.  Every other column is solved alone
    (:func:`_newton_solve`, ``termination`` ``newton``).
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    reduced, beta = problem.reduced, problem.beta_max
    thetas = _ridge_designs(reduced, reduced.columns, [0.0])[:, 0, :]
    inside = np.max(np.abs(thetas), axis=0) <= beta * (1.0 + 1e-12)
    thetas = _project(thetas, beta)
    steps = [0] * inside.size
    for t in np.flatnonzero(~inside).tolist():
        thetas[:, t], steps[t] = _newton_solve(problem, t, tol)
    return _solutions("pgd", problem, thetas, steps,
                      ["min-norm" if t else "newton" for t in inside.tolist()])


def _newton_solve(problem: QcqpInstance, column: int, tol: float) -> tuple[np.ndarray, int]:
    """Certified solve of one column of ``problem`` on its reduced factor (B, r').

    Semismooth Newton steps (:func:`_dual_newton_step`) ascend the dual of
    the regularized problem min ||B theta + r'||^2 + eps ||theta||^2 over
    |theta_n| <= beta, with one complex multiplier mu per reduced row and
    the primal point theta(mu) = -clip_beta(w / 2 eps), w = B^H mu.  The
    regularization eps starts at lambda_max(U) and shrinks 100-fold, down to
    2.5e-3 tol s / (N1 beta^2) with s the objective scale, whenever the
    regularized problem's own duality gap falls below 0.1 eps N1 beta^2;
    along this path a flat set of optima resolves toward its minimum-norm
    point.  At each such point the elements inside the cap are solved again
    exactly (:func:`_polish`), and the solve stops once the objective f is
    within tol (f + 1e-2 s) of a certified lower bound: the split dual
    Re(mu^H r') - |mu|^2 / 4 - beta sum |w_n| or the Frank-Wolfe bound
    f - 2 sum(beta |g_n| + Re(conj(g_n) theta_n)), g = B^H (B theta + r'),
    which holds on D up to 1e-13 s.  Returns the design and its Newton-step
    count; when the steps run out, :class:`ConvergenceError` names
    ``column`` with the last iterate.
    """
    reduced = problem.reduced
    d_mat, r_col, beta = reduced.d_mat, reduced.columns[:, column], problem.beta_max
    n = problem.n_elements
    lam_max = float(reduced.svd[1][0]) ** 2
    obj_scale = (lam_max * beta ** 2 * n
                 + 2.0 * float(np.linalg.norm(d_mat.conj().T @ r_col)) * beta * math.sqrt(n)
                 + float(np.real(np.vdot(r_col, r_col))))
    box = n * beta ** 2
    eps_min = 2.5e-3 * tol * obj_scale / box
    eps = max(lam_max, eps_min)
    mu = np.zeros(d_mat.shape[0], dtype=complex)
    w = np.zeros(n, dtype=complex)
    steps = 0
    while True:
        z = w / (-2.0 * eps)
        theta = _project(z, beta)
        residual = d_mat @ theta + r_col
        f_val = float(np.real(np.vdot(residual, residual)))
        base = float(np.real(np.vdot(mu, r_col))) - 0.25 * float(np.real(np.vdot(mu, mu)))
        lower = base - beta * float(np.sum(np.abs(w)))
        certified = f_val - lower <= tol * (f_val + 1e-2 * obj_scale)
        gap = (f_val + eps * float(np.real(np.vdot(theta, theta)))
               - base - _dual_penalty(z, eps, beta))
        if certified or gap <= 0.1 * eps * box:
            polished = _polish(d_mat, r_col, theta, np.abs(z) > beta, beta)
            res_pol = d_mat @ polished + r_col
            f_pol = float(np.real(np.vdot(res_pol, res_pol)))
            grad = d_mat.conj().T @ res_pol
            frank_wolfe = f_pol - 2.0 * float(np.sum(beta * np.abs(grad)
                                                     + np.real(np.conj(grad) * polished)))
            if f_pol - max(lower, frank_wolfe) <= tol * (f_pol + 1e-2 * obj_scale):
                theta, certified = polished, True
            if certified:
                return theta, steps
            if eps > eps_min:
                eps = max(eps / 100.0, eps_min)
                continue
        if steps == _NEWTON_STEPS:
            best = ReflectionSolution(theta, float(problem.objective(theta)[column]), "pgd", steps)
            raise ConvergenceError(f"no certificate within {steps} Newton steps", best, column)
        steps += 1
        mu, w = _dual_newton_step(d_mat, r_col, beta, mu, w, z, residual, eps)


def _dual_penalty(z: np.ndarray, eps: float, beta: float) -> float:
    """Sum over elements of min_{|t| <= beta} eps |t - z|^2 - eps |z|^2, the
    element terms of the regularized dual at the unclipped point z = -w / 2 eps."""
    mag = np.abs(z)
    return eps * float(np.sum(np.where(mag > beta, beta * (beta - 2.0 * mag), -mag ** 2)))


def _dual_newton_step(d_mat, r_col, beta, mu, w, z, residual,
                      eps) -> tuple[np.ndarray, np.ndarray]:
    """One damped semismooth Newton ascent step on the regularized dual.

    On the reduced factor (B, r') = (``d_mat``, ``r_col``) the dual gradient is
    B theta + r' - mu / 2 and the negated dual Hessian I / 2 + B J B^H, with
    J = I / 2 eps on elements inside the cap and beta / |w_n| times the
    tangential projector on saturated ones: a 2 (k + 1) real system for
    k + 1 rows, never singular, built in O(k^2 N1).  The step backtracks on
    the dual value (Armijo).  Returns the new multipliers and w = B^H mu, or
    the old ones when no ascent is found (the dual is then as good as
    rounding allows).
    """
    m = mu.size
    mag = np.abs(z)
    sat = mag > beta
    # Generalized Jacobian J of -theta(w): the Newton matrix maps mu to
    # mu / 2 + A mu + B conj(mu), with A = D diag(a) D^H, B = D diag(b) D^T.
    half = np.where(sat, beta / (2.0 * np.maximum(mag, beta)), 1.0)
    swap = np.where(sat, -half * (z / np.maximum(mag, beta)) ** 2, 0.0)
    a = (d_mat * (half / (2.0 * eps))) @ d_mat.conj().T
    b = (d_mat * (swap / (2.0 * eps))) @ d_mat.T
    hess = np.block([[a.real + b.real, b.imag - a.imag],
                     [a.imag + b.imag, a.real - b.real]])
    hess[np.diag_indices(2 * m)] += 0.5
    grad = residual - 0.5 * mu
    grad_real = np.concatenate([grad.real, grad.imag])
    step_real = np.linalg.solve(hess, grad_real)
    step = step_real[:m] + 1j * step_real[m:]
    slope = float(grad_real @ step_real)
    step_w = d_mat.conj().T @ step

    def dual(alpha):
        mu_a = mu + alpha * step
        return (float(np.real(np.vdot(mu_a, r_col)))
                - 0.25 * float(np.real(np.vdot(mu_a, mu_a)))
                + _dual_penalty((w + alpha * step_w) / (-2.0 * eps), eps, beta))

    current = dual(0.0)
    alpha = 1.0
    while alpha >= 2.0 ** -30:
        if dual(alpha) >= current + 1e-4 * alpha * slope:
            return mu + alpha * step, w + alpha * step_w
        alpha *= 0.5
    return mu, w


def _polish(d_mat, r_col, theta, saturated, beta) -> np.ndarray:
    """Re-solve the elements inside the cap exactly, the saturated ones fixed.

    The free elements take the minimum-norm least-squares fit of
    -(D_S theta_S + r); any that leaves the cap is clipped and joins the
    saturated set, and the fit is repeated.
    """
    theta = theta.copy()
    saturated = saturated.copy()
    while not np.all(saturated):
        free = np.flatnonzero(~saturated)
        target = -(d_mat[:, saturated] @ theta[saturated] + r_col)
        fit = np.linalg.lstsq(d_mat[:, free], target, rcond=None)[0]
        theta[free] = _project(fit, beta)
        over = np.abs(fit) > beta
        if not np.any(over):
            break
        saturated[free[over]] = True
    return theta


def _one_column(instance: QcqpInstance) -> np.ndarray:
    """The coating terms of an instance of one column, which certificates need."""
    if instance.columns.shape[1] != 1:
        raise ValueError("certificates check one problem, got "
                         f"{instance.columns.shape[1]} coating-term columns")
    return instance.columns[:, 0]


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
    d_mat, r_col = instance.d_mat, _one_column(instance)
    active = lam > 0
    w_isqrt = np.eye(d_mat.shape[0], dtype=complex)
    if np.any(active):
        p, sig, _ = np.linalg.svd(d_mat[:, active] / np.sqrt(lam[active]),
                                  full_matrices=False)
        w_isqrt += (p * (1.0 / np.sqrt(1.0 + sig ** 2) - 1.0)) @ p.conj().T
    free = w_isqrt @ d_mat[:, ~active]
    residual = w_isqrt @ r_col
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
    space unpenalized.  The certificates (this, :func:`kkt_certificate` and
    :func:`dual_value`) raise ``ValueError`` on an instance of several columns.
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


def kkt_certificate(instance: QcqpInstance,
                    solution: ReflectionSolution) -> tuple[np.ndarray, float]:
    """Recover nonnegative multipliers and the KKT residual of a solution.

    On amplitude-active elements the multiplier follows from stationarity,
    (U + diag(lam)) theta + v = 0; inactive elements get zero.  The residual
    adds the stationarity norm and the complementary-slackness norm, so a
    small value certifies global optimality of the convex program.
    """
    r_col = _one_column(instance)
    theta = np.asarray(solution.theta)
    beta = instance.beta_max
    grad = instance.d_mat.conj().T @ (instance.d_mat @ theta + r_col)
    lam = np.zeros(theta.size)
    active = np.abs(theta) >= beta * (1.0 - 1e-7)
    if np.any(active):
        ratio = -np.real(grad[active] * np.conj(theta[active])) / np.abs(theta[active]) ** 2
        lam[active] = np.maximum(ratio, 0.0)
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


def alignment_designs(problem: QcqpInstance) -> list[ReflectionSolution]:
    """Closed-form single-radar design anti-phasing the coating gain, per column r.

    The one-link factor's row is a * u^H, with the link amplitude a > 0 and
    the cascaded response u of unit-modulus entries, and its coating terms
    are a * c.  Every used element points opposite to the coating gain c
    along u.  With too few elements all of them saturate at ``beta_max``
    and the residual objective is a^2 (|c| - N*beta)^2; otherwise
    floor(|c|/beta) elements saturate, one carries the remainder |c| mod
    beta and the rest stay dark, cancelling the gain exactly.
    """
    if problem.d_mat.shape[0] != 1:
        raise ValueError("reverse alignment applies to single-radar scenarios: need a "
                         f"one-link factor, got {problem.d_mat.shape[0]} links")
    row, beta_max = problem.d_mat[0], problem.beta_max
    amp = float(np.abs(row[0]))
    if not amp > 0 or np.max(np.abs(np.abs(row) / amp - 1.0)) > 1e-9:
        raise ValueError("reverse alignment needs a link row of nonzero constant modulus")
    u, gains = row.conj() / amp, problem.columns[0] / amp
    mags = np.abs(gains)
    units = np.divide(gains, mags, out=np.zeros_like(gains), where=mags > 0)
    full = np.floor(mags / beta_max)
    index = np.arange(u.size)[:, None]
    amps = np.where(index < full, beta_max,
                    np.where(index == full, mags - full * beta_max, 0.0))
    amps[:, np.ceil(mags / beta_max) > u.size] = beta_max
    return _solutions("reverse-alignment", problem, -amps * u[:, None] * units)


def mmse_designs(problem: QcqpInstance) -> list[tuple[float, ReflectionSolution]]:
    """First amplitude-feasible ridge solution of D theta = -r, and its
    regularization, per column r.

    Evaluates 40 log-spaced regularization values, sigma_1^2 times 1e-12 to
    1e4, in increasing order and keeps the feasible design of the smallest
    one.  The residual never falls as the regularization grows (see
    :func:`_ridge_designs`), so that design has the smallest residual of
    the feasible ones.  All candidates come from the reduced factor's known
    SVD.  A column feasible at the smallest value is answered there, and
    only the other columns try the rest of the grid.  For a column with no
    feasible candidate the grid widens upward, since large regularization
    shrinks the design to zero, which is always feasible.  A solution's
    ``iterations`` counts the candidates tried.
    """
    reduced, beta = problem.reduced, problem.beta_max
    r_red = reduced.columns
    lam_top = max(float(np.max(reduced.svd[1], initial=0.0)) ** 2, 1e-300)
    grid = np.geomspace(1e-12 * lam_top, 1e4 * lam_top, 40)
    chosen = np.zeros((reduced.n_elements, r_red.shape[1]), dtype=complex)
    regularizations = np.full(r_red.shape[1], np.nan)
    tried = np.zeros(r_red.shape[1], dtype=int)
    pending = np.arange(r_red.shape[1])
    deltas = grid[:1]
    for attempt in range(7):  # the first grid value, the rest of the grid, five widenings
        tried[pending] += deltas.size
        for cols in _column_chunks(pending.size, reduced.n_elements * deltas.size):
            columns = pending[cols]
            thetas = _ridge_designs(reduced, r_red[:, columns], deltas)
            feasible = np.max(np.abs(thetas), axis=0) <= beta * (1.0 + 1e-12)
            found = np.flatnonzero(np.any(feasible, axis=0))
            first = np.argmax(feasible, axis=0)[found]
            chosen[:, columns[found]] = thetas[:, first, found]
            regularizations[columns[found]] = deltas[first]
        pending = np.flatnonzero(np.isnan(regularizations))
        if not pending.size:
            solutions = _solutions("mmse", problem, chosen, tried.tolist())
            return list(zip(regularizations.tolist(), solutions))
        deltas = (grid[1:] if attempt == 0 else
                  np.geomspace(deltas[-1] * 10.0, deltas[-1] * 1e5, 16))
    raise InfeasibleError("no feasible regularization found while widening")


def _codebook_objectives(fft: np.ndarray, beta: float, r_mat: np.ndarray) -> np.ndarray:
    """Objective of every DFT codeword of modulus ``beta`` (rows) for every
    column of coating terms ``r_mat``, from the FFT of every link row."""
    links = (beta * fft)[:, :, None] + r_mat[:, None, :]
    return np.sum(np.abs(links) ** 2, axis=0)


def codebook_designs(problem: QcqpInstance) -> list[ReflectionSolution]:
    """Best codeword of the DFT codebook at full amplitude, per coating-term column.

    The codebook holds the columns of the square DFT matrix scaled to
    modulus ``beta``; ties break toward the lowest column index.  Codewords
    are compared on the reduced factor, one FFT per reduced row.
    """
    reduced, beta = problem.reduced, problem.beta_max
    r_red, n = reduced.columns, reduced.n_elements
    fft = np.fft.fft(reduced.d_mat, axis=1)
    best = np.concatenate([np.argmin(_codebook_objectives(fft, beta, r_red[:, cols]), axis=0)
                           for cols in _column_chunks(r_red.shape[1], fft.size)])
    thetas = beta * np.exp(-2j * np.pi * (np.arange(n)[:, None] * best) / n)
    return _solutions("dft-codebook", problem, thetas, n)


def random_phase(n1: int, beta_max: float, seed) -> np.ndarray:
    """Full-amplitude reflection with independent uniform phases."""
    if n1 < 1:
        raise ValueError(f"need at least one element, got {n1}")
    if not 0 < beta_max <= 1:
        raise ValueError(f"beta_max must be in (0, 1], got {beta_max}")
    rng = np.random.default_rng(seed)
    return beta_max * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n1))


# Every design by its solver name, batched on (problem, seeds): one solution
# per coating-term column, with ``seeds[t]`` the trial seed of column t.
SOLVERS = {
    "pgd": lambda problem, seeds: pgd_designs(problem),
    "reverse-alignment": lambda problem, seeds: alignment_designs(problem),
    "mmse": lambda problem, seeds: [sol for _, sol in mmse_designs(problem)],
    "dft-codebook": lambda problem, seeds: codebook_designs(problem),
    "random-phase": lambda problem, seeds: _solutions(
        "random-phase", problem, np.column_stack([random_phase(
            problem.n_elements, problem.beta_max, int(s) + 0x5EED) for s in seeds])),
    "no-irs": lambda problem, seeds: _solutions(
        "no-irs", problem, np.zeros((problem.n_elements, len(seeds)), dtype=complex)),
}


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
