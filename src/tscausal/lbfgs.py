"""Unconstrained L-BFGS: the path L-BFGS-B 3.0 takes when no variable is bounded.

L-BFGS-B is Byrd, Lu, Nocedal and Zhu, *A limited memory algorithm for bound
constrained optimization*, SIAM J. Sci. Comput. 16 (1995); version 3.0 is
Morales and Nocedal, ACM TOMS 38 (2011). With ``nbd = 0`` for every variable,
its driver ``mainlb`` reduces to this loop:

- while it holds no correction pair, the generalized Cauchy point is
  ``z = x - g`` (a unit step, as ``theta = 1``); otherwise the subspace
  minimization over all variables gives ``z = x + p`` with ``p = -H g``, the
  L-BFGS inverse-Hessian product with ``H0 = I / theta``. Here ``p`` comes
  from the two-loop recursion, equal to L-BFGS-B's compact form up to
  rounding;
- ``lnsrlb`` searches along ``d = z - x`` with MINPACK-2's ``dcsrch``
  (Moré and Thuente, *Line search algorithms with guaranteed sufficient
  decrease*, ACM TOMS 20, 1994), ported below with ``dcstep``;
- a failed search restores the previous iterate and drops the pairs, or
  ends the run if there were none.

The stopping tests are scipy's ``minimize(method="L-BFGS-B")`` with
``ftol=0``: the iteration cap, the evaluation cap, the gradient infinity
norm, then no decrease of the objective.
"""

from __future__ import annotations

from collections import deque

import numpy as np

M = 10  # correction pairs kept, scipy's maxcor
MAXLS = 20  # evaluations per line search
FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1  # lnsrlb's sufficient-decrease, curvature and width constants
STPMIN, STPMAX = 0.0, 1e10
EPS = np.finfo(np.float64).eps


def minimize(fun, x0, tol: float, max_iter: int, max_fun: int, callback=None):
    """Minimize ``fun(x) -> (value, gradient)`` from ``x0``.

    Returns ``(x, f, g)`` at the last accepted iterate. ``callback(x)`` gets a
    copy of each accepted iterate, once per iteration.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fun(x)
    n_fun = 1
    if np.max(np.abs(g)) <= tol:
        return x, f, g
    pairs: deque = deque(maxlen=M)  # (s, y, s'y), oldest first
    theta = 1.0
    iters = 0
    while True:
        z = x + _direction(g, pairs, theta)
        d = z - x
        x_old, f_old, g_old = x, f, g
        gd_old = g @ d
        accepted = False
        if not gd_old >= 0:  # else no descent along d: the search fails at once
            with np.errstate(divide="ignore"):
                stp = min(1.0 / np.sqrt(d @ d), STPMAX) if iters == 0 else 1.0
            search = _Dcsrch(f, gd_old, stp)
            for _ in range(MAXLS):
                x = z if stp == 1.0 else stp * d + x_old  # lnsrlb's trial points
                f, g = fun(x)
                n_fun += 1
                gd = g @ d
                accepted, stp = search(stp, f, gd)
                if accepted:
                    break
        if not accepted:
            x, f, g = x_old, f_old, g_old
            if not pairs:
                return x, f, g
            pairs.clear()
            theta = 1.0
            continue

        iters += 1
        if callback is not None:
            callback(x.copy())
        if (iters >= max_iter or n_fun > max_fun or np.max(np.abs(g)) <= tol
                or f_old - f <= 0):
            return x, f, g

        y = g - g_old
        dr = (gd - gd_old) * stp  # s'y from the search's directional derivatives
        if dr > EPS * (-gd_old * stp):
            pairs.append((stp * d, y, dr))
            theta = (y @ y) / dr


def _direction(g, pairs, theta: float) -> np.ndarray:
    """``-H g`` by the two-loop recursion over ``pairs`` with ``H0 = I / theta``."""
    q = -g
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = (s @ q) / sy
        q = q - alpha * y
        alphas.append(alpha)
    q = q / theta
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - (y @ q) / sy) * s
    return q


class _Dcsrch:
    """MINPACK-2's ``dcsrch`` (Moré and Thuente; Averick, Carter and Moré, 1993).

    Built at ``task = 'START'`` from the value ``f`` and slope ``g`` at step 0
    and a first trial ``stp``. Each call takes the value and slope at the
    trial step and returns ``(done, stp)``: ``done`` when the search converged
    or warned (L-BFGS-B accepts either), else the next trial step. The input
    checks of ``START`` are left out, since the caller's constants pass them.
    """

    def __init__(self, f, g, stp):
        self.brackt = False
        self.stage = 1
        self.finit, self.ginit = f, g
        self.gtest = FTOL * g
        self.width = STPMAX - STPMIN
        self.width1 = self.width / 0.5
        self.stx, self.fx, self.gx = 0.0, f, g
        self.sty, self.fy, self.gy = 0.0, f, g
        self.stmin = 0.0
        self.stmax = stp + 4.0 * stp

    def __call__(self, stp, f, g):
        with np.errstate(all="ignore"):  # dcstep's arithmetic is IEEE's, as in Fortran
            return self._step(stp, f, g)

    def _step(self, stp, f, g):
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2

        if ((self.brackt and (stp <= self.stmin or stp >= self.stmax))
                or (self.brackt and self.stmax - self.stmin <= XTOL * self.stmax)
                or (stp == STPMAX and f <= ftest and g <= self.gtest)
                or (stp == STPMIN and (f > ftest or g >= self.gtest))
                or (f <= ftest and abs(g) <= GTOL * (-self.ginit))):
            return True, stp

        if self.stage == 1 and f <= self.fx and f > ftest:
            # the modified function psi(stp) = f(stp) - f(0) - ftol * stp * f'(0)
            gtest = self.gtest
            stx, fxm, gxm, sty, fym, gym, stp, self.brackt = _dcstep(
                self.stx, self.fx - self.stx * gtest, self.gx - gtest,
                self.sty, self.fy - self.sty * gtest, self.gy - gtest,
                stp, f - stp * gtest, g - gtest, self.brackt, self.stmin, self.stmax)
            self.stx, self.sty = stx, sty
            self.fx, self.fy = fxm + stx * gtest, fym + sty * gtest
            self.gx, self.gy = gxm + gtest, gym + gtest
        else:
            (self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp,
             self.brackt) = _dcstep(self.stx, self.fx, self.gx, self.sty, self.fy,
                                    self.gy, stp, f, g, self.brackt, self.stmin,
                                    self.stmax)

        if self.brackt:
            if abs(self.sty - self.stx) >= 0.66 * self.width1:
                stp = self.stx + 0.5 * (self.sty - self.stx)
            self.width1 = self.width
            self.width = abs(self.sty - self.stx)
            self.stmin = min(self.stx, self.sty)
            self.stmax = max(self.stx, self.sty)
        else:
            self.stmin = stp + 1.1 * (stp - self.stx)
            self.stmax = stp + 4.0 * (stp - self.stx)

        stp = min(max(stp, STPMIN), STPMAX)
        if self.brackt and (stp <= self.stmin or stp >= self.stmax
                            or self.stmax - self.stmin <= XTOL * self.stmax):
            stp = self.stx  # no further progress: the best step so far
        return False, stp


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded trial step and the updated interval.

    Returns ``(stx, fx, dx, sty, fy, dy, stp, brackt)`` as the Fortran
    subroutine leaves its arguments.
    """
    opposite = (dp > 0 and dx < 0) or (dp < 0 and dx > 0)  # sgnd < 0

    if fp > fx:
        # a higher value: the minimum is bracketed; the cubic step if it is
        # closer to stx than the quadratic step, else their mean
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) * (theta / s) - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + (p / q) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value and slopes of opposite sign: bracketed; the cubic step
        # if it is farther from stp than the secant step, else the secant step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) * (theta / s) - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + (p / q) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, slopes of one sign, the slope's magnitude falls: the
        # cubic step only if the cubic tends to infinity in the step's
        # direction or its minimum lies beyond stp, else the secant step
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0.0, (theta / s) * (theta / s) - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:
        # a lower value, slopes of one sign, the slope's magnitude does not
        # fall, bracketed: the cubic step through sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) * (theta / s) - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + (p / q) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
