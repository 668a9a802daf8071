import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import rosen, rosen_der

from tscausal import lbfgs


def both_paths(fun, x0, tol, max_iter):
    """``lbfgs.minimize`` and scipy's L-BFGS-B with ``ftol=0`` on ``fun``:
    for each, (x, iterations, evaluations)."""
    runs = []
    for solve in ("ours", "scipy"):
        calls, seen = [0], []

        def counted(x):
            calls[0] += 1
            return fun(x)

        if solve == "ours":
            x = lbfgs.minimize(counted, x0, tol, max_iter, 50 * max_iter, seen.append)[0]
        else:
            x = scipy_minimize(counted, x0, jac=True, method="L-BFGS-B", callback=seen.append,
                               options={"maxiter": max_iter, "maxfun": 50 * max_iter,
                                        "ftol": 0.0, "gtol": tol}).x
        runs.append((x, len(seen), calls[0]))
    return runs


@pytest.mark.parametrize("seed", range(4))
def test_minimize_takes_scipys_steps_on_rosenbrock(seed):
    # a non-convex valley: dozens of iterations, with searches of more than one trial
    x0 = np.random.default_rng(seed).normal(size=2 + seed) * 2.0
    (x, iterations, evaluations), (ref, ref_iterations, ref_evaluations) = both_paths(
        lambda x: (rosen(x), rosen_der(x)), x0, 1e-5, 1000)
    assert (iterations, evaluations) == (ref_iterations, ref_evaluations)
    assert iterations > 15 and evaluations > iterations + 1
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10)


def test_minimize_skips_a_pair_with_no_curvature():
    # on a linear objective each search runs to the largest step and ends with
    # a warning, which L-BFGS-B accepts; y = 0, so the pair is skipped and the
    # next direction is -g again
    (x, iterations, evaluations), (ref, ref_iterations, ref_evaluations) = both_paths(
        lambda x: (-x.sum(), -np.ones_like(x)), np.zeros(3), 1e-5, 3)
    assert (iterations, evaluations) == (ref_iterations, ref_evaluations) == (3, 55)
    assert x.min() >= lbfgs.STPMAX
    np.testing.assert_allclose(x, ref, rtol=1e-15)


def test_a_failed_search_with_pairs_held_restarts_along_the_gradient(monkeypatch):
    # the second search, the first with a correction pair held, fails: the run
    # goes back to the last accepted iterate, drops the pairs, resets theta to
    # 1 and searches along -g from there
    a = np.array([1.0, 10.0])
    trials = []

    def fun(x):
        trials.append(x.copy())
        return 0.5 * x @ (a * x), a * x

    searches = []  # (index in trials of the first trial, accepted)

    class FailSecond(lbfgs._Dcsrch):
        def __init__(self, f, g, stp):
            super().__init__(f, g, stp)
            self.fails = len(searches) == 1
            searches.append([len(trials), False])

        def __call__(self, stp, f, g):
            done, stp = (False, stp) if self.fails else super().__call__(stp, f, g)
            searches[-1][1] = done
            return done, stp

    monkeypatch.setattr(lbfgs, "_Dcsrch", FailSecond)
    accepted = []
    x, f, g = lbfgs.minimize(fun, [1.0, 1.0], 1e-10, 100, 1000, accepted.append)

    (failed_at, failed), (restart_at, _) = searches[1], searches[2]
    assert not failed and restart_at == failed_at + lbfgs.MAXLS
    # back at the iterate before the failed search, with a unit step along -g
    x_old = accepted[0]
    np.testing.assert_array_equal(trials[restart_at], x_old - a * x_old)
    # the run still reaches the minimum
    assert np.max(np.abs(g)) <= 1e-10
    np.testing.assert_allclose(x, 0.0, atol=1e-10)
    # one callback per accepted search; the failed one's trials are never reported
    assert len(accepted) == sum(done for _, done in searches) == len(searches) - 1
    assert not any(np.array_equal(x_acc, trials[failed_at]) for x_acc in accepted)
