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
