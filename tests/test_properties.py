"""Property tests of the energy and its gradient on hypothesis-drawn point sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.special import eval_gegenbauer

from designforge.gegenbauer import gegenbauer_at_one_exact
from designforge.kernel import (
    _degree_energies,
    _energy_raw,
    _fields,
    _gradient_raw,
    make_kernel,
)
from designforge.sphere import _geodesic_rows, tangent_rows

# derandomized, so that a tier-1 run is reproducible; no example database
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def scipy_gegenbauer(alpha, k, t):
    """C_k^alpha(t) outside the package: scipy for alpha > 0, and the
    renormalized limit (2/k) cos(k arccos t) at alpha = 0, where scipy gives 0."""
    if alpha == 0.0:
        return (2.0 / k) * np.cos(k * np.arccos(t))
    return eval_gegenbauer(k, alpha, t)


@st.composite
def configurations(draw):
    """(spec, X, rng): X is N rows on S^d; rows too short to normalize become e_0."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    N = draw(st.integers(1, 24))
    X = draw(arrays(np.float64, (N, d + 1), elements=st.floats(-1.0, 1.0, width=64)))
    norms = np.linalg.norm(X, axis=1)
    short = norms < 0.1
    X[short] = np.eye(d + 1)[0]
    norms[short] = 1.0
    X /= norms[:, None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_kernel(d, n), X, rng


def _assert_same_energy(got, expected):
    # twice the per-call error bound of the mpmath oracle tests
    slack = 2e-13 * expected + 2e-15 * math.sqrt(expected) + 2e-30
    assert abs(got - expected) <= slack, (got, expected)


@PROPERTY_SETTINGS
@given(configurations())
def test_energy_is_invariant_under_rotation_and_permutation(case):
    spec, X, rng = case
    E = _energy_raw(spec, X)
    assert E >= 0.0
    Q, R = np.linalg.qr(rng.standard_normal((spec.d + 1, spec.d + 1)))
    Q *= np.sign(np.diag(R))
    _assert_same_energy(_energy_raw(spec, X @ Q.T), E)
    _assert_same_energy(_energy_raw(spec, X[rng.permutation(X.shape[0])]), E)


@PROPERTY_SETTINGS
@given(configurations())
def test_energy_by_degree_is_nonnegative_and_sums_to_the_energy(case):
    spec, X, _ = case
    parts = _degree_energies(spec, _fields(spec, X))
    assert parts.shape == (spec.n,)
    assert np.all(parts >= 0.0)
    E = _energy_raw(spec, X)
    assert math.fsum(parts) == pytest.approx(E, rel=1e-15, abs=0.0)
    # each part against its Gram sum (1/N^2) sum_ij lam_k C_k(<x_i, x_j>), an
    # independent route that cancels terms of size lam_k C_k(1)
    t = np.clip(X @ X.T, -1.0, 1.0)
    for k in range(1, spec.n + 1):
        lam = spec.lam[k - 1]
        gram = lam * scipy_gegenbauer(spec.alpha, k, t).sum() / X.shape[0] ** 2
        at_one = float(gegenbauer_at_one_exact(spec.d - 1, k))
        assert abs(parts[k - 1] - gram) <= 1e-12 * lam * at_one, k


@PROPERTY_SETTINGS
@given(configurations())
def test_gradient_matches_central_finite_differences(case):
    spec, X, rng = case
    G = _gradient_raw(spec, X)
    i = int(rng.integers(X.shape[0]))
    x = X[i:i + 1]
    u = tangent_rows(x, rng.standard_normal((1, spec.d + 1)))[0]
    u = u / max(np.linalg.norm(u), 1e-300)
    h = 1e-5

    def moved(t):
        Y = np.array(X)
        Y[i] = _geodesic_rows(x, tangent_rows(x, u[None, :]), t)[0]
        return _energy_raw(spec, Y)

    fd = (moved(h) - moved(-h)) / (2.0 * h)
    analytic = float(G[i] @ u)
    # truncation O(h^2) against the gradient's size; rounding about eps E / h
    E = _energy_raw(spec, X)
    slack = 1e-6 * (abs(analytic) + np.linalg.norm(G[i])) + 1e-9 * E + 1e-15
    assert abs(analytic - fd) <= slack, (analytic, fd)
