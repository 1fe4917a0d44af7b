"""Exact spherical designs, built offline as ground truth for the benchmark.

Every builder returns an (N, d+1) float array of unit rows.  The strengths
are classical: the regular N-gon on S^1 is an (N-1)-design, the
icosahedron on S^2 a 5-design and the 600-cell on S^3 an 11-design.  A
rotation maps a design to a design of the same strength, so unions of
rotated copies keep the strength while N grows.
"""

import itertools

import numpy as np

PHI = (1.0 + 5.0**0.5) / 2.0


def polygon(N, angle=0.0):
    """Regular N-gon on S^1 turned by `angle`: an (N-1)-design."""
    phi = angle + 2.0 * np.pi * np.arange(N) / N
    return np.column_stack([np.cos(phi), np.sin(phi)])


def icosahedron():
    """The 12 vertices of the icosahedron on S^2: a 5-design."""
    rows = []
    for s1 in (-1.0, 1.0):
        for s2 in (-PHI, PHI):
            base = (0.0, s1, s2)
            for shift in range(3):
                rows.append(base[shift:] + base[:shift])
    X = np.array(rows)
    return X / np.linalg.norm(X, axis=1)[:, None]


def _even_permutations(n):
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        if inversions % 2 == 0:
            yield perm


def six_hundred_cell():
    """The 120 vertices of the 600-cell on S^3: an 11-design."""
    rows = []
    for c in range(4):
        for s in (-1.0, 1.0):
            v = [0.0] * 4
            v[c] = s
            rows.append(v)
    rows.extend(itertools.product((-0.5, 0.5), repeat=4))
    base = (PHI / 2.0, 0.5, 0.5 / PHI, 0.0)
    for perm in _even_permutations(4):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            v = [0.0] * 4
            for slot, value, sign in zip(perm[:3], base[:3], signs):
                v[slot] = sign * value
            rows.append(v)
    X = np.array(rows, dtype=float)
    return X / np.linalg.norm(X, axis=1)[:, None]


def random_rotation(dim, rng):
    """Haar-random rotation of R^dim (QR of a Gaussian, signs fixed)."""
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rotated_union(base, copies, rng):
    """Union of `copies` independently rotated copies of the design `base`."""
    dim = base.shape[1]
    X = np.concatenate([base @ random_rotation(dim, rng).T for _ in range(copies)])
    return X / np.linalg.norm(X, axis=1)[:, None]


def perturbed(X, rng, scale=1e-4):
    """A copy of X with every row moved by about `scale`: no longer a design."""
    Y = X + scale * rng.standard_normal(X.shape)
    return Y / np.linalg.norm(Y, axis=1)[:, None]
