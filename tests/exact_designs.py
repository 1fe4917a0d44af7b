"""Exact spherical designs shared by the tests, with their strengths."""

import itertools

import numpy as np

PHI = (1.0 + 5.0**0.5) / 2.0


def unit_rows(rows):
    """Rows scaled to unit length."""
    X = np.array(rows, dtype=float)
    return X / np.linalg.norm(X, axis=1)[:, None]


def polygon(N):
    """Regular N-gon on S^1: an (N-1)-design."""
    phi = 2.0 * np.pi * np.arange(N) / N + 0.3
    return np.column_stack([np.cos(phi), np.sin(phi)])


def cross_polytope(d):
    """The 2(d+1) points +-e_i on S^d: a 3-design."""
    return np.vstack([np.eye(d + 1), -np.eye(d + 1)])


def octahedron():
    """Cross-polytope on S^2: a 3-design."""
    return cross_polytope(2)


def icosahedron():
    """The 12 vertices of the icosahedron: a 5-design on S^2."""
    rows = []
    for s1, s2 in itertools.product((-1.0, 1.0), (-PHI, PHI)):
        base = (0.0, s1, s2)
        rows.extend(base[k:] + base[:k] for k in range(3))
    return unit_rows(rows)


def six_hundred_cell():
    """The 120 vertices of the 600-cell: an 11-design on S^3."""
    rows = [list(v) for v in np.vstack([np.eye(4), -np.eye(4)])]
    rows.extend(itertools.product((-0.5, 0.5), repeat=4))
    base = (PHI / 2.0, 0.5, 0.5 / PHI, 0.0)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        if inversions % 2:
            continue
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            v = [0.0] * 4
            for slot, value, sign in zip(perm, base, signs):
                v[slot] = sign * value
            rows.append(v)
    return unit_rows(rows)


def twenty_four_cell():
    """The 24 points (+-e_i +- e_j)/sqrt(2) on S^3: a 5-design."""
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((-1.0, 1.0), repeat=2):
            v = [0.0] * 4
            v[i], v[j] = si, sj
            rows.append(v)
    return unit_rows(rows)


def e8_roots():
    """The 240 roots of E8 on S^7: a 7-design."""
    rows = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((-1.0, 1.0), repeat=2):
            v = [0.0] * 8
            v[i], v[j] = si, sj
            rows.append(v)
    for signs in itertools.product((-0.5, 0.5), repeat=8):
        if sum(s < 0 for s in signs) % 2 == 0:
            rows.append(list(signs))
    return unit_rows(rows)
