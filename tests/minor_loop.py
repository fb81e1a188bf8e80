"""The minor enumeration one row subset at a time: the reference for the
stacked scan of ``invarcert.feasibility``.

For each m-row subset in lexicographic order it takes one ``det`` and, for
a nonsingular minor, one ``solve`` and one residual ``G @ point - l``,
and stops at the first basic point that satisfies the remaining rows.
"""

import itertools

import numpy as np

from invarcert.feasibility import DET_TOL, MinorWitness, _subsets
from invarcert.geometry import DEFAULT_TOL


def check_vertex(G, l, q, vertex, sample) -> MinorWitness | None:
    """First (lexicographic) satisfying minor of one vertex block, or None."""
    total, m = G.shape
    for subset in itertools.combinations(range(total), m):
        sub = G[list(subset)]
        # LU with partial pivoting underlies both the det and the solve
        if abs(np.linalg.det(sub)) <= DET_TOL:
            continue
        point = np.linalg.solve(sub, l[list(subset)])
        residual = G @ point - l
        residual[list(subset)] = 0.0
        if np.all(residual <= DEFAULT_TOL):
            return MinorWitness(
                vertex=vertex,
                sample=sample,
                input_rows=tuple(k for k in subset if k < q),
                image_rows=tuple(k - q for k in subset if k >= q),
                submatrix=sub,
                point=point,
            )
    return None


def loop_scan(G, l):
    """``feasibility._scan(G, l)`` by one :func:`check_vertex` per vertex:
    each vertex's index into ``_subsets`` (-1 if none) and basic point, and
    the first vertex without one (or None)."""
    index = {tuple(s): k for k, s in enumerate(_subsets(*G.shape).tolist())}
    first = np.full(l.shape[0], -1)
    points = np.zeros((l.shape[0], G.shape[1]))
    for i in range(l.shape[0]):
        # with every row counted as an input row, input_rows is the subset
        w = check_vertex(G, l[i], G.shape[0], i, 0)
        if w is not None:
            first[i], points[i] = index[w.input_rows], w.point
    empty = np.flatnonzero(first < 0)
    return first, points, (int(empty[0]) if empty.size else None)
