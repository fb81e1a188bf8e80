"""Bounded-variable programs stated over ``z >= 0`` for ``lp_core``.

The test corpora are written with per-variable ``(lo, hi)`` bounds, as
HiGHS takes them; ``lp_core`` takes only nonnegative variables.  A
variable bounded below by exactly 0 keeps its column; any other is split
as ``x_k = z_a - z_b``.  Every other finite bound becomes an inequality
row after the program's own rows.  The objective is unchanged, so
optimal values compare directly with HiGHS on the bounded program.
"""

import numpy as np


def nonnegative(c, A_in, b_in, A_eq=None, b_eq=None, bounds=None):
    """``LinearProgram`` keywords over ``z >= 0`` for the program over ``x``
    with ``bounds`` (``None``, or ``None`` entries, for free variables),
    and the (n, columns) map ``P`` with ``x = P @ z``."""
    c = np.asarray(c, dtype=float)
    n = c.size
    bounds = [(None, None) if b is None else b for b in (bounds or [None] * n)]
    columns = []
    for k, (lo, _) in enumerate(bounds):
        columns.append(np.eye(n)[k])
        if lo != 0.0:  # free below, or another lower bound: split
            columns.append(-np.eye(n)[k])
    P = np.array(columns).T
    rows = [np.asarray(A_in, dtype=float).reshape(-1, n) @ P]
    rhs = [np.asarray(b_in, dtype=float).ravel()]
    for k, (lo, hi) in enumerate(bounds):
        if hi is not None:
            rows.append(P[k][None])
            rhs.append([hi])
        if lo is not None and lo != 0.0:
            rows.append(-P[k][None])
            rhs.append([-lo])
    data = dict(c=c @ P, A_in=np.vstack(rows), b_in=np.concatenate(rhs))
    if A_eq is not None:
        data.update(A_eq=np.asarray(A_eq, dtype=float).reshape(-1, n) @ P, b_eq=b_eq)
    return data, P
