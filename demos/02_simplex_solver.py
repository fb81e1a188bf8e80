"""The built-in dense LP solver.

Two-phase simplex with deterministic pivoting: identical inputs produce
bit-identical solutions, which is what makes policy synthesis a
single-valued map and the support-subsample machinery meaningful.
Every variable is nonnegative: a free variable is written as the
difference of two columns, and a bound as an inequality row.
"""

import numpy as np

from invarcert import LinearProgram, solve

# minimize -z1 - z2 over the standard simplex
lp = LinearProgram(c=[-1.0, -1.0], A_in=[[1.0, 1.0]], b_in=[1.0])
out = solve(lp)
print("status:", out.status.value, " z =", out.z, " objective =", out.objective)

# equalities and free variables: minimize x1 subject to x1 + x2 = 1 and
# x1 >= -2, with x1 = z1 - z2 and x2 = z3 - z4
lp = LinearProgram(
    c=[1.0, -1.0, 0.0, 0.0],
    A_in=[[-1.0, 1.0, 0.0, 0.0]],
    b_in=[2.0],
    A_eq=[[1.0, -1.0, 1.0, -1.0]],
    b_eq=[1.0],
)
z = solve(lp).z
print("with equality: x =", z[0::2] - z[1::2])

# infeasible and unbounded problems are reported as statuses, not errors
print(
    "empty set:",
    solve(LinearProgram(c=[0.0], A_in=[[1.0]], b_in=[-1.0])).status.value,
)
print(
    "unbounded:",
    solve(LinearProgram(c=[-1.0], A_in=[[-1.0]], b_in=[0.0])).status.value,
)

# determinism: rerunning gives the same bits
rng = np.random.default_rng(0)
c, A, b = rng.normal(size=4), rng.normal(size=(10, 4)), rng.normal(size=10) + 2.0
split = np.hstack([np.eye(4), -np.eye(4)])  # x = z[:4] - z[4:]
box = np.vstack([np.eye(4), -np.eye(4)])  # -3 <= x <= 3 as rows
lp = LinearProgram(
    c=c @ split,
    A_in=np.vstack([A, box]) @ split,
    b_in=np.concatenate([b, 3.0 * np.ones(8)]),
)
z1, z2 = solve(lp).z, solve(lp).z
print("bit-identical reruns:", z1.tobytes() == z2.tobytes())
