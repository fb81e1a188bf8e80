"""The lanes of ``lp_core._solve_stack`` as one ``LpOutcome`` each, the
form the lone ``solve`` returns, so the tests compare them directly."""

from invarcert.lp_core import LpOutcome, LpStatus, _solve_stack


def solve_lanes(lp, *, b_in) -> list[LpOutcome]:
    """``solve`` of ``lp`` with ``b_in`` replaced by each row of ``b_in``,
    through one stacked solve; raises what the lone solve of the first lane
    that raises would raise."""
    Z, objective, iterations, alone = _solve_stack(lp, b_in)
    return [
        alone.get(lane) or LpOutcome(LpStatus.OPTIMAL, z, value, count)
        for lane, (z, value, count) in enumerate(zip(Z, objective.tolist(), iterations))
    ]
