"""Output checks that do not trust the program.

Admissibility is recomputed here with numpy from the config file alone:
``A(delta)`` and ``B(delta)`` come from :func:`workloads.plant_matrices`
and the sets from the explicit facets and vertices, never from
``invarcert`` objects.  The checks hold on every seed; the support
subsample of each workload's fixed scenario draw is also pinned exactly.
"""

import numpy as np

from workloads import plant_matrices

ADMISSIBLE_TOL = 1e-8  # the program's own is_admissible tolerance
GAUGE_TOL = 1e-6  # acceptance 7's closed-loop bound
_CHUNK = 2_000  # parameter rows per numpy batch, keeps peak RSS flat

# support subsample of every workload (its scenario draw is fixed)
PINNED_SUPPORT = {
    "network6": [110],
    "affine3-k5000": [23, 837, 1068, 1069, 1180, 1217, 1653, 2332, 2925, 3159, 3877, 4578],
}


def admissible(config: dict, gains, offsets, deltas) -> np.ndarray:
    """Boolean mask over ``deltas``: every vertex input lies in U and maps
    its vertex into S, within :data:`ADMISSIBLE_TOL`."""
    F = np.asarray(config["state_set"]["facets"], dtype=float)
    X = np.asarray(config["state_set"]["vertices"], dtype=float)
    H = np.asarray(config["input_set"]["facets"], dtype=float)
    gains = np.asarray(gains, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    out = np.empty(deltas.shape[0], dtype=bool)
    for lo in range(0, deltas.shape[0], _CHUNK):
        d = deltas[lo : lo + _CHUNK]
        A, B = plant_matrices(config, d)
        u = np.einsum("imd,kd->kim", gains, d) + offsets  # (k, N, m)
        images = np.einsum("kab,ib->kia", A, X) + np.einsum("kab,kib->kia", B, u)
        input_ok = np.einsum("qm,kim->kiq", H, u) <= 1.0 + ADMISSIBLE_TOL
        image_ok = np.einsum("pa,kia->kip", F, images) <= 1.0 + ADMISSIBLE_TOL
        out[lo : lo + _CHUNK] = input_ok.all(axis=(1, 2)) & image_ok.all(axis=(1, 2))
    return out


def certify_problems(
    config: dict, workload_name: str, report: dict, samples, *, pin: bool
) -> list[str]:
    """Problems with one certify report that need no other program call."""
    from invarcert.certificate import epsilon_even_split

    problems = []
    if report.get("status") != "certified":
        return [f"status {report.get('status')!r}, expected 'certified'"]
    policy, support, cert = report["policy"], report["support"], report["certificate"]
    K = len(samples)
    if support["s_K"] != len(support["indices"]) or cert["s_K"] != support["s_K"]:
        problems.append("s_K disagrees with the support indices")
    if cert["K"] != K:
        problems.append(f"certificate K={cert['K']}, expected {K}")
    expected = epsilon_even_split(support["s_K"], K, report["beta"])
    if cert["epsilon"] != expected:
        problems.append(f"epsilon {cert['epsilon']!r} != epsilon_even_split {expected!r}")
    ok = admissible(config, policy["gains"], policy["offsets"], samples)
    if not ok.all():
        problems.append(
            f"policy inadmissible on {int((~ok).sum())} training samples, "
            f"first {int(np.flatnonzero(~ok)[0])}"
        )
    if "feasibility_analysis" in report and not report["feasibility_analysis"]["passed"]:
        problems.append("feasibility analysis did not pass on a certified program")
    if pin:
        pinned = PINNED_SUPPORT[workload_name]
        if support["indices"] != pinned:
            problems.append(f"support {support['indices']} != pinned {pinned}")
    return problems


def same_certificate(first: dict, second: dict) -> bool:
    """Bit-identical policy and support across two certify calls."""
    return (
        first["policy"]["gains"] == second["policy"]["gains"]
        and first["policy"]["offsets"] == second["policy"]["offsets"]
        and first["policy"]["fingerprint"] == second["policy"]["fingerprint"]
        and first["support"] == second["support"]
    )


def estimate_problems(admissible_mask, estimate) -> list[str]:
    """The estimate must report exactly the draws that the independent
    check finds inadmissible."""
    expected = tuple(int(j) for j in np.flatnonzero(~admissible_mask))
    M = admissible_mask.size
    problems = []
    if tuple(estimate.failures) != expected:
        problems.append(
            f"{len(estimate.failures)} failures reported, {len(expected)} recomputed"
        )
    if estimate.sample_count != M:
        problems.append(f"M={estimate.sample_count}, expected {M}")
    if estimate.v_hat != len(expected) / M:
        problems.append(f"v_hat {estimate.v_hat!r} != failures / M")
    return problems


def trajectory_problems(summary: dict, starts: int) -> list[list[str]]:
    """One problem list per expected trajectory of a simulate report."""
    rows = summary["trajectories"]
    out = []
    for k in range(starts):
        if k >= len(rows):
            out.append(["trajectory missing from the report"])
            continue
        row, problems = rows[k], []
        if not row["max_gauge"] <= 1.0 + GAUGE_TOL:
            problems.append(f"max_gauge {row['max_gauge']!r} > 1 + {GAUGE_TOL}")
        if row["first_exit"] is not None:
            problems.append(f"left S at step {row['first_exit']}")
        out.append(problems)
    return out
