"""Pass-through span recording around invarcert's public functions.

:func:`install` replaces the module attributes that callers look up
(``lp_core.solve``, ``scenario.solve_affine_policy``, ...) with wrappers
that record one span per call: name, start, end, the enclosing span, and a
work count read from the result where there is one (``LpOutcome.
iterations`` for LP solves).  Spans stay in memory; :func:`layer_metrics`
turns them into per-layer busy time, self time (span minus its child
spans) and call counts, and :meth:`Tracer.save` writes them out.

Nothing under ``src/`` is modified: the wrappers are installed from
outside, in the benchmark's own worker process, and only in traced runs.
"""

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module path, attribute, work count read from the result)
WRAPPED = {
    "config.load_config": ("invarcert.config", "load_config", None),
    "lp_core.solve": ("invarcert.lp_core", "solve", lambda out: out.iterations),
    "scenario.synth": ("invarcert.scenario", "solve_affine_policy", None),
    "scenario.greedy": ("invarcert.scenario", "greedy_support_subsample", None),
    "scenario.is_admissible": ("invarcert.closed_loop", "is_admissible", None),
    "system_family.instantiate.network": (
        "invarcert.system_family:NetworkFamily",
        "instantiate",
        None,
    ),
    "system_family.instantiate.affine": (
        "invarcert.system_family:AffineFamily",
        "instantiate",
        None,
    ),
    "geometry.vertex_decompose": ("invarcert.geometry", "vertex_decompose", None),
    "geometry.minkowski_gauge": ("invarcert.geometry", "minkowski_gauge", None),
    "feasibility.multisample": ("invarcert.feasibility", "multisample_necessary", None),
    "feasibility.single_sample": ("invarcert.feasibility", "single_sample_iff", None),
    "closed_loop.mc": ("invarcert.closed_loop", "estimate_violation", None),
    "closed_loop.sim": ("invarcert.closed_loop", "simulate_closed_loop", None),
    "cli.certify": ("invarcert.cli", "run_certify", None),
    "cli.simulate": ("invarcert.cli", "run_simulate", None),
}


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span log of one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[int] = []
        self._stack = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.counts.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    self.counts[idx] = int(count(out))
                return out
            finally:
                self._close(idx)

        return wrapper

    def arrays(self):
        names = np.array(self.names)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        counts = np.array(self.counts, dtype=np.int64)
        return names, parents, dur, counts

    def save(self, path) -> None:
        names, parents, _, counts = self.arrays()
        np.savez(
            path,
            names=names,
            parents=parents,
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            counts=counts,
        )


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`WRAPPED` where its callers look it up."""
    for name, (path, attr, count) in WRAPPED.items():
        owner = _resolve(path)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))


def nearest(names: np.ndarray, parents: np.ndarray, marks: set) -> np.ndarray:
    """Index of the nearest span (itself included) whose name is in ``marks``.

    Spans are logged when they open, so a parent always precedes its
    children and one forward pass suffices; -1 where there is none.
    """
    marked = np.isin(names, list(marks))
    out = np.full(names.size, -1, dtype=np.int64)
    for i in range(names.size):
        if marked[i]:
            out[i] = i
        elif parents[i] >= 0:
            out[i] = out[parents[i]]
    return out


def self_times(parents: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the time its (sequential) children cover."""
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - child


PHASES = ("setup", "certify", "validation", "mc", "sim")
LP_CONTEXTS = ("setup", "certify", "synth", "greedy", "sim", "validation")


def layer_metrics(tracer: Tracer, work: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the certify self-time split.

    Totals are per pass: both certify calls, the repeated estimates and
    the simulation grid.  ``lp_core.<ctx>.*``
    splits LP work by calling span: config set-up, certify (= synthesis +
    greedy), validation (the benchmark's re-solve on the support) and
    simulation.
    """
    names, parents, dur, counts = tracer.arrays()
    selft = self_times(parents, dur)
    top = nearest(names, parents, set(PHASES))
    phase = np.where(top >= 0, names[np.maximum(top, 0)], "")
    scen = nearest(names, parents, {"scenario.synth", "scenario.greedy"})
    scen_name = np.where(scen >= 0, names[np.maximum(scen, 0)], "")

    def mask(name=None, in_phase=None, prefix=None):
        m = np.ones(names.size, dtype=bool)
        if name is not None:
            m &= names == name
        if prefix is not None:
            m &= np.char.startswith(names, prefix)
        if in_phase is not None:
            m &= phase == in_phase
        return m

    def total(values, m):
        return float(values[m].sum())

    def calls(m):
        return int(m.sum())

    def per(num, den, scale=1.0):
        return float(num) / den * scale if den else 0.0

    out = {"config.load_s": total(dur, mask("config.load_config"))}

    for key in ("synth", "greedy"):
        m = mask(f"scenario.{key}", "certify")
        out[f"scenario.{key}.busy_s"] = total(dur, m)
        out[f"scenario.{key}.self_s"] = total(selft, m)
    lp = mask("lp_core.solve")
    greedy_solves = calls(lp & (phase == "certify") & (scen_name == "scenario.greedy"))
    out["scenario.greedy.lp_solves"] = greedy_solves
    out["scenario.greedy.solves_per_sample"] = per(greedy_solves, work["certify_calls"] * work["K"])
    adm = mask("scenario.is_admissible", "mc")
    out["scenario.is_admissible.calls"] = calls(adm)
    out["scenario.is_admissible.self_s"] = total(selft, adm)
    out["scenario.s_K"] = work.get("s_K", 0)  # absent when certify failed
    out["scenario.K"] = work["K"]

    for label, ph in (("", "certify"), ("mc.", "mc")):
        m = mask(prefix="system_family.instantiate", in_phase=ph)
        out[f"system_family.{label}instantiate_calls"] = calls(m)
        out[f"system_family.{label}instantiate_s"] = total(dur, m)

    for ctx in LP_CONTEXTS:
        if ctx in ("synth", "greedy"):
            m = lp & (phase == "certify") & (scen_name == f"scenario.{ctx}")
        else:
            m = lp & (phase == ctx)
        solves, pivots, busy = calls(m), int(counts[m].sum()), total(dur, m)
        out[f"lp_core.{ctx}.solves"] = solves
        out[f"lp_core.{ctx}.pivots"] = pivots
        out[f"lp_core.{ctx}.pivots_per_solve"] = per(pivots, solves)
        out[f"lp_core.{ctx}.busy_s"] = busy
        out[f"lp_core.{ctx}.us_per_pivot"] = per(busy, pivots, 1e6)

    mc = mask("closed_loop.mc", "mc")
    out["closed_loop.mc.busy_s"] = total(dur, mc)
    out["closed_loop.mc.self_s"] = total(selft, mc)
    draws = work["M"] * calls(mc)
    out["closed_loop.mc.draws"] = draws
    out["closed_loop.mc.us_per_draw"] = per(total(dur, mc), draws, 1e6)
    sim = mask("closed_loop.sim", "sim")
    out["closed_loop.sim.busy_s"] = total(dur, sim)
    out["closed_loop.sim.self_s"] = total(selft, sim)
    steps = work["steps"]
    out["closed_loop.sim.steps"] = steps
    out["closed_loop.sim.us_per_step"] = per(total(dur, sim), steps, 1e6)
    decompose = mask("geometry.vertex_decompose", "sim")
    out["closed_loop.sim.lp_fallback_share"] = per(calls(decompose), steps)
    out["geometry.vertex_decompose.calls"] = calls(decompose)
    out["geometry.vertex_decompose.busy_s"] = total(dur, decompose)
    gauge = mask("geometry.minkowski_gauge", "sim")
    out["geometry.minkowski_gauge.calls"] = calls(gauge)
    out["geometry.minkowski_gauge.busy_s"] = total(dur, gauge)

    outer = mask(prefix="feasibility.", in_phase="certify")
    has_parent = parents >= 0
    outer[has_parent] &= ~np.char.startswith(names[parents[has_parent]], "feasibility.")
    out["feasibility.busy_s"] = total(dur, outer)
    out["feasibility.samples_checked"] = calls(mask("feasibility.single_sample", "certify"))

    cert = mask("cli.certify", "certify")
    out["cli.certify.busy_s"] = total(dur, cert)
    out["cli.certify.self_s"] = total(selft, cert)
    out["cli.simulate.self_s"] = total(selft, mask("cli.simulate", "sim"))

    # self time inside the certify phase by layer (module prefix)
    in_certify = phase == "certify"
    layers = np.array([n.split(".")[0] for n in names[in_certify]])
    split = {
        layer: float(selft[in_certify][layers == layer].sum())
        for layer in sorted(set(layers.tolist()))
    }
    split["bench"] = split.pop("certify", 0.0)  # the phase span's own loop
    return out, split
