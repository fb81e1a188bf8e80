"""Problem configuration: JSON schema -> validated toolbox objects.

Top-level keys::

    {
      "schema": 1,
      "system":    {"network": {...}} | {"affine": {...}} | {"table": {...}},
      "state_set": {"facets": [...], "vertices": [...]} | {"box": {...}},
      "input_set": ...same as state_set...,
      "scenarios": {"file": "samples.csv"}
                 | {"uniform": {"lower": [...], "upper": [...]},
                    "count": K, "seed": 0},
      "beta": 1e-6,
      "options": {"estimate_seed": 0}
    }

``options.estimate_seed`` seeds the Monte Carlo draws of ``certify
--estimate``; it is the only option, and any other key is an error.

Cross-dimension consistency (state dim, input dim, parameter dim) is
checked here so the pipelines can assume well-formed inputs.
"""

import json
from dataclasses import dataclass, field

from .errors import InvarcertError
from .geometry import DEFAULT_TOL, Polytope, box, validate_polytope
from .scenario import ScenarioSet
from .system_family import AffineFamily, Graph, NetworkFamily, TableFamily


class ConfigError(InvarcertError, ValueError):
    pass


OPTIONS = ("estimate_seed",)


@dataclass
class ProblemConfig:
    family: object
    state_set: Polytope
    input_set: Polytope
    scenarios: ScenarioSet
    beta: float
    options: dict = field(default_factory=dict)


def _require(mapping, key, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object")
    if key not in mapping:
        raise ConfigError(f"missing key '{key}' in {context}")
    return mapping[key]


def parse_polytope(spec, context) -> Polytope:
    if not isinstance(spec, dict):
        raise ConfigError(f"{context} must be an object")
    if "box" in spec:
        b = spec["box"]
        return box(_require(b, "lower", context), _require(b, "upper", context))
    facets = _require(spec, "facets", context)
    vertices = _require(spec, "vertices", context)
    return validate_polytope(facets, vertices, tol=spec.get("tol", DEFAULT_TOL))


def parse_family(spec):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("'system' must hold exactly one of network/affine/table")
    kind, body = next(iter(spec.items()))
    if kind == "network":
        graph = Graph(
            edges=_require(body, "edges", "system.network"),
            floating=_require(body, "floating", "system.network"),
            inputs=_require(body, "inputs", "system.network"),
            nominal_weights=_require(body, "nominal_weights", "system.network"),
        )
        return NetworkFamily(graph=graph)
    if kind == "affine":
        return AffineFamily(
            A0=_require(body, "A0", "system.affine"),
            B0=_require(body, "B0", "system.affine"),
            A_terms=body.get("Ak", ()),
            B_terms=body.get("Bk", ()),
        )
    if kind == "table":
        pairs = _require(body, "pairs", "system.table")
        entries = [(e, f"system.table.pairs[{i}]") for i, e in enumerate(pairs)]
        return TableFamily(
            pairs=[(_require(e, "A", at), _require(e, "B", at)) for e, at in entries]
        )
    raise ConfigError(f"unknown system kind '{kind}'")


def parse_scenarios(spec, base_dir=None) -> ScenarioSet:
    if not isinstance(spec, dict):
        raise ConfigError("'scenarios' must be an object")
    if "file" in spec:
        path = spec["file"]
        if base_dir is not None:
            import os

            path = os.path.join(base_dir, path) if not os.path.isabs(path) else path
        return ScenarioSet.from_csv(path)
    if "uniform" in spec:
        u = spec["uniform"]
        return ScenarioSet.from_uniform_box(
            _require(u, "lower", "scenarios.uniform"),
            _require(u, "upper", "scenarios.uniform"),
            count=int(_require(spec, "count", "scenarios")),
            seed=int(_require(spec, "seed", "scenarios")),
        )
    raise ConfigError("'scenarios' needs either 'file' or 'uniform'")


def load_config(path) -> ProblemConfig:
    import os

    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw: dict, base_dir=None) -> ProblemConfig:
    family = parse_family(_require(raw, "system", "config"))
    state_set = parse_polytope(_require(raw, "state_set", "config"), "state_set")
    input_set = parse_polytope(_require(raw, "input_set", "config"), "input_set")
    scenarios = parse_scenarios(_require(raw, "scenarios", "config"), base_dir)
    beta = float(raw.get("beta", 1e-6))
    if not 0.0 < beta < 1.0:
        raise ConfigError("beta must lie in (0, 1)")

    if state_set.dim != family.n:
        raise ConfigError(
            f"state_set dimension {state_set.dim} != family state dimension {family.n}"
        )
    if input_set.dim != family.m:
        raise ConfigError(
            f"input_set dimension {input_set.dim} != family input dimension {family.m}"
        )
    if scenarios.ell != family.ell:
        raise ConfigError(
            f"scenario dimension {scenarios.ell} != family parameter dimension {family.ell}"
        )

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be an object")
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in options (known: {', '.join(OPTIONS)})"
        )
    return ProblemConfig(
        family=family,
        state_set=state_set,
        input_set=input_set,
        scenarios=scenarios,
        beta=beta,
        options=options,
    )
