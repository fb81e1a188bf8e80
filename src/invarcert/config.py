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

Every key is checked: a key that the schema does not name is an error,
at the top level and in every section (a ``system`` body and each table
pair, ``scenarios`` and ``scenarios.uniform``, a polytope, ``options``).
``schema`` may be left out; given, it must be 1.  ``scenarios`` holds
either ``file`` alone or ``uniform``, ``count`` and ``seed``; a polytope
either ``box`` or ``facets`` and ``vertices``.  ``options.estimate_seed``
seeds the Monte Carlo draws of ``certify --estimate``; it is the only
option.  Facets have the unit right-hand side, ``F x <= 1``.

Every value is checked where it is read: a matrix or vector must hold
finite numbers (JSON ``NaN`` and ``Infinity`` are refused), a count or
seed must be an integer, and a :class:`ConfigError` names the offending
key.  Cross-dimension consistency (state dim, input dim, parameter dim)
is checked here too, so the pipelines can assume well-formed inputs.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvarcertError
from .geometry import Polytope, box, validate_polytope
from .scenario import ScenarioSet
from .system_family import AffineFamily, Graph, NetworkFamily, TableFamily


class ConfigError(InvarcertError, ValueError):
    pass


TOP_LEVEL = ("schema", "system", "state_set", "input_set", "scenarios", "beta", "options")
SYSTEMS = {
    "network": ("edges", "floating", "inputs", "nominal_weights"),
    "affine": ("A0", "B0", "Ak", "Bk"),
    "table": ("pairs",),
}
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
    """``mapping[key]`` of an object that :func:`_only` has checked."""
    if key not in mapping:
        raise ConfigError(f"missing key '{key}' in {context}")
    return mapping[key]


def _only(mapping, known, context) -> None:
    """Refuse ``mapping`` unless it is an object whose keys are all ``known``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in {context} (known: {', '.join(known)})"
        )


def _list(mapping, key, context) -> list:
    value = _require(mapping, key, context)
    if not isinstance(value, list):
        raise ConfigError(f"{context}.{key} must be a list")
    return value


def _array(value, at, ndim=None) -> np.ndarray:
    """``value`` as a float array of finite numbers, with ``ndim``
    dimensions when given; otherwise a :class:`ConfigError` names ``at``."""
    try:
        a = np.array(value)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if a.dtype.kind not in "biuf" or (ndim is not None and a.ndim != ndim):
        dims = "an array" if ndim is None else f"a {ndim}-d array"
        raise ConfigError(f"{at} must be {dims} of numbers")
    if not np.isfinite(a).all():
        raise ConfigError(f"{at} must be finite")
    return a.astype(float)


def _field(mapping, key, context, ndim=None) -> np.ndarray:
    return _array(_require(mapping, key, context), f"{context}.{key}", ndim)


def _integer(mapping, key, context, low) -> int:
    value = _require(mapping, key, context)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        float(value).is_integer() and value >= low
    ):
        raise ConfigError(f"{context}.{key} must be an integer >= {low}, got {value!r}")
    return int(value)


def parse_polytope(spec, context) -> Polytope:
    if isinstance(spec, dict) and "box" in spec:
        _only(spec, ("box",), context)
        _only(spec["box"], ("lower", "upper"), f"{context}.box")
        return box(*(_field(spec["box"], k, f"{context}.box", 1) for k in ("lower", "upper")))
    _only(spec, ("facets", "vertices"), context)
    return validate_polytope(*(_field(spec, k, context, 2) for k in ("facets", "vertices")))


def parse_family(spec):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("'system' must hold exactly one of network/affine/table")
    kind, body = next(iter(spec.items()))
    if kind not in SYSTEMS:
        raise ConfigError(f"unknown system kind '{kind}'")
    at = f"system.{kind}"
    _only(body, SYSTEMS[kind], at)
    if kind == "network":
        shapes = (("edges", 2), ("floating", 1), ("inputs", 1))
        nodes = {key: _field(body, key, at, ndim) for key, ndim in shapes}
        for key, ids in nodes.items():
            if (ids != np.rint(ids)).any():
                raise ConfigError(f"{at}.{key} must hold node numbers")
        if nodes["edges"].shape[1] != 2:
            raise ConfigError(f"{at}.edges must hold [i, j] pairs")
        graph = Graph(**nodes, nominal_weights=_field(body, "nominal_weights", at, 1))
        return NetworkFamily(graph=graph)
    if kind == "affine":

        def terms(key):
            items = _list(body, key, at) if key in body else []
            return [_array(t, f"{at}.{key}[{k}]") for k, t in enumerate(items)]

        return AffineFamily(
            A0=_field(body, "A0", at),
            B0=_field(body, "B0", at),
            A_terms=terms("Ak"),
            B_terms=terms("Bk"),
        )
    entries = [(e, f"{at}.pairs[{i}]") for i, e in enumerate(_list(body, "pairs", at))]
    for entry, context in entries:
        _only(entry, ("A", "B"), context)
    return TableFamily(pairs=[(_field(e, "A", c), _field(e, "B", c)) for e, c in entries])


def parse_scenarios(spec, base_dir=None) -> ScenarioSet:
    if isinstance(spec, dict) and "file" in spec:
        _only(spec, ("file",), "scenarios")
        path = spec["file"]
        if not isinstance(path, str):
            raise ConfigError("scenarios.file must be a path")
        if base_dir is not None:
            path = os.path.join(base_dir, path) if not os.path.isabs(path) else path
        return ScenarioSet.from_csv(path)
    _only(spec, ("uniform", "count", "seed"), "scenarios")
    if "uniform" not in spec:
        raise ConfigError("'scenarios' needs either 'file' or 'uniform'")
    u = spec["uniform"]
    _only(u, ("lower", "upper"), "scenarios.uniform")
    return ScenarioSet.from_uniform_box(
        _field(u, "lower", "scenarios.uniform", 1),
        _field(u, "upper", "scenarios.uniform", 1),
        count=_integer(spec, "count", "scenarios", 1),
        seed=_integer(spec, "seed", "scenarios", 0),
    )


def load_config(path) -> ProblemConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw: dict, base_dir=None) -> ProblemConfig:
    _only(raw, TOP_LEVEL, "config")
    schema = raw.get("schema", 1)
    if isinstance(schema, bool) or schema != 1:
        raise ConfigError(f"schema must be 1, got {schema!r}")
    family = parse_family(_require(raw, "system", "config"))
    state_set = parse_polytope(_require(raw, "state_set", "config"), "state_set")
    input_set = parse_polytope(_require(raw, "input_set", "config"), "input_set")
    scenarios = parse_scenarios(_require(raw, "scenarios", "config"), base_dir)
    beta = raw.get("beta", 1e-6)
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be a number in (0, 1), got {beta!r}")

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
    _only(options, OPTIONS, "options")
    return ProblemConfig(
        family=family,
        state_set=state_set,
        input_set=input_set,
        scenarios=scenarios,
        beta=float(beta),
        options={key: _integer(options, key, "options", 0) for key in options},
    )
