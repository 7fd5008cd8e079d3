"""JSON interchange for matrices, distributions, configs and results.

Matrix encoding: {"dim": n, "entries": [[re, im], ...]} with exactly n^2
row-major entries, each a pair of finite reals.  Serialization prints
floats with 17 significant digits so every value but a zero's sign ("-0"
reads back as 0) round-trips exactly and repeated runs are byte-identical.

Each matrix takes one C-level pass: the encoder spots a list of
[float, float] pairs by its type and length sets, checks it with one
numpy call and prints it with one "%.17g" format (the text of
``format(x, ".17g")``); the decoder converts with one ``np.array``.  Other
lists, and pairs those sets reject, go entry by entry with the same text
and messages.  An integer entry beyond float range is non-finite input:
MalformedInputError, CLI exit 2, as for a non-Hermitian compat-quantum state.

Scenario pipeline steps: {"type": "unitary", "matrix": m} and
{"type": "channel", "kraus": [m, ...]} for a ``UnitaryDynamics`` and a
``KrausChannel``; the detector channels go by name and parameter,
{"type": "depolarizing" | "dephasing", "dim": d, "strength": p} and
{"type": "replacement", "dim": d, "target": t}, so a config holds no Kraus
list for them and decodes to the closed-form channel.  A Kraus-list step
still decodes, to a ``KrausChannel``, whatever channel it came from; any
other step, a named channel's subclass too, is InvalidParameterError.

Decoding checks the schema and leaves values to the constructors: io
checks exact key sets, a list where a list is due, a matrix's "dim" and
entries, and its own bool fields (``pool_against_evolved``,
``normalized``).  A dim, seed, strength, target, tolerance or probability
goes as read to the class that takes it, whose rule (``linalg._integer``,
``_real``) rejects a string, a bool, None or a float where an integer is
due; that InvalidParameterError comes out as MalformedInputError.
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import chain

import numpy as np

from .compatibility import CompatibilityVerdict, ProbabilityDistribution
from .errors import DimensionMismatchError, InvalidParameterError
from .linalg import Subspace, Tolerances
from .pooling import PoolingReport
from .regions import HybridState
from .scenario import (
    AgentPipeline, DephasingChannel, DepolarizingChannel, KrausChannel, ReplacementChannel,
    ScenarioConfig, ScenarioResult, UnitaryDynamics,
)


class MalformedInputError(ValueError):
    """The input JSON does not match the expected schema."""


# --- serialization ---------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _is_pair_list(obj) -> bool:
    """Whether ``obj`` is a nonempty list of plain two-element lists, by C-level sets."""
    return bool(obj) and set(map(type, obj)) == {list} and set(map(len, obj)) == {2}


def _encode(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if _is_pair_list(obj) and set(map(type, flat := list(chain(*obj)))) == {float}:
            if not (finite := np.isfinite(flat)).all():
                _fmt_float(flat[int(np.argmin(finite))])  # raises, naming the first one
            return "[" + ", ".join(["[%.17g, %.17g]"] * len(obj)) % tuple(flat) + "]"
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    return _encode(obj) + "\n"


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:  # the schema holds one "dim"
        raise DimensionMismatchError(f"cannot write a matrix of shape {a.shape}: not square")
    return {
        "dim": int(a.shape[0]),
        "entries": np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or set(obj) != {"dim", "entries"}:
        raise MalformedInputError('matrix object must have exactly keys "dim" and "entries"')
    dim = obj["dim"]
    entries = obj["entries"]
    if type(dim) is not int or dim < 1:  # a JSON true is no dimension
        raise MalformedInputError(f'"dim" must be a positive integer, got {dim!r}')
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise MalformedInputError(f'"entries" must hold exactly {dim * dim} pairs')
    reals = list(chain(*entries)) if _is_pair_list(entries) else None
    if reals is None or not set(map(type, reals)) <= {float, int}:  # name the first bad entry
        for i, pair in enumerate(entries):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise MalformedInputError(f"entry {i} is not a [re, im] pair of reals")
        reals = list(chain(*entries))
    flat = None
    with suppress(OverflowError):  # an int beyond float range, as non-finite as 1e400
        flat = np.array(reals, dtype=float).view(complex)
    if flat is None or not np.all(np.isfinite(flat)):
        raise MalformedInputError("matrix entries must be finite")
    return flat.reshape(dim, dim)


def distribution_to_json(p: ProbabilityDistribution) -> dict:
    return {"outcomes": list(p.outcomes), "probs": [float(x) for x in p.probs]}


def distribution_from_json(obj) -> ProbabilityDistribution:
    if not isinstance(obj, dict) or set(obj) != {"outcomes", "probs"}:
        raise MalformedInputError(
            'distribution object must have exactly keys "outcomes" and "probs"'
        )
    if not isinstance(obj["outcomes"], list) or not isinstance(obj["probs"], list):
        raise MalformedInputError('"outcomes" and "probs" must be lists')
    try:
        return ProbabilityDistribution(tuple(obj["outcomes"]), obj["probs"])
    except (ValueError, TypeError) as exc:  # outcome labels that do not hash
        raise MalformedInputError(str(exc)) from exc


def hybrid_to_json(h: HybridState) -> dict:
    return {
        "classical_dims": list(h.classical_dims),
        "outcomes": [list(k) for k in sorted(h.blocks)],
        "blocks": {
            ",".join(map(str, k)): matrix_to_json(b) for k, b in sorted(h.blocks.items())
        },
        "normalized": h.normalized,
    }


def _field(obj, key, default, ok, kind):
    """``obj[key]`` (``default`` when absent), once ``ok`` accepts it; else
    MalformedInputError saying the field must be ``kind``."""
    value = obj.get(key, default)
    if not ok(value):
        raise MalformedInputError(f'"{key}" must be {kind}, got {value!r}')
    return value


def _is_bool(v) -> bool:
    return type(v) is bool


def hybrid_from_json(obj) -> HybridState:
    try:
        for key in obj["blocks"]:  # ASCII digits, as hybrid_to_json writes them: "0,1"
            if not all(s.isascii() and s.isdigit() for s in key.split(",")):
                raise MalformedInputError(f"block key {key!r} is not comma-separated ASCII digits")
        blocks = {tuple(map(int, key.split(","))): matrix_from_json(b)
                  for key, b in obj["blocks"].items()}
        dims = _field(obj, "classical_dims", None, lambda v: type(v) is list, "a list")
        return HybridState(tuple(dims), blocks,
                           normalized=_field(obj, "normalized", True, _is_bool, "a bool"))
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # "blocks" not an object
        raise MalformedInputError(f"bad hybrid state: {exc}") from exc


def verdict_to_json(v: CompatibilityVerdict) -> dict:
    out = {"compatible": v.compatible, "intersection_rank": v.intersection_rank(),
           "diagnostics": v.diagnostics}
    if not isinstance(v.intersection, Subspace):  # a classical verdict names its outcomes
        out["shared_outcomes"] = list(v.intersection)
    return out


def pooling_report_to_json(r: PoolingReport) -> dict:
    classical = isinstance(r.pooled, ProbabilityDistribution)
    out = {
        "pooled": distribution_to_json(r.pooled) if classical else matrix_to_json(r.pooled),
        "normalization_c": float(r.normalization_c),
        "hermiticity_residual": float(r.hermiticity_residual),
        "min_eigenvalue": float(r.min_eigenvalue),
        "precondition_checked": r.precondition_checked,
    }
    if r.precondition_residual is not None:
        out["precondition_residual"] = float(r.precondition_residual)
    return out


# --- scenario configs and results ------------------------------------------


# Named steps: type name -> (class, parameter field); the class checks dim and the parameter.
_NAMED_STEPS = {
    "depolarizing": (DepolarizingChannel, "strength"),
    "dephasing": (DephasingChannel, "strength"),
    "replacement": (ReplacementChannel, "target"),
}
_STEP_NAMES = {cls: name for name, (cls, _) in _NAMED_STEPS.items()}


def _step_to_json(step) -> dict:
    if (name := _STEP_NAMES.get(type(step))) is not None:
        param = _NAMED_STEPS[name][1]
        return {"type": name, "dim": step.dim, param: getattr(step, param)}
    if isinstance(step, UnitaryDynamics):
        return {"type": "unitary", "matrix": matrix_to_json(step.u)}
    if isinstance(step, KrausChannel):
        return {"type": "channel", "kraus": [matrix_to_json(k) for k in step.kraus_ops]}
    raise InvalidParameterError(f"a {type(step).__name__} step has no JSON form")


def _named_step_from_json(obj):
    name = obj["type"]
    cls, param = _NAMED_STEPS[name]
    if set(obj) != {"type", "dim", param}:
        raise MalformedInputError(f'{name} step must have exactly keys "type", "dim" and "{param}"')
    return cls(obj["dim"], obj[param])


def _step_from_json(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise MalformedInputError('pipeline step needs a "type" field')
    if isinstance(obj["type"], str) and obj["type"] in _NAMED_STEPS:
        return _named_step_from_json(obj)
    if obj["type"] == "unitary":
        return UnitaryDynamics(matrix_from_json(obj["matrix"]))
    if obj["type"] == "channel":
        kraus = obj.get("kraus")
        if not isinstance(kraus, list) or not kraus:
            raise MalformedInputError('channel step needs a nonempty "kraus" list')
        return KrausChannel(tuple(matrix_from_json(k) for k in kraus))
    raise MalformedInputError(f'unknown step type {obj["type"]!r}')


def scenario_config_to_json(cfg: ScenarioConfig) -> dict:
    out = {
        "prior": matrix_to_json(cfg.prior),
        "pipelines": [
            {"name": p.name, "steps": [_step_to_json(s) for s in p.steps]}
            for p in cfg.pipelines
        ],
        "rank_tol": cfg.tol.rank_tol,
        "herm_tol": cfg.tol.herm_tol,
        "seed": int(cfg.seed),  # a NumPy integer is not JSON
        "pool_against_evolved": cfg.evolved_by is not None,
    }
    if cfg.evolved_by is not None:
        out["evolved_by"] = matrix_to_json(cfg.evolved_by.u)
    return out


def scenario_config_from_json(obj) -> ScenarioConfig:
    try:
        pipelines = tuple(
            AgentPipeline(p["name"], tuple(_step_from_json(s) for s in p["steps"]))
            for p in obj["pipelines"]
        )
        evolved = obj.get("evolved_by")  # an absent key or null is no evolved_by
        if _field(obj, "pool_against_evolved", False, _is_bool, "a bool") != (evolved is not None):
            raise MalformedInputError('"pool_against_evolved" must be true iff "evolved_by" is set')
        return ScenarioConfig(
            prior=matrix_from_json(obj["prior"]),
            pipelines=pipelines,
            tol=Tolerances(**{k: obj[k] for k in ("rank_tol", "herm_tol") if k in obj}),
            seed=obj.get("seed", 0),
            evolved_by=None if evolved is None else UnitaryDynamics(matrix_from_json(evolved)),
        )
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad scenario config: {exc}") from exc


def scenario_result_to_json(res: ScenarioResult) -> dict:
    return {
        "sigma1": matrix_to_json(res.sigma1),
        "sigma2": matrix_to_json(res.sigma2),
        **verdict_to_json(res.verdict),
        "pooling": pooling_report_to_json(res.pooling) if res.pooling else None,
        "pooling_error": res.pooling_error,
    }
