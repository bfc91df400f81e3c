"""Scenario harness: JSON-described convergence runs with deterministic,
byte-stable reports.

A scenario names a registered two-variable function, an approximation
operator, an anchor scheme, and a list of (x, y) probes; the runner evaluates
the operator's level terms along a schedule and applies the tail criterion
against the function's own value at each probe.  Four tables, one per
concept (``OPERATORS``, ``SCHEMES``, ``Z_SPACES``, ``X_SPACES``), drive
parsing, running and listing; parsing builds the function, the scheme and
the z-space once, so bad values fail as ``ConfigError`` before any run.
Reports serialize through ``json`` with shortest round-trip floats
and fixed key order, so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .connectors import _coords, affine_line, affine_space, warped_line
from .gallery import (
    FinSeq,
    SequentialPoint,
    TaggedReal,
    as_float,
    collapsing_instance,
    example1_function,
    example2_function,
    half_line_instance,
)
from .operators import (
    TAIL_K,
    PartitionViolationError,
    SectionedFunction,
    anchored_cells,
    lambda_blend,
    piecewise_anchor,
    tail_check,
    tower_terms,
)
from .partitions import grid_scheme, sorgenfrey_scheme


class ConfigError(ValueError):
    pass


SCENARIO_KEYS = ("name", "x_space", "z_space", "function", "scheme", "operator", "probes", "schedule", "eps", "rng_seed")
DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256)
DEFAULT_EPS = 1e-3
# the largest fan row and tower_tail level: stage n of the fan's towers
# enumerates n rationals
MAX_STAGE = 2**20


# ---------------------------------------------------------------------------
# function registry


# stays a dataclass: bench/spans.py calls dataclasses.replace on it
@dataclass(frozen=True)
class FunctionSpec:
    kind: str  # "pointwise" | "sequential" | "ambiguous"
    make: Callable
    summary: str
    scalar_x: bool = True  # False: takes x of any dimension


def _constant_function() -> SectionedFunction:
    return SectionedFunction.from_callable(lambda x, y: 0.5)


def _product_function() -> SectionedFunction:
    return SectionedFunction.from_callable(lambda x, y: float(x) * as_float(y))


def _bilinear_ratio(x, y) -> float:
    x = float(x)
    v = as_float(y)
    if x == 0.0 and v == 0.0:
        return 0.0
    return 2.0 * x * v / (x * x + v * v)


def _sine_sum_function() -> SectionedFunction:
    return SectionedFunction.from_callable(lambda x, y: math.sin(float(x) + as_float(y)))


def _collapsing_function() -> SectionedFunction:
    return SectionedFunction.from_callable(collapsing_instance())


def _head_sequence_function() -> SectionedFunction:
    # scalar x enters as the first coordinate of a finitely-supported sequence
    seq = example2_function()
    return SectionedFunction(
        eval=lambda x, y: seq.eval(FinSeq.from_list([float(x)]), y),
        anchor_regularity=lambda x: seq.tower_at(FinSeq.from_list([float(x)])),
    )


REGISTRY = {
    "constant": FunctionSpec("pointwise", _constant_function, "constant 0.5", scalar_x=False),
    "product": FunctionSpec("pointwise", _product_function, "x * y on the line"),
    "bilinear_ratio": FunctionSpec("pointwise", lambda: SectionedFunction.from_callable(_bilinear_ratio), "2xy/(x^2+y^2), 0 at the origin"),
    "sine_sum": FunctionSpec("pointwise", _sine_sum_function, "sin(x + y)"),
    "collapsing_bump": FunctionSpec("pointwise", _collapsing_function, "collapsing bump on [-1, 1]"),
    "example1": FunctionSpec("sequential", example1_function, "spike towers on the sequential fan"),
    "example2": FunctionSpec("pointwise", _head_sequence_function, "nested-shell bump sum, scalar head coordinate"),
    "half_line_split": FunctionSpec("ambiguous", half_line_instance, "two-cell glued limit on the line"),
}


class SchemeSpec:
    __slots__ = ("required", "optional", "build", "x_space")

    def __init__(self, required: tuple, optional: tuple, build: Callable, x_space: Callable):
        self.required = required  # config keys the kind needs
        self.optional = optional  # further config keys it reads
        self.build = build  # (config, n_max) -> AnchoredScheme
        self.x_space = x_space  # config -> default x_space config


class KindSpec:
    __slots__ = ("keys", "build")

    def __init__(self, keys: tuple, build: Callable):
        self.keys = keys  # config keys the kind reads besides "kind"
        self.build = build  # config -> built object


# Entries call the constructors as module globals at call time, so a wrapper
# installed on this module sees every call.
SCHEMES = {
    "grid": SchemeSpec(
        ("dim", "lo", "hi"),
        (),
        lambda cfg, n_max: grid_scheme(cfg["dim"], (cfg["lo"], cfg["hi"]), n_max=n_max),
        lambda cfg: {"kind": "box", "dim": cfg["dim"], "lo": cfg["lo"], "hi": cfg["hi"]},
    ),
    "sorgenfrey": SchemeSpec(
        (),
        ("domain",),
        lambda cfg, n_max: sorgenfrey_scheme(n_max=n_max, domain=_domain(cfg, "domain")),
        lambda cfg: {"kind": "half_open_line", "domain": list(cfg.get("domain", (0.0, 1.0)))},
    ),
}


def _affine_z(cfg: dict):
    # the report echoes lo and hi, so they must be finite
    lo, hi = (_as_number(cfg.get(key, default), f"{key} must be a finite number, got {cfg.get(key)!r}") for key, default in (("lo", 0.0), ("hi", 1.0)))
    return affine_space(lo, hi, cfg.get("dim", 1))


Z_SPACES = {
    "line": KindSpec(("dim",), lambda cfg: affine_line(cfg.get("dim", 1))),
    "affine": KindSpec(("lo", "hi", "dim"), _affine_z),
    "warped": KindSpec((), lambda cfg: warped_line()),
}


# ---------------------------------------------------------------------------
# scenario parsing


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _only_keys(cfg: dict, keys: tuple, what: str) -> None:
    unknown = set(cfg) - {"kind", *keys}
    _require(not unknown, f"unknown {what} keys {sorted(unknown)!r}")


def _as_number(v, message: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), message)
    try:
        value = float(v)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(message) from None
    _require(math.isfinite(value), message)
    return value


def _parse_y(spec) -> TaggedReal:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return TaggedReal.plain(_as_number(spec, f"y must be a finite number, got {spec!r}"))
    if isinstance(spec, dict) and len(spec) == 1:
        if "rational" in spec:
            pq = spec["rational"]
            _require(
                isinstance(pq, (list, tuple)) and len(pq) == 2 and all(isinstance(v, int) and not isinstance(v, bool) for v in pq),
                f"rational y spec needs [p, q] integers, got {pq!r}",
            )
            _require(pq[1] != 0, "rational y spec needs a nonzero denominator")
            return _build("rational y spec", TaggedReal.rational, pq[0], pq[1])
        if "irrational" in spec:
            return TaggedReal.irrational(_as_number(spec["irrational"], "irrational y spec needs a number"))
    raise ConfigError(f"bad y spec {spec!r}: expected a number, {{'rational': [p, q]}} or {{'irrational': v}}")


def _parse_x(spec, fn_kind: str):
    if isinstance(spec, dict):
        _require(set(spec) == {"sequential"}, f"bad x spec {spec!r}")
        _require(fn_kind == "sequential", "sequential x specs only apply to sequential-fan functions")
        form = spec["sequential"]
        _require(isinstance(form, (list, tuple)) and form and isinstance(form[0], str), f"bad sequential spec {form!r}")
        kind, indices = form[0], form[1:]
        _require(len(indices) == {"origin": 0, "level": 1, "leaf": 2}.get(kind), f"bad sequential spec {form!r}")
        _require(all(isinstance(v, int) and not isinstance(v, bool) for v in indices), f"bad sequential spec {form!r}: indices must be integers")
        _require(not indices or indices[0] <= MAX_STAGE, f"bad sequential spec: the row index exceeds {MAX_STAGE}")
        if kind == "leaf":
            _as_number(indices[1], "bad sequential spec: the leaf index lies beyond the floats")
        return _build(f"sequential spec {form!r}", SequentialPoint, kind, *indices)
    _require(fn_kind != "sequential", "sequential-fan functions need {'sequential': ...} x specs")
    if isinstance(spec, (list, tuple)):
        values = [_as_number(v, f"bad x coordinate {v!r}") for v in spec]
        _require(len(values) >= 1, "x spec list must be nonempty")
        return tuple(values)
    return _as_number(spec, f"bad x spec {spec!r}")


def _domain(cfg: dict, what: str) -> tuple:
    """A config's ``domain``, [0, 1] by default: two finite numbers."""
    domain = cfg.get("domain", (0.0, 1.0))
    _require(isinstance(domain, (list, tuple)) and len(domain) == 2, f"{what} must be [lo, hi], got {domain!r}")
    return tuple(_as_number(v, f"{what} must be numbers, got {domain!r}") for v in domain)


def _x_half_open_line(cfg: dict):
    lo, hi = _domain(cfg, "half_open_line domain")
    return lambda x: isinstance(x, float) and lo <= x < hi


def _x_box(cfg: dict):
    lo, hi = (_as_number(cfg.get(key), f"box x_space needs a number {key!r}, got {cfg.get(key)!r}") for key in ("lo", "hi"))
    dim = cfg.get("dim", 1)
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1, f"box x_space dim must be a positive integer, got {dim!r}")

    def contains(x) -> bool:
        if isinstance(x, SequentialPoint):
            return False
        coords = _coords(x)
        return len(coords) == dim and all(lo <= v <= hi for v in coords)

    return contains


# kind -> (config keys, config -> membership predicate on parsed probe points)
X_SPACES = {
    "sequential_fan": KindSpec((), lambda cfg: lambda x: isinstance(x, SequentialPoint)),
    "real_line": KindSpec((), lambda cfg: lambda x: not isinstance(x, SequentialPoint)),
    "half_open_line": KindSpec(("domain",), _x_half_open_line),
    "box": KindSpec(("lo", "hi", "dim"), _x_box),
}


def _x_space(cfg) -> Callable:
    _require(isinstance(cfg, dict) and isinstance(cfg.get("kind"), str) and cfg["kind"] in X_SPACES, f"bad x_space {cfg!r}; kinds are {', '.join(X_SPACES)}")
    spec = X_SPACES[cfg["kind"]]
    _only_keys(cfg, spec.keys, f"{cfg['kind']} x_space")
    return spec.build(cfg)


def _build(what: str, make: Callable, *args):
    """Call a constructor, turning its argument errors into ConfigError."""
    try:
        return make(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _default_x_space(scheme_cfg: dict, fn_kind: str) -> dict:
    if fn_kind == "sequential":
        return {"kind": "sequential_fan"}
    if scheme_cfg["kind"] in SCHEMES:
        return SCHEMES[scheme_cfg["kind"]].x_space(scheme_cfg)
    return {"kind": "real_line"}


class Scenario:
    __slots__ = (
        "name", "fn_name", "operator", "x_cfg", "z_cfg", "scheme_cfg", "probes",
        "probes_raw", "schedule", "eps", "rng_seed", "function", "scheme", "z_space",
    )

    def __init__(
        self,
        name: str,
        fn_name: str,
        operator: str,
        x_cfg: dict,
        z_cfg: dict,
        scheme_cfg: dict,
        probes: tuple,
        probes_raw: tuple,
        schedule: tuple,
        eps: float,
        rng_seed: int,
        function,
        scheme,
        z_space,
    ):
        self.name, self.fn_name, self.operator = name, fn_name, operator
        self.x_cfg, self.z_cfg, self.scheme_cfg = x_cfg, z_cfg, scheme_cfg
        self.probes = probes  # ((x, y TaggedReal), ...) parsed
        self.probes_raw = probes_raw
        self.schedule, self.eps, self.rng_seed = schedule, eps, rng_seed
        self.function = function  # REGISTRY[fn_name].make()
        self.scheme = scheme  # AnchoredScheme to max(schedule), or None
        self.z_space = z_space  # ConnectorSpace

    def echo(self) -> dict:
        return {
            "name": self.name,
            "x_space": self.x_cfg,
            "z_space": self.z_cfg,
            "function": self.fn_name,
            "scheme": self.scheme_cfg,
            "operator": self.operator,
            "probes": list(self.probes_raw),
            "schedule": list(self.schedule),
            "eps": self.eps,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _require(isinstance(data, dict), "scenario must be a JSON object")
        unknown = set(data) - set(SCENARIO_KEYS)
        _require(not unknown, f"unknown scenario keys {sorted(unknown)!r}")
        for key in ("name", "function", "operator", "probes"):
            _require(key in data, f"scenario is missing {key!r}")
        name = data["name"]
        _require(isinstance(name, str) and name, "scenario name must be a nonempty string")
        fn_name = data["function"]
        _require(isinstance(fn_name, str) and fn_name in REGISTRY, f"unknown function {fn_name!r}; see the list command")
        operator = data["operator"]
        _require(isinstance(operator, str) and operator in OPERATORS, f"unknown operator {operator!r}")
        spec = REGISTRY[fn_name]
        op = OPERATORS[operator]
        _require(spec.kind in op.kinds, f"{operator} takes {' or '.join(op.kinds)} functions, not {fn_name!r} ({spec.kind})")

        schedule_raw = data.get("schedule", list(DEFAULT_SCHEDULE))
        _require(
            isinstance(schedule_raw, (list, tuple)) and schedule_raw and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in schedule_raw),
            f"schedule must be a nonempty list of positive integers, got {schedule_raw!r}",
        )
        schedule = tuple(int(n) for n in schedule_raw)
        _require(all(a < b for a, b in zip(schedule, schedule[1:])), "schedule must be strictly increasing")
        _require(len(schedule) >= TAIL_K, f"schedule needs at least {TAIL_K} levels for the tail criterion, got {len(schedule)}")

        scheme_cfg = data.get("scheme", {"kind": "none"})
        _require(isinstance(scheme_cfg, dict) and scheme_cfg.get("kind") in (*SCHEMES, "none"), f"bad scheme {scheme_cfg!r}")
        scheme = None
        if op.needs_scheme:
            _require(scheme_cfg["kind"] in SCHEMES, f"{operator} needs a {' or '.join(SCHEMES)} scheme")
            scheme_spec = SCHEMES[scheme_cfg["kind"]]
            for key in scheme_spec.required:
                _require(key in scheme_cfg, f"{scheme_cfg['kind']} scheme needs {key!r}")
            _only_keys(scheme_cfg, scheme_spec.required + scheme_spec.optional, f"{scheme_cfg['kind']} scheme")
            scheme = _build(f"{scheme_cfg['kind']} scheme", scheme_spec.build, scheme_cfg, max(schedule))
        else:
            _require(scheme_cfg["kind"] == "none", f"{operator} does not take a scheme")
            _only_keys(scheme_cfg, (), "none scheme")

        z_cfg = data.get("z_space", {"kind": "line", "dim": 1})
        _require(isinstance(z_cfg, dict) and isinstance(z_cfg.get("kind"), str) and z_cfg["kind"] in Z_SPACES, f"bad z_space {z_cfg!r}")
        _only_keys(z_cfg, Z_SPACES[z_cfg["kind"]].keys, f"{z_cfg['kind']} z_space")
        z_space = _build(f"{z_cfg['kind']} z_space", Z_SPACES[z_cfg["kind"]].build, z_cfg)
        _require(z_space.point_dim == 1, f"z_space dim must be 1, got {z_space.point_dim}: every registered function is scalar-valued")

        eps = data.get("eps", DEFAULT_EPS)
        eps = _as_number(eps, f"eps must be a finite number, got {eps!r}")
        _require(eps >= 0.0, "eps must be nonnegative")

        rng_seed = data.get("rng_seed", 0)
        _require(isinstance(rng_seed, int) and not isinstance(rng_seed, bool), "rng_seed must be an integer")

        # an explicit x_space narrows the default (the scheme's domain), never widens it
        x_default = _default_x_space(scheme_cfg, spec.kind)
        x_cfg = data.get("x_space") or x_default
        domains = [_x_space(x_cfg)] + ([_x_space(x_default)] if x_cfg != x_default else [])

        probes_raw = data["probes"]
        _require(isinstance(probes_raw, list), "probes must be a list")
        parsed = []
        for index, probe in enumerate(probes_raw):
            _require(isinstance(probe, dict) and set(probe) == {"x", "y"}, f"probe {index} must be an object with keys x and y")
            x = _parse_x(probe["x"], spec.kind)
            _require(all(contains(x) for contains in domains), f"probe {index}: x {probe['x']!r} lies outside the x_space or the scheme's domain")
            _require(not isinstance(x, tuple) or not spec.scalar_x, f"probe {index}: {fn_name} takes a scalar x, not {probe['x']!r}")
            parsed.append((x, _parse_y(probe["y"])))
        function = spec.make()
        if operator == "tower_tail":
            _require(schedule[-1] <= MAX_STAGE, f"tower_tail schedule levels may be at most {MAX_STAGE}")
            for index, (x, _) in enumerate(parsed):
                _require(function.tower_at(x) is not None, f"probe {index}: {fn_name} has no anchor tower at {probes_raw[index]['x']!r}")
        if spec.kind == "ambiguous":
            # the limit is defined only where some cell's core captures x
            target = function.target()
            for index, (x, y) in enumerate(parsed):
                try:
                    target(x, y)
                except PartitionViolationError as exc:
                    raise ConfigError(f"probe {index}: {exc}") from exc
        return cls(
            name=name,
            fn_name=fn_name,
            operator=operator,
            x_cfg=x_cfg,
            z_cfg=z_cfg,
            scheme_cfg=scheme_cfg,
            probes=tuple(parsed),
            probes_raw=tuple(probes_raw),
            schedule=schedule,
            eps=eps,
            rng_seed=int(rng_seed),
            function=function,
            scheme=scheme,
            z_space=z_space,
        )


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# running


class ProbeRecord:
    __slots__ = ("x", "y", "target", "terms", "gaps", "passed", "final_gap")

    def __init__(self, x, y, target: float, terms: tuple, gaps: tuple, passed: bool, final_gap: float):
        self.x, self.y = x, y  # raw probe specs, echoed
        self.target, self.terms, self.gaps, self.passed, self.final_gap = target, terms, gaps, passed, final_gap


class ScenarioReport:
    __slots__ = ("scenario", "records", "summary")

    def __init__(self, scenario: dict, records: tuple, summary: dict):
        self.scenario, self.records, self.summary = scenario, records, summary


def _run_levels(scenario: Scenario, term_at, target):
    """Per probe, the level terms term_at(n)(x, y) along the schedule, and
    the probes' targets."""
    per_probe = [[] for _ in scenario.probes]
    for n in scenario.schedule:
        term = term_at(n)
        for slot, (x, y) in zip(per_probe, scenario.probes):
            slot.append(term(x, y))
    return per_probe, [target(x, y) for x, y in scenario.probes]


def _run_towers(scenario: Scenario):
    pairs = [tower_terms(scenario.function.tower_at(x), y, scenario.schedule) for x, y in scenario.probes]
    return [terms for terms, _ in pairs], [target for _, target in pairs]


class OperatorSpec:
    __slots__ = ("kinds", "needs_scheme", "run")

    def __init__(self, kinds: tuple, needs_scheme: bool, run: Callable):
        self.kinds = kinds  # function kinds the operator accepts
        self.needs_scheme = needs_scheme
        self.run = run  # scenario -> (per-probe level terms, per-probe targets)


# Level terms call the operators as module globals at call time, so a wrapper
# installed on this module sees every call.
OPERATORS = {
    "lambda_blend": OperatorSpec(
        ("pointwise",), True, lambda s: _run_levels(s, lambda n: lambda_blend(s.function, s.scheme, s.z_space, n), s.function.eval)
    ),
    "piecewise_anchor": OperatorSpec(
        ("pointwise",),
        True,
        lambda s: _run_levels(s, lambda n: piecewise_anchor(s.function, anchored_cells(s.scheme, n), s.scheme.anchor, n), s.function.eval),
    ),
    "ambiguous_limit": OperatorSpec(("ambiguous",), False, lambda s: _run_levels(s, s.function.term, s.function.target())),
    "tower_tail": OperatorSpec(("pointwise", "sequential"), False, _run_towers),
}


def run_scenario(scenario: Scenario) -> ScenarioReport:
    per_probe, targets = OPERATORS[scenario.operator].run(scenario)
    records = []
    for raw, terms, target in zip(scenario.probes_raw, per_probe, targets):
        passed, gaps, final_gap = tail_check(terms, target, scenario.eps, TAIL_K)
        records.append(
            ProbeRecord(
                x=raw["x"],
                y=raw["y"],
                target=float(target),
                terms=tuple(float(t) for t in terms),
                gaps=gaps,
                passed=passed,
                final_gap=float(final_gap),
            )
        )
    summary = _summary(len(records), sum(1 for r in records if r.passed))
    return ScenarioReport(scenario=scenario.echo(), records=tuple(records), summary=summary)


def _summary(probes: int, passed: int) -> dict:
    return {"probes": probes, "passed": passed, "failed": probes - passed, "all_passed": passed == probes}


def report_data(report: ScenarioReport) -> dict:
    return {
        "scenario": report.scenario,
        "records": [
            {
                "x": r.x,
                "y": r.y,
                "target": r.target,
                "terms": list(r.terms),
                "gaps": list(r.gaps),
                "passed": r.passed,
                "final_gap": r.final_gap,
            }
            for r in report.records
        ],
        "summary": report.summary,
    }


def suite_data(reports: Sequence[ScenarioReport]) -> dict:
    reports = list(reports)
    probes = sum(r.summary["probes"] for r in reports)
    passed = sum(r.summary["passed"] for r in reports)
    return {
        "scenarios": [report_data(r) for r in reports],
        "summary": {"scenarios": len(reports), **_summary(probes, passed)},
    }


# ---------------------------------------------------------------------------
# rendering


def render_json(data: dict) -> str:
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def render_csv(reports: Sequence[ScenarioReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["scenario", "probe", "x", "y", "target", "passed", "final_gap", "last_term"])
    for report in reports:
        name = report.scenario["name"]
        for index, r in enumerate(report.records):
            writer.writerow([name, index, *(_cell(v) for v in (r.x, r.y, r.target, r.passed, r.final_gap, r.terms[-1]))])
    return buffer.getvalue()
