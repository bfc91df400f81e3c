"""Scenario harness: JSON-described convergence runs with deterministic,
byte-stable reports.

A scenario names a registered two-variable function, an approximation
operator, an anchor scheme, and a list of (x, y) probes; the runner evaluates
the operator's level terms along a schedule and applies the tail criterion
against the function's own value at each probe.  Three tables, one per
concept (``OPERATORS``, ``SCHEMES``, ``Z_SPACES``), drive parsing, running
and listing; ``_parse_kind`` reads every ``scheme`` and ``z_space`` config
through its kind's row, whose builder checks the values it reads.  A scheme
row also gives the ``x_space`` the scheme covers and its probe membership
test.  Parsing builds the function, the scheme and the z-space once, so bad
values fail as ``ConfigError`` before any run.
JSON reports have the bytes of ``json.dumps(indent=2)``: shortest
round-trip floats and fixed key order, so identical runs give identical bytes.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .connectors import WEIGHT_ATOL, _coords, affine_line, affine_space, warped_line
from .gallery import (
    SequentialPoint,
    TaggedReal,
    as_float,
    collapsing_instance,
    example1_function,
    half_line_instance,
)
from .operators import (
    TAIL_K,
    PartitionViolationError,
    SectionedFunction,
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
NO_SCHEME = {"kind": "none"}  # the scheme config of operators that take none
# the largest fan row, tower_tail level and reduced |p| + q of a rational y:
# stage n of the fan's towers enumerates n rationals; the rational bound is
# a plain input limit, as no registered function's cost grows with |p| + q
MAX_STAGE = 2**20
# the largest grid dim: a point lies in up to 2^dim supports, so a probe
# holds 2^dim live keys per level (dim 14, one probe: 141 MB on a 2-core host)
MAX_DIM = 12


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
    return SectionedFunction(lambda x, y: 0.5)


def _bilinear_ratio(x, y) -> float:
    x = float(x)
    v = as_float(y)
    if x == 0.0 and v == 0.0:
        return 0.0
    big = max(abs(x), abs(v))
    if not 2.0 ** -500 <= big <= 2.0 ** 500:
        # the squares would under- or overflow: scaling both by the power of two that takes big to [0.5, 1) is exact and keeps the ratio
        e = math.frexp(big)[1]
        x, v = math.ldexp(x, -e), math.ldexp(v, -e)
    return 2.0 * x * v / (x * x + v * v)


def _sine_sum_function() -> SectionedFunction:
    return SectionedFunction(lambda x, y: math.sin(float(x) + as_float(y)))


def _collapsing_function() -> SectionedFunction:
    return SectionedFunction(collapsing_instance())


REGISTRY = {
    "constant": FunctionSpec("pointwise", _constant_function, "constant 0.5", scalar_x=False),
    "bilinear_ratio": FunctionSpec("pointwise", lambda: SectionedFunction(_bilinear_ratio), "2xy/(x^2+y^2), 0 at the origin"),
    "sine_sum": FunctionSpec("pointwise", _sine_sum_function, "sin(x + y)"),
    "collapsing_bump": FunctionSpec("pointwise", _collapsing_function, "collapsing bump on [-1, 1]"),
    "example1": FunctionSpec("sequential", example1_function, "spike towers on the sequential fan"),
    "half_line_split": FunctionSpec("ambiguous", half_line_instance, "two-cell glued limit on the line"),
}


def _grid(cfg: dict, schedule: list) -> tuple:
    dim = cfg.get("dim")
    _require(type(dim) is int and 1 <= dim <= MAX_DIM, f"grid scheme needs an integer 'dim' from 1 to {MAX_DIM}, got {dim!r}")
    lo, hi = (_as_number(cfg.get(key), f"grid scheme needs a number {key!r}, got {cfg.get(key)!r}") for key in ("lo", "hi"))
    scheme = grid_scheme(dim, (lo, hi), n_max=max(schedule))
    # a tent rounds its node lo + j/n unless n is a power of two, and scales
    # that rounding by n: each axis's weight sum drifts by up to about n ulps
    limit = WEIGHT_ATOL / (2 * dim * math.ulp(max(abs(lo), abs(hi))))
    for n in schedule:
        _require(n & (n - 1) == 0 or n <= limit, f"grid scheme level {n} is not a power of two, and its tent weights would drift past {WEIGHT_ATOL} on a dim-{dim} grid over [{lo}, {hi}]")
    return scheme, {"kind": "box", "dim": dim, "lo": cfg["lo"], "hi": cfg["hi"]}, lambda x: len(c := _coords(x)) == dim and all(lo <= v <= hi for v in c)


def _sorgenfrey(cfg: dict, schedule: list) -> tuple:
    lo, hi = domain = _domain(cfg, "sorgenfrey scheme domain")
    scheme = sorgenfrey_scheme(n_max=max(schedule), domain=domain)
    return scheme, {"kind": "half_open_line", "domain": list(cfg.get("domain", (0.0, 1.0)))}, lambda x: isinstance(x, float) and lo <= x < hi


# kind -> (config keys besides "kind", (config, schedule) -> (AnchoredScheme, the x_space config it covers, parsed x -> in it))
SCHEMES = {
    "grid": (("dim", "lo", "hi"), _grid),
    "sorgenfrey": (("domain",), _sorgenfrey),
}


def _z_dim(cfg: dict) -> int:
    dim = cfg.get("dim", 1)
    _require(type(dim) is int and dim == 1, f"z_space dim must be 1, got {dim!r}: every registered function is scalar-valued")
    return dim


def _affine_z(cfg: dict):
    # the report echoes lo and hi, so they must be finite
    lo, hi = (_as_number(cfg.get(key, default), f"affine z_space {key} must be a finite number, got {cfg.get(key)!r}") for key, default in (("lo", 0.0), ("hi", 1.0)))
    return affine_space(lo, hi, _z_dim(cfg))


# kind -> (config keys, config -> ConnectorSpace).  Entries call the constructors as
# module globals at call time, so a wrapper installed on this module sees every call.
Z_SPACES = {
    "line": (("dim",), lambda cfg: affine_line(_z_dim(cfg))),
    "affine": (("lo", "hi", "dim"), _affine_z),
    "warped": ((), lambda cfg: warped_line()),
}


# ---------------------------------------------------------------------------
# scenario parsing


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


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
            y = _build("rational y spec", TaggedReal.rational, pq[0], pq[1])
            _require(abs(y.frac.numerator) + y.frac.denominator <= MAX_STAGE, f"rational y spec {pq!r}: the reduced |p| + q exceeds {MAX_STAGE}")
            return y
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


def _build(what: str, make: Callable, *args):
    """Call a constructor, turning its argument errors into ConfigError."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _parse_kind(table: dict, cfg, what: str, *context):
    """Build a ``scheme`` or ``z_space`` config through its kind's row in
    ``table``: the config must be a dict with a known ``kind`` and
    only the keys the row reads."""
    _require(isinstance(cfg, dict) and isinstance(cfg.get("kind"), str) and cfg["kind"] in table, f"bad {what} {cfg!r}; kinds are {', '.join(table)}")
    keys, build = table[cfg["kind"]]
    unknown = set(cfg) - {"kind", *keys}
    _require(not unknown, f"unknown {cfg['kind']} {what} keys {sorted(unknown)!r}")
    return _build(f"{cfg['kind']} {what}", build, cfg, *context)


class Scenario:
    """A parsed scenario: ``config`` is the scenario with its defaults filled
    in, which the report echoes; beside it sit the parsed probes and the
    function, scheme and z-space built from it."""

    __slots__ = ("config", "probes", "function", "scheme", "z_space")

    def __init__(self, config: dict, probes: tuple, function, scheme, z_space):
        self.config = config  # SCENARIO_KEYS in order
        self.probes = probes  # ((x, y TaggedReal), ...) parsed
        self.function = function  # REGISTRY[config["function"]].make()
        self.scheme = scheme  # AnchoredScheme to max(schedule), or None
        self.z_space = z_space  # ConnectorSpace

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
        schedule = [int(n) for n in schedule_raw]
        _require(all(a < b for a, b in zip(schedule, schedule[1:])), "schedule must be strictly increasing")
        _require(len(schedule) >= TAIL_K, f"schedule needs at least {TAIL_K} levels for the tail criterion, got {len(schedule)}")

        scheme_cfg = data.get("scheme", dict(NO_SCHEME))
        # without a scheme, _parse_x decides sequential against plain x
        scheme, x_default, contains = None, {"kind": "sequential_fan" if spec.kind == "sequential" else "real_line"}, None
        if op.needs_scheme:
            _require(scheme_cfg != NO_SCHEME, f"{operator} needs a {' or '.join(SCHEMES)} scheme")
            scheme, x_default, contains = _parse_kind(SCHEMES, scheme_cfg, "scheme", schedule)
        else:
            _require(scheme_cfg == NO_SCHEME, f"{operator} does not take a scheme")

        z_cfg = data.get("z_space", {"kind": "line", "dim": 1})
        z_space = _parse_kind(Z_SPACES, z_cfg, "z_space")

        eps = data.get("eps", DEFAULT_EPS)
        eps = _as_number(eps, f"eps must be a finite number, got {eps!r}")
        _require(eps >= 0.0, "eps must be nonnegative")

        rng_seed = data.get("rng_seed", 0)
        _require(isinstance(rng_seed, int) and not isinstance(rng_seed, bool), "rng_seed must be an integer")

        # the scheme decides x; an explicit x_space, echoed as given, must be the same JSON (true is not 1)
        x_cfg = data.get("x_space", x_default)
        same = x_cfg == x_default and json.dumps(x_cfg, sort_keys=True, default=repr) == json.dumps(x_default, sort_keys=True)
        _require(same, f"x_space {x_cfg!r} is not {x_default!r}, the space the scheme decides")

        probes_raw = data["probes"]
        _require(isinstance(probes_raw, list), "probes must be a list")
        parsed = []
        for index, probe in enumerate(probes_raw):
            _require(isinstance(probe, dict) and set(probe) == {"x", "y"}, f"probe {index} must be an object with keys x and y")
            x = _parse_x(probe["x"], spec.kind)
            _require(contains is None or contains(x), f"probe {index}: x {probe['x']!r} lies outside the scheme's domain")
            _require(not isinstance(x, tuple) or not spec.scalar_x, f"probe {index}: {fn_name} takes a scalar x, not {probe['x']!r}")
            parsed.append((x, _parse_y(probe["y"])))
        function = spec.make()
        if operator == "tower_tail":
            _require(schedule[-1] <= MAX_STAGE, f"tower_tail schedule levels may be at most {MAX_STAGE}")
        if spec.kind == "ambiguous":
            # the limit is defined only where some cell's core captures x
            target = function.target()
            for index, (x, y) in enumerate(parsed):
                try:
                    target(x, y)
                except PartitionViolationError as exc:
                    raise ConfigError(f"probe {index}: {exc}") from exc
        config = {
            "name": name,
            "x_space": x_cfg,
            "z_space": z_cfg,
            "function": fn_name,
            "scheme": scheme_cfg,
            "operator": operator,
            "probes": list(probes_raw),
            "schedule": schedule,
            "eps": eps,
            "rng_seed": rng_seed,
        }
        return cls(config, tuple(parsed), function, scheme, z_space)


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"scenario {path} is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"scenario {path} nests too deeply to parse") from None
    return Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# running


class ProbeRecord:
    __slots__ = ("x", "y", "target", "terms", "gaps", "passed", "final_gap")  # a report record's keys, in order

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
    for n in scenario.config["schedule"]:
        term = term_at(n)
        for slot, (x, y) in zip(per_probe, scenario.probes):
            slot.append(term(x, y))
    return per_probe, [target(x, y) for x, y in scenario.probes]


def _run_towers(scenario: Scenario):
    pairs = [tower_terms(scenario.function.anchor_regularity(x), y, scenario.config["schedule"]) for x, y in scenario.probes]
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
        lambda s: _run_levels(s, lambda n: piecewise_anchor(s.function, s.scheme, n), s.function.eval),
    ),
    "ambiguous_limit": OperatorSpec(("ambiguous",), False, lambda s: _run_levels(s, s.function.term, s.function.target())),
    "tower_tail": OperatorSpec(("sequential",), False, _run_towers),
}


def run_scenario(scenario: Scenario) -> ScenarioReport:
    config = scenario.config
    per_probe, targets = OPERATORS[config["operator"]].run(scenario)
    records = []
    for raw, terms, target in zip(config["probes"], per_probe, targets):
        passed, gaps, final_gap = tail_check(terms, target, config["eps"])
        records.append(
            ProbeRecord(
                x=raw["x"],
                y=raw["y"],
                target=float(target),
                terms=tuple(map(float, terms)),
                gaps=gaps,
                passed=passed,
                final_gap=float(final_gap),
            )
        )
    summary = _summary(len(records), sum(1 for r in records if r.passed))
    return ScenarioReport(scenario=config, records=tuple(records), summary=summary)


def _summary(probes: int, passed: int) -> dict:
    return {"probes": probes, "passed": passed, "failed": probes - passed, "all_passed": passed == probes}


def report_data(report: ScenarioReport) -> dict:
    records = [{name: getattr(r, name) for name in ProbeRecord.__slots__} for r in report.records]
    return {"scenario": report.scenario, "records": records, "summary": report.summary}


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


# how json writes a scalar: strings through its C escaper, numbers by repr
_SCALARS = {str: encode_basestring_ascii, float: float.__repr__, int: int.__repr__, bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _write(value, indent: str, out: list) -> None:
    """Append what ``json.dumps(indent=2, allow_nan=False)`` writes for a value
    of the types json reads, at this indent, with string dict keys: in fewer
    calls than json's pure-Python encoder, and one join per list of floats."""
    scalar = _SCALARS.get(type(value))
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if scalar is not None:
        out.append(scalar(value))
        return
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = indent + "  "
    sep = ",\n" + inner
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        lead = "{\n" + inner
        for key, v in value.items():
            scalar = _SCALARS.get(type(v))
            if scalar is not None and (type(v) is not float or math.isfinite(v)):
                out.append(lead + encode_basestring_ascii(key) + ": " + scalar(v))
            else:
                out.append(lead + encode_basestring_ascii(key) + ": ")
                _write(v, inner, out)
            lead = sep
        out.append("\n" + indent + "}")
    elif all(type(v) is float for v in value):
        text = sep.join(map(float.__repr__, value))
        if "n" in text:  # only inf and nan write a letter n
            _write(next(v for v in value if not math.isfinite(v)), inner, out)
        out.append("[\n" + inner + text + "\n" + indent + "]")
    else:
        lead = "[\n" + inner
        for v in value:
            out.append(lead)
            _write(v, inner, out)
            lead = sep
        out.append("\n" + indent + "]")


def render_json(data: dict) -> str:
    out = []
    _write(data, "", out)
    return "".join(out) + "\n"


def _cell(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def render_csv(reports: Sequence[ScenarioReport]) -> str:
    import csv  # here, not at the top: only --format csv pays for its import
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["scenario", "probe", "x", "y", "target", "passed", "final_gap", "last_term"])
    for report in reports:
        name = report.scenario["name"]
        for index, r in enumerate(report.records):
            writer.writerow([name, index, *(_cell(v) for v in (r.x, r.y, r.target, r.passed, r.final_gap, r.terms[-1]))])
    return buffer.getvalue()
