"""Span tracing for the traced benchmark pass.

`install` wraps equiblend's public entry points where the CLI and the
harness look them up, so the library itself is unchanged.  A pass makes
about a million spans, so they are aggregated in memory as they close: per
span name the call count, the inclusive time and the time covered by child
spans.  Self time is inclusive minus children.
"""

from __future__ import annotations

import dataclasses
import time


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, children_s]
        self.counts = {}  # name -> count
        self.samples = {}  # name -> [inclusive_s, ...] for spans that keep them
        self._open = []  # [name, children_s] per open span, innermost last

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def innermost(self):
        return self._open[-1][0] if self._open else None

    def wrap(self, name: str, fn, keep_samples: bool = False):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if keep_samples else None
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return traced

    def summary(self) -> dict:
        out = {"spans": {}, "counts": dict(self.counts), "samples": {}}
        for name, (calls, inclusive, children) in self.spans.items():
            out["spans"][name] = {"calls": calls, "self_s": inclusive - children, "inclusive_s": inclusive}
        for name, values in self.samples.items():
            values = sorted(values)
            if values:
                out["samples"][name] = {
                    "count": len(values),
                    "p50_s": _quantile(values, 0.50),
                    "p99_s": _quantile(values, 0.99),
                }
        return out


def _quantile(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def install(tracer: Tracer) -> None:
    """Wrap the library's layer entry points with spans and counters."""
    from equiblend import cli, gallery, harness, operators, partitions

    wrap = tracer.wrap

    # harness, as the CLI looks it up
    cli.load_scenario_file = wrap("harness.parse", cli.load_scenario_file)
    cli.run_scenario = wrap("harness.run", cli.run_scenario)
    cli.suite_data = wrap("harness.render", cli.suite_data)
    render_json = cli.render_json

    def counted_render(data):
        text = render_json(data)
        tracer.count("harness.report_bytes", len(text.encode("utf-8")))
        return text

    cli.render_json = wrap("harness.render", counted_render)

    # partitions: level builds go through the scheme constructor's builder
    scheme_init = partitions.AnchoredScheme.__init__

    def traced_init(self, n_max, space_kind, dense_set_tag, level_builder, describe):
        built = wrap("partitions.level_build", level_builder)

        def build_level(n):
            level = built(n)
            tracer.count("partitions.levels_built")
            tracer.count("partitions.keys_built", len(level[0].index_keys))
            return level

        scheme_init(self, n_max, space_kind, dense_set_tag, build_level, describe)

    partitions.AnchoredScheme.__init__ = traced_init

    dyadic_dense = partitions.dyadic_dense

    def counted_dense():
        dense = dyadic_dense()
        pick = dense.pick

        def counted_pick(region):
            tracer.count("partitions.anchor_picks")
            return pick(region)

        return dataclasses.replace(dense, pick=counted_pick)

    partitions.dyadic_dense = counted_dense

    contains = partitions.SupportBox.contains

    def counted_contains(box, x):
        hit = contains(box, x)
        if hit:
            tracer.count("partitions.contains.hits")
        return hit

    partitions.SupportBox.contains = wrap("partitions.contains", counted_contains)
    partitions.CoverCellPartition.cell_of = wrap("partitions.cell_of", partitions.CoverCellPartition.cell_of)
    operators.disjointify = wrap("partitions.disjointify", operators.disjointify)

    # connectors: the fold, and the connector calls inside it
    operators.lambda_sum = wrap("connectors.fold", operators.lambda_sum)

    def counted_space(make):
        def build(*args, **kwargs):
            space = make(*args, **kwargs)
            connect = space.connect

            def counted_connect(x, y, t):
                tracer.count("connectors.connect.calls")
                return connect(x, y, t)

            return dataclasses.replace(space, connect=counted_connect)

        return build

    for name in ("affine_line", "affine_space", "warped_line"):
        setattr(harness, name, counted_space(getattr(harness, name)))

    # operators: level terms, targets and the tail check
    def traced_term(term):
        return wrap("operators.term", term, keep_samples=True)

    lambda_blend = harness.lambda_blend
    harness.lambda_blend = lambda *args: traced_term(lambda_blend(*args))
    piecewise_anchor = harness.piecewise_anchor
    harness.piecewise_anchor = lambda *args: traced_term(piecewise_anchor(*args))
    harness.tail_check = wrap("operators.tail_check", harness.tail_check)

    def targeted(fn):
        # the runner evaluates each probe's target directly; section values
        # inside a term are not targets
        as_target = wrap("operators.target", fn)
        return lambda *args: as_target(*args) if tracer.innermost() == "harness.run" else fn(*args)

    # gallery: the bump class, and the towers of gallery-made functions
    gallery.CollapsingBump.__call__ = wrap("gallery.eval", gallery.CollapsingBump.__call__)

    def traced_tower(tower, top):
        limit = wrap("gallery.eval", tower.limit_eval)
        stages = tower.tower
        return operators.BaireTower(
            depth=tower.depth,
            limit_eval=targeted(limit) if top else limit,
            tower=None if stages is None else (lambda n: traced_tower(stages(n), False)),
        )

    class TracedInstance:
        def __init__(self, inner):
            self._inner = inner

        def term(self, n):
            return traced_term(self._inner.term(n))

        def target(self):
            return wrap("operators.target", self._inner.target())

    def traced_regularity(regularity):
        def tower_at(x):
            tower = regularity(x)
            return None if tower is None else traced_tower(tower, True)

        return tower_at

    def traced_make(make):
        from_gallery = make.__module__ == gallery.__name__

        def build():
            made = make()
            if not isinstance(made, operators.SectionedFunction):
                return TracedInstance(made)
            evaluate, regularity = made.eval, made.anchor_regularity
            if from_gallery:
                evaluate = wrap("gallery.eval", evaluate)
                regularity = regularity and traced_regularity(regularity)
            return dataclasses.replace(made, eval=targeted(evaluate), anchor_regularity=regularity)

        return build

    for name, spec in list(harness.REGISTRY.items()):
        harness.REGISTRY[name] = dataclasses.replace(spec, make=traced_make(spec.make))


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values from one traced pass's summary."""
    spans, counts = summary["spans"], summary["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    terms = summary["samples"].get("operators.term", {"count": 0, "p50_s": 0.0, "p99_s": 0.0})
    contains_calls = calls("partitions.contains")
    return {
        "harness.parse_s": self_s("harness.parse"),
        "harness.run_s": self_s("harness.run"),
        "harness.render_s": self_s("harness.render"),
        "harness.report_bytes": counts.get("harness.report_bytes", 0),
        "partitions.level_build_s": self_s("partitions.level_build"),
        "partitions.levels_built": counts.get("partitions.levels_built", 0),
        "partitions.keys_built": counts.get("partitions.keys_built", 0),
        "partitions.anchor_picks": counts.get("partitions.anchor_picks", 0),
        "partitions.contains_s": self_s("partitions.contains"),
        "partitions.contains.calls": contains_calls,
        "partitions.contains.hit_ratio": counts.get("partitions.contains.hits", 0) / contains_calls if contains_calls else 0.0,
        "partitions.disjointify_s": self_s("partitions.disjointify"),
        "partitions.cell_of_s": self_s("partitions.cell_of"),
        "partitions.cell_of.calls": calls("partitions.cell_of"),
        "connectors.fold_s": self_s("connectors.fold"),
        "connectors.fold.calls": calls("connectors.fold"),
        "connectors.connect.calls": counts.get("connectors.connect.calls", 0),
        "operators.term_s": self_s("operators.term"),
        "operators.term.calls": calls("operators.term"),
        "operators.term_p50_us": terms["p50_s"] * 1e6,
        "operators.term_p99_us": terms["p99_s"] * 1e6,
        "operators.tail_check_s": self_s("operators.tail_check"),
        "operators.target_s": self_s("operators.target"),
        "gallery.eval_s": self_s("gallery.eval"),
        "gallery.eval.calls": calls("gallery.eval"),
    }
