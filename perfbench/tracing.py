"""Layer spans for latindex, recorded from outside the package.

The tracer swaps module globals of ``latindex.*`` for timing wrappers, so
every call that resolves a function through a module namespace (the CLI's
imported names, ``bootstrap_fits`` -> ``_bootstrap_one`` -> ``fit_lqmm``,
``fit_lqmm`` -> ``minimize``) opens a span. Spans stay in memory; the
caller writes them out once the run is over. Nothing inside ``src/``
changes: a span here is the wall time of one call as its caller sees it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types

LAYERS = ("cli", "features", "serialize", "latent_trait", "sae_ebp", "quantile_mixed", "simulate")

# Called once per number written; a span per call would cost more than
# the formatting it measures.
SKIPPED = frozenset({"fmt17", "fmt3"})
# Private helpers whose spans the per-layer metrics need.
PRIVATE = frozenset({"_bootstrap_one", "_resample_groups"})


def _minimize_fields(args, kwargs, res):
    return {"nfev": int(res.nfev)}


def _bootstrap_fields(args, kwargs, boot):
    return {"dropped": int(boot.n_dropped)}


def _em_fields(args, kwargs, fit):
    return {"iterations": int(fit.n_iterations)}


def _ebp_fields(args, kwargs, result):
    frame = args[1] if len(args) > 1 else kwargs["frame"]
    return {
        "replicate_domains": int(result.B) * len(set(frame.domain)),
        "mc_sd_max": float(result.mc_sd.max()) if result.mc_sd.size else 0.0,
    }


def _read_fields(args, kwargs, result):
    return {"rows": len(result[1])}


def _write_fields(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows)}


FIELDS = {
    "quantile_mixed.minimize": _minimize_fields,
    "quantile_mixed.bootstrap_fits": _bootstrap_fields,
    "latent_trait.em_fit": _em_fields,
    "sae_ebp.ebp_indicator": _ebp_fields,
    "serialize.read_delimited": _read_fields,
    "serialize.write_delimited": _write_fields,
}


class Tracer:
    """In-memory span list: [name, start, end, parent index, fields]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        fields = FIELDS.get(name)
        if fields is not None:
            record[4] = fields(args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every latindex module namespace."""
        import latindex.cli as cli
        import latindex.quantile_mixed as qm

        modules = [m for n, m in sys.modules.items() if n == "latindex" or n.startswith("latindex.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS or layer == "cli" or value.__name__ in SKIPPED:
                    continue
                if value.__name__.startswith("_") and value.__name__ not in PRIVATE:
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self.wrap(f"{layer}.{value.__name__}", value)
                setattr(module, attr, wrappers[key])
        qm.minimize = self.wrap("quantile_mixed.minimize", qm.minimize)
        for stage, command in list(cli.COMMANDS.items()):
            cli.COMMANDS[stage] = self.wrap(f"cli.{stage}", command)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, fields in self.spans:
                doc = {"name": name, "start": start, "end": end, "parent": parent}
                if fields:
                    doc["fields"] = fields
                fh.write(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the span list
# ---------------------------------------------------------------------------


def _median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def _tail(values):
    """Highest percentile (whole percent) with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return 0.0
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return values[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def covered(self, i: int, pred) -> float:
        """Time inside span i covered by its outermost descendants matching pred."""
        total = 0.0
        for c in self.children[i]:
            total += self.dur(c) if pred(self.spans[c][0]) else self.covered(c, pred)
        return total

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.named(name))

    def field_sum(self, name: str, key: str) -> float:
        return sum(self.spans[i][4][key] for i in self.named(name) if self.spans[i][4])


def layer_metrics(spans, passes: int, lqmm_ops: list[int] | None = None) -> dict[str, float]:
    """Per-layer numbers for one traced run.

    Times and counts are totals per pass (one pipeline pass or one
    replicate), so runs of different length compare. Per-call medians
    (``*_ms``, ``us_per_*``) are not divided. lqmm_ops lists the spans of
    the operations that drive the LQMM layer (the fit-lqmm stage or a
    coverage replicate), for the coverage share.
    """
    ix = SpanIndex(spans)
    per = 1.0 / max(passes, 1)
    out: dict[str, float] = {}

    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[0].startswith(layer + ".")]
        out[f"{layer}.calls"] = len(mine) * per
        out[f"{layer}.self_s"] = sum(ix.self_time(i) for i in mine) * per

    # quantile_mixed
    fits = ix.named("quantile_mixed.fit_lqmm")
    in_boot = {i for i in fits if ix.has_ancestor(i, "quantile_mixed.bootstrap_fits")}
    refits = [i for i in fits if i in in_boot]
    base = [i for i in fits if i not in in_boot]
    boots = ix.named("quantile_mixed.bootstrap_fits")
    is_fit = lambda name: name == "quantile_mixed.fit_lqmm"  # noqa: E731
    is_opt = lambda name: name == "quantile_mixed.minimize"  # noqa: E731
    nfev = ix.field_sum("quantile_mixed.minimize", "nfev")
    opt_s = ix.total("quantile_mixed.minimize")
    out["quantile_mixed.base_fit_s"] = sum(ix.dur(i) for i in base) * per
    out["quantile_mixed.base_fits"] = len(base) * per
    out["quantile_mixed.bootstrap_s"] = sum(ix.dur(i) for i in boots) * per
    out["quantile_mixed.bootstrap_self_s"] = sum(ix.dur(i) - ix.covered(i, is_fit) for i in boots) * per
    out["quantile_mixed.refits"] = len(refits) * per
    out["quantile_mixed.refits_dropped"] = ix.field_sum("quantile_mixed.bootstrap_fits", "dropped") * per
    out["quantile_mixed.refit_ms"] = 1e3 * _median([ix.dur(i) for i in refits])
    out["quantile_mixed.refit_tail_ms"] = 1e3 * _tail([ix.dur(i) for i in refits])
    out["quantile_mixed.refit_self_ms"] = 1e3 * _median([ix.dur(i) - ix.covered(i, is_opt) for i in refits])
    out["quantile_mixed.nfev"] = nfev * per
    out["quantile_mixed.us_per_eval"] = 1e6 * opt_s / nfev if nfev else 0.0
    out["quantile_mixed.predict_s"] = (
        ix.total("quantile_mixed.predict_marginal") + ix.total("quantile_mixed.predict_conditional")
    ) * per
    ops = lqmm_ops or []
    op_s = sum(ix.dur(i) for i in ops)
    in_qm = lambda name: name.startswith("quantile_mixed.")  # noqa: E731
    out["quantile_mixed.op_coverage"] = sum(ix.covered(i, in_qm) for i in ops) / op_s if op_s else 0.0

    # sae_ebp
    rd = ix.field_sum("sae_ebp.ebp_indicator", "replicate_domains")
    ebp_s = ix.total("sae_ebp.ebp_indicator")
    mc = [spans[i][4]["mc_sd_max"] for i in ix.named("sae_ebp.ebp_indicator") if spans[i][4]]
    out["sae_ebp.fit_nested_error_s"] = ix.total("sae_ebp.fit_nested_error") * per
    out["sae_ebp.ebp_indicator_s"] = ebp_s * per
    out["sae_ebp.replicate_domains"] = rd * per
    out["sae_ebp.us_per_replicate_domain"] = 1e6 * ebp_s / rd if rd else 0.0
    out["sae_ebp.mc_sd_max"] = max(mc) if mc else 0.0

    # latent_trait
    iters = ix.field_sum("latent_trait.em_fit", "iterations")
    em_s = ix.total("latent_trait.em_fit")
    out["latent_trait.em_fit_s"] = em_s * per
    out["latent_trait.em_iterations"] = iters * per
    out["latent_trait.em_iter_ms"] = 1e3 * em_s / iters if iters else 0.0
    out["latent_trait.eap_scores_s"] = ix.total("latent_trait.eap_scores") * per

    # features
    out["features.load_survey_s"] = ix.total("features.load_survey") * per
    out["features.load_survey_calls"] = len(ix.named("features.load_survey")) * per
    out["features.build_item_matrix_s"] = ix.total("features.build_item_matrix") * per
    out["features.province_summary_s"] = ix.total("features.province_summary") * per

    # serialize
    out["serialize.read_delimited_s"] = ix.total("serialize.read_delimited") * per
    out["serialize.write_delimited_s"] = ix.total("serialize.write_delimited") * per
    out["serialize.rows"] = (
        ix.field_sum("serialize.read_delimited", "rows") + ix.field_sum("serialize.write_delimited", "rows")
    ) * per
    out["serialize.to_json_text_s"] = ix.total("serialize.to_json_text") * per

    # simulate
    out["simulate.generate_fixture_s"] = ix.total("simulate.generate_fixture") * per

    out["trace.spans"] = len(spans) * per
    return out
