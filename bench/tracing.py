"""Spans recorded from outside the package: wrap public functions, restore them after.

The package imports several functions by name (``from .tree import fit_tree``),
so replacing ``tree.fit_tree`` alone would miss the calls made through
``learners.fit_tree``. ``Tracer.patch_function`` therefore rebinds every attribute of
every loaded ``injurycast`` module that *is* the original function, and
``Tracer.restore`` puts each binding back.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc


class Tracer:
    """In-memory span recorder: name, start, end, parent id and attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []  # (owner, attribute, original value)
        self._largest = {}  # name -> (size, span, function, args, kwargs)

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn, name, attrs=None, alloc_size=None):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None or alloc_size is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                if attrs is not None:
                    span["attrs"].update(attrs(bound.arguments, result))
                if alloc_size is not None:
                    size = alloc_size(bound.arguments)
                    if size > tracer._largest.get(name, (-1,))[0]:
                        tracer._largest[name] = (size, span, fn, args, kwargs)
                return result

        return wrapper

    def measure_alloc(self) -> None:
        """Call the largest call of each alloc-measured function again under tracemalloc.

        tracemalloc charges every allocation, which doubled ADASYN's time when it
        ran inside the timed spans. The repeat runs after the timed part, on the
        same arguments (the functions are deterministic), and its peak is stored
        on the span of the call it repeats.
        """
        for size, span, fn, args, kwargs in self._largest.values():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                span["attrs"]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
        self._largest.clear()

    def patch_function(self, module, attr, name, attrs=None, alloc_size=None):
        """Wrap ``module.attr`` and every other injurycast binding of the same object.

        With ``alloc_size`` (bound arguments -> size), the call with the largest
        size is kept for ``measure_alloc``.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, attrs, alloc_size)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "injurycast" or mod_name.startswith("injurycast.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, attrs=None):
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, attrs)))
        else:
            setattr(cls, attr, self._wrap(raw, name, attrs))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points; the package itself is not modified."""
    # import_module: the package re-exports a function named ``metrics``
    (baselines, data_model, features, learners, metrics, pipeline, resampling, rules,
     simulate, tree) = (importlib.import_module("injurycast." + name) for name in (
         "baselines", "data_model", "features", "learners", "metrics", "pipeline",
         "resampling", "rules", "simulate", "tree"))

    tracer.patch_function(data_model, "parse_season", "data_model.parse_season")
    tracer.patch_function(data_model, "assign_labels", "data_model.assign_labels")
    tracer.patch_function(features, "build_training_table", "features.build_training_table",
                          attrs=lambda a, r: {"rows": len(r[0])})
    tracer.patch_method(features.TrainingTable, "to_csv", "features.table_csv")
    tracer.patch_method(features.TrainingTable, "from_csv", "features.table_csv")
    # ADASYN's largest temporaries are (minority rows x all rows x features)
    tracer.patch_function(resampling, "adasyn", "resampling.adasyn",
                          attrs=lambda a, r: {"synthetic_rows": len(r) - len(a["table"])},
                          alloc_size=lambda a: len(a["table"]) * int(a["table"].y.sum()))
    tracer.patch_function(tree, "fit_tree", "tree.fit_tree",
                          attrs=lambda a, r: {"nodes": r.n_nodes, "rows": len(a["table_or_X"])})
    tracer.patch_method(tree.DecisionTreeModel, "predict", "tree.predict",
                        attrs=lambda a, r: {"rows": len(r[0])})
    tracer.patch_method(learners.ForestModel, "predict", "learners.ForestModel.predict")
    tracer.patch_method(learners.LinearModel, "predict", "learners.LinearModel.predict")
    tracer.patch_function(learners, "rfecv", "learners.rfecv",
                          attrs=lambda a, r: {"sizes": len(r.score_trace)})
    tracer.patch_function(learners, "tune", "learners.tune",
                          attrs=lambda a, r: {"grid_points": len(
                              a["grid"] if a["grid"] is not None else learners.default_grid())})
    tracer.patch_function(learners, "fit_forest", "learners.fit_forest",
                          attrs=lambda a, r: {"trees": len(r.trees)})
    tracer.patch_function(learners, "fit_logit", "learners.fit_logit")
    tracer.patch_function(baselines, "mono_forecast", "baselines.mono_forecast")
    tracer.patch_function(baselines, "baseline_predict", "baselines.baseline_predict")
    tracer.patch_function(metrics, "auc", "metrics.auc")
    tracer.patch_function(pipeline, "run_pipeline", "pipeline.run_pipeline")
    tracer.patch_function(pipeline, "compare_forecasters", "pipeline.compare_forecasters")
    tracer.patch_function(simulate, "walk_forward", "simulate.walk_forward",
                          attrs=lambda a, r: {"weeks": len(r),
                                              "degenerate_weeks": sum(o.degenerate for o in r)})
    tracer.patch_function(rules, "extract_rules", "rules.extract_rules",
                          attrs=lambda a, r: {"rules": len(r)})
    tracer.patch_function(rules, "rule_stats", "rules.rule_stats")


# per-layer metrics that are not a plain per-span total
_SELF_TIME = ("tree.fit_tree", "learners.rfecv", "learners.tune", "pipeline.run_pipeline",
              "pipeline.compare_forecasters", "simulate.walk_forward")
_TOTAL_TIME = ("data_model.parse_season", "data_model.assign_labels",
               "features.build_training_table", "features.table_csv", "resampling.adasyn",
               "tree.predict", "learners.fit_forest", "learners.fit_logit",
               "baselines.mono_forecast", "baselines.baseline_predict", "metrics.auc",
               "rules.extract_rules", "rules.rule_stats", "cli.featurize", "cli.train",
               "cli.compare", "cli.rules", "cli.simulate")
_CALLS = ("features.build_training_table", "resampling.adasyn", "tree.fit_tree",
          "learners.rfecv")
_ATTR_SUMS = (("features.build_training_table", "rows", "features.rows_built"),
              ("resampling.adasyn", "synthetic_rows", "resampling.adasyn.synthetic_rows"),
              ("tree.fit_tree", "nodes", "tree.fit_tree.nodes"),
              ("tree.fit_tree", "rows", "tree.fit_tree.rows"),
              ("tree.predict", "rows", "tree.predict.rows"),
              ("learners.rfecv", "sizes", "learners.rfecv.sizes"),
              ("learners.tune", "grid_points", "learners.tune.grid_points"),
              ("learners.fit_forest", "trees", "learners.fit_forest.trees"),
              ("simulate.walk_forward", "weeks", "simulate.walk_forward.weeks"),
              ("simulate.walk_forward", "degenerate_weeks",
               "simulate.walk_forward.degenerate_weeks"),
              ("rules.extract_rules", "rules", "rules.rules"))
# fits whose model is scored by the search itself rather than handed to a caller
_SEARCHES = ("learners.rfecv", "learners.tune")


def layer_metrics(spans: list) -> dict:
    """Reduce one run's spans to the per-layer metrics (every name always present)."""
    by_name = {}
    child_time = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    names = {s["id"]: s["name"] for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    out = {}
    for name in _TOTAL_TIME:
        out[name + ".s"] = sum(dur(s) for s in by_name.get(name, []))
    for name in _SELF_TIME:
        out[name + ".self_s"] = sum(dur(s) - child_time.get(s["id"], 0.0)
                                    for s in by_name.get(name, []))
    for name in _CALLS:
        out[name + ".calls"] = len(by_name.get(name, []))
    for name, attr, metric in _ATTR_SUMS:
        out[metric] = sum(s["attrs"].get(attr, 0) for s in by_name.get(name, []))
    out["resampling.adasyn.peak_alloc_mb"] = max(
        [s["attrs"].get("peak_alloc_mb", 0.0) for s in by_name.get("resampling.adasyn", [])],
        default=0.0)
    builds = [s["attrs"].get("rows", 0) for s in by_name.get("features.build_training_table", [])]
    out["features.rows_built_per_row"] = (sum(builds) / max(builds)) if builds and max(builds) else 0.0
    fits = by_name.get("tree.fit_tree", [])
    handed_out = sum(1 for s in fits if names.get(s["parent"]) not in _SEARCHES)
    out["learners.fits_per_model"] = len(fits) / handed_out if handed_out else 0.0
    for name in ("learners.fit_logit", "metrics.auc"):
        out[name + ".failed"] = sum(1 for s in by_name.get(name, []) if "error" in s["attrs"])
    out["pipeline.fallbacks"] = sum(
        1 for name in ("learners.fit_logit", "metrics.auc") for s in by_name.get(name, [])
        if "error" in s["attrs"] and names.get(s["parent"]) == "pipeline.compare_forecasters")
    return out
