"""Outside-in per-layer ledger for the traced benchmark repetition.

The traced repetition wraps each layer's public entry points *where their
callers look them up* in spans recorded in memory (name, start, end and
parent link), runs the timed section under ``repro.obs.tracing`` and
merges the spans ``repro.obs`` already emits (simulator, campaign runtime,
DAG jobs, facade adaptation) into one tree by interval containment.  The
timed section runs serially in one thread, so spans nest properly and
containment reproduces every parent link.

A span's self time is its duration minus the time its child spans cover.
Each layer's self time plus the ``unattributed`` remainder (the root span's
own self time) sums to the traced wall time exactly.

Nothing here touches the program's RNG streams or data: the wrappers only
read the wall clock and append to lists, so a traced repetition computes
the same results bit for bit (the benchmark checks that via its digest).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: Name of the span around the whole timed section.
ROOT = "wall"

#: Layers that receive self time, in report order.
LAYERS = ("core", "datasets", "meta", "nn", "dse", "sim", "store", "runtime")

#: ``repro.obs`` span prefixes that belong to another layer's name.
_PREFIX_LAYER = {"campaign": "runtime", "dag": "runtime", "explore": "core"}

#: Campaign phase spans; the runtime's overhead is its campaign span minus them.
_PHASES = frozenset(
    {
        "campaign.initial",
        "campaign.refit",
        "campaign.propose",
        "campaign.screen",
        "campaign.select",
        "campaign.measure",
        "dse.propose",
        "dse.screen",
        "dse.select",
    }
)

#: Every per-layer metric the traced repetition reports, with its unit.
METRIC_UNITS = {
    "traced.wall_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "self.unattributed_s": "s",
    "core.pretrain_s": "s",
    "core.explore_s": "s",
    "datasets.generate_s": "s",
    "datasets.episodes": "count",
    "meta.step_s": "s",
    "meta.steps": "count",
    "meta.validate_s": "s",
    "meta.wam_s": "s",
    "meta.adapt_s": "s",
    "meta.importance_s": "s",
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "dse.propose_s": "s",
    "dse.nsga2_s": "s",
    "dse.nsga2_self_s": "s",
    "dse.screen_s": "s",
    "dse.select_s": "s",
    "dse.predict_s": "s",
    "dse.predict_calls": "count",
    "dse.predict_rows": "rows",
    "dse.predict_us_per_row": "us/row",
    "dse.unique_row_ratio": "ratio",
    "sim.busy_s": "s",
    "sim.fresh": "sims",
    "sim.cache_hit_ratio": "ratio",
    "runtime.jobs": "count",
    "runtime.queue_s": "s",
    "runtime.overhead_s": "s",
}


def layer_of(name: str) -> str:
    """The layer a span belongs to, from its dotted prefix."""
    prefix = name.split(".", 1)[0]
    return _PREFIX_LAYER.get(prefix, prefix)


class Recorder:
    """In-memory spans with parent links, plus per-surrogate row sets."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` in open order.
        self.spans: list[list] = []
        #: Predicted rows seen by each surrogate (keyed by ``id``).
        self.rows_seen: dict[int, set] = {}
        self.rows_predicted = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.time(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.time()

    def note_rows(self, surrogate, features) -> None:
        """Record which feature rows a surrogate was asked to predict."""
        import numpy as np

        rows = np.ascontiguousarray(features, dtype=np.float64)
        seen = self.rows_seen.setdefault(id(surrogate), set())
        seen.update(row.tobytes() for row in rows)
        self.rows_predicted += len(rows)


def _entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.core.metadse as metadse
    from repro.datasets import generation, tasks
    from repro.dse import acquisition, engine, nsga2, surrogates
    from repro.meta import maml, wam
    from repro.runtime import campaign

    # The package attribute ``repro.nn.tensor`` is the ``tensor()`` function,
    # so the module comes from ``sys.modules``.
    tensor_module = sys.modules["repro.nn.tensor"]
    points = [
        (metadse.MetaDSE, "pretrain", "core.pretrain"),
        (metadse.MetaDSE, "explore", "core.explore"),
        (generation, "generate_dataset", "datasets.generate"),
        (tasks.TaskSampler, "sample_task", "datasets.episode"),
        (maml.MAMLTrainer, "meta_step", "meta.step"),
        (maml.MAMLTrainer, "meta_validate", "meta.validate"),
        # The facade binds these two by name at import time.
        (metadse, "generate_wam", "meta.wam"),
        (metadse, "adapt_predictor_batch", "meta.adapt"),
        (wam, "importance_profile", "meta.importance"),
        (tensor_module.Tensor, "backward", "nn.backward"),
        (nsga2.NSGA2Explorer, "explore", "dse.nsga2"),
        # The runtime imports these two at call time, from their modules.
        (engine, "screen_predict", "dse.screen"),
        (campaign, "run_campaign_runtime", "runtime.campaign"),
        (surrogates.StackedPredictorSurrogate, "predict", "dse.predict"),
        (acquisition.ParetoRankAcquisition, "select", "dse.select"),
    ]
    for generator in (engine.RandomPool, engine.FocusedPool, engine.NSGA2Evolve):
        for attribute in ("propose", "propose_for"):
            if attribute in vars(generator):
                points.append((generator, attribute, "dse.propose"))
    return points


def _wrap(function, name: str, recorder: Recorder):
    if name == "dse.predict":

        @functools.wraps(function)
        def traced_predict(surrogate, features, *args, **kwargs):
            recorder.note_rows(surrogate, features)
            with recorder.span(name):
                return function(surrogate, features, *args, **kwargs)

        return traced_predict

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)

    return traced


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every entry point for the block's extent; restore on exit."""
    points = _entry_points()
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in points]
    try:
        for (owner, attribute, name), (_, _, original) in zip(points, originals):
            setattr(owner, attribute, _wrap(original, name, recorder))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# -- span arithmetic ------------------------------------------------------------


def self_times(spans: list[tuple[str, float, float]]) -> list[float]:
    """Self time of every span, nesting them by interval containment.

    Spans are ``(name, start, end)``.  Sorted by start (longest first on
    ties), each span's parent is the innermost earlier span still open at
    its start.  A child is clamped to its parent's interval, so children of
    one parent never overlap and the self times of a tree sum to its
    root's duration.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    bounds: dict[int, tuple[float, float]] = {}
    own = [0.0] * len(spans)
    stack: list[int] = []
    for index in order:
        _, start, end = spans[index]
        while stack and bounds[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            parent_start, parent_end = bounds[stack[-1]]
            start, end = max(start, parent_start), min(end, parent_end)
        end = max(end, start)
        bounds[index] = (start, end)
        own[index] += end - start
        if stack:
            own[stack[-1]] -= end - start
        stack.append(index)
    return own


def union_length(intervals) -> float:
    """Total time covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(recorder: Recorder, trace_records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced timed section.

    *trace_records* is the ``repro.obs`` trace of the same section
    (:func:`repro.obs.read_trace`).  Returns every metric in
    :data:`METRIC_UNITS`; the caller adds the host counters and the
    tracing overhead ratio.
    """
    spans = [(name, start, end) for name, start, end, _ in recorder.spans if end is not None]
    spans += [
        (record["name"], record["t_start"], record["t_end"])
        for record in trace_records
        if record.get("type") == "span"
    ]
    counters: dict[str, float] = {}
    for record in trace_records:
        if record.get("type") == "counters":
            counters = record.get("counters", {})
    roots = [span for span in spans if span[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    inside = [span for span in spans if span[1] >= root[1] and span[2] <= root[2]]
    own = self_times(inside)

    metrics = {"traced.wall_s": root[2] - root[1], "self.unattributed_s": 0.0}
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = 0.0
    for span, seconds in zip(inside, own):
        key = "self.unattributed_s" if span[0] == ROOT else f"self.{layer_of(span[0])}_s"
        metrics[key] = metrics.get(key, 0.0) + seconds

    def covered(predicate) -> float:
        return union_length((start, end) for name, start, end in inside if predicate(name))

    def calls(name: str) -> int:
        return sum(1 for span in inside if span[0] == name)

    for metric, name in (
        ("core.pretrain_s", "core.pretrain"),
        ("core.explore_s", "core.explore"),
        ("datasets.generate_s", "datasets.generate"),
        ("meta.step_s", "meta.step"),
        ("meta.validate_s", "meta.validate"),
        ("meta.wam_s", "meta.wam"),
        ("meta.adapt_s", "meta.adapt"),
        ("meta.importance_s", "meta.importance"),
        ("nn.backward_s", "nn.backward"),
        ("dse.propose_s", "dse.propose"),
        ("dse.nsga2_s", "dse.nsga2"),
        ("dse.screen_s", "dse.screen"),
        ("dse.select_s", "dse.select"),
        ("dse.predict_s", "dse.predict"),
    ):
        metrics[metric] = covered(lambda span_name, name=name: span_name == name)
    metrics["datasets.episodes"] = calls("datasets.episode")
    metrics["meta.steps"] = calls("meta.step")
    metrics["nn.backward_calls"] = calls("nn.backward")
    metrics["dse.nsga2_self_s"] = sum(
        seconds for span, seconds in zip(inside, own) if span[0] == "dse.nsga2"
    )
    metrics["dse.predict_calls"] = calls("dse.predict")
    rows = recorder.rows_predicted
    metrics["dse.predict_rows"] = rows
    metrics["dse.predict_us_per_row"] = 1e6 * metrics["dse.predict_s"] / rows if rows else 0.0
    distinct = sum(len(seen) for seen in recorder.rows_seen.values())
    metrics["dse.unique_row_ratio"] = distinct / rows if rows else 0.0

    metrics["sim.busy_s"] = covered(lambda name: layer_of(name) == "sim")
    metrics["sim.fresh"] = counters.get("sim.fresh", 0)
    configs = counters.get("sim.configs", 0)
    metrics["sim.cache_hit_ratio"] = counters.get("sim.cache_hits", 0) / configs if configs else 0.0
    metrics["runtime.jobs"] = counters.get("dag.jobs", 0) + counters.get("dag.inline_jobs", 0)
    metrics["runtime.queue_s"] = counters.get("dag.queue_s", 0.0)
    campaigns = [(start, end) for name, start, end in inside if name == "runtime.campaign"]
    phases = [
        (max(start, c_start), min(end, c_end))
        for name, start, end in inside
        if name in _PHASES
        for c_start, c_end in campaigns
        if start < c_end and end > c_start
    ]
    metrics["runtime.overhead_s"] = union_length(campaigns) - union_length(phases)
    return metrics
