"""Cross-workload DSE throughput: batched campaign vs sequential legacy loops.

PR 1 batched the simulation substrate and PR 2 the meta-training inner
loop; this module pins the same claim for the exploration layer.  One
**campaign round** covers the paper's downstream workflow end to end: adapt
an IPC and a power predictor to every target workload, screen a candidate
pool per workload, and simulate each workload's acquisition picks.

The **legacy arm** is the sequential pre-engine path, kept in-repo as the
executable specification (the same pattern as ``Simulator.run_scalar`` and
``meta_step_scalar``): per workload, ``adapt_predictor`` fine-tunes each
metric's predictor separately, and
``repro.dse.reference.predictor_guided_reference`` samples and encodes its
own candidate pool, calls each objective's surrogate separately and
measures its selection with its own ``run_batch``.

The **campaign arm** is the engine path ``MetaDSE.explore`` drives:
``adapt_predictor_batch`` fine-tunes all targets in one stacked graph per
metric, ``CampaignEngine.run_campaign`` screens one shared pool (sampled,
validated and encoded once) with a ``StackedPredictorSurrogate`` answering
both objectives in one batched forward per workload, acquisition runs the
engine's O(n log n) exact Pareto path, and the union of all selections is
measured by a single ``run_sweep`` against an ``evaluation_cache``-enabled
simulator.

Both arms adapt from identical initial parameters on identical supports, so
the surrogates agree and the comparison is pure orchestration cost.  The
campaign must be >= 2x faster, and — since each workload inherits the whole
measured union — its fronts must hold at least a healthy fraction of the
legacy hypervolume per workload.  The measured ratio is recorded in
``benchmarks/results/dse_campaign_speedup.json`` (``make bench-dse``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.helpers import interleaved_best_of

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.designspace.spec import build_table1_space
from repro.dse.engine import CampaignEngine, ObjectiveSet
from repro.dse.pareto import to_minimization
from repro.dse.quality import hypervolume_ratio
from repro.dse.reference import predictor_guided_reference
from repro.dse.surrogates import StackedPredictorSurrogate
from repro.meta.adaptation import (
    AdaptationConfig,
    adapt_predictor,
    adapt_predictor_batch,
)
from repro.nn.transformer import TransformerPredictor
from repro.sim.simulator import Simulator

#: Campaign targets (the cross-workload regime the engine batches over).
WORKLOADS = (
    "605.mcf_s", "625.x264_s", "602.gcc_s", "620.omnetpp_s",
    "641.leela_s", "648.exchange2_s", "638.imagick_s", "623.xalancbmk_s",
)

#: Candidate-pool size screened per workload and simulations per workload.
CANDIDATE_POOL = 1600
BUDGET = 12

#: Support samples per workload used for the few-shot adaptation phase.
SUPPORT_SIZE = 10

#: Adaptation hyper-parameters (Algorithm 2 defaults, fewer steps).
ADAPTATION = AdaptationConfig(steps=10, lr=0.01)

#: Surrogate capacity: a small transformer, as in the unit-test experiments.
PREDICTOR = dict(embed_dim=16, num_heads=2, num_layers=1, head_hidden=16)

#: Minimum acceptable campaign speed-up over the sequential legacy round.
MIN_SPEEDUP = 2.0

#: Cores needed before the >= 2x band is reliably observable.  The claim is
#: a *batching* speed-up, but on a 1-core box the interleaved timing arms
#: contend with each other and the host for the single core, and the
#: measured ratio is noise-dominated (the band failed spuriously there, see
#: CHANGES PR 7) — the same guard bench-runtime and bench-kernels use.
MIN_CORES = 4

CORES = os.cpu_count() or 1

#: Campaign fronts must retain at least this fraction of the legacy
#: hypervolume (they share the measured union, so they are usually better).
MIN_HV_FRACTION = 0.7

MAXIMIZE = [True, False]  # ipc up, power down

METRICS = ("ipc", "power")


def _support_labels(space):
    """Shared support set: features plus per-(metric, workload) labels.

    Meta-training is irrelevant to orchestration throughput; seeded base
    predictors fine-tuned on these labels give both arms identical
    (deterministic) surrogates at a fraction of the cost.
    """
    label_simulator = Simulator(simpoint_phases=1, seed=3)
    encoder = OrdinalEncoder(space)
    configs = RandomSampler(space, seed=21).sample(SUPPORT_SIZE)
    features = encoder.encode_batch(configs)
    sweep = label_simulator.run_sweep(configs, list(WORKLOADS))
    labels = {
        metric: {workload: sweep[workload].objective(metric) for workload in WORKLOADS}
        for metric in METRICS
    }
    return features, labels


def _front_hypervolume_vs(reference_rows, rows):
    """Hypervolume of *rows*' front relative to *reference_rows*' front."""
    return hypervolume_ratio(
        to_minimization(rows, MAXIMIZE), to_minimization(reference_rows, MAXIMIZE)
    )


@pytest.mark.multicore
@pytest.mark.skipif(
    CORES < MIN_CORES,
    reason=f"campaign speed-up band needs >= {MIN_CORES} cores, have {CORES}",
)
def test_campaign_vs_sequential_legacy_speedup(record):
    """The batched cross-workload campaign must beat the legacy round >= 2x."""
    space = build_table1_space()
    features, labels = _support_labels(space)
    base = {
        metric: TransformerPredictor(space.num_parameters, seed=seed, **PREDICTOR)
        for metric, seed in zip(METRICS, (0, 1))
    }

    # Each arm owns an identically seeded simulator (phase tables warm up
    # during the first untimed round).  The campaign arm runs the engine's
    # production configuration: shared evaluation cache enabled.
    legacy_simulator = Simulator(simpoint_phases=1, seed=7)
    campaign_simulator = Simulator(simpoint_phases=1, seed=7, evaluation_cache=True)

    # One sampler stream per workload, advancing across repetitions like
    # the campaign engine's.
    legacy_streams = {workload: np.random.default_rng(5) for workload in WORKLOADS}

    def run_legacy():
        results = {}
        for workload in WORKLOADS:
            predictors = {}
            for metric in METRICS:
                adapted = adapt_predictor(
                    base[metric], features, labels[metric][workload],
                    config=ADAPTATION,
                )
                predictors[metric] = adapted.predictor.predict
            results[workload] = predictor_guided_reference(
                space,
                legacy_simulator,
                workload,
                predictors,
                candidate_pool=CANDIDATE_POOL,
                simulation_budget=BUDGET,
                seed=legacy_streams[workload],
            )
        return results

    engine = CampaignEngine(
        space,
        campaign_simulator,
        ObjectiveSet.from_names(METRICS),
        seed=5,
    )

    def run_campaign():
        adapted = {
            metric: adapt_predictor_batch(
                base[metric],
                [(features, labels[metric][workload]) for workload in WORKLOADS],
                config=ADAPTATION,
            )
            for metric in METRICS
        }
        surrogates = {
            workload: StackedPredictorSurrogate(
                [adapted[metric][index].predictor for metric in METRICS],
                METRICS,
            )
            for index, workload in enumerate(WORKLOADS)
        }
        assert all(surrogate.is_stacked for surrogate in surrogates.values())
        return engine.run_campaign(
            WORKLOADS,
            surrogates,
            candidate_pool=CANDIDATE_POOL,
            simulation_budget=BUDGET,
        )

    # Warm both arms (first-touch allocations, SimPoint/phase-table caches).
    run_legacy()
    run_campaign()

    (legacy_seconds, legacy_results), (campaign_seconds, campaign_results) = (
        interleaved_best_of(3, run_legacy, run_campaign)
    )
    speedup = legacy_seconds / campaign_seconds

    # Quality parity: identical adapted surrogates screen pools of the same
    # size, and every campaign workload additionally inherits the whole
    # measured union, so its front must hold a healthy fraction of the
    # legacy hypervolume per workload.
    hv_fractions = {}
    for workload in WORKLOADS:
        legacy_rows = legacy_results[workload].measured_objectives
        campaign_rows = campaign_results[workload].measured_objectives
        hv_fractions[workload] = _front_hypervolume_vs(legacy_rows, campaign_rows)
        assert hv_fractions[workload] >= MIN_HV_FRACTION, workload

    record(
        "dse_campaign_speedup",
        {
            "workloads": list(WORKLOADS),
            "candidate_pool": CANDIDATE_POOL,
            "simulation_budget": BUDGET,
            "support_size": SUPPORT_SIZE,
            "adaptation_steps": ADAPTATION.steps,
            "predictor": PREDICTOR,
            "round": "adapt + screen + measure for all workloads (legacy: "
                     "per-workload adapt_predictor, per-workload pools, "
                     "per-objective forwards, per-workload run_batch; "
                     "campaign: adapt_predictor_batch, shared pool, stacked "
                     "forwards, fast Pareto acquisition, one run_sweep)",
            "legacy_seconds": legacy_seconds,
            "campaign_seconds": campaign_seconds,
            "speedup": speedup,
            "campaign_vs_legacy_hypervolume": hv_fractions,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched campaign is only {speedup:.2f}x faster than the sequential "
        f"legacy round ({campaign_seconds * 1e3:.0f} ms vs "
        f"{legacy_seconds * 1e3:.0f} ms)"
    )
