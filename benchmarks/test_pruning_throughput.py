"""Attention-guided pruning throughput: focused pools vs the full pool.

Every previous throughput lever made the *per-candidate* cost cheaper
(batched simulation, stacked forwards, the threaded inference pass); this
benchmark pins the remaining multiplier — evaluating *fewer, better*
candidates (AttentionDSE, arXiv:2410.18368).  One **campaign round** is
the paper's downstream workflow after adaptation: screen a candidate pool
per workload with the adapted stacked surrogates, acquire, and measure the
union of all selections (both arms share identical adapted surrogates, so
the comparison isolates the acquisition layer).

The **full arm** screens a ``RandomPool`` over the whole Table I grid.
The **pruned arm** first distils the surrogates' attention into a pooled
parameter-importance profile (``StackedPredictorSurrogate
.attention_profile`` over a fixed probe pool — its cost is *included* in
the timed round) and then screens a ``FocusedPool`` half the size: the
top ``KEEP_FRACTION`` of parameters keep full resolution, the rest
collapse to a ``COARSE_LEVELS``-level grid ~8 orders of magnitude smaller
than the full Table I grid, so the smaller pool covers it far more
densely.

Each run rebuilds its engine from the same seed (the simulators persist,
so their phase tables and evaluation caches stay warm), which makes every
rep draw identical pools: the timing is wall clock but the quality
comparison is fully deterministic.  The pruned round must be >= 1.5x
faster at ADRS/hypervolume parity within 2 % relative on the
cross-workload mean (per-workload floors guard against any single
workload collapsing).  The measured numbers are recorded in
``benchmarks/results/pruning_speedup.json`` (``make bench-pruning``).
"""

from __future__ import annotations

import numpy as np

from benchmarks.helpers import interleaved_best_of

from repro.designspace.encoding import OrdinalEncoder
from repro.designspace.sampling import RandomSampler
from repro.designspace.spec import build_table1_space
from repro.dse.engine import CampaignEngine, FocusedPool, ObjectiveSet, RandomPool
from repro.dse.pareto import to_minimization
from repro.dse.quality import adrs, hypervolume_ratio
from repro.meta.adaptation import AdaptationConfig, adapt_predictor_batch
from repro.meta.wam import merge_profiles
from repro.nn.transformer import TransformerPredictor
from repro.dse.surrogates import StackedPredictorSurrogate
from repro.sim.simulator import Simulator

#: Campaign targets (same regime as ``test_dse_campaign_throughput``).
WORKLOADS = (
    "605.mcf_s", "625.x264_s", "602.gcc_s", "620.omnetpp_s",
    "641.leela_s", "648.exchange2_s", "638.imagick_s", "623.xalancbmk_s",
)

#: Full pool screened per workload, and the pruned pool's (half) size.
FULL_POOL = 1600
PRUNED_POOL = FULL_POOL // 2

#: Simulations per workload in each arm.
BUDGET = 12

#: Support samples per workload for the (shared, untimed) adaptation phase.
SUPPORT_SIZE = 10

#: Adaptation hyper-parameters (Algorithm 2 defaults, fewer steps).
ADAPTATION = AdaptationConfig(steps=10, lr=0.01)

#: Surrogate capacity: a small transformer, as in the unit-test experiments.
PREDICTOR = dict(embed_dim=16, num_heads=2, num_layers=1, head_hidden=16)

#: Pruning knobs: keep half the parameters at full resolution, coarse-grid
#: the rest to 5 levels, profile from a 64-configuration probe pool.
KEEP_FRACTION = 0.5
COARSE_LEVELS = 5
PROBE_SIZE = 64

#: Minimum acceptable pruned-round speed-up over the full-pool round.
MIN_SPEEDUP = 1.5

#: Quality parity: <= 2 % relative on the cross-workload mean of both
#: front metrics, with per-workload floors against a single collapse.
MIN_MEAN_HV_PARITY = 0.98
MAX_MEAN_ADRS = 0.02
MIN_WORKLOAD_HV_PARITY = 0.90
MAX_WORKLOAD_ADRS = 0.03

MAXIMIZE = [True, False]  # ipc up, power down

METRICS = ("ipc", "power")


def _adapted_surrogates(space):
    """Identical adapted stacked surrogates for both arms (untimed).

    Meta-training is irrelevant to acquisition throughput; seeded base
    predictors fine-tuned on a small labelled support give deterministic
    surrogates at a fraction of the cost, exactly like ``bench-dse``.
    """
    label_simulator = Simulator(simpoint_phases=1, seed=3)
    encoder = OrdinalEncoder(space)
    configs = RandomSampler(space, seed=21).sample(SUPPORT_SIZE)
    features = encoder.encode_batch(configs)
    sweep = label_simulator.run_sweep(configs, list(WORKLOADS))
    adapted = {
        metric: adapt_predictor_batch(
            TransformerPredictor(space.num_parameters, seed=seed, **PREDICTOR),
            [
                (features, sweep[workload].objective(metric))
                for workload in WORKLOADS
            ],
            config=ADAPTATION,
        )
        for metric, seed in zip(METRICS, (0, 1))
    }
    surrogates = {
        workload: StackedPredictorSurrogate(
            [adapted[metric][index].predictor for metric in METRICS],
            METRICS,
        )
        for index, workload in enumerate(WORKLOADS)
    }
    assert all(surrogate.is_stacked for surrogate in surrogates.values())
    return surrogates


def test_focused_pool_vs_full_pool_speedup(record):
    """The attention-pruned campaign round must beat the full round >= 1.5x."""
    space = build_table1_space()
    surrogates = _adapted_surrogates(space)
    objectives = ObjectiveSet.from_names(METRICS)

    # Each arm owns an identically seeded simulator whose phase tables and
    # evaluation cache persist across reps; the engine (and with it the
    # pool sampler's RNG stream) is rebuilt per run, so every rep draws the
    # same pools and the quality comparison is deterministic.
    full_simulator = Simulator(simpoint_phases=1, seed=7, evaluation_cache=True)
    pruned_simulator = Simulator(simpoint_phases=1, seed=7, evaluation_cache=True)

    # The probe pool the pruned arm profiles each round — fixed input data,
    # encoded once; the attention forwards themselves are timed.
    probe_features = OrdinalEncoder(space).encode_batch(
        RandomSampler(space, seed=13).sample(PROBE_SIZE)
    )

    def run_full():
        engine = CampaignEngine(space, full_simulator, objectives, seed=5)
        return engine.run_campaign(
            WORKLOADS,
            surrogates,
            generator=RandomPool(FULL_POOL),
            simulation_budget=BUDGET,
        )

    def run_pruned():
        # Harvest + merge the per-workload importance profiles inside the
        # timed round: the profile is part of the pruned arm's real cost.
        engine = CampaignEngine(space, pruned_simulator, objectives, seed=5)
        profile = merge_profiles(
            [
                surrogates[workload].attention_profile(probe_features)
                for workload in WORKLOADS
            ]
        )
        generator = FocusedPool(
            PRUNED_POOL,
            keep_fraction=KEEP_FRACTION,
            coarse_levels=COARSE_LEVELS,
            profile=profile,
        )
        return engine.run_campaign(
            WORKLOADS,
            surrogates,
            generator=generator,
            simulation_budget=BUDGET,
        )

    # Warm both arms (first-touch allocations, phase tables, caches).
    run_full()
    run_pruned()

    (full_seconds, full_results), (pruned_seconds, pruned_results) = (
        interleaved_best_of(3, run_full, run_pruned)
    )
    speedup = full_seconds / pruned_seconds

    # Quality parity: per-workload fronts within the collapse floors, the
    # cross-workload mean within the 2 % bands.
    hv_parity = {}
    adrs_vs_full = {}
    for workload in WORKLOADS:
        full_min = to_minimization(
            full_results.per_workload[workload].measured_objectives, MAXIMIZE
        )
        pruned_min = to_minimization(
            pruned_results.per_workload[workload].measured_objectives, MAXIMIZE
        )
        hv_parity[workload] = hypervolume_ratio(pruned_min, full_min)
        adrs_vs_full[workload] = adrs(pruned_min, full_min)
        assert hv_parity[workload] >= MIN_WORKLOAD_HV_PARITY, (
            f"{workload}: pruned hypervolume parity "
            f"{hv_parity[workload]:.4f} < {MIN_WORKLOAD_HV_PARITY}"
        )
        assert adrs_vs_full[workload] <= MAX_WORKLOAD_ADRS, (
            f"{workload}: pruned ADRS {adrs_vs_full[workload]:.4f} "
            f"> {MAX_WORKLOAD_ADRS}"
        )
    mean_hv = float(np.mean(list(hv_parity.values())))
    mean_adrs = float(np.mean(list(adrs_vs_full.values())))
    assert mean_hv >= MIN_MEAN_HV_PARITY, (
        f"mean pruned hypervolume parity {mean_hv:.4f} < {MIN_MEAN_HV_PARITY}"
    )
    assert mean_adrs <= MAX_MEAN_ADRS, (
        f"mean pruned ADRS {mean_adrs:.4f} > {MAX_MEAN_ADRS}"
    )

    record(
        "pruning_speedup",
        {
            "workloads": list(WORKLOADS),
            "full_pool": FULL_POOL,
            "pruned_pool": PRUNED_POOL,
            "keep_fraction": KEEP_FRACTION,
            "coarse_levels": COARSE_LEVELS,
            "probe_size": PROBE_SIZE,
            "simulation_budget": BUDGET,
            "support_size": SUPPORT_SIZE,
            "adaptation_steps": ADAPTATION.steps,
            "predictor": PREDICTOR,
            "round": "profile (pruned arm only) + screen + acquire + "
                     "measure for all workloads with shared adapted stacked "
                     "surrogates; full arm screens a RandomPool(1600), "
                     "pruned arm a FocusedPool(800) over the importance-"
                     "focused grid",
            "full_seconds": full_seconds,
            "pruned_seconds": pruned_seconds,
            "speedup": speedup,
            "hypervolume_parity": hv_parity,
            "mean_hypervolume_parity": mean_hv,
            "adrs_vs_full": adrs_vs_full,
            "mean_adrs_vs_full": mean_adrs,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"pruned campaign round is only {speedup:.2f}x faster than the "
        f"full-pool round ({pruned_seconds * 1e3:.0f} ms vs "
        f"{full_seconds * 1e3:.0f} ms)"
    )
