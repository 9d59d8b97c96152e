"""Synthetic profiles for the 17 SPEC CPU 2017_speed workloads of the paper.

The actual SPEC binaries (and the gem5 SimPoint traces derived from them)
are not available offline, so each workload is represented by a
:class:`~repro.workloads.characteristics.WorkloadProfile` whose numbers are
chosen to mirror the well-known qualitative behaviour of the benchmark:
``mcf`` and ``omnetpp`` are memory-latency bound with poor locality,
``exchange2`` is branchy integer code that lives in the L1, ``fotonik3d`` /
``roms`` / ``cactuBSSN`` are bandwidth-hungry FP stencils, ``leela`` and
``xalancbmk`` are pointer-chasing integer codes, and the two ``specrand``
kernels are tiny and nearly architecture-insensitive.

What matters for the reproduction is not the absolute fidelity of any single
profile but that the 17 profiles span compute-bound vs memory-bound,
predictable vs branchy, and integer vs floating-point behaviour, so that the
cross-workload transfer problem has the same structure as in the paper
(including the workload-dissimilarity shown in Fig. 2).
"""

from __future__ import annotations

from repro.workloads.characteristics import (
    BranchBehavior,
    InstructionMix,
    MemoryBehavior,
    WorkloadProfile,
)

#: The workload names exactly as they appear in the paper's figures.
SPEC2017_WORKLOAD_NAMES = (
    "600.perlbench_s",
    "602.gcc_s",
    "605.mcf_s",
    "607.cactuBSSN_s",
    "620.omnetpp_s",
    "621.wrf_s",
    "623.xalancbmk_s",
    "625.x264_s",
    "627.cam4_s",
    "638.imagick_s",
    "641.leela_s",
    "644.nab_s",
    "648.exchange2_s",
    "649.fotonik3d_s",
    "654.roms_s",
    "996.specrand_fs",
    "998.specrand_is",
)

#: The 5 held-out test workloads used for Table II of the paper.
TABLE2_TEST_WORKLOADS = (
    "600.perlbench_s",
    "605.mcf_s",
    "620.omnetpp_s",
    "623.xalancbmk_s",
    "627.cam4_s",
)


def _profile(
    name: str,
    category: str,
    mix: dict[str, float],
    *,
    bimode: float,
    tournament: float,
    call_depth: float,
    targets: int,
    l1_ws: float,
    l2_ws: float,
    mlp: float,
    locality: float,
    irregularity: float,
    ideal_ipc: float,
    dep_chain: float,
    mem_bound: float,
    activity: float,
) -> WorkloadProfile:
    """Terse constructor keeping the table below readable."""
    return WorkloadProfile(
        name=name,
        category=category,
        mix=InstructionMix.from_dict(mix),
        branch=BranchBehavior(
            bimode_mispredict_rate=bimode,
            tournament_mispredict_rate=tournament,
            call_depth=call_depth,
            branch_target_footprint=targets,
        ),
        memory=MemoryBehavior(
            l1_working_set_kb=l1_ws,
            l2_working_set_kb=l2_ws,
            mlp=mlp,
            spatial_locality=locality,
            access_irregularity=irregularity,
        ),
        ideal_ipc=ideal_ipc,
        dependency_chain_length=dep_chain,
        memory_boundedness=mem_bound,
        activity_factor=activity,
    )


def build_spec2017_profiles() -> dict[str, WorkloadProfile]:
    """Build the 17 named workload profiles."""
    profiles = [
        _profile(
            "600.perlbench_s", "int",
            dict(int_alu=0.46, int_muldiv=0.02, fp_alu=0.01, fp_muldiv=0.0,
                 load=0.26, store=0.11, branch=0.14),
            bimode=0.055, tournament=0.032, call_depth=14, targets=4200,
            l1_ws=48, l2_ws=900, mlp=1.8, locality=0.62, irregularity=0.35,
            ideal_ipc=3.4, dep_chain=4.2, mem_bound=0.35, activity=0.55,
        ),
        _profile(
            "602.gcc_s", "int",
            dict(int_alu=0.44, int_muldiv=0.015, fp_alu=0.005, fp_muldiv=0.0,
                 load=0.28, store=0.12, branch=0.14),
            bimode=0.07, tournament=0.042, call_depth=18, targets=6400,
            l1_ws=72, l2_ws=2600, mlp=2.0, locality=0.55, irregularity=0.45,
            ideal_ipc=3.0, dep_chain=4.8, mem_bound=0.45, activity=0.52,
        ),
        _profile(
            "605.mcf_s", "int",
            dict(int_alu=0.38, int_muldiv=0.01, fp_alu=0.0, fp_muldiv=0.0,
                 load=0.37, store=0.08, branch=0.16),
            bimode=0.09, tournament=0.065, call_depth=6, targets=900,
            l1_ws=420, l2_ws=24000, mlp=6.0, locality=0.18, irregularity=0.85,
            ideal_ipc=2.1, dep_chain=6.5, mem_bound=0.92, activity=0.42,
        ),
        _profile(
            "607.cactuBSSN_s", "fp",
            dict(int_alu=0.18, int_muldiv=0.01, fp_alu=0.33, fp_muldiv=0.12,
                 load=0.25, store=0.09, branch=0.02),
            bimode=0.012, tournament=0.007, call_depth=8, targets=700,
            l1_ws=180, l2_ws=9000, mlp=4.5, locality=0.82, irregularity=0.2,
            ideal_ipc=4.2, dep_chain=5.5, mem_bound=0.62, activity=0.72,
        ),
        _profile(
            "620.omnetpp_s", "int",
            dict(int_alu=0.40, int_muldiv=0.01, fp_alu=0.01, fp_muldiv=0.0,
                 load=0.31, store=0.12, branch=0.15),
            bimode=0.075, tournament=0.05, call_depth=22, targets=5200,
            l1_ws=260, l2_ws=16000, mlp=2.4, locality=0.25, irregularity=0.8,
            ideal_ipc=2.3, dep_chain=6.0, mem_bound=0.8, activity=0.45,
        ),
        _profile(
            "621.wrf_s", "fp",
            dict(int_alu=0.2, int_muldiv=0.01, fp_alu=0.3, fp_muldiv=0.09,
                 load=0.27, store=0.09, branch=0.04),
            bimode=0.02, tournament=0.011, call_depth=10, targets=1800,
            l1_ws=120, l2_ws=5200, mlp=3.2, locality=0.75, irregularity=0.25,
            ideal_ipc=3.8, dep_chain=5.0, mem_bound=0.55, activity=0.68,
        ),
        _profile(
            "623.xalancbmk_s", "int",
            dict(int_alu=0.43, int_muldiv=0.01, fp_alu=0.0, fp_muldiv=0.0,
                 load=0.29, store=0.1, branch=0.17),
            bimode=0.065, tournament=0.038, call_depth=26, targets=7600,
            l1_ws=96, l2_ws=3800, mlp=1.7, locality=0.4, irregularity=0.6,
            ideal_ipc=2.8, dep_chain=5.2, mem_bound=0.6, activity=0.5,
        ),
        _profile(
            "625.x264_s", "int",
            dict(int_alu=0.5, int_muldiv=0.03, fp_alu=0.02, fp_muldiv=0.0,
                 load=0.26, store=0.11, branch=0.08),
            bimode=0.035, tournament=0.02, call_depth=9, targets=2100,
            l1_ws=40, l2_ws=1400, mlp=2.6, locality=0.85, irregularity=0.15,
            ideal_ipc=4.6, dep_chain=3.4, mem_bound=0.3, activity=0.75,
        ),
        _profile(
            "627.cam4_s", "fp",
            dict(int_alu=0.22, int_muldiv=0.01, fp_alu=0.28, fp_muldiv=0.08,
                 load=0.28, store=0.09, branch=0.04),
            bimode=0.025, tournament=0.014, call_depth=12, targets=2600,
            l1_ws=150, l2_ws=7000, mlp=2.8, locality=0.7, irregularity=0.3,
            ideal_ipc=3.6, dep_chain=5.4, mem_bound=0.58, activity=0.65,
        ),
        _profile(
            "638.imagick_s", "fp",
            dict(int_alu=0.24, int_muldiv=0.02, fp_alu=0.34, fp_muldiv=0.1,
                 load=0.2, store=0.06, branch=0.04),
            bimode=0.018, tournament=0.01, call_depth=7, targets=900,
            l1_ws=28, l2_ws=700, mlp=2.2, locality=0.9, irregularity=0.1,
            ideal_ipc=5.0, dep_chain=3.8, mem_bound=0.18, activity=0.82,
        ),
        _profile(
            "641.leela_s", "int",
            dict(int_alu=0.47, int_muldiv=0.02, fp_alu=0.02, fp_muldiv=0.0,
                 load=0.25, store=0.09, branch=0.15),
            bimode=0.08, tournament=0.055, call_depth=20, targets=3400,
            l1_ws=36, l2_ws=1100, mlp=1.5, locality=0.5, irregularity=0.5,
            ideal_ipc=2.6, dep_chain=5.8, mem_bound=0.28, activity=0.5,
        ),
        _profile(
            "644.nab_s", "fp",
            dict(int_alu=0.23, int_muldiv=0.01, fp_alu=0.35, fp_muldiv=0.11,
                 load=0.21, store=0.06, branch=0.03),
            bimode=0.016, tournament=0.009, call_depth=8, targets=800,
            l1_ws=44, l2_ws=1600, mlp=2.4, locality=0.8, irregularity=0.15,
            ideal_ipc=4.4, dep_chain=4.6, mem_bound=0.3, activity=0.78,
        ),
        _profile(
            "648.exchange2_s", "int",
            dict(int_alu=0.56, int_muldiv=0.02, fp_alu=0.0, fp_muldiv=0.0,
                 load=0.2, store=0.08, branch=0.14),
            bimode=0.045, tournament=0.02, call_depth=30, targets=1600,
            l1_ws=12, l2_ws=180, mlp=1.4, locality=0.88, irregularity=0.08,
            ideal_ipc=4.8, dep_chain=3.6, mem_bound=0.08, activity=0.7,
        ),
        _profile(
            "649.fotonik3d_s", "fp",
            dict(int_alu=0.16, int_muldiv=0.01, fp_alu=0.31, fp_muldiv=0.07,
                 load=0.33, store=0.1, branch=0.02),
            bimode=0.008, tournament=0.005, call_depth=5, targets=400,
            l1_ws=380, l2_ws=30000, mlp=5.5, locality=0.92, irregularity=0.12,
            ideal_ipc=3.9, dep_chain=4.4, mem_bound=0.85, activity=0.6,
        ),
        _profile(
            "654.roms_s", "fp",
            dict(int_alu=0.18, int_muldiv=0.01, fp_alu=0.3, fp_muldiv=0.08,
                 load=0.31, store=0.1, branch=0.02),
            bimode=0.01, tournament=0.006, call_depth=6, targets=600,
            l1_ws=300, l2_ws=22000, mlp=4.8, locality=0.88, irregularity=0.15,
            ideal_ipc=3.7, dep_chain=4.8, mem_bound=0.78, activity=0.62,
        ),
        _profile(
            "996.specrand_fs", "rand",
            dict(int_alu=0.3, int_muldiv=0.05, fp_alu=0.3, fp_muldiv=0.05,
                 load=0.15, store=0.05, branch=0.1),
            bimode=0.03, tournament=0.02, call_depth=3, targets=60,
            l1_ws=2, l2_ws=16, mlp=1.2, locality=0.95, irregularity=0.05,
            ideal_ipc=3.2, dep_chain=6.2, mem_bound=0.03, activity=0.58,
        ),
        _profile(
            "998.specrand_is", "rand",
            dict(int_alu=0.45, int_muldiv=0.08, fp_alu=0.0, fp_muldiv=0.0,
                 load=0.2, store=0.1, branch=0.17),
            bimode=0.04, tournament=0.028, call_depth=3, targets=50,
            l1_ws=2, l2_ws=12, mlp=1.2, locality=0.95, irregularity=0.05,
            ideal_ipc=2.9, dep_chain=5.6, mem_bound=0.03, activity=0.5,
        ),
    ]
    by_name = {p.name: p for p in profiles}
    missing = set(SPEC2017_WORKLOAD_NAMES) - set(by_name)
    if missing:
        raise RuntimeError(f"profile table is missing workloads: {sorted(missing)}")
    return {name: by_name[name] for name in SPEC2017_WORKLOAD_NAMES}


class WorkloadSuite:
    """A named collection of workload profiles with convenient lookups."""

    def __init__(self, profiles: dict[str, WorkloadProfile], *, name: str = "suite") -> None:
        if not profiles:
            raise ValueError("a workload suite needs at least one profile")
        self._profiles = dict(profiles)
        self.name = name

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self):
        return iter(self._profiles.values())

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def __getitem__(self, name: str) -> WorkloadProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise KeyError(
                f"unknown workload {name!r}; known workloads: {sorted(self._profiles)}"
            ) from None

    @property
    def names(self) -> list[str]:
        """Workload names in suite order."""
        return list(self._profiles)

    def subset(self, names) -> "WorkloadSuite":
        """Return a sub-suite containing only *names* (order preserved)."""
        return WorkloadSuite({n: self[n] for n in names}, name=f"{self.name}-subset")


def spec2017_suite() -> WorkloadSuite:
    """The full 17-workload SPEC CPU 2017_speed suite used by every experiment."""
    return WorkloadSuite(build_spec2017_profiles(), name="spec-cpu-2017-speed")
