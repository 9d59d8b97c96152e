"""The out-of-order CPU design space of Table I.

Every parameter, its description and its candidate values are transcribed
from the paper.  Values given as ``start:end:stride`` in the table are
expanded with the end point included, matching the convention used by the
paper's open-source artefact (gem5 sweeps enumerate both endpoints).
"""

from __future__ import annotations

from repro.designspace.parameters import Parameter, categorical, ranged
from repro.designspace.space import DesignSpace

#: Branch predictor types explored by the paper.
BRANCH_PREDICTORS = ("BiModeBP", "TournamentBP")

#: Main-memory capacity (MB) used by every configuration (fixed, Table I note).
DRAM_SIZE_MB = 8192


def table1_parameters() -> list[Parameter]:
    """Return the 22 parameters of Table I in their published order."""
    return [
        categorical(
            "core_frequency_ghz",
            "the frequency of CPU core in GHz",
            (1.0, 1.5, 2.0, 2.5, 3.0),
        ),
        ranged(
            "pipeline_width",
            "fetch/decode/rename/dispatch/issue/writeback/commit width",
            1, 12, 1,
        ),
        categorical("fetch_buffer_bytes", "fetch buffer size in bytes", (16, 32, 64)),
        ranged("fetch_queue_uops", "fetch queue size in micro-ops", 8, 48, 4),
        categorical("branch_predictor", "predictor type", BRANCH_PREDICTORS),
        ranged("ras_size", "return address stack size", 16, 40, 2),
        categorical("btb_size", "branch target buffer size", (1024, 2048, 4096)),
        ranged("rob_size", "reorder buffer entries", 32, 256, 16),
        ranged("int_rf_size", "number of physical integer registers", 64, 256, 8),
        ranged("fp_rf_size", "number of physical floating-point registers", 64, 256, 8),
        ranged("inst_queue_size", "number of instruction queue entries", 16, 80, 8),
        ranged("load_queue_size", "number of load queue entries", 20, 48, 4),
        ranged("store_queue_size", "number of store queue entries", 20, 48, 4),
        ranged("int_alu_count", "number of integer ALUs", 3, 8, 1),
        ranged("int_muldiv_count", "number of integer multipliers and dividers", 1, 4, 1),
        ranged("fp_alu_count", "number of floating-point ALUs", 1, 4, 1),
        ranged("fp_muldiv_count", "number of floating-point multipliers and dividers", 1, 4, 1),
        categorical("cacheline_bytes", "cacheline size", (32, 64)),
        categorical("l1i_size_kb", "size of ICache in KB", (16, 32, 64)),
        categorical("l1_assoc", "associative sets of ICache", (2, 4)),
        categorical("l2_size_kb", "size of L2 Cache in KB", (128, 256)),
        categorical("l2_assoc", "associative sets of L2 Cache", (2, 4)),
    ]


def build_table1_space() -> DesignSpace:
    """Build the full Table I :class:`DesignSpace`.

    The paper lists the L1 entry as the instruction cache; the data cache is
    configured identically (gem5's ``O3CPU`` sweeps in the artefact tie the
    two together), so a single ``l1i_size_kb``/``l1_assoc`` pair drives both
    in the analytical simulator.
    """
    return DesignSpace(table1_parameters(), name="table1-ooo-cpu")
