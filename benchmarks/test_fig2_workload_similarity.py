"""Figure 2 — Wasserstein distances among SPEC CPU 2017 workloads.

Regenerates the two heatmaps (IPC and power) that motivate the paper: over a
common set of design points, many workload pairs have very different metric
distributions, so similarity-based transfer cannot be relied upon.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.similarity import similarity_matrix


def test_fig2_wasserstein_heatmaps(benchmark, dataset, record):
    """Compute both heatmaps and check the dissimilarity structure."""

    def compute():
        return {
            "ipc": similarity_matrix(dataset, metric="ipc"),
            "power": similarity_matrix(dataset, metric="power"),
        }

    matrices = benchmark.pedantic(compute, rounds=1, iterations=1)
    ipc_matrix = matrices["ipc"]
    power_matrix = matrices["power"]

    record(
        "fig2_workload_similarity",
        {
            "workloads": list(ipc_matrix.workloads),
            "ipc_distances": ipc_matrix.distances.tolist(),
            "power_distances": power_matrix.distances.tolist(),
            "ipc_mean_offdiagonal": ipc_matrix.mean_offdiagonal(),
            "power_mean_offdiagonal": power_matrix.mean_offdiagonal(),
        },
    )

    # Shape claims of Fig. 2: the matrices are symmetric with a zero diagonal,
    # similarities are inconsistent (a wide spread of distances), and at least
    # some pairs are highly dissimilar (the dark rows/columns of the figure).
    for matrix in (ipc_matrix, power_matrix):
        np.testing.assert_allclose(matrix.distances, matrix.distances.T)
        np.testing.assert_allclose(np.diag(matrix.distances), 0.0)
        assert matrix.distances.max() == 1.0

    offdiag = ipc_matrix.distances[~np.eye(len(ipc_matrix.workloads), dtype=bool)]
    assert offdiag.std() > 0.1, "workload similarities should be inconsistent"
    assert (offdiag > 0.5).mean() > 0.2, "many pairs should be strongly dissimilar"

    # The memory-bound pair (mcf, omnetpp) must be far closer to each other
    # than either is to the compute-bound imagick — the structure visible in
    # the paper's heatmap.
    close = ipc_matrix.distance("605.mcf_s", "620.omnetpp_s")
    far = ipc_matrix.distance("605.mcf_s", "638.imagick_s")
    assert close < far
