#!/usr/bin/env python3
"""Workload-similarity analysis (regenerates the data behind Fig. 2).

Computes the pairwise Wasserstein distance between the IPC (and power)
distributions of all 17 SPEC CPU 2017 workloads over a common set of design
points, prints a text heatmap, and reports which workloads would be chosen
as transfer sources for each target — illustrating why similarity-based
transfer is unreliable when the closest source is still far away.

Run with::

    python examples/workload_similarity.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import Simulator, generate_dataset
from repro.datasets.similarity import similarity_matrix

#: Characters from similar (light) to dissimilar (dark), mirroring the
#: colour scale of Fig. 2.
SHADES = " .:-=+*#%@"


def shade(value: float) -> str:
    index = min(int(value * (len(SHADES) - 1) + 0.5), len(SHADES) - 1)
    return SHADES[index]


def print_heatmap(matrix) -> None:
    names = matrix.workloads
    short = [name.split(".")[0] for name in names]
    print("      " + " ".join(f"{s:>4}" for s in short))
    for i, name in enumerate(names):
        row = " ".join(f"{shade(matrix.distances[i, j]):>4}" for j in range(len(names)))
        print(f"{short[i]:>5} {row}")


def main() -> None:
    simulator = Simulator(simpoint_phases=4, seed=7)
    dataset = generate_dataset(simulator, num_points=250, seed=1)

    for metric in ("ipc", "power"):
        matrix = similarity_matrix(dataset, metric=metric)
        print(f"\nWorkload similarity ({metric.upper()}), normalised Wasserstein distance")
        print("(darker symbol = less similar, as in Fig. 2)")
        print_heatmap(matrix)
        print(f"mean off-diagonal distance: {matrix.mean_offdiagonal():.3f}")

    # For each workload, report its closest neighbour and how far away it is —
    # the quantitative version of the paper's "similarities are inconsistent".
    matrix = similarity_matrix(dataset, metric="ipc")
    print("\nclosest source per target (IPC):")
    gaps = []
    for name in matrix.workloads:
        nearest = matrix.most_similar(name, count=1)[0]
        distance = matrix.distance(name, nearest)
        gaps.append(distance)
        print(f"  {name:<20} -> {nearest:<20} distance {distance:.3f}")
    print(f"\nworst-case closest-source distance: {max(gaps):.3f} "
          f"(a large value means some targets have NO similar source)")


if __name__ == "__main__":
    main()
