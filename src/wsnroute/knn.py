"""k-nearest-neighbor graphs: the finished-graph type, the build and the graph dump.

Every builder returns a finished :class:`KnnGraph`: two read-only (n, k)
arrays whose row i holds node i's k nearest other nodes, ordered by
(weight, target), and the field they were measured on.

:func:`build_knn_graph` checks its arguments and wraps the rows of the exact
cell-grid kernel, :func:`wsnroute.grid.knn_rows`, which the graph-free
greedy route also builds its own small table with. Tie rule: among equal
distances the lowest index wins, as in the brute-force oracle of the tests
(``tests/oracles.py``), which stably sorts every row of the full distance
matrix. The two builds give the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import SensorField
from .grid import knn_rows
from .numtext import format_coords, join_lines


@dataclass(frozen=True, eq=False)
class KnnGraph:
    """A finished kNN graph: row i of ``targets`` and ``weights`` is node i's k nearest.

    Both are copied on construction into read-only (n, k) arrays, intp and
    float64. Every target is a node index, and every row is ordered by
    (weight, target), so the first slot whose target passes a test is the
    nearest node that does; among exact distance ties the lowest target
    index is kept. Every weight is finite and not below 0. Construction
    raises ValueError otherwise. ``field`` is the field a builder measured
    the rows on; it is None on a graph constructed by hand, which nothing
    checks to hold a field's nearest nodes, and which ``nn_route`` refuses.
    """

    targets: np.ndarray
    weights: np.ndarray
    field: SensorField | None = dc_field(default=None, init=False, repr=False)

    def __post_init__(self):
        targets = np.array(self.targets, dtype=np.intp)
        weights = np.array(self.weights, dtype=np.float64)
        if targets.ndim != 2 or targets.shape != weights.shape:
            raise ValueError(f"targets {targets.shape} and weights {weights.shape} must be one (n, k) shape")
        if targets.size and not (0 <= targets.min() and targets.max() < len(targets)):
            raise ValueError(f"targets must be node indices in 0..{len(targets) - 1}")
        if not np.isfinite(weights).all() or (weights < 0).any():  # NaN would pass the order check
            raise ValueError("weights must be finite and non-negative")
        w0, w1 = weights[:, :-1], weights[:, 1:]
        if ((w0 > w1) | ((w0 == w1) & (targets[:, :-1] > targets[:, 1:]))).any():
            raise ValueError("graph rows must be ordered by (weight, target)")
        for name, arr in (("targets", targets), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _built(field: SensorField, targets: np.ndarray, weights: np.ndarray) -> KnnGraph:
    """The finished graph of ``field``'s rows, recording the field it was measured on."""
    graph = KnnGraph(targets, weights)
    object.__setattr__(graph, "field", field)
    return graph


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def build_knn_graph(field: SensorField, k: int, chunk_size: int = 256, stats: dict | None = None) -> KnnGraph:
    """The kNN graph from cell-grid tiles; at most ``chunk_size`` query rows per tile.

    The rows are :func:`~wsnroute.grid.knn_rows`: each row is measured
    against the square of cells around its own cell, in cells of about k/2
    nodes, and searched again over a wider square until its k-th weight is
    strictly inside the square's cover bound. Ties go to the lowest index.
    The graph equals the brute-force oracle's for every chunk_size. When
    ``stats`` is given, it receives the kernel's ``settled`` (rows settled
    at each radius from r = 1) and ``tied`` (rows tied at their k-th weight).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    _check_k(len(field), k)
    targets, weights = knn_rows(field.coords, k, chunk_size, stats=stats)
    return _built(field, targets, weights)


def dump_graph(graph: KnnGraph) -> str:
    """Text dump, one ``source target weight`` line per slot, row by row.

    Rows are ordered by (weight, target), so the lines are sorted by
    (source, weight, target). Node ids and the distinct weights, told apart
    by their bits, are each formatted once into a byte table by
    :func:`~wsnroute.numtext.format_coords` (mutual neighbours share a weight),
    and the lines are gathered from those tables a block at a time.
    """
    n, k = graph.targets.shape
    bits, slot_weight = np.unique(graph.weights.view(np.int64).ravel(), return_inverse=True)
    ids = format_coords(np.arange(n, dtype=np.float64))
    ws = format_coords(bits.view(np.float64))
    del bits  # not held through the join
    return join_lines([(ids, k), b" ", (ids, graph.targets.ravel()), b" ", (ws, slot_weight), b"\n"], n * k)
