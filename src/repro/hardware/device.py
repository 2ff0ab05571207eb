"""Analytic device timing models.

The paper's hardware (Intel Xeon CPU, NVIDIA A100/H100) enters GRANII only
through the *relative costs* of matrix primitives (Figure 2, §VI-C1).  We
therefore model each device with a small roofline-style cost function:

    time = kernel_overhead
         + (flops / throughput(kind) + bytes / bandwidth)
         × contention_factor × skew_factor × noise

The compute and memory terms add rather than overlap: short graph
kernels rarely sustain full copy/compute overlap, and the additive form
is what makes the paper's weighted-vs-unweighted aggregation trade-off
genuinely input-dependent (skipping edge values saves real time on
dense graphs, where aggregation dominates).

- ``throughput`` distinguishes dense (GEMM-like, compute-friendly) from
  sparse (irregular) work; dense throughput grows steeply CPU → A100 →
  H100, matching the paper's "dense operations gradually become more
  optimized" observation.
- ``bytes`` is the memory traffic of the primitive; sparse primitives are
  almost always bandwidth-bound, which is what makes unweighted SpMM and
  the broadcast-vs-precompute trade-off input-dependent.
- ``contention_factor`` penalises atomics-based binning on dense graphs
  (few bins, many edges) — the WiseGraph normalization pathology of
  §VI-C1 — much more on the A100 than the H100.
- ``skew_factor`` penalises sparse kernels on skewed degree distributions
  (GPU warp load imbalance).
- ``noise`` is a deterministic, seeded log-normal multiplier so profiled
  timings are realistic but exactly reproducible.

Timings are deterministic functions of (device, primitive, shapes, graph
statistics): the evaluation harness and the cost-model trainer both call
:meth:`Device.time_call`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..graphs import Graph
from ..kernels import KernelCall

__all__ = ["DeviceProfile", "Device", "GraphStats", "bytes_moved"]

_F64 = 8.0  # bytes per element


def bytes_moved(call: KernelCall) -> float:
    """Estimated memory traffic of one primitive invocation, in bytes.

    Shapes follow the KernelCall conventions: ``m``/``k``/``n`` for dense
    dims (rows / inner or feature / cols), ``nnz`` for the sparse operand.
    """
    s = call.shape
    name = call.primitive
    if name == "gemm":
        return _F64 * (s["m"] * s["k"] + s["k"] * s["n"] + s["m"] * s["n"])
    if name == "spmm":
        # values + column indices + gathered rows + output
        return _F64 * (2 * s["nnz"] + s["nnz"] * s["k"] + s["m"] * s["k"])
    if name == "spmm_unweighted":
        return _F64 * (s["nnz"] + s["nnz"] * s["k"] + s["m"] * s["k"])
    if name == "sddmm":
        return _F64 * (2 * s["nnz"] * s["k"] + 2 * s["nnz"])
    if name == "sddmm_diag":
        return _F64 * (3 * s["nnz"] + 2 * s["m"])
    if name == "gsddmm_attn":
        return _F64 * (3 * s["nnz"] + 2 * s["m"])
    if name == "edge_softmax":
        return _F64 * 4 * s["nnz"]
    if name == "row_broadcast":
        return _F64 * (2 * s["m"] * s["k"] + s["m"])
    if name == "elementwise":
        return _F64 * 2 * s["m"] * s["k"]
    if name == "degree_indptr":
        return _F64 * 2 * s["m"]
    if name == "degree_binning":
        return _F64 * 2 * s["nnz"]
    if name == "spgemm":
        return _F64 * (
            2 * s["nnz"] + 2 * s["nnz_rhs"] + 2 * s.get("nnz_out", s["nnz"])
        )
    if name == "fused_attn_spmm":
        # one pass: gather features + scores, write output; the fused α
        # never round-trips through memory (that's the point of fusion)
        return _F64 * (s["nnz"] * s["k"] + 3 * s["nnz"] + 2 * s["m"] * s["k"])
    if name == "diag_mul":
        return _F64 * 3 * s["m"]
    if name == "spadd_diag":
        return _F64 * (4 * s["nnz"] + 2 * s["m"])
    raise KeyError(f"no traffic model for primitive {call.primitive!r}")


@dataclass(frozen=True)
class GraphStats:
    """The graph statistics the timing model conditions on."""

    avg_degree: float
    row_imbalance: float
    signature: int  # stable per-graph id used to seed measurement noise

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphStats":
        n = max(graph.num_nodes, 1)
        deg = graph.degrees().astype(np.float64)
        top = max(1, n // 100)
        if graph.num_edges:
            busiest = np.partition(deg, n - top)[n - top:]
            imbalance = float(busiest.sum() / graph.num_edges)
        else:
            imbalance = 0.0
        sig = zlib.crc32(
            f"{graph.name}:{graph.num_nodes}:{graph.num_edges}".encode()
        )
        return cls(graph.num_edges / n, imbalance, sig)


_NEUTRAL_STATS = GraphStats(avg_degree=0.0, row_imbalance=0.0, signature=0)


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration constants of one device."""

    name: str
    dense_throughput: float  # flop/s for GEMM-like work
    sparse_throughput: float  # flop/s for irregular work
    bandwidth: float  # bytes/s
    kernel_overhead: float  # s per launch
    atomic_scale: float  # avg-degree scale where binning atomics degrade
    atomic_exp: float  # contention growth exponent
    skew_coeff: float  # sensitivity to degree skew on sparse kernels
    noise_sigma: float  # log-normal measurement noise
    atomic_base: float = 1.0  # uncontended atomic-op slowdown (binning)


class Device:
    """A timing oracle for matrix primitives on one hardware target."""

    # how the profiles this source times are labelled, and the
    # primitives it runs as another's kernel (none: every primitive has
    # its own cost formula); see :func:`repro.core.profiler.collect_profile`
    timing = "analytic"
    same_kernel: Dict[str, str] = {}

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        # timings are deterministic, so identical invocations are memoised
        # (evaluation sweeps re-time the same kernels thousands of times)
        self._memo: Dict[tuple, float] = {}

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    def _contention(self, call: KernelCall, stats: GraphStats) -> float:
        if call.primitive != "degree_binning":
            return 1.0
        scale = self.profile.atomic_scale
        if scale <= 0:
            return self.profile.atomic_base
        return (
            self.profile.atomic_base
            + (stats.avg_degree / scale) ** self.profile.atomic_exp
        )

    def _skew(self, call: KernelCall, stats: GraphStats) -> float:
        if call.kind != "sparse":
            return 1.0
        return 1.0 + self.profile.skew_coeff * stats.row_imbalance

    def _noise(self, call: KernelCall, stats: GraphStats) -> float:
        if self.profile.noise_sigma <= 0:
            return 1.0
        key = f"{self.name}|{call.primitive}|{sorted(call.shape.items())}|{stats.signature}"
        seed = zlib.crc32(key.encode())
        rng = np.random.default_rng(seed)
        return float(np.exp(self.profile.noise_sigma * rng.standard_normal()))

    # ------------------------------------------------------------------
    def time_call(
        self, call: KernelCall, stats: Optional[GraphStats] = None
    ) -> float:
        """Simulated execution time of one primitive, in seconds."""
        stats = stats or _NEUTRAL_STATS
        memo_key = (
            call.primitive,
            tuple(sorted(call.shape.items())),
            stats.avg_degree,
            stats.row_imbalance,
            stats.signature,
        )
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        tput = (
            self.profile.dense_throughput
            if call.kind == "dense"
            else self.profile.sparse_throughput
        )
        compute = call.flops / tput
        memory = bytes_moved(call) / self.profile.bandwidth
        base = compute + memory
        result = (
            self.profile.kernel_overhead
            + base
            * self._contention(call, stats)
            * self._skew(call, stats)
            * self._noise(call, stats)
        )
        self._memo[memo_key] = result
        return result

    def time_calls(
        self, calls, stats: Optional[GraphStats] = None
    ) -> float:
        """Total simulated time of a sequence of primitive invocations."""
        return float(sum(self.time_call(c, stats) for c in calls))

    def time_each(self, tasks) -> List[float]:
        """Simulated seconds of each ``(graph, call)`` task, in order: the
        timing-source interface :func:`repro.core.profiler.collect_profile`
        profiles through."""
        stats: Dict[int, GraphStats] = {}
        seconds = []
        for graph, call in tasks:
            graph_stats = stats.get(id(graph))
            if graph_stats is None:
                graph_stats = stats[id(graph)] = GraphStats.from_graph(graph)
            seconds.append(self.time_call(call, graph_stats))
        return seconds

    def __repr__(self) -> str:  # pragma: no cover
        return f"Device({self.name!r})"
