"""Sparse and dense matrix primitives (g-SpMM, g-SDDMM, GEMM, broadcasts)."""

from .blocked import (
    DEFAULT_BLOCK_NNZ,
    default_num_threads,
    gsddmm_blocked,
    gspmm_row_blocks,
    row_block_spans,
)
from .broadcast import col_broadcast, row_broadcast, row_broadcast_flops
from .dense import (
    elementwise_add,
    elementwise_mul,
    elu,
    gemm,
    gemm_flops,
    leaky_relu,
    log_softmax_rows,
    relu,
    sigmoid,
    softmax_rows,
)
from .normalize import (
    degrees_by_binning,
    degrees_from_indptr,
    norm_diagonal,
)
from .registry import PRIMITIVES, KernelCall, Primitive, get_primitive
from .sddmm import (
    gsddmm,
    sddmm,
    sddmm_diag_scale,
)
from .semiring import BINARY_OPS, REDUCE_OPS, BinaryOp, ReduceOp, Semiring, get_semiring
from .softmax import edge_softmax, segment_max, segment_sum
from .spadd import spadd_diag
from .spgemm import sampled_power_nnz, spgemm, spgemm_output_nnz_estimate
from .spmm import (
    SPMM_STRATEGIES,
    SPMM_STRATEGY_TABLE,
    STRATEGY_PRICING_PRIMITIVES,
    SpmmStrategy,
    spmm_strategy,
    gspmm,
    gspmm_flops,
    spmm,
    spmm_unweighted,
)
from .workspace import WorkspaceArena, thread_local_arena

__all__ = [
    "BINARY_OPS",
    "BinaryOp",
    "DEFAULT_BLOCK_NNZ",
    "KernelCall",
    "PRIMITIVES",
    "Primitive",
    "REDUCE_OPS",
    "ReduceOp",
    "SPMM_STRATEGIES",
    "SPMM_STRATEGY_TABLE",
    "STRATEGY_PRICING_PRIMITIVES",
    "Semiring",
    "SpmmStrategy",
    "WorkspaceArena",
    "col_broadcast",
    "default_num_threads",
    "spmm_strategy",
    "degrees_by_binning",
    "degrees_from_indptr",
    "edge_softmax",
    "elementwise_add",
    "elementwise_mul",
    "elu",
    "gemm",
    "gemm_flops",
    "get_primitive",
    "get_semiring",
    "gsddmm",
    "gsddmm_blocked",
    "gspmm",
    "gspmm_row_blocks",
    "gspmm_flops",
    "leaky_relu",
    "log_softmax_rows",
    "norm_diagonal",
    "relu",
    "row_broadcast",
    "row_broadcast_flops",
    "sddmm",
    "sddmm_diag_scale",
    "segment_max",
    "segment_sum",
    "sigmoid",
    "softmax_rows",
    "sampled_power_nnz",
    "spadd_diag",
    "spgemm",
    "spgemm_output_nnz_estimate",
    "spmm",
    "spmm_unweighted",
]
