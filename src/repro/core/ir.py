"""GRANII's matrix intermediate representation (paper §IV-B).

The IR is a tree whose leaves are *matrices with attributes* (Table I) and
whose interior nodes are matrix operations.  Two properties distinguish it
from ordinary tensor computation graphs:

1. **Associative operations are n-ary**: adjacent multiplications collapse
   into one ``MatMul`` level (Figure 6(b)), which is what lets the
   association-tree generator enumerate *all* re-associations instead of
   being stuck with the order the user happened to write.
2. **Leaves carry matrix attributes** — dense (data/weight), sparse
   (weighted/unweighted/diagonal) — which the rule table uses to decide
   which sparse/dense primitive realises each association.

Shapes are symbolic: dimensions are strings ("N", "K1", "K2") resolved by
a :class:`ShapeEnv` at selection time, so one compiled candidate set
serves every input graph and embedding size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import GraniiAnalysisError

__all__ = [
    "Dim",
    "ShapeEnv",
    "env_key",
    "sized_env",
    "Leaf",
    "MatMul",
    "Add",
    "RowBroadcast",
    "Nonlinear",
    "Attention",
    "IRNode",
    "dense_data",
    "dense_weight",
    "sparse_unweighted",
    "sparse_weighted",
    "diagonal",
    "flatten",
]

Dim = Union[str, int]


class ShapeEnv(dict):
    """Maps symbolic dimension names to concrete integers."""

    def resolve(self, dim: Dim) -> int:
        if isinstance(dim, int):
            return dim
        if dim not in self:
            raise GraniiAnalysisError(
                f"unresolved symbolic dimension {dim!r} "
                f"(bound symbols: {sorted(map(str, self))})"
            )
        return int(self[dim])


def env_key(env: Optional[Dict]) -> Tuple:
    """Canonical hashable key of a shape environment (``()`` for none)."""
    if not env:
        return ()
    return tuple(sorted((str(k), int(v)) for k, v in env.items()))


def sized_env(
    num_nodes: int, nnz: int, in_size: int, out_size: int
) -> Tuple[ShapeEnv, Tuple]:
    """The :class:`ShapeEnv` of one ``(N, E, K1, K2)`` and its :func:`env_key`.

    Besides the four sizes it binds ``E@k``, the estimated nonzeros of a
    depth-k adjacency power (k = 2..6), for the SpGEMM-extension
    candidates (``compile_model(..., spgemm=True)``).  The estimates and
    the key are derived once per distinct sizes (the 128 most recent are
    kept); every call returns a new env, so a caller may write to its own.
    """
    items, key = _sized_env(int(num_nodes), int(nnz), int(in_size), int(out_size))
    return ShapeEnv(items), key


@lru_cache(maxsize=128)
def _sized_env(n: int, nnz: int, k1: int, k2: int) -> Tuple[Tuple, Tuple]:
    from ..kernels import spgemm_output_nnz_estimate

    env = {"N": n, "E": nnz, "K1": k1, "K2": k2}
    current = nnz
    for depth in range(2, 7):
        current = spgemm_output_nnz_estimate(n, current, nnz)
        env[f"E@{depth}"] = current
    return tuple(env.items()), env_key(env)


@dataclass(frozen=True)
class Leaf:
    """A matrix leaf: name, symbolic shape, and Table I attributes.

    Sparse leaves additionally carry a symbolic nonzero count (``nnz``,
    e.g. "E") so association candidates can be costed without the input.
    """

    name: str
    shape: Tuple[Dim, Dim]
    attr: str  # 'dense' | 'sparse'
    subattr: str  # dense: 'data'|'weight'; sparse: 'weighted'|'unweighted'|'diagonal'
    nnz: Optional[Dim] = None

    def __post_init__(self) -> None:
        valid = {
            "dense": {"data", "weight"},
            "sparse": {"weighted", "unweighted", "diagonal"},
        }
        if self.attr not in valid:
            raise ValueError(f"unknown attr {self.attr!r}")
        if self.subattr not in valid[self.attr]:
            raise ValueError(
                f"sub-attribute {self.subattr!r} invalid for attr {self.attr!r}"
            )
        if self.attr == "sparse" and self.nnz is None:
            # diagonal nnz equals the dimension; other sparse leaves must say.
            if self.subattr == "diagonal":
                object.__setattr__(self, "nnz", self.shape[0])
            else:
                raise ValueError("non-diagonal sparse leaves need an nnz symbol")

    @property
    def is_diagonal(self) -> bool:
        return self.subattr == "diagonal"

    def describe(self) -> str:
        return f"{self.name}[{self.shape[0]}x{self.shape[1]}:{self.attr}.{self.subattr}]"


@dataclass(frozen=True)
class MatMul:
    """An n-ary associative matrix-multiplication level."""

    children: Tuple["IRNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("MatMul needs at least two children")


@dataclass(frozen=True)
class Add:
    """An n-ary associative (and commutative) matrix addition."""

    children: Tuple["IRNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("Add needs at least two children")


@dataclass(frozen=True)
class RowBroadcast:
    """Row broadcast ``c[i,j] = d[i] * x[i,j]`` (Equation 1).

    ``vec`` must be a diagonal leaf; the rewrite pass eliminates this node
    by converting it into a multiplication by the diagonal matrix.
    """

    vec: "IRNode"
    mat: "IRNode"


@dataclass(frozen=True)
class Nonlinear:
    """A non-linear function — a re-association barrier (§IV-B)."""

    name: str  # 'relu' | 'elu' | 'leaky_relu' | ...
    child: "IRNode"


@dataclass(frozen=True)
class Attention:
    """GAT's attention computation (Equation 4) as an opaque sub-program.

    Produces a sparse weighted matrix α over ``pattern``'s nonzeros from
    the updated features ``theta`` (itself an IR expression, normally
    ``MatMul(H, W)`` — the shared subexpression the reuse composition
    exploits).
    """

    pattern: Leaf
    theta: "IRNode"


IRNode = Union[Leaf, MatMul, Add, RowBroadcast, Nonlinear, Attention]


# ----------------------------------------------------------------------
# Leaf constructors
# ----------------------------------------------------------------------
def dense_data(name: str, rows: Dim, cols: Dim) -> Leaf:
    return Leaf(name, (rows, cols), "dense", "data")


def dense_weight(name: str, rows: Dim, cols: Dim) -> Leaf:
    return Leaf(name, (rows, cols), "dense", "weight")


def sparse_unweighted(name: str, rows: Dim, cols: Dim, nnz: Dim = "E") -> Leaf:
    return Leaf(name, (rows, cols), "sparse", "unweighted", nnz)


def sparse_weighted(name: str, rows: Dim, cols: Dim, nnz: Dim = "E") -> Leaf:
    return Leaf(name, (rows, cols), "sparse", "weighted", nnz)


def diagonal(name: str, size: Dim) -> Leaf:
    return Leaf(name, (size, size), "sparse", "diagonal")


# ----------------------------------------------------------------------
# Structural helpers
# ----------------------------------------------------------------------
def flatten(node: IRNode) -> IRNode:
    """Collapse nested associative levels: MatMul-in-MatMul, Add-in-Add."""
    if isinstance(node, Leaf):
        return node
    if isinstance(node, MatMul):
        children: List[IRNode] = []
        for child in node.children:
            child = flatten(child)
            if isinstance(child, MatMul):
                children.extend(child.children)
            else:
                children.append(child)
        return MatMul(tuple(children))
    if isinstance(node, Add):
        children = []
        for child in node.children:
            child = flatten(child)
            if isinstance(child, Add):
                children.extend(child.children)
            else:
                children.append(child)
        return Add(tuple(children))
    if isinstance(node, RowBroadcast):
        return RowBroadcast(flatten(node.vec), flatten(node.mat))
    if isinstance(node, Nonlinear):
        return Nonlinear(node.name, flatten(node.child))
    if isinstance(node, Attention):
        return Attention(node.pattern, flatten(node.theta))
    raise TypeError(f"unknown IR node {node!r}")


def dims_compatible(a: Dim, b: Dim) -> bool:
    """Whether two symbolic dims can denote the same size.

    Equal values always can; a symbol vs. an integer *might* (the binding
    is unknown until a :class:`ShapeEnv` resolves it); two distinct
    symbols, or two distinct integers, cannot.
    """
    if a == b:
        return True
    return isinstance(a, str) != isinstance(b, str)


def ir_shape(node: IRNode) -> Tuple[Dim, Dim]:
    """Symbolic (rows, cols) of an IR expression.

    Raises :class:`~repro.errors.GraniiAnalysisError` (naming the
    offending node) when the tree is dimensionally inconsistent: a
    ``MatMul`` whose adjacent factors disagree on the contraction dim, an
    ``Add`` over unequal shapes, or a ``RowBroadcast`` whose vector
    length cannot match the matrix rows.
    """
    if isinstance(node, Leaf):
        return node.shape
    if isinstance(node, MatMul):
        shapes = [ir_shape(c) for c in node.children]
        for left, right, lsh, rsh in zip(
            node.children, node.children[1:], shapes, shapes[1:]
        ):
            if not dims_compatible(lsh[1], rsh[0]):
                raise GraniiAnalysisError(
                    f"MatMul contraction mismatch: {ir_repr(left)} has "
                    f"{lsh[1]!r} columns but {ir_repr(right)} has "
                    f"{rsh[0]!r} rows, in {ir_repr(node)}",
                    node=ir_repr(node),
                )
        return (shapes[0][0], shapes[-1][1])
    if isinstance(node, Add):
        shapes = [ir_shape(c) for c in node.children]
        first = shapes[0]
        for child, shape in zip(node.children[1:], shapes[1:]):
            if not (
                dims_compatible(first[0], shape[0])
                and dims_compatible(first[1], shape[1])
            ):
                raise GraniiAnalysisError(
                    f"Add over unequal shapes: {ir_repr(node.children[0])} "
                    f"is {first!r} but {ir_repr(child)} is {shape!r}, "
                    f"in {ir_repr(node)}",
                    node=ir_repr(node),
                )
        return first
    if isinstance(node, RowBroadcast):
        vec_shape = ir_shape(node.vec)
        mat_shape = ir_shape(node.mat)
        if not dims_compatible(vec_shape[0], mat_shape[0]):
            raise GraniiAnalysisError(
                f"RowBroadcast length mismatch: vector {ir_repr(node.vec)} "
                f"has {vec_shape[0]!r} rows but matrix {ir_repr(node.mat)} "
                f"has {mat_shape[0]!r}",
                node=ir_repr(node),
            )
        return mat_shape
    if isinstance(node, Nonlinear):
        return ir_shape(node.child)
    if isinstance(node, Attention):
        theta_shape = ir_shape(node.theta)
        if not dims_compatible(node.pattern.shape[1], theta_shape[0]):
            raise GraniiAnalysisError(
                f"Attention mismatch: pattern {node.pattern.describe()} "
                f"columns {node.pattern.shape[1]!r} vs theta "
                f"{ir_repr(node.theta)} rows {theta_shape[0]!r}",
                node=ir_repr(node),
            )
        return node.pattern.shape
    raise TypeError(f"unknown IR node {node!r}")


def ir_leaves(node: IRNode) -> Iterator[Leaf]:
    """All leaves in an IR expression (depth-first, with duplicates)."""
    if isinstance(node, Leaf):
        yield node
    elif isinstance(node, (MatMul, Add)):
        for child in node.children:
            yield from ir_leaves(child)
    elif isinstance(node, RowBroadcast):
        yield from ir_leaves(node.vec)
        yield from ir_leaves(node.mat)
    elif isinstance(node, Nonlinear):
        yield from ir_leaves(node.child)
    elif isinstance(node, Attention):
        yield node.pattern
        yield from ir_leaves(node.theta)
    else:
        raise TypeError(f"unknown IR node {node!r}")


def ir_repr(node: IRNode) -> str:
    """Compact textual form, e.g. ``(D . A . D . H . W)``."""
    if isinstance(node, Leaf):
        return node.name
    if isinstance(node, MatMul):
        return "(" + " . ".join(ir_repr(c) for c in node.children) + ")"
    if isinstance(node, Add):
        return "(" + " + ".join(ir_repr(c) for c in node.children) + ")"
    if isinstance(node, RowBroadcast):
        return f"rb({ir_repr(node.vec)}, {ir_repr(node.mat)})"
    if isinstance(node, Nonlinear):
        return f"{node.name}({ir_repr(node.child)})"
    if isinstance(node, Attention):
        return f"atten({node.pattern.name}, {ir_repr(node.theta)})"
    raise TypeError(f"unknown IR node {node!r}")
