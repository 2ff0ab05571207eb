"""A NumPy-backed reverse-mode autograd engine.

This is the reproduction's stand-in for PyTorch: the smallest tensor
library that supports training the paper's five GNN models (GCN, GIN, SGC,
TAGCN, GAT).  Forward passes build a DAG of :class:`Tensor` nodes; calling
:meth:`Tensor.backward` on a scalar loss runs a topological-order sweep of
the recorded vector-Jacobian products.

The tape is *need-aware* and *copy-free* through one seam.  An op hands
:meth:`Tensor.make` one VJP callable per parent; only those of parents
that require grad are recorded, so the gradient of a constant (input
features, a lifted scalar) is never computed.  The sweep owns all
accumulation (:meth:`Tensor.accumulate_grad`): an interior node *borrows*
the first gradient that reaches it, allocates once if a second arrives
and adds in place after that; a leaf always owns a private copy.

Step-sized arrays — an op's result, a VJP's return value, the sum of two
gradients — come from the calling thread's buffer pool
(:func:`repro.kernels.workspace.step_buffer`), which hands a buffer out
again only once nothing references it.  The ownership rule that makes
this safe is the tape's own: nobody writes an array they were handed
(see :meth:`Tensor.make`).

Only the dense operations live here.  The sparse operations that give GNNs
their structure (SpMM over a fixed adjacency, SDDMM, edge softmax) are in
:mod:`repro.tensor.sparse_ops` so the dependency points from sparse to
dense, never back.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..kernels.workspace import step_buffer

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# maps the gradient of an op's result to one parent's share of it
VJP = Callable[[np.ndarray], np.ndarray]


class _GradMode(threading.local):
    """Whether this thread records the tape; every thread starts on."""

    enabled = True


_GRAD = _GradMode()


class no_grad:
    """Context manager disabling graph construction (inference mode) on
    the calling thread; other threads keep recording."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD.enabled
        _GRAD.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD.enabled = self._prev


def is_grad_enabled() -> bool:
    return _GRAD.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _identity(grad: np.ndarray) -> np.ndarray:
    return grad


def _elementwise(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` written into a pooled result."""
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    return ufunc(a, b, out=step_buffer(shape))


def _zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """Pooled zeros for a scatter-add to land in."""
    out = step_buffer(shape)
    out.fill(0.0)
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; a matrix-matrix product lands in a pooled result."""
    if a.ndim != 2 or b.ndim != 2:
        return a @ b
    return np.matmul(a, b, out=step_buffer((a.shape[0], b.shape[1])))


class Tensor:
    """A node in the autograd graph wrapping a ``float64`` ndarray."""

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_vjps", "_owns_grad", "op"
    )

    def __init__(self, data, requires_grad: bool = False, op: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        # the parents that require grad and, aligned with them, their VJPs;
        # both empty on a leaf
        self._parents: Tuple[Tensor, ...] = ()
        self._vjps: Tuple[VJP, ...] = ()
        self._owns_grad = True
        self.op = op

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: Union["Tensor", float, int, np.ndarray]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        vjps: Sequence[VJP],
        op: str,
    ) -> "Tensor":
        """Create the result tensor of an op over ``parents``.

        ``vjps[i]`` maps the gradient of the result to ``parents[i]``'s
        share of it (any shape that broadcasts down to the parent's).  A
        VJP is recorded only when its parent requires grad and grad mode
        is on, so the sweep never calls one whose result nobody reads.

        Ownership.  A VJP never writes to the gradient it is given — the
        same array may be on its way to other parents — and the array it
        returns is never written by anyone else: it may be the incoming
        gradient itself, a view of it, or a buffer the op hands over.
        Likewise nobody writes ``data`` after this call.  Both ``data``
        and a VJP's return value may therefore come from the step pool:
        the pool hands a buffer out again only when its reference count
        shows no holder (:func:`repro.kernels.workspace._sole_holder`),
        so an array is stable for as long as anyone can reach it, and
        letting go of it is the only release there is.
        """
        out = Tensor(data, op=op)
        if _GRAD.enabled:
            live = [(p, f) for p, f in zip(parents, vjps) if p.requires_grad]
            if live:
                out.requires_grad = True
                out._parents, out._vjps = zip(*live)
        return out

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add one incoming gradient; :meth:`backward` is the only caller.

        An interior node borrows the first array that reaches it, replaces
        it by a fresh sum when a second one arrives and adds in place from
        then on, so a borrowed array is never written.  The fresh sum is
        pooled: this node is its only holder, and the pool will not hand
        the buffer to anyone else until the node lets go.  A leaf copies
        the first one into an array of its own, never a pooled one: its
        ``.grad`` outlives the sweep and belongs to the user, whose
        ``p.grad *= c`` must not reach another tensor.
        """
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            if self._vjps:
                self.grad = grad
                self._owns_grad = False
            else:
                self.grad = np.array(grad, dtype=np.float64)
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad = _elementwise(np.add, self.grad, grad)
            self._owns_grad = True

    # ------------------------------------------------------------------
    # Shape & basics
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag}, op={self.op!r})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return Tensor.make(
            _elementwise(np.add, self.data, other.data),
            (self, other),
            (_identity, _identity),
            "add",
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor.make(-self.data, (self,), (np.negative,), "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return Tensor.make(
            _elementwise(np.multiply, self.data, other.data),
            (self, other),
            (
                lambda g: _elementwise(np.multiply, g, other.data),
                lambda g: _elementwise(np.multiply, g, self.data),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return Tensor.make(
            self.data / other.data,
            (self, other),
            (
                lambda g: g / other.data,
                lambda g: -g * self.data / (other.data ** 2),
            ),
            "div",
        )

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return Tensor.make(
            _matmul(self.data, other.data),
            (self, other),
            (
                lambda g: _matmul(g, other.data.T),
                lambda g: _matmul(self.data.T, g),
            ),
            "matmul",
        )

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor.make(
            self.data ** exponent,
            (self,),
            (lambda g: g * exponent * self.data ** (exponent - 1),),
            "pow",
        )

    # ------------------------------------------------------------------
    # Reductions & reshapes
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def vjp(g: np.ndarray) -> np.ndarray:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)

        return Tensor.make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), (vjp,), "sum"
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor.make(
            self.data.reshape(shape),
            (self,),
            (lambda g: g.reshape(self.data.shape),),
            "reshape",
        )

    @property
    def T(self) -> "Tensor":
        return Tensor.make(self.data.T, (self,), (lambda g: g.T,), "transpose")

    def __getitem__(self, idx) -> "Tensor":
        def vjp(g: np.ndarray) -> np.ndarray:
            full = _zeros(self.data.shape)
            np.add.at(full, idx, g)
            return full

        return Tensor.make(self.data[idx], (self,), (vjp,), "getitem")

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Leaves accumulate into ``.grad`` across calls; an interior node's
        gradient lives only until its VJPs have run, so a second sweep
        over the same graph starts clean and nothing gradient-sized
        outlives the call.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
        # post-order over the recorded parents (iterative: a 5000-op chain
        # would blow the recursion limit)
        topo: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            current, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                topo.append(current)
                stack.pop()

        self.accumulate_grad(grad)
        for node in reversed(topo):
            if not node._vjps:
                continue
            grad, node.grad = node.grad, None
            for parent, vjp in zip(node._parents, node._vjps):
                parent.accumulate_grad(vjp(grad))
