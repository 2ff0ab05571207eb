"""Property-based tests for the autograd engine.

Random compositions of dense ops must satisfy (a) finite-difference
gradient checks and (b) linearity of the backward pass in the upstream
gradient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, elu, leaky_relu, log_softmax, relu, sigmoid

_UNARY = {
    "relu": relu,
    "leaky_relu": lambda t: leaky_relu(t, 0.1),
    "elu": elu,
    "sigmoid": sigmoid,
    "log_softmax": log_softmax,
    "square": lambda t: t * t,
    "scale": lambda t: t * 3.0,
    "shift": lambda t: t + 1.5,
    "transpose_back": lambda t: t.T.T,
}


def numerical_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


@st.composite
def op_chains(draw):
    return draw(
        st.lists(st.sampled_from(sorted(_UNARY)), min_size=1, max_size=4)
    )


class TestAutogradProperties:
    @given(op_chains(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_chain_gradcheck(self, chain, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((3, 4)) + 0.15  # avoid relu kinks at 0

        def apply(value: Tensor) -> Tensor:
            out = value
            for name in chain:
                out = _UNARY[name](out)
            return out

        x = Tensor(x0.copy(), requires_grad=True)
        (apply(x) * apply(x)).sum().backward()

        def scalar(v):
            return float((apply(Tensor(v)).data ** 2).sum())

        expected = numerical_grad(scalar, x0.copy())
        # relative tolerance: repeated squaring can blow gradients up to
        # ~1e8 where central differences only carry ~3 significant digits;
        # kinked ops (relu/leaky) get the +0.15 shift to avoid the kink.
        # The absolute tolerance must track the cancellation floor of the
        # difference quotient: each f evaluation is only accurate to
        # |f|·ε_machine, so (f₊ - f₋)/(2h) carries |f|·ε/h of noise —
        # dominant wherever the summed output dwarfs an entry's gradient.
        fd_noise = abs(scalar(x0.copy())) * np.finfo(np.float64).eps / 1e-6
        atol = max(1e-3, 4.0 * fd_noise)
        assert np.allclose(x.grad, expected, rtol=1e-2, atol=atol)

    @given(op_chains(), st.integers(0, 2**31 - 1), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_backward_linear_in_upstream_gradient(self, chain, seed, scale):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((2, 3)) + 0.15

        def grad_with_upstream(factor):
            x = Tensor(x0.copy(), requires_grad=True)
            out = x
            for name in chain:
                out = _UNARY[name](out)
            out.backward(np.full(out.shape, factor))
            return x.grad

        g1 = grad_with_upstream(1.0)
        gs = grad_with_upstream(scale)
        assert np.allclose(gs, scale * g1, atol=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grad_accumulation_additive(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((4,))
        x = Tensor(x0.copy(), requires_grad=True)
        (x * 2.0).sum().backward()
        first = x.grad.copy()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, first + 3.0)
