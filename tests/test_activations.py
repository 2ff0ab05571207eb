"""One implementation per non-linearity, bitwise equal to the forms it replaced.

``kernels/dense.py`` computes ``leaky_relu`` and ``elu`` as arithmetic
(``max``/``min``/``exp``) instead of ``np.where(x > 0, …)``.  Every
route to an activation — the tensor op forward and VJP, and the plan
interpreter's nonlinearity step — must give the same bits as the where
expression, compared as ``int64`` views over inputs holding ±0.0, ±inf,
NaN of either sign, subnormals and random normals.  A forward builds no
``x > 0`` mask; only a VJP does.
"""

import numpy as np
import pytest

import repro.kernels.dense as dense
from repro.core.plan import _apply_nonlinear
from repro.graphs.generators import erdos_renyi
from repro.kernels import edge_softmax, segment_max, segment_sum
from repro.sparse import CSRMatrix
from repro.tensor import Tensor, no_grad
from repro.tensor import elu as t_elu
from repro.tensor import leaky_relu as t_leaky_relu
from repro.tensor import relu as t_relu
from repro.tensor import sigmoid as t_sigmoid

SLOPES = (0.0, 0.01, 0.2, 1.0, 1.5, -0.1)
ALPHAS = (1.0, 0.5)

SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2e-308,
    1.0, -1.0, 1e308, -1e308, 710.0, -745.0,
])


def _inputs(n: int = 4761 * 4, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        np.tile(SPECIALS, 8),
        rng.standard_normal(n),
        rng.standard_normal(256) * 1e-310,
    ])
    rng.shuffle(x)
    return x


X = _inputs()
G = np.random.default_rng(1).standard_normal(X.shape)
G[:: 97] = np.nan
G[1:: 89] = np.inf
G[2:: 83] = -0.0


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    bad = np.flatnonzero(_bits(got) != _bits(want))
    assert bad.size == 0, (
        f"{bad.size} elements differ, e.g. at {bad[:5]}: "
        f"got {got.ravel()[bad[:5]]}, want {want.ravel()[bad[:5]]}"
    )


# -- the np.where expressions the arithmetic forms replace --------------
def where_relu(x):
    return np.maximum(x, 0.0)


def where_relu_vjp(x, g):
    return g * (x > 0)


def where_leaky(x, s):
    return np.where(x > 0, x, s * x)


def where_leaky_vjp(x, g, s):
    return g * np.where(x > 0, 1.0, s)


def where_elu(x, a):
    return np.where(x > 0, x, a * (np.exp(np.minimum(x, 0.0)) - 1.0))


def where_elu_vjp(x, g, a):
    neg = a * (np.exp(np.minimum(x, 0.0)) - 1.0)
    return g * np.where(x > 0, 1.0, neg + a)


def indexed_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# (name, tensor op, reference forward, reference vjp), one per setting
CASES = (
    [("relu", t_relu, where_relu, where_relu_vjp)]
    + [
        (f"leaky_relu[{s}]",
         lambda t, s=s: t_leaky_relu(t, s),
         lambda x, s=s: where_leaky(x, s),
         lambda x, g, s=s: where_leaky_vjp(x, g, s))
        for s in SLOPES
    ]
    + [
        (f"elu[{a}]",
         lambda t, a=a: t_elu(t, a),
         lambda x, a=a: where_elu(x, a),
         lambda x, g, a=a: where_elu_vjp(x, g, a))
        for a in ALPHAS
    ]
    + [("sigmoid", t_sigmoid, indexed_sigmoid,
        lambda x, g: g * indexed_sigmoid(x) * (1.0 - indexed_sigmoid(x)))]
)
IDS = [c[0] for c in CASES]

# interpreter and epilogue nonlinearities carry their default parameters
DEFAULTS = {
    "relu": where_relu,
    "leaky_relu": lambda x: where_leaky(x, 0.2),
    "elu": lambda x: where_elu(x, 1.0),
    "sigmoid": indexed_sigmoid,
}

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("shape", [(X.size,), (X.size // 32, 32)], ids=["edges", "nodes"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tensor_forward_bitwise(case, shape):
    _, op, ref, _ = case
    x = X[: int(np.prod(shape))].reshape(shape)
    assert_bitwise(op(Tensor(x, requires_grad=True)).data, ref(x))
    with no_grad():
        assert_bitwise(op(Tensor(x)).data, ref(x))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tensor_vjp_bitwise(case):
    _, op, _, ref_vjp = case
    x = Tensor(X.copy(), requires_grad=True)
    op(x).backward(G)
    assert_bitwise(x.grad, ref_vjp(X, G))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_dense_forward_leaves_its_input_untouched(case):
    """``kernels/dense`` writes each forward into a step buffer, never its input."""
    name, _, ref, _ = case
    fn = {"relu": dense.relu, "sigmoid": dense.sigmoid}.get(name)
    if fn is None:
        param = float(name.split("[")[1].rstrip("]"))
        base = dense.leaky_relu if name.startswith("leaky") else dense.elu
        fn = lambda x: base(x, param)  # noqa: E731
    x = X.copy()
    got = fn(x)
    assert not np.shares_memory(got, x)
    assert_bitwise(x, X)
    assert_bitwise(got, ref(X))


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_interpreter_nonlinearity_bitwise(name):
    x = X.reshape(-1, 4)
    assert_bitwise(_apply_nonlinear(name, Tensor(x)).data, DEFAULTS[name](x))


@pytest.fixture
def pool_takes(monkeypatch):
    """The dtypes of every step-pool take the activations make."""
    taken = []
    real = dense.step_buffer

    def counting(shape, dtype=np.float64):
        taken.append(np.dtype(dtype))
        return real(shape, dtype)

    monkeypatch.setattr(dense, "step_buffer", counting)
    return taken


@pytest.mark.parametrize("op", [t_relu, t_leaky_relu, t_elu], ids=["relu", "leaky_relu", "elu"])
def test_forward_builds_no_mask(op, pool_takes):
    x = X[: X.size // 32 * 32].reshape(-1, 32)
    with no_grad():
        op(Tensor(x))
    assert pool_takes and np.dtype(np.bool_) not in pool_takes
    del pool_takes[:]
    y = op(Tensor(x, requires_grad=True))
    assert np.dtype(np.bool_) not in pool_takes
    y.backward(G[: x.size].reshape(x.shape))
    assert np.dtype(np.bool_) in pool_takes


def _repeat_edge_softmax(adj: CSRMatrix, logits: np.ndarray) -> np.ndarray:
    """The np.repeat formulation edge_softmax gathers instead of."""
    deg = adj.row_degrees()
    row_max = segment_max(logits, adj.indptr)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exps = np.exp(logits - np.repeat(safe_max, deg))
    denom = segment_sum(exps, adj.indptr)
    return exps / np.repeat(np.where(denom > 0, denom, 1.0), deg)


def test_edge_softmax_gather_bitwise():
    adj = erdos_renyi(300, 5.0, seed=7).adj
    rng = np.random.default_rng(2)
    logits = rng.standard_normal(adj.nnz) * 30.0
    logits[adj.indptr[3]:adj.indptr[4]] = -np.inf  # a fully masked row
    logits[rng.integers(0, adj.nnz, 8)] = -np.inf
    logits[adj.indptr[9]] = np.inf
    logits[adj.indptr[11]] = np.nan
    assert_bitwise(edge_softmax(adj, logits).values, _repeat_edge_softmax(adj, logits))
    # rows without edges, and no edges at all
    sparse = CSRMatrix(np.array([0, 0, 2, 2, 3]), np.array([1, 3, 0]), None, (4, 4))
    vals = np.array([0.5, -2.0, 7.0])
    assert_bitwise(edge_softmax(sparse, vals).values, _repeat_edge_softmax(sparse, vals))
    empty = CSRMatrix(np.zeros(4, np.int64), np.zeros(0, np.int64), None, (3, 3))
    assert edge_softmax(empty, np.zeros(0)).values.shape == (0,)


def test_segment_sum_zero_column_is_shared_and_read_only():
    indptr = np.array([0, 2, 5])
    assert np.array_equal(segment_sum(np.arange(5.0), indptr), [1.0, 9.0])
    from repro.kernels.softmax import _zero_column

    a, b = _zero_column(5), _zero_column(3)
    assert np.shares_memory(a, b) and not a.flags.writeable and not a.any()
