"""Frontend tests: AST translation agrees with the direct IR builders."""

import pytest

from repro.core.assoc import enumerate_candidates
from repro.core.frontend import FrontendError, parse_forward
from repro.core.ir import ir_repr
from repro.core.modelir import build_model_ir
from repro.core.rewrite import rewrite_variants
from repro.framework import GNNModule
from repro.models import (
    GATLayer,
    GCNLayer,
    GINLayer,
    SAGELayer,
    SGCLayer,
    TAGCNLayer,
)


@pytest.fixture
def layers(rng):
    return {
        "gcn": GCNLayer(8, 4, rng=rng),
        "gin": GINLayer(8, 4, rng=rng),
        "sgc": SGCLayer(8, 4, hops=2, rng=rng),
        "tagcn": TAGCNLayer(8, 4, hops=2, rng=rng),
        "gat": GATLayer(8, 4, rng=rng),
    }


KWARGS = {"sgc": {"hops": 2}, "tagcn": {"hops": 2}}


class TestParseAgreesWithBuilders:
    @pytest.mark.parametrize("name", ["gcn", "gin", "sgc", "tagcn", "gat"])
    def test_candidate_sets_identical(self, layers, name):
        parsed = parse_forward(layers[name])
        direct = build_model_ir(name, **KWARGS.get(name, {}))
        parsed_cands = {
            (c.output, c.steps)
            for c in enumerate_candidates(rewrite_variants(parsed))
        }
        direct_cands = {
            (c.output, c.steps)
            for c in enumerate_candidates(rewrite_variants(direct))
        }
        assert parsed_cands == direct_cands

    @pytest.mark.parametrize("name", ["gcn", "sgc", "tagcn", "gat"])
    def test_ir_repr_identical(self, layers, name):
        # GIN parses to the distributed source form (semantically equal but
        # textually different), every other model matches exactly.
        parsed = parse_forward(layers[name])
        direct = build_model_ir(name, **KWARGS.get(name, {}))
        assert ir_repr(parsed) == ir_repr(direct)

    def test_hops_resolved_from_instance(self, rng):
        for hops in (1, 3):
            layer = SGCLayer(8, 4, hops=hops, rng=rng)
            parsed = parse_forward(layer)
            direct = build_model_ir("sgc", hops=hops)
            assert ir_repr(parsed) == ir_repr(direct)

    def test_activation_flag_respected(self, rng):
        with_act = GCNLayer(8, 4, activation=True, rng=rng)
        without = GCNLayer(8, 4, activation=False, rng=rng)
        assert ir_repr(parse_forward(with_act)).startswith("relu(")
        assert not ir_repr(parse_forward(without)).startswith("relu(")

    def test_tagcn_weight_names(self, rng):
        parsed = parse_forward(TAGCNLayer(8, 4, hops=2, rng=rng))
        text = ir_repr(parsed)
        assert "W0" in text and "W1" in text and "W2" in text

    def test_gat_attention_node(self, rng):
        parsed = parse_forward(GATLayer(8, 4, rng=rng))
        assert "atten(A, (H . W))" in ir_repr(parsed)


class TestUnsupportedConstructs:
    def test_sage_mean_agg_not_translatable(self, rng):
        # SAGE's mean aggregation uses a weighted helper outside the
        # translated vocabulary; the frontend must fail loudly, not guess.
        with pytest.raises(FrontendError):
            parse_forward(SAGELayer(8, 4, rng=rng))

    def test_arbitrary_python_rejected(self):
        class Weird(GNNModule):
            def forward(self, g, feat):
                while True:
                    break
                return feat

        with pytest.raises(FrontendError):
            parse_forward(Weird())

    def test_unknown_function_rejected(self):
        class Mystery(GNNModule):
            def forward(self, g, feat):
                h = mystery_op(feat)  # noqa: F821
                return h

        with pytest.raises(FrontendError):
            parse_forward(Mystery())

    def test_non_matrix_return_rejected(self):
        class Scalar(GNNModule):
            def forward(self, g, feat):
                return 42

        with pytest.raises(FrontendError):
            parse_forward(Scalar())

    def test_unknown_scalar_multiply_rejected(self):
        # only GIN's (1+eps) scalar is in the vocabulary; anything else
        # must fail loudly instead of silently mapping onto the Eps leaf
        class Scaled(GNNModule):
            def forward(self, g, feat):
                h = feat * 0.5
                return h

        with pytest.raises(FrontendError):
            parse_forward(Scaled())

    def test_appnp_falls_back_to_builder(self, rng):
        # APPNP's teleport arithmetic is outside the vocabulary: the
        # engine must compile it through the registered IR builder
        from repro.core import GraniiEngine
        from repro.models import APPNPLayer

        layer = APPNPLayer(8, 4, hops=2, rng=rng)
        with pytest.raises(FrontendError):
            parse_forward(layer)
        engine = GraniiEngine(device="h100", scale="small")
        compiled = engine.compile_for(layer)
        assert compiled.model_name == "appnp"
