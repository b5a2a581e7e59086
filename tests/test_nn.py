import numpy as np
import numpy.testing as npt
import pytest

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, backward, grad_check_directional
from xraynet.nn import (ArchitectureConfig, DenseBlock, ParameterStore, ResidualBlock,
                        build_model, freeze_backbone, mini_densenet, mini_resnet, replace_head)
from xraynet.rng import derive_stream


def small_input(shape, seed=0, lo=0.0, hi=1.0):
    return derive_stream(seed, "nn.test").uniform_array(shape, lo, hi).astype(np.float32)


class TestBuild:
    def test_mini_resnet_shape_propagation(self):
        model = build_model(mini_resnet(num_classes=4, input_size=64), derive_stream(0, "init"))
        logits = model.forward(small_input((2, 1, 64, 64)), train=True, update_stats=False)
        assert logits.shape == (2, 4)

    def test_mini_densenet_shape_propagation(self):
        model = build_model(mini_densenet(num_classes=4, input_size=64), derive_stream(0, "init"))
        logits = model.forward(small_input((2, 1, 64, 64)), train=True, update_stats=False)
        assert logits.shape == (2, 4)

    def test_dense_block_output_channels(self):
        store = ParameterStore()
        block = DenseBlock(store, "blk", 16, 4, 8, derive_stream(1, "init"), np.float32)
        assert block.out_channels == 16 + 4 * 8 == 48
        out = block(Variable(small_input((1, 16, 8, 8))), train=True, update_stats=False)
        assert out.shape == (1, 48, 8, 8)

    @pytest.mark.parametrize("cin,layers,growth", [(3, 1, 5), (8, 2, 4), (16, 4, 8)])
    def test_dense_block_channel_formula(self, cin, layers, growth):
        store = ParameterStore()
        block = DenseBlock(store, "blk", cin, layers, growth, derive_stream(2, "init"), np.float32)
        out = block(Variable(small_input((1, cin, 6, 6))), train=True, update_stats=False)
        assert out.shape[1] == cin + layers * growth

    def test_same_seed_bit_identical_parameters(self):
        a = build_model(mini_resnet(), derive_stream(3, "init"))
        b = build_model(mini_resnet(), derive_stream(3, "init"))
        assert a.store.params.keys() == b.store.params.keys()
        for name in a.store.params:
            npt.assert_array_equal(a.store.params[name].data, b.store.params[name].data)

    def test_feature_collapse_names_offending_stage(self):
        with pytest.raises(ValueError, match="transition2"):
            build_model(mini_densenet(input_size=2), derive_stream(0, "init"))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(family="vgg")
        with pytest.raises(ValueError):
            ArchitectureConfig(family="resnet", num_classes=1)

    def test_parameters_registered_once_and_buffers_present(self):
        model = build_model(mini_resnet(), derive_stream(4, "init"))
        names = list(model.store.params)
        assert len(names) == len(set(names))
        assert "head.weight" in names and "head.bias" in names
        assert "stem.bn.running_mean" in model.store.buffers


class TestResidualBlock:
    def _zeroed_block(self, channels=4):
        store = ParameterStore()
        block = ResidualBlock(store, "blk", channels, channels, 1, derive_stream(5, "init"), np.float32)
        assert block.proj is None  # identity skip
        for name, p in store.params.items():
            if name.endswith(".kernel") or name.endswith(".gamma"):
                p.data[...] = 0.0
        return block

    def test_zeroed_branch_passes_relu_of_input(self):
        block = self._zeroed_block()
        x = small_input((2, 4, 6, 6), lo=-1.0, hi=1.0)
        out = block(Variable(x), train=True, update_stats=False)
        npt.assert_allclose(out.data, np.maximum(x, 0.0), atol=1e-7)

    def test_zeroed_branch_positive_input_is_identity_with_unit_gradient(self):
        block = self._zeroed_block()
        x = Variable(small_input((1, 4, 5, 5), lo=0.1, hi=1.0), requires_grad=True)
        out = block(x, train=True, update_stats=False)
        npt.assert_allclose(out.data, x.data, atol=1e-7)
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_projection_skip_when_shape_changes(self):
        store = ParameterStore()
        block = ResidualBlock(store, "blk", 4, 8, 2, derive_stream(6, "init"), np.float32)
        assert block.proj is not None
        out = block(Variable(small_input((2, 4, 8, 8))), train=True, update_stats=False)
        assert out.shape == (2, 8, 4, 4)

    def test_gradients_match_fd(self):
        store = ParameterStore()
        block = ResidualBlock(store, "blk", 3, 3, 1, derive_stream(7, "init"), np.float32)
        x = small_input((2, 3, 5, 5), seed=8)
        proj = ad.constant(small_input((2, 3, 5, 5), seed=9, lo=0.3, hi=1.2))

        def f():
            return ad.sum_axes(ad.bmul(block(Variable(x), train=True, update_stats=False), proj))

        err = grad_check_directional(f, list(store.params.values()), h=1e-3)
        assert err < 1e-2


class TestDenseBlockStructure:
    def test_zeroed_layers_pass_input_channels_through(self):
        store = ParameterStore()
        block = DenseBlock(store, "blk", 5, 3, 4, derive_stream(10, "init"), np.float32)
        for name, p in store.params.items():
            if name.endswith(".kernel"):
                p.data[...] = 0.0
        x = small_input((2, 5, 6, 6), seed=11, lo=-1.0, hi=1.0)
        out = block(Variable(x), train=True, update_stats=False)
        npt.assert_array_equal(out.data[:, :5], x)       # raw input rides first
        npt.assert_allclose(out.data[:, 5:], 0.0, atol=1e-7)  # zeroed layer outputs

    def test_gradients_match_fd(self):
        store = ParameterStore()
        block = DenseBlock(store, "blk", 4, 2, 3, derive_stream(12, "init"), np.float32)
        x = small_input((2, 4, 5, 5), seed=13)
        proj = ad.constant(small_input((2, 10, 5, 5), seed=14, lo=0.3, hi=1.2))

        def f():
            return ad.sum_axes(ad.bmul(block(Variable(x), train=True, update_stats=False), proj))

        err = grad_check_directional(f, list(store.params.values()), h=1e-3)
        assert err < 1e-2


class TestHeadAndFreeze:
    def test_replace_head_redimensions_and_preserves_backbone(self):
        model = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(15, "init"))
        before = {n: p.data.copy() for n, p in model.store.params.items()
                  if not n.startswith("head.")}
        replace_head(model, 2, derive_stream(16, "head"))
        logits = model.forward(small_input((3, 1, 32, 32)), train=True, update_stats=False)
        assert logits.shape == (3, 2)
        for name, data in before.items():
            npt.assert_array_equal(model.store.params[name].data, data)

    def test_replace_same_size_head_reinitializes(self):
        model = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(17, "init"))
        old = model.store.params["head.weight"].data.copy()
        replace_head(model, 4, derive_stream(18, "head"))
        assert not np.array_equal(model.store.params["head.weight"].data, old)

    def test_replace_head_rejects_single_class(self):
        model = build_model(mini_resnet(input_size=32), derive_stream(19, "init"))
        with pytest.raises(ValueError, match="at least 2"):
            replace_head(model, 1, derive_stream(20, "head"))

    def test_freeze_marks_backbone_only(self):
        model = build_model(mini_densenet(input_size=32), derive_stream(21, "init"))
        freeze_backbone(model)
        for name, p in model.store.params.items():
            assert p.requires_grad == name.startswith("head.")
        assert set(model.trainable_params()) == {"head.weight", "head.bias"}
