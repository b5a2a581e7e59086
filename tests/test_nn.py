import zlib

import numpy as np
import numpy.testing as npt
import pytest

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, affine_relu, backward, batch_norm, normalize
from xraynet.nn import (ArchitectureConfig, BatchNorm2d, DenseBlock, ParameterStore,
                        ResidualBlock, Transition, build_model, fold_running, freeze_backbone,
                        mini_densenet, mini_resnet, replace_head)
from xraynet.rng import derive_stream
from xraynet.verification import grad_check_directional


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

    def test_too_small_input_rejected_at_config(self):
        # two densenet transitions each halve the map; a resnet stage keeps 1 px at 1 px
        with pytest.raises(ValueError, match="densenet needs inputs of at least 4 px, got 2"):
            mini_densenet(input_size=2)
        with pytest.raises(ValueError, match="densenet needs inputs of at least 4 px, got 3"):
            ArchitectureConfig("densenet", 3)
        with pytest.raises(ValueError, match="resnet needs inputs of at least 1 px, got 0"):
            ArchitectureConfig("resnet", 0)

    @pytest.mark.parametrize("family,smallest", [("resnet", 1), ("densenet", 4)])
    def test_buildable_input_sizes(self, family, smallest):
        for size in range(-1, 7):
            if size < smallest:
                with pytest.raises(ValueError, match=f"at least {smallest} px"):
                    build_model(ArchitectureConfig(family, size), derive_stream(0, "init"))
            else:
                model = build_model(ArchitectureConfig(family, size), derive_stream(0, "init"))
                assert model.forward(small_input((1, 1, size, size))).shape == (1, 4)

    @pytest.mark.parametrize("family,smallest", [("resnet", 1), ("densenet", 4)])
    def test_smallest_map_is_the_smallest_a_train_mode_batch_norm_reads(self, monkeypatch,
                                                                         family, smallest):
        sides, real = [], ad.normalize

        def recorded(x):
            sides.extend(x.data.shape[2:])
            return real(x)

        monkeypatch.setattr(ad, "normalize", recorded)
        for size in range(smallest, 20):
            config = ArchitectureConfig(family, size)
            sides.clear()
            build_model(config, derive_stream(0, "init")).forward(
                small_input((2, 1, size, size)), train=True)
            assert min(sides) == config.smallest_map, size

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

    def test_train_mode_makes_no_batch_norm_call(self, monkeypatch):
        # every train-mode batch norm is normalize + affine_relu; batch_norm
        # is inference mode only
        store = ParameterStore()
        block = ResidualBlock(store, "blk", 4, 8, 2, derive_stream(6, "init"), np.float32)
        assert block.proj_bn is not None

        def refused(*args, **kwargs):
            raise AssertionError("batch_norm called in a train-mode block")

        monkeypatch.setattr(ad, "batch_norm", refused)
        x = Variable(small_input((2, 4, 8, 8)), requires_grad=True)
        backward(ad.sum_axes(block(x, train=True, update_stats=True)))
        assert np.abs(x.grad).max() > 0
        assert all(np.abs(p.grad).max() > 0 for p in store.params.values())

    def test_gradients_match_fd(self):
        store = ParameterStore()
        block = ResidualBlock(store, "blk", 3, 3, 1, derive_stream(7, "init"), np.float32)
        x = small_input((2, 3, 5, 5), seed=8)
        proj = ad.constant(small_input((2, 3, 5, 5), seed=9, lo=0.3, hi=1.2))

        def f():
            return ad.sum_axes(ad.bmul(block(Variable(x), train=True, update_stats=False), proj))

        err = grad_check_directional(f, list(store.params.values()))
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

        err = grad_check_directional(f, list(store.params.values()))
        assert err < 1e-2


def per_layer_reference(block, x, train, update_stats):
    """The dense block as each layer's batch norm -> relu -> conv over the
    concatenation of every earlier chunk, composed from the ops alone with
    nothing shared between layers: in train mode each layer normalizes its
    own concatenation, and a frozen layer normalizes by its running
    statistics. The ops are bound at import, so a test that patches
    `ad.affine_relu` or `ad.normalize` changes the block, not this oracle."""
    feats = [x]
    for bn, conv in block.layers:
        cat = feats[0] if len(feats) == 1 else ad.concat_channels(feats)
        if train and bn.gamma.requires_grad:
            xhat, mu, var = normalize(cat)
            if update_stats:
                fold_running(bn.running_mean, bn.running_var, mu, var,
                             xhat.data.size // xhat.data.shape[1])
            h = affine_relu([xhat], bn.gamma, bn.beta)
        else:
            h = ad.relu(batch_norm([cat], bn.gamma, bn.beta, bn.running_mean, bn.running_var))
        feats.append(conv(h))
    return ad.concat_channels(feats)


class TestDenseBlockSharedStatistics:
    """A train-mode DenseBlock normalizes each chunk once and gives each
    layer its own affine + relu; the per-layer composition is its oracle."""

    # (batch, input channels, layers, growth, size): an odd shape, and the
    # first MiniDenseNet block at 64 px and batch 8
    SHAPES = {"odd": (3, 5, 3, 4, 7), "mini": (8, 16, 4, 8, 64)}

    def _block(self, shape, dtype):
        n, cin, layers, growth, size = shape
        store = ParameterStore()
        block = DenseBlock(store, "blk", cin, layers, growth, derive_stream(30, "init"), dtype)
        rng = derive_stream(31, "nn.test")
        for name, p in store.params.items():  # gammas and betas away from 1 and 0
            if name.endswith(".gamma"):
                p.data[...] = rng.uniform_array(p.data.shape, 0.5, 1.5)
            elif name.endswith(".beta"):
                p.data[...] = rng.uniform_array(p.data.shape, -0.3, 0.3)
        x = rng.uniform_array((n, cin, size, size), -1.0, 1.0).astype(dtype)
        proj = rng.uniform_array((n, block.out_channels, size, size), 0.3, 1.2).astype(dtype)
        return store, block, x, proj

    @staticmethod
    def _run(forward, store, x, proj):
        """Output, running buffers and gradients of sum(forward(x) * proj);
        the buffers are restored afterwards."""
        saved = {n: b.copy() for n, b in store.buffers.items()}
        xv = Variable(x, requires_grad=True)
        store.zero_grads()
        out = forward(xv)
        backward(ad.sum_axes(ad.bmul(out, ad.constant(proj))))
        buffers = {n: b.copy() for n, b in store.buffers.items()}
        for n, b in store.buffers.items():
            b[...] = saved[n]
        grads = {n: v.grad.copy() for n, v in store.params.items()}
        grads["x"] = xv.grad.copy()
        return out.data, buffers, grads

    def _gradient_gap(self, shape):
        """Largest relative gradient difference, block vs oracle, in float64."""
        store, block, x, proj = self._block(shape, np.float64)
        _, _, got = self._run(lambda v: block(v, True, True), store, x, proj)
        _, _, want = self._run(lambda v: per_layer_reference(block, v, True, True), store, x, proj)
        return max(np.abs(got[n] - want[n]).max() / np.abs(want[n]).max() for n in want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_outputs_and_running_buffers_bit_identical(self, shape, dtype):
        store, block, x, proj = self._block(self.SHAPES[shape], dtype)
        out, buffers, _ = self._run(lambda v: block(v, True, True), store, x, proj)
        ref_out, ref_buffers, _ = self._run(
            lambda v: per_layer_reference(block, v, True, True), store, x, proj)
        assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
        for name, buf in ref_buffers.items():
            assert buffers[name].tobytes() == buf.tobytes(), name
        assert any(not np.array_equal(buf, store.buffers[n]) for n, buf in buffers.items())

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_gradients_match_in_float64(self, shape):
        assert self._gradient_gap(self.SHAPES[shape]) < 1e-12

    @pytest.mark.parametrize("mutant", ["own_chunk_only", "last_layer_dropped"])
    def test_gradient_check_catches_a_wrong_chunk_sum(self, monkeypatch, mutant):
        # own_chunk_only: a chunk's gradient carries only the gamma of the
        # layer that first reads it; last_layer_dropped: the last layer's
        # gradient reaches no chunk
        shape = self.SHAPES["odd"]
        real = ad.affine_relu

        def broken(xs, gamma, beta, relu=True):
            out = real(xs, gamma, beta, relu)
            drop = xs[:-1] if mutant == "own_chunk_only" else \
                (xs if len(xs) == shape[2] else [])
            out._edges = tuple((v, f) for v, f in out._edges
                               if not any(v is d for d in drop))
            return out

        monkeypatch.setattr(ad, "affine_relu", broken)
        assert self._gradient_gap(shape) > 1e-3

    @pytest.mark.parametrize("mode", ["eval", "frozen"])
    def test_eval_and_frozen_blocks_use_batch_norm(self, monkeypatch, mode):
        store, block, x, proj = self._block(self.SHAPES["odd"], np.float32)
        if mode == "frozen":
            for p in store.params.values():
                p.requires_grad = False
        train = mode == "frozen"  # a frozen block in a train-mode pass
        want = per_layer_reference(block, Variable(x), train, True).data
        calls = []
        real_bn = ad.batch_norm

        def counted(*args, **kwargs):
            calls.append(None)
            return real_bn(*args, **kwargs)

        def refused(x):
            raise AssertionError("normalize called outside a train-mode layer")

        monkeypatch.setattr(ad, "batch_norm", counted)
        monkeypatch.setattr(ad, "normalize", refused)
        out = block(Variable(x), train, True)
        assert len(calls) == len(block.layers)
        assert out.data.tobytes() == want.tobytes()


def forward_order_batch_norms(model):
    """(layer, relu) for each `BatchNorm2d` of `model`, in forward order."""
    out = []
    for block in model.body:
        if isinstance(block, BatchNorm2d):
            out.append((block, True))
        elif isinstance(block, DenseBlock):
            out += [(bn, True) for bn, _ in block.layers]
        elif isinstance(block, Transition):
            out.append((block.bn, True))
        else:
            out += [(block.bn1, True), (block.bn2, False)]
            if block.proj_bn is not None:
                out.append((block.proj_bn, False))
    return out


@pytest.mark.parametrize("family", ["resnet", "densenet"])
def test_train_mode_batch_norm_ops_run_inside_their_layer(monkeypatch, family):
    """In a train-mode forward every `BatchNorm2d` call ends in one
    `affine_relu` with its gamma and beta, the relu left out only before a
    residual sum, and every `normalize` runs inside the call of the first
    layer to read the chunk."""
    model = build_model(ArchitectureConfig(family, 16), derive_stream(40, "init"))
    frames, owners = [], []  # (layer, the normalize outputs made in its call)
    real_call, real_normalize, real_affine = BatchNorm2d.__call__, ad.normalize, ad.affine_relu

    def call(self, *args, **kwargs):
        frames.append((self, []))
        try:
            return real_call(self, *args, **kwargs)
        finally:
            frames.pop()

    def normalize(x):
        assert frames, "normalize outside a BatchNorm2d call"
        out = real_normalize(x)
        frames[-1][1].append(out[0])
        return out

    def affine_relu(xs, gamma, beta, relu=True):
        assert frames, "affine_relu outside a BatchNorm2d call"
        layer, made = frames[-1]
        assert gamma is layer.gamma and beta is layer.beta
        # each layer is the first to read exactly one chunk: the newest
        assert len(made) == 1 and xs[-1] is made[0]
        owners.append((layer, relu))
        return real_affine(xs, gamma, beta, relu)

    monkeypatch.setattr(BatchNorm2d, "__call__", call)
    monkeypatch.setattr(ad, "normalize", normalize)
    monkeypatch.setattr(ad, "affine_relu", affine_relu)
    model.forward(small_input((2, 1, 16, 16)), train=True)
    assert owners == forward_order_batch_norms(model)


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
        # the forward pass reads the tensors the optimizer steps, in checkpoint order
        assert list(model.store.params)[-2:] == ["head.weight", "head.bias"]
        assert model.head.weight is model.store.params["head.weight"]
        assert model.head.bias is model.store.params["head.bias"]

    def test_replace_same_size_head_reinitializes(self):
        model = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(17, "init"))
        old = model.store.params["head.weight"].data.copy()
        replace_head(model, 4, derive_stream(18, "head"))
        assert not np.array_equal(model.store.params["head.weight"].data, old)

    def test_replace_head_rejects_single_class(self):
        model = build_model(mini_resnet(input_size=32), derive_stream(19, "init"))
        with pytest.raises(ValueError, match="at least 2"):
            replace_head(model, 1, derive_stream(20, "head"))

    @pytest.mark.parametrize("family", ["resnet", "densenet"])
    def test_backward_through_an_eval_forward_raises_and_changes_nothing(self, family):
        # inference-mode batch norm is forward-only: a backward through an
        # eval-mode pass of a trainable model fails before any gradient lands
        model = build_model(ArchitectureConfig(family, input_size=16), derive_stream(22, "init"))
        x = small_input((2, 1, 16, 16))
        backward(ad.sum_axes(model.forward(x, train=True, update_stats=False)))
        before = {n: (p.data.copy(), p.grad.copy()) for n, p in model.store.params.items()}
        assert any(g.any() for _, g in before.values())
        with pytest.raises(RuntimeError, match="inference-mode batch norm"):
            backward(ad.sum_axes(model.forward(x, train=False)))
        for name, p in model.store.params.items():
            assert p.data.tobytes() == before[name][0].tobytes()
            assert p.grad.tobytes() == before[name][1].tobytes()

    def test_freeze_marks_backbone_only(self):
        model = build_model(mini_densenet(input_size=32), derive_stream(21, "init"))
        freeze_backbone(model)
        for name, p in model.store.params.items():
            assert p.requires_grad == name.startswith("head.")
        assert set(model.trainable_params()) == {"head.weight", "head.bias"}


# Logits of the freshly built models on a fixed input, train mode (which
# updates the running statistics) then eval mode. A change to the layer
# order, the block wiring or any op's arithmetic fails here.
@pytest.mark.parametrize("family,train_crc,eval_crc", [
    ("resnet", 0xCF5189DA, 0x5D281AB2),
    ("densenet", 0xF7085701, 0x0683E7D6),
])
def test_pinned_forward_logits(family, train_crc, eval_crc):
    model = build_model(ArchitectureConfig(family, input_size=32), derive_stream(0, "init"))
    x = small_input((2, 1, 32, 32), seed=1)
    assert zlib.crc32(model.forward(x, train=True).data.tobytes()) == train_crc
    assert zlib.crc32(model.forward(x, train=False).data.tobytes()) == eval_crc
