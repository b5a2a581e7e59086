"""Residual/dense building blocks, backbone builders, and transfer mechanics.

Models register every trainable tensor in a `ParameterStore` under a
hierarchical name (e.g. ``stage1.block0.conv1.kernel``); batch-norm running
statistics live in the store as non-trainable buffers. The classifier head
is always the pair ``head.weight`` / ``head.bias`` after global average
pooling, which is what `replace_head` swaps and `freeze_backbone` leaves
trainable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Variable
from .rng import Pcg32

HEAD_PREFIX = "head."


@dataclass(frozen=True)
class ArchitectureConfig:
    """Backbone description for the two supported families.

    resnet: `stage_blocks[i]` residual blocks at `stage_channels[i]`, each
    stage entered at stride 2 through a 1x1-projection block.
    densenet: `dense_layers[i]` conv layers of width `growth` per dense
    block, with channel-halving transitions (1x1 conv + 2x2 average pool)
    between blocks.
    """

    family: str
    stem_channels: int = 16
    input_channels: int = 1
    input_size: int = 64
    num_classes: int = 4
    stage_blocks: tuple[int, ...] = (2, 2, 2)
    stage_channels: tuple[int, ...] = (16, 32, 64)
    dense_layers: tuple[int, ...] = (4, 4, 4)
    growth: int = 8

    def __post_init__(self):
        if self.family not in ("resnet", "densenet"):
            raise ValueError(f"unknown architecture family {self.family!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.stem_channels < 1 or self.input_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.family == "resnet":
            if len(self.stage_blocks) != len(self.stage_channels):
                raise ValueError("stage_blocks and stage_channels must align")
            if any(c < 1 for c in self.stage_channels) or any(b < 1 for b in self.stage_blocks):
                raise ValueError("stage specs must be positive")
        else:
            if self.growth < 1 or any(l < 1 for l in self.dense_layers):
                raise ValueError("dense block specs must be positive")

    def backbone_digest(self) -> int:
        """CRC32 of the backbone topology (head size excluded so that
        checkpoints transfer across class counts)."""
        import zlib
        if self.family == "resnet":
            desc = (f"resnet/stem={self.stem_channels}/in={self.input_channels}"
                    f"/blocks={self.stage_blocks}/channels={self.stage_channels}")
        else:
            desc = (f"densenet/stem={self.stem_channels}/in={self.input_channels}"
                    f"/layers={self.dense_layers}/growth={self.growth}")
        return zlib.crc32(desc.encode("utf-8"))


def mini_resnet(num_classes: int = 4, input_size: int = 64, input_channels: int = 1) -> ArchitectureConfig:
    return ArchitectureConfig(family="resnet", stem_channels=16, input_channels=input_channels,
                              input_size=input_size, num_classes=num_classes,
                              stage_blocks=(2, 2, 2), stage_channels=(16, 32, 64))


def mini_densenet(num_classes: int = 4, input_size: int = 64, input_channels: int = 1) -> ArchitectureConfig:
    return ArchitectureConfig(family="densenet", stem_channels=16, input_channels=input_channels,
                              input_size=input_size, num_classes=num_classes,
                              dense_layers=(4, 4, 4), growth=8)


class ParameterStore:
    """Ordered name -> Variable map plus non-trainable buffers."""

    def __init__(self):
        self.params: dict[str, Variable] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def register(self, name: str, var: Variable) -> Variable:
        if name in self.params:
            raise ValueError(f"parameter {name!r} registered twice")
        self.params[name] = var
        return var

    def register_buffer(self, name: str, arr: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise ValueError(f"buffer {name!r} registered twice")
        self.buffers[name] = arr
        return arr

    def replace(self, name: str, var: Variable) -> None:
        if name not in self.params:
            raise KeyError(name)
        self.params[name] = var

    def zero_grads(self) -> None:
        for v in self.params.values():
            v.zero_grad()

    def frozen_names(self) -> set[str]:
        return {n for n, v in self.params.items() if not v.requires_grad}

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Parameters then buffers, in registration order."""
        out = {n: v.data for n, v in self.params.items()}
        out.update(self.buffers)
        return out


def _kaiming_uniform(shape, fan_in: int, rng: Pcg32, dtype) -> np.ndarray:
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform_array(shape, -bound, bound).astype(dtype)


class Conv2d:
    """Bias-free conv layer: every conv's output reaches batch norm before
    any nonlinearity, and its mean subtraction would cancel a bias (a dead
    parameter). `conv2d` gets a constant zero bias."""

    def __init__(self, store: ParameterStore, name: str, cin: int, cout: int,
                 k: int, stride: int, padding: int, rng: Pcg32, dtype):
        self.stride = stride
        self.padding = padding
        self.kernel = store.register(
            f"{name}.kernel",
            Variable(_kaiming_uniform((cout, cin, k, k), cin * k * k, rng, dtype), requires_grad=True))
        self.bias = Variable(np.zeros(cout, dtype=dtype))

    def __call__(self, x: Variable) -> Variable:
        return ad.conv2d(x, self.kernel, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d:
    def __init__(self, store: ParameterStore, name: str, c: int, dtype):
        self.gamma = store.register(f"{name}.gamma", Variable(np.ones(c, dtype=dtype), requires_grad=True))
        self.beta = store.register(f"{name}.beta", Variable(np.zeros(c, dtype=dtype), requires_grad=True))
        self.running_mean = store.register_buffer(f"{name}.running_mean", np.zeros(c, dtype=dtype))
        self.running_var = store.register_buffer(f"{name}.running_var", np.ones(c, dtype=dtype))

    def __call__(self, x: Variable, train: bool, update_stats: bool) -> Variable:
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                             train=train, update_running=update_stats)


class Linear:
    def __init__(self, store: ParameterStore, name: str, fin: int, fout: int, rng: Pcg32, dtype):
        self.weight = store.register(
            f"{name}.weight", Variable(_kaiming_uniform((fout, fin), fin, rng, dtype), requires_grad=True))
        self.bias = store.register(
            f"{name}.bias", Variable(np.zeros(fout, dtype=dtype), requires_grad=True))

    def __call__(self, x: Variable) -> Variable:
        return ad.linear(x, self.weight, self.bias)


class ResidualBlock:
    """conv-bn-relu-conv-bn plus a skip path, relu on the sum.

    The skip is the identity when stride is 1 and channels match, otherwise
    a stride-matched 1x1 projection (conv + bn).
    """

    def __init__(self, store: ParameterStore, name: str, cin: int, cout: int,
                 stride: int, rng: Pcg32, dtype):
        self.conv1 = Conv2d(store, f"{name}.conv1", cin, cout, 3, stride, 1, rng, dtype)
        self.bn1 = BatchNorm2d(store, f"{name}.bn1", cout, dtype)
        self.conv2 = Conv2d(store, f"{name}.conv2", cout, cout, 3, 1, 1, rng, dtype)
        self.bn2 = BatchNorm2d(store, f"{name}.bn2", cout, dtype)
        if stride != 1 or cin != cout:
            self.proj = Conv2d(store, f"{name}.proj", cin, cout, 1, stride, 0, rng, dtype)
            self.proj_bn = BatchNorm2d(store, f"{name}.proj_bn", cout, dtype)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x: Variable, train: bool, update_stats: bool) -> Variable:
        h = ad.relu(self.bn1(self.conv1(x), train, update_stats))
        h = self.bn2(self.conv2(h), train, update_stats)
        if self.proj is not None:
            skip = self.proj_bn(self.proj(x), train, update_stats)
        else:
            skip = x
        return ad.relu(ad.add(h, skip))


class DenseBlock:
    """Pre-activation dense block: layer i consumes the concatenation of the
    block input with every previous layer's output; the block emits that full
    concatenation (input channels first)."""

    def __init__(self, store: ParameterStore, name: str, cin: int, layers: int,
                 growth: int, rng: Pcg32, dtype):
        self.layers = []
        c = cin
        for i in range(layers):
            bn = BatchNorm2d(store, f"{name}.layer{i}.bn", c, dtype)
            conv = Conv2d(store, f"{name}.layer{i}.conv", c, growth, 3, 1, 1, rng, dtype)
            self.layers.append((bn, conv))
            c += growth
        self.out_channels = c

    def __call__(self, x: Variable, train: bool, update_stats: bool) -> Variable:
        feats = [x]
        for bn, conv in self.layers:
            cat = feats[0] if len(feats) == 1 else ad.concat_channels(feats)
            feats.append(conv(ad.relu(bn(cat, train, update_stats))))
        return ad.concat_channels(feats)


class Transition:
    """Channel-halving 1x1 conv (pre-activated) followed by 2x2 average pooling."""

    def __init__(self, store: ParameterStore, name: str, cin: int, rng: Pcg32, dtype):
        self.bn = BatchNorm2d(store, f"{name}.bn", cin, dtype)
        self.conv = Conv2d(store, f"{name}.conv", cin, cin // 2, 1, 1, 0, rng, dtype)
        self.out_channels = cin // 2

    def __call__(self, x: Variable, train: bool, update_stats: bool) -> Variable:
        return ad.avg_pool2d(self.conv(ad.relu(self.bn(x, train, update_stats))), 2)


class Model:
    """A built backbone + head with its ParameterStore."""

    def __init__(self, config: ArchitectureConfig, rng: Pcg32, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.store = ParameterStore()
        self.num_classes = config.num_classes
        size = config.input_size

        # resnet stem: conv-bn-relu; densenet stem: bare conv, since the first
        # dense layer pre-activates (a stem bn's gamma would be scale-dead)
        self.stem_conv = Conv2d(self.store, "stem.conv", config.input_channels,
                                config.stem_channels, 3, 1, 1, rng, self.dtype)
        if config.family == "resnet":
            self.stem_bn = BatchNorm2d(self.store, "stem.bn", config.stem_channels, self.dtype)
        else:
            self.stem_bn = None

        if config.family == "resnet":
            self.stages: list[list[ResidualBlock]] = []
            cin = config.stem_channels
            for si, (nblocks, cout) in enumerate(zip(config.stage_blocks, config.stage_channels)):
                size = (size - 1) // 2 + 1  # stride-2 stage entry, 3x3 pad 1
                if size < 1:
                    raise ValueError(f"feature map collapses below 1x1 entering stage{si + 1}")
                blocks = [ResidualBlock(self.store, f"stage{si + 1}.block0", cin, cout, 2, rng, self.dtype)]
                for bi in range(1, nblocks):
                    blocks.append(ResidualBlock(self.store, f"stage{si + 1}.block{bi}",
                                                cout, cout, 1, rng, self.dtype))
                self.stages.append(blocks)
                cin = cout
            feat = cin
        else:
            self.blocks: list[DenseBlock] = []
            self.transitions: list[Transition] = []
            c = config.stem_channels
            for bi, nlayers in enumerate(config.dense_layers):
                block = DenseBlock(self.store, f"dense{bi + 1}", c, nlayers, config.growth, rng, self.dtype)
                self.blocks.append(block)
                c = block.out_channels
                if bi < len(config.dense_layers) - 1:
                    tr = Transition(self.store, f"transition{bi + 1}", c, rng, self.dtype)
                    self.transitions.append(tr)
                    c = tr.out_channels
                    size = size // 2
                    if size < 1:
                        raise ValueError(f"feature map collapses below 1x1 after transition{bi + 1}")
            self.final_bn = BatchNorm2d(self.store, "final.bn", c, self.dtype)
            feat = c

        self.feature_dim = feat
        self.head = Linear(self.store, "head", feat, config.num_classes, rng, self.dtype)

    def forward(self, x, train: bool = False, update_stats: bool | None = None) -> Variable:
        """Logits for a batch. `x` is an (N, C, H, W) array or Variable."""
        if update_stats is None:
            update_stats = train
        if not isinstance(x, Variable):
            x = Variable(np.asarray(x, dtype=self.dtype))
        if self.config.family == "resnet":
            h = ad.relu(self.stem_bn(self.stem_conv(x), train, update_stats))
            for blocks in self.stages:
                for block in blocks:
                    h = block(h, train, update_stats)
        else:
            h = self.stem_conv(x)
            for bi, block in enumerate(self.blocks):
                h = block(h, train, update_stats)
                if bi < len(self.transitions):
                    h = self.transitions[bi](h, train, update_stats)
            h = ad.relu(self.final_bn(h, train, update_stats))
        return self.head(ad.global_avg_pool(h))

    def trainable_params(self) -> dict[str, Variable]:
        return {n: v for n, v in self.store.params.items() if v.requires_grad}


def build_model(config: ArchitectureConfig, rng: Pcg32, dtype=np.float32) -> Model:
    return Model(config, rng, dtype=dtype)


def replace_head(model: Model, num_classes: int, rng: Pcg32) -> None:
    """Re-dimension and re-initialize the classifier head; backbone untouched."""
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    dtype = model.dtype
    weight = Variable(_kaiming_uniform((num_classes, model.feature_dim),
                                       model.feature_dim, rng, dtype), requires_grad=True)
    bias = Variable(np.zeros(num_classes, dtype=dtype), requires_grad=True)
    model.store.replace("head.weight", weight)
    model.store.replace("head.bias", bias)
    model.head.weight = weight
    model.head.bias = bias
    model.num_classes = num_classes


def freeze_backbone(model: Model) -> None:
    """Mark every non-head parameter non-trainable."""
    for name, var in model.store.params.items():
        if not name.startswith(HEAD_PREFIX):
            var.requires_grad = False
            var.zero_grad()
