"""Residual/dense building blocks, backbone builders, and transfer mechanics.

The two Mini backbones have fixed topologies (the module constants below), as
the paper's ResNet50 and DenseNet-121 do; an `ArchitectureConfig` picks only
the family, the input size and the class count.

A `Model` is a stem conv, then `body`, one list of blocks that each take
``(h, train, update_stats)``, then global average pooling and the head. The
MiniResNet body is the stem's `BatchNorm2d` (batch norm + relu) and six
`ResidualBlock`s; the MiniDenseNet body is three `DenseBlock`s joined by two
`Transition`s, closed by a final `BatchNorm2d`.

Models register every trainable tensor in a `ParameterStore` under a
hierarchical name (e.g. ``stage1.block0.conv1.kernel``); batch-norm running
statistics live in the store as non-trainable buffers. The classifier head
is always the pair ``head.weight`` / ``head.bias`` after global average
pooling, which is what `replace_head` swaps and `freeze_backbone` leaves
trainable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Variable
from .rng import Pcg32

HEAD_PREFIX = "head."
FAMILIES = ("resnet", "densenet")  # a checkpoint records the family by its index
BN_MOMENTUM = 0.1  # weight of each batch's statistics in the running buffers


# the fixed Mini topologies (single-channel input): resnet stages of
# (residual blocks, channels), each entered at stride 2 through a
# 1x1-projection block; densenet blocks of `GROWTH`-wide conv layers with
# channel-halving transitions (1x1 conv + 2x2 average pool) between blocks
STEM_CHANNELS = 16
RESNET_STAGES = ((2, 16), (2, 32), (2, 64))
DENSE_LAYERS = (4, 4, 4)
GROWTH = 8


@dataclass(frozen=True)
class ArchitectureConfig:
    """Which Mini backbone to build, at what input size, with how many classes."""

    family: str
    input_size: int = 64
    num_classes: int = 4

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown architecture family {self.family!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        # the resnet stages keep a 1 px map at 1 px; each densenet transition halves it
        min_size = 1 if self.family == "resnet" else 2 ** (len(DENSE_LAYERS) - 1)
        if self.input_size < min_size:
            raise ValueError(f"a {self.family} needs inputs of at least {min_size} px, "
                             f"got {self.input_size}")

    @property
    def smallest_map(self) -> int:
        """The side of the smallest feature map a batch norm reads: the last
        resnet stage's (each stride-2 stage entry rounds up) or the last
        dense block's (each transition's pooling rounds down)."""
        if self.family == "resnet":
            return -(-self.input_size // 2 ** len(RESNET_STAGES))
        return self.input_size // 2 ** (len(DENSE_LAYERS) - 1)


def mini_resnet(num_classes: int = 4, input_size: int = 64) -> ArchitectureConfig:
    return ArchitectureConfig(family="resnet", input_size=input_size, num_classes=num_classes)


def mini_densenet(num_classes: int = 4, input_size: int = 64) -> ArchitectureConfig:
    return ArchitectureConfig(family="densenet", input_size=input_size, num_classes=num_classes)


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

    def zero_grads(self) -> None:
        for v in self.params.values():
            v.zero_grad()

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


def fold_running(running_mean: np.ndarray, running_var: np.ndarray,
                 mu: np.ndarray, var: np.ndarray, m: int) -> None:
    """Fold a batch's mean and biased variance over `m` values per channel
    into the running buffers in place, the variance unbiased."""
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mu.reshape(-1)
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * (var.reshape(-1) * (m / (m - 1.0)))


class BatchNorm2d:
    """Batch norm then relu, the one call for every layer that normalizes;
    with `relu=False` the batch norm alone, for the residual sums that relu
    later."""

    def __init__(self, store: ParameterStore, name: str, c: int, dtype):
        self.gamma = store.register(f"{name}.gamma", Variable(np.ones(c, dtype=dtype), requires_grad=True))
        self.beta = store.register(f"{name}.beta", Variable(np.zeros(c, dtype=dtype), requires_grad=True))
        self.running_mean = store.register_buffer(f"{name}.running_mean", np.zeros(c, dtype=dtype))
        self.running_var = store.register_buffer(f"{name}.running_var", np.ones(c, dtype=dtype))

    def __call__(self, x: Variable | list[Variable], train: bool, update_stats: bool,
                 norms: list[tuple[Variable, np.ndarray, np.ndarray]] | None = None,
                 relu: bool = True) -> Variable:
        """relu(batch norm of `x`). `x` is a Variable, read as one channel
        chunk, or a dense block's list of chunks, read as their
        concatenation, with `norms` the block's `ad.normalize` results of
        its leading chunks.

        Train mode normalizes the chunks `norms` lacks, appends them, and
        applies the layer's own affine and relu to all of them (Pleiss et al.
        2017, arXiv:1707.06990): the values and running buffer update of a
        batch norm over the concatenation. Eval, and a frozen layer, run in
        inference mode, as a Keras layer with trainable = False does:
        `ad.batch_norm` over the chunks by the running statistics, relu
        included, buffers left as they are. That op is forward-only, so a
        backward through an eval-mode pass of a trainable layer raises.
        """
        chunks = [x] if isinstance(x, Variable) else x
        if not (train and self.gamma.requires_grad):
            return ad.batch_norm(chunks, self.gamma, self.beta, self.running_mean,
                                 self.running_var, relu)
        norms = [] if norms is None else norms
        norms += [ad.normalize(f) for f in chunks[len(norms):]]
        xhats, means, variances = zip(*norms)
        if update_stats:
            fold_running(self.running_mean, self.running_var,
                         np.concatenate(means, axis=1), np.concatenate(variances, axis=1),
                         xhats[0].data.size // xhats[0].data.shape[1])
        return ad.affine_relu(xhats, self.gamma, self.beta, relu)


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
        # main path first, skip last: a pass without a graph then never holds
        # the skip's output through the main path's im2col; in backward the
        # skip runs first and x's gradient buffer stays open through the main
        # path, whose saved arrays the walk frees as it passes them
        h = self.bn1(self.conv1(x), train, update_stats)
        h = self.bn2(self.conv2(h), train, update_stats, relu=False)
        skip = x
        if self.proj is not None:
            skip = self.proj_bn(self.proj(x), train, update_stats, relu=False)
        return ad.relu(ad.add(h, skip))


class DenseBlock:
    """Pre-activation dense block: layer i consumes the concatenation of the
    block input with every previous layer's output; the block emits that full
    concatenation (input channels first).

    Each layer's `BatchNorm2d` takes the chunks (the block input, then each
    layer's output) and the block's `norms`, so a train-mode pass normalizes
    each chunk once, in the first layer that reads it.
    """

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
        feats, norms = [x], []
        for bn, conv in self.layers:
            feats.append(conv(bn(feats, train, update_stats, norms)))
        return ad.concat_channels(feats)


class Transition:
    """Channel-halving 1x1 conv (pre-activated) followed by 2x2 average pooling."""

    def __init__(self, store: ParameterStore, name: str, cin: int, rng: Pcg32, dtype):
        self.bn = BatchNorm2d(store, f"{name}.bn", cin, dtype)
        self.conv = Conv2d(store, f"{name}.conv", cin, cin // 2, 1, 1, 0, rng, dtype)
        self.out_channels = cin // 2

    def __call__(self, x: Variable, train: bool, update_stats: bool) -> Variable:
        return ad.avg_pool2d(self.conv(self.bn(x, train, update_stats)))


class Model:
    """A built backbone + head with its ParameterStore: the stem conv, then
    each block of `body` in turn, then global average pooling and the head."""

    def __init__(self, config: ArchitectureConfig, rng: Pcg32, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.store = ParameterStore()
        store, dtype, c = self.store, self.dtype, STEM_CHANNELS

        self.stem_conv = Conv2d(store, "stem.conv", 1, c, 3, 1, 1, rng, dtype)
        if config.family == "resnet":
            self.body = [BatchNorm2d(store, "stem.bn", c, dtype)]
            for si, (nblocks, cout) in enumerate(RESNET_STAGES, start=1):
                for bi in range(nblocks):
                    self.body.append(ResidualBlock(store, f"stage{si}.block{bi}", c, cout,
                                                   1 if bi else 2, rng, dtype))
                    c = cout
        else:
            # bare conv stem, since the first dense layer pre-activates (a stem
            # bn's gamma would be scale-dead)
            self.body = []
            for bi, nlayers in enumerate(DENSE_LAYERS, start=1):
                self.body.append(DenseBlock(store, f"dense{bi}", c, nlayers, GROWTH, rng, dtype))
                c = self.body[-1].out_channels
                if bi < len(DENSE_LAYERS):
                    self.body.append(Transition(store, f"transition{bi}", c, rng, dtype))
                    c = self.body[-1].out_channels
            self.body.append(BatchNorm2d(store, "final.bn", c, dtype))

        self.feature_dim = c
        self.head = Linear(store, "head", c, config.num_classes, rng, dtype)

    def forward(self, x, train: bool = False, update_stats: bool | None = None) -> Variable:
        """Logits for a batch. `x` is an (N, C, H, W) array or Variable."""
        if update_stats is None:
            update_stats = train
        if not isinstance(x, Variable):
            x = Variable(np.asarray(x, dtype=self.dtype))
        h = self.stem_conv(x)
        for block in self.body:
            h = block(h, train, update_stats)
        return self.head(ad.global_avg_pool(h))

    def trainable_params(self) -> dict[str, Variable]:
        return {n: v for n, v in self.store.params.items() if v.requires_grad}


def build_model(config: ArchitectureConfig, rng: Pcg32, dtype=np.float32) -> Model:
    return Model(config, rng, dtype=dtype)


def replace_head(model: Model, num_classes: int, rng: Pcg32) -> None:
    """Re-dimension and re-initialize the classifier head; backbone untouched."""
    config = replace(model.config, num_classes=num_classes)  # rejects fewer than 2
    # the head is registered last, so re-registering it keeps the store's order
    del model.store.params[HEAD_PREFIX + "weight"], model.store.params[HEAD_PREFIX + "bias"]
    model.head = Linear(model.store, "head", model.feature_dim, num_classes, rng, model.dtype)
    model.config = config


def freeze_backbone(model: Model) -> None:
    """Mark every non-head parameter non-trainable, which also runs the
    backbone's batch norm in inference mode."""
    for name, var in model.store.params.items():
        if not name.startswith(HEAD_PREFIX):
            var.requires_grad = False
            var.zero_grad()
