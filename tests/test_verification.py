"""The finite-difference suite catches wrong VJPs in both modes, each of its
probes draws from a stream of its own, and its float32 mode passes under
another BLAS kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xraynet
from xraynet import autodiff as ad
from xraynet import losses
from xraynet.verification import LOSS_PROBES, OP_PROBES, check_all, check_probes, settings


def _scaled_edges(out, inputs, scale):
    """`out` with the VJP of each edge to one of `inputs` multiplied by `scale`
    (an array or a number)."""
    out._edges = tuple((v, (lambda g, f=f: f(g) * scale) if any(v is x for x in inputs) else f)
                       for v, f in out._edges)
    return out


def normalize_without_inv(normalize):
    def mutant(x):
        xhat, mu, var = normalize(x)
        inv = (var + x.data.dtype.type(ad.BN_EPS)) ** x.data.dtype.type(-0.5)
        return _scaled_edges(xhat, [x], 1 / inv), mu, var
    return mutant


def affine_relu_x_scaled(affine_relu):
    def mutant(xs, gamma, beta, relu=True):
        return _scaled_edges(affine_relu(xs, gamma, beta, relu), xs, 1.1)
    return mutant


def conv2d_scaled(arg, scale):
    """A mutant maker: conv2d with the VJP to its argument `arg` (0 the
    input, 1 the kernel) multiplied by `scale`."""
    def make(conv2d):
        def mutant(*args, **kwargs):
            return _scaled_edges(conv2d(*args, **kwargs), [args[arg]], scale)
        return mutant
    return make


def focal_logits_scaled(focal):
    def mutant(logits, *args):
        return _scaled_edges(focal(logits, *args), [logits], 1.05)
    return mutant


CONV_PROBES = ["conv2d", "conv2d_stride1", "conv2d_thin"]
# each mutant of a VJP: the module and name it replaces, its maker, and the
# probes it must fail; every mutant also fails both architectures
MUTANTS = {
    "normalize": (ad, "normalize", normalize_without_inv, ["normalize"]),
    "affine_relu": (ad, "affine_relu", affine_relu_x_scaled, ["affine_relu", "affine"]),
    "conv2d": (ad, "conv2d", conv2d_scaled(1, 1.05), CONV_PROBES),
    # 1 % off in the kernel gradient
    "conv2d_k_1pct": (ad, "conv2d", conv2d_scaled(1, 1.01), CONV_PROBES),
    # the input gradient, by both routes: strided and stride 1
    "conv2d_x": (ad, "conv2d", conv2d_scaled(0, 1.05), CONV_PROBES),
    # the one node of every loss
    "focal": (losses, "_focal", focal_logits_scaled, list(LOSS_PROBES)),
}


@pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
@pytest.mark.parametrize("op", list(MUTANTS))
def test_wrong_vjp_fails_its_probes_and_both_architectures(monkeypatch, op, f64):
    module, attr, make_mutant, probes = MUTANTS[op]
    monkeypatch.setattr(module, attr, make_mutant(getattr(module, attr)))
    _, threshold = settings(f64)
    errors = check_all(f64)
    failed = sorted(name for name, err in errors.items() if err >= threshold)
    assert failed == sorted([*probes, "mini_resnet", "mini_densenet"])


@pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
def test_removing_a_probe_moves_no_other(f64):
    table = {**OP_PROBES, **LOSS_PROBES}
    errors = check_probes(table, f64)
    for name in table:
        rest = {other: probe for other, probe in table.items() if other != name}
        assert check_probes(rest, f64) == {other: errors[other] for other in rest}


def test_float32_suite_passes_under_the_haswell_kernel():
    """check_all(False) in a child process whose OpenBLAS runs its Haswell
    kernel (AVX2, no AVX-512) stays within every threshold. Where the
    variable is ignored (another BLAS, or a non-x86 machine), the child runs
    the default kernel."""
    src = str(Path(xraynet.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import json; from xraynet.verification import check_all; print(json.dumps(check_all(False)))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=300)
    errors = json.loads(child.stdout)
    _, threshold = settings(False)
    assert {"mini_resnet", "mini_densenet"} <= set(errors)
    assert {name: err for name, err in errors.items() if not err < threshold} == {}
