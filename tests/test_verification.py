"""The finite-difference suite catches wrong VJPs in both modes, and its
float32 mode passes under another BLAS kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xraynet
from xraynet import autodiff as ad
from xraynet.verification import check_all, settings


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


def conv2d_k_scaled(conv2d):
    def mutant(x, kernel, bias, stride=1, padding=0):
        return _scaled_edges(conv2d(x, kernel, bias, stride, padding), [kernel], 1.05)
    return mutant


# each mutant of an op's VJP, and the probes of check_ops it must fail
MUTANTS = {
    "normalize": (normalize_without_inv, ["normalize"]),
    "affine_relu": (affine_relu_x_scaled, ["affine_relu", "affine"]),
    "conv2d": (conv2d_k_scaled, ["conv2d", "conv2d_stride1", "conv2d_thin"]),
}


@pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
@pytest.mark.parametrize("op", list(MUTANTS))
def test_wrong_vjp_fails_its_probes_and_both_architectures(monkeypatch, op, f64):
    make_mutant, probes = MUTANTS[op]
    monkeypatch.setattr(ad, op, make_mutant(getattr(ad, op)))
    _, threshold = settings(f64)
    errors = check_all(f64)
    failed = sorted(name for name, err in errors.items() if err >= threshold)
    assert failed == sorted([*probes, "mini_resnet", "mini_densenet"])


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
