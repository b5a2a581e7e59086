"""Desk-scale training toolkit for imbalanced chest X-ray classification.

The Python API is the modules themselves, e.g. ``xraynet.training.fit``,
``xraynet.synth.synthetic_bundle`` or ``xraynet.nn.build_model``.
"""

__version__ = "0.1.0"
