"""Test doubles shared by the image and dataset tests."""


class ScriptedStream:
    """Stands in for a Pcg32 stream: returns the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def uniform(self):
        return self.uniforms.pop(0)
