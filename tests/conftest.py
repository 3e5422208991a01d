import pytest

import renyiquant._quadrature
from renyiquant import PiecewiseConstantDensity, SmoothDensity


@pytest.fixture
def two_mass():
    # masses (0.25, 0.75) on the halves of [0, 1]
    return PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5])


@pytest.fixture
def no_scalar_pdf(monkeypatch):
    """Refuse the scalar ``pdf`` of both density classes, and any scalar
    callable mapped over a point array; a quadrature integrand must then take
    its pdfs over whole arrays."""

    def refuse(*args):
        raise AssertionError("a scalar pdf was called")

    for cls in (PiecewiseConstantDensity, SmoothDensity):
        monkeypatch.setattr(cls, "pdf", refuse)
    monkeypatch.setattr(renyiquant._quadrature, "call_each", refuse)
