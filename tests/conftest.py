import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from formred import BinaryForm, UhpPoint, from_upper_roots

TRIANGLE_ROOTS = ((1, 19), (2, 19), (19, 1))
PENTAGON_ROOTS = ((1, 5), (1, 6), (2, 6), (3, 3), (6, 1))
TRIANGLE_COEFFS = (1, -44, 1325, -32280, 480964, -5809376, 47831060)
# positive definite forms whose conjugate roots lie within 1e-8 of the real
# axis, down to +-2^-511.5 i
TINY_ROOT_FORMS = ((10 ** 16, 0, 1), (10 ** 16, 1, 1), (10 ** 20, 0, 1),
                   (10 ** 40, 0, 0, 0, 1), (2 ** 1023, 0, 1))


def benchmark_workloads():
    """perfbench/workloads.py, the benchmark's seeded inputs, loaded by path
    (perfbench is a directory of scripts, not a package)."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def triangle() -> BinaryForm:
    return from_upper_roots([UhpPoint(x, y) for x, y in TRIANGLE_ROOTS])


@pytest.fixture(scope="session")
def pentagon() -> BinaryForm:
    return from_upper_roots([UhpPoint(x, y) for x, y in PENTAGON_ROOTS])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240612)


def random_form(rng, degree=None, span=9) -> BinaryForm:
    """Random nonzero integer form with nonzero leading and trailing coeffs."""
    if degree is None:
        degree = int(rng.integers(2, 7))
    while True:
        coeffs = [int(v) for v in rng.integers(-span, span + 1, degree + 1)]
        if coeffs[0] != 0 and coeffs[-1] != 0:
            return BinaryForm(tuple(coeffs))


def random_upper_points(rng, n, coord_max=20):
    """Distinct Gaussian-integer points with y >= 1."""
    pts = set()
    while len(pts) < n:
        x = int(rng.integers(-coord_max, coord_max + 1))
        y = int(rng.integers(1, coord_max + 1))
        pts.add((x, y))
    return sorted(pts)


def random_mixed_form(rng, coord_max=8):
    """Monic integer form with r distinct real integer roots and s pairs;
    signature admits a theta_0 minimum (s >= 1 or r >= 3)."""
    while True:
        r = int(rng.integers(0, 4))
        s = int(rng.integers(0, 3))
        if s == 0 and r < 3:
            continue
        if r + 2 * s >= 3:
            break
    reals = rng.choice(2 * coord_max + 1, size=r, replace=False) - coord_max
    coeffs = [1]
    for a in sorted(int(v) for v in reals):
        coeffs = [x - a * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    pairs = random_upper_points(rng, s, coord_max) if s else []
    for x, y in pairs:
        quad = (1, -2 * x, x * x + y * y)
        new = [0] * (len(coeffs) + 2)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(quad):
                new[i + j] += a * b
        coeffs = new
    return BinaryForm(tuple(coeffs))
