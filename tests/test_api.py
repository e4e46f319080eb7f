"""The public surface: the names the package exports, and the scalar-only
entry points' refusal of arrays."""

import importlib
import pkgutil

import numpy as np
import pytest

import bivnorm
from bivnorm import (
    DomainError,
    SkewNormal,
    copula_cond_integral,
    copula_factor_integral,
    copula_single_factor,
    line_from_diag,
    quad2d_phi2,
    reduce_to_halflines,
)


def test_public_names_are_exported_once():
    assert len(bivnorm.__all__) == len(set(bivnorm.__all__))
    for name in bivnorm.__all__:
        assert getattr(bivnorm, name) is not None
    for info in pkgutil.iter_modules(bivnorm.__path__):
        module = importlib.import_module(f"bivnorm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in bivnorm.__all__, f"bivnorm.{info.name}.{name}"
            assert getattr(bivnorm, name) is getattr(module, name)


SCALAR_ONLY = [
    (copula_factor_integral, (0.3, 0.6, 0.5, 0.4, 0.3)),
    (copula_single_factor, (0.3, 0.6, 0.5, 0.4)),
    (copula_cond_integral, (0.3, 0.6, 0.28)),
    (reduce_to_halflines, (0.3, 0.6, 0.28)),
    (line_from_diag, (0.3, 0.4)),
    (SkewNormal(1.5).cdf, (0.7,)),
    (quad2d_phi2, (0.3, -0.4, 0.6)),
]


@pytest.mark.parametrize(
    "fn, args", SCALAR_ONLY, ids=[fn.__qualname__ for fn, _ in SCALAR_ONLY]
)
def test_scalar_only_entry_points_reject_arrays(fn, args):
    expected = fn(*args)
    for i, x in enumerate(args):
        # numpy scalars and 0-d arrays are scalars
        for same in (np.float64(x), np.array(x)):
            assert fn(*args[:i], same, *args[i + 1:]) == expected
        with pytest.raises(DomainError):
            fn(*args[:i], np.array([x, x]), *args[i + 1:])
