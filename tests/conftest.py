import sys

import numpy as np
import pytest

from gqd import ashkin_teller, core


@pytest.fixture
def sector_rows(monkeypatch):
    """Fail any 4^M-row matrix on the solve path: the flip builder may see only the orbit
    representatives, and the dense views may not be built.  Yields the row count of every
    flip build, from an empty sector cache on."""
    flips, rows = ashkin_teller._with_flips, []

    def sector_flips(index, diagonal, masks, labels):
        assert index.size == labels.max() + 1 < labels.size, "a full-space row set"
        rows.append(index.size)
        return flips(index, diagonal, masks, labels)

    def no_dense(*args):
        raise AssertionError("a dense full-space view was built on the solve path")

    monkeypatch.setattr(ashkin_teller, "_with_flips", sector_flips)
    for name in ("build_hamiltonian", "parity_operators"):
        monkeypatch.setattr(ashkin_teller, name, no_dense)
    ashkin_teller._sector_parts.cache_clear()
    yield rows


@pytest.fixture
def stack_validations(monkeypatch):
    """Fail any call of ``core.reduced_from_vector``, the transpose of a 4^M vector, and
    yield the stack size of every ``core.validate_densities`` call, which each
    DensityOperator construction makes too, wherever a gqd module looks either name up."""
    validate, sizes = core.validate_densities, []

    def counting(m):
        sizes.append(len(m) if np.ndim(m) == 3 else 1)
        return validate(m)

    def no_transpose(*args):
        raise AssertionError("reduced_from_vector transposed a full-space vector")

    for name, module in list(sys.modules.items()):
        if name == "gqd" or name.startswith("gqd."):
            for attr, stub in (("reduced_from_vector", no_transpose),
                               ("validate_densities", counting)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, stub)
    yield sizes
