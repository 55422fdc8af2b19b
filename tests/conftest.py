import pytest

from gqd import ashkin_teller


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
