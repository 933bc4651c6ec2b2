import pytest

from charperm import build_context, gf2


@pytest.fixture(scope="session")
def gf4():
    return build_context(1, 2)


@pytest.fixture(scope="session")
def gf8():
    return build_context(1, 3)


@pytest.fixture(scope="session")
def gf16():
    return build_context(1, 4)


@pytest.fixture(scope="session")
def gf16_tower():
    # GF(16) as a degree-2 extension of GF(4)
    return build_context(2, 2)


@pytest.fixture(scope="session")
def gf64_tower():
    # GF(64) as a degree-3 extension of GF(4)
    return build_context(2, 3)


@pytest.fixture(scope="session")
def irreducibles():
    """irreducibles(degree, count): the first count irreducible GF(2)
    polynomials of the degree, ascending (fewer if the degree has fewer)."""
    def first(degree, count):
        found = [p for p in range(1 << degree, 1 << (degree + 1)) if gf2.is_irreducible(p)]
        return found[:count]
    return first
