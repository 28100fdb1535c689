"""Shared construction caches (the algebras are immutable, so one instance
per rank serves the whole session), and reduce_mod_nminus, the reference
the oracle's step in U(g)/n_-U(g) is checked against."""

from functools import lru_cache

import pytest

from blvoa import LieAlgebra
from blvoa.uea import UEA, UEAElement


@lru_cache(maxsize=None)
def get_lie(rank: int) -> LieAlgebra:
    return LieAlgebra(rank)


@lru_cache(maxsize=None)
def get_engine(rank: int) -> UEA:
    return UEA(get_lie(rank))


@pytest.fixture(scope="session")
def lie():
    return get_lie


@pytest.fixture(scope="session")
def engine():
    return get_engine


def reduce_mod_nminus(engine: UEA, r: UEAElement) -> UEAElement:
    """r modulo n_-U(g): every monomial whose first letter is lowering
    dropped, the span of that right ideal.  The empty monomial is kept."""
    kept = {m: c for m, c in r.terms.items() if not m or m[0][0] >= engine.h_start}
    return UEAElement(engine, kept)
