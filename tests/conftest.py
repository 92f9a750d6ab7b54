"""Shared, build-once realizations for the test session."""

import sys
from functools import lru_cache

import pytest

from loomfold.catalog import builtin_entries, entry_by_name
from loomfold.exactnum import Echelon
from loomfold.polys import family_p
from loomfold.presentation import suite_window
from loomfold.realize import Realization


@lru_cache(maxsize=None)
def cached_family(name: str):
    e = entry_by_name(name)
    return family_p(e.gcm, e.mu)


@lru_cache(maxsize=None)
def cached_realization(name: str):
    """Realization sized for the acceptance bounds (modes 4, plus the
    degree-6 commutator grid)."""
    e = entry_by_name(name)
    fam = cached_family(name)
    m1, m2 = suite_window(e.gcm, e.mu, fam, 4)
    m1 = max(m1, 2 * 6 + 2)
    return Realization(e.gcm, e.mu, m1_window=m1, m2_window=m2)


@pytest.fixture(scope="session")
def realization_for():
    return cached_realization


@pytest.fixture(scope="session")
def family_for():
    return cached_family


@pytest.fixture(scope="session")
def catalog_names():
    return [e.name for e in builtin_entries()]


def nu_by_propagation(alg, perm):
    """The reference for `chevalley.mu_extend_finite`: the images of the
    basis vectors under the diagram automorphism perm, propagated from the
    generator pairs (e_i, e_perm[i]), (f_i, f_perm[i]) and (h_i, h_perm[i])
    by the bracket closure `chevalley.close` over `alg.bracket` in an
    `Echelon`, which checks every element reached twice for a consistent
    image.  `close` is looked up on each call, so a test can replace it."""
    chevalley = sys.modules["loomfold.chevalley"]
    ech = Echelon()
    seeds = []
    for i, p in enumerate(perm):
        seeds += [(alg.e(i), alg.e(p)), (alg.f(i), alg.f(p)), (alg.h(i), alg.h(p))]
    chevalley.close(ech, seeds, seeds, alg.bracket)
    assert ech.rank == alg.dim, f"{alg.label}: generator words span only {ech.rank} of {alg.dim}"
    return [ech.apply(alg.unit(b)) for b in range(alg.dim)]
