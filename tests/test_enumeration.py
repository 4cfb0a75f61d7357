"""Tests of the enumeration oracle in ``enumeration.py`` itself."""

import numpy as np
import pytest

from conftest import random_graph_group, single_site
from enumeration import enumerate_elements
from stabame.errors import BudgetExceededError
from stabame.pauli import PauliProduct, multiply
from stabame.stabgroup import StabilizerGroup, bell_group, ghz_group


def test_enumerate_bell_elements():
    elements = enumerate_elements(bell_group(2)).elements
    assert len(elements) == 4
    keys = {(e.phase_exp, e.x_exp, e.z_exp) for e in elements}
    # I, XX, ZZ, and (XZ)x(XZ) which is -YxY
    assert keys == {
        (0, (0, 0), (0, 0)),
        (0, (1, 1), (0, 0)),
        (0, (0, 0), (1, 1)),
        (0, (1, 1), (1, 1)),
    }


def test_enumerate_cyclic_and_trivial():
    x6 = StabilizerGroup(6, 1, (single_site(6, 1, 0, x=1),))
    assert len(enumerate_elements(x6).elements) == 6
    trivial = StabilizerGroup(6, 1, ())
    assert enumerate_elements(trivial).elements == (PauliProduct.identity(6, 1),)


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_elements(ghz_group(6, 3), budget=10)


def test_enumerated_set_is_closed_under_multiplication():
    rng = np.random.default_rng(113)
    for g in (bell_group(3), random_graph_group(rng, 4, 2)):
        elements = enumerate_elements(g).elements
        pool = set(elements)
        idx = rng.integers(0, len(elements), size=(20, 2))
        for i, j in idx:
            assert multiply(elements[i], elements[j]) in pool
