"""Basic-commutator enumeration and the counting identities.

Enumeration is the oracle of record: every closed form is checked against
an explicit listing of the defining index set.
"""

import pytest

from mixdih import hall
from mixdih.group import UnsupportedParameterError


def test_weight1_is_alphabet():
    bc1 = hall.enumerate_basic_commutators(5, 1)
    assert [c.leaves() for c in bc1] == [(i,) for i in range(1, 6)]
    assert all(c.weight == 1 for c in bc1)


def test_weight2_structure():
    bc2 = hall.enumerate_basic_commutators(4, 2)
    assert len(bc2) == 6
    for c in bc2:
        i, j = c.leaves()
        assert j < i
        assert c.weight == 2
    # lexicographic by (i, j)
    assert [c.leaves() for c in bc2] == sorted(c.leaves() for c in bc2)


def test_weight3_structure():
    bc3 = hall.enumerate_basic_commutators(4, 3)
    assert len(bc3) == 20
    for c in bc3:
        i, j, k = c.leaves()
        assert j < i and j <= k
    assert [c.leaves() for c in bc3] == sorted(c.leaves() for c in bc3)


def test_weight2_r1_empty():
    assert hall.enumerate_basic_commutators(1, 2) == []


def test_weight3_r2():
    bc3 = hall.enumerate_basic_commutators(2, 3)
    assert [str(c) for c in bc3] == ["[[a2,a1],a1]", "[[a2,a1],a2]"]


@pytest.mark.parametrize("r", range(1, 11))
def test_counts_match_closed_forms(r):
    assert len(hall.enumerate_basic_commutators(r, 2)) == hall.bc2_count(r)
    assert len(hall.enumerate_basic_commutators(r, 3)) == hall.bc3_count(r)


@pytest.mark.parametrize("weight", [0, 4, 5])
def test_unsupported_weight(weight):
    with pytest.raises(UnsupportedParameterError):
        hall.enumerate_basic_commutators(3, weight)


def test_unsupported_alphabet():
    with pytest.raises(UnsupportedParameterError):
        hall.enumerate_basic_commutators(0, 2)


def test_formal_commutator_str():
    bc3 = hall.enumerate_basic_commutators(3, 3)
    assert str(bc3[0]) == "[[a2,a1],a1]"


def test_basis_report():
    counts = [len(hall.enumerate_basic_commutators(4, w)) for w in (1, 2, 3)]
    assert counts == [4, 6, 20]


# -- tuple counts ------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", hall.TUPLE_KINDS)
def test_tuple_counts_against_enumeration(n, kind):
    assert hall.count_tuples(n, kind) == len(hall.tuple_set(n, kind))


def test_tuple_examples():
    assert hall.count_tuples(2, "a") == 1
    assert hall.count_tuples(2, "c") == 0
    assert hall.count_tuples(4, "d") == 20


def test_tuple_bad_kind():
    with pytest.raises(UnsupportedParameterError):
        hall.count_tuples(3, "e")


# -- dimension table -----------------------------------------------------------

def test_dimension_table_n2():
    dt = hall.dimension_table(2)
    assert dt.order_exp == 10
    assert dt.u == 6
    assert dt.v == 8
    assert dt.m_fk == 14
    assert dt.u + dt.v == dt.m_fk


def test_dimension_table_n3():
    assert hall.dimension_table(3).order_exp == 24


@pytest.mark.parametrize("n", range(2, 11))
def test_dimension_consistency(n):
    dt = hall.dimension_table(n)
    r = 2 * n
    assert dt.m_fk == r * (r - 1) * (2 * r - 1) // 6
    assert dt.u + dt.v == dt.m_fk
    assert dt.order_exp == 2 * n + dt.u


def test_dimension_table_rejects_small_n():
    with pytest.raises(UnsupportedParameterError):
        hall.dimension_table(1)


# -- special sets ---------------------------------------------------------------

def test_special_sets_n2():
    s = hall.special_set_sizes(2)
    assert s.b2 == 4
    assert s.b3 == 2
    assert s.d_k == 8
    assert s.b3_prime == 6
    assert s.bc2_inter_d_i == 2
    assert s.closed_form_consistent


def test_special_sets_n3_integral():
    # the closed form (13n^3 - 21n^2 + 8n)/6 evaluates to exactly 31 here;
    # enumeration is the authority either way
    s = hall.special_set_sizes(3)
    assert s.b3_prime == 31
    assert s.closed_form_consistent


@pytest.mark.parametrize("n", range(2, 7))
def test_special_sets_partition(n):
    s = hall.special_set_sizes(n)
    # d_k splits as b3 + b3_prime
    assert s.d_k == s.b3 + s.b3_prime
    # closed forms
    assert s.b2 == n**2
    assert s.b3 == (n**3 - n**2) // 2
    assert s.bc2_inter_d_i == n**2 - n
