"""Property tests over randomly drawn elements and words."""

import pytest
from hypothesis import given, settings, strategies as st

from mixdih.graphs import coset_vertex, vertex_rep
from mixdih.group import (
    Element,
    IDENTITY,
    comm,
    context,
    evaluate_word,
    format_element,
    inv,
    mul,
    parse_element,
)

CTX = {n: context(n) for n in (2, 3)}


def elements(n):
    ctx = CTX[n]
    return st.builds(
        Element,
        a=st.integers(0, (1 << ctx.n) - 1),
        b=st.integers(0, (1 << ctx.n) - 1),
        m=st.integers(0, (1 << ctx.dim_w) - 1),
        t=st.integers(0, (1 << ctx.dim_t) - 1),
    )


@st.composite
def _t_symbol(draw, n):
    i = draw(st.integers(1, n - 1))
    k = draw(st.integers(i + 1, n))
    j = draw(st.integers(1, n))
    return ("t", i, k, j)


def symbols(n):
    xy = st.tuples(st.sampled_from(["x", "y"]), st.integers(1, n))
    w = st.tuples(st.just("w"), st.integers(1, n), st.integers(1, n))
    return st.one_of(xy, w, _t_symbol(n))


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=200)
@given(data=st.data())
def test_associativity(n, data):
    ctx = CTX[n]
    g = data.draw(elements(n))
    h = data.draw(elements(n))
    k = data.draw(elements(n))
    assert mul(ctx, mul(ctx, g, h), k) == mul(ctx, g, mul(ctx, h, k))


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=200)
@given(data=st.data())
def test_inverse_cancels(n, data):
    ctx = CTX[n]
    h = data.draw(elements(n))
    assert mul(ctx, h, inv(ctx, h)) == IDENTITY
    assert mul(ctx, inv(ctx, h), h) == IDENTITY


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=200)
@given(data=st.data())
def test_encoding_roundtrip(n, data):
    ctx = CTX[n]
    h = data.draw(elements(n))
    assert parse_element(ctx, format_element(ctx, h)) == h


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=200)
@given(data=st.data())
def test_abelianization_is_homomorphism(n, data):
    ctx = CTX[n]
    g = data.draw(elements(n))
    h = data.draw(elements(n))
    gh = mul(ctx, g, h)
    assert (gh.a, gh.b) == (g.a ^ h.a, g.b ^ h.b)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=100)
@given(data=st.data())
def test_word_split_independence(n, data):
    ctx = CTX[n]
    word = data.draw(st.lists(symbols(n), min_size=0, max_size=20))
    cut = data.draw(st.integers(0, len(word)))
    whole = evaluate_word(ctx, word)
    split = mul(ctx, evaluate_word(ctx, word[:cut]),
                evaluate_word(ctx, word[cut:]))
    assert whole == split


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=150)
@given(data=st.data())
def test_canonical_coset_constant_on_cosets(n, data):
    ctx = CTX[n]
    h = data.draw(elements(n))
    ax = data.draw(st.integers(0, (1 << n) - 1))
    by = data.draw(st.integers(0, (1 << n) - 1))
    assert coset_vertex(ctx, "X", mul(ctx, Element(a=ax), h)) == \
        coset_vertex(ctx, "X", h)
    assert coset_vertex(ctx, "Y", mul(ctx, Element(b=by), h)) == \
        coset_vertex(ctx, "Y", h)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=150)
@given(data=st.data())
def test_canonical_coset_idempotent(n, data):
    ctx = CTX[n]
    h = data.draw(elements(n))
    for side in ("X", "Y"):
        v = coset_vertex(ctx, side, h)
        assert coset_vertex(ctx, side, vertex_rep(ctx, v)) == v


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=150)
@given(data=st.data())
def test_class3_and_jacobi(n, data):
    ctx = CTX[n]
    g = data.draw(elements(n))
    h = data.draw(elements(n))
    k = data.draw(elements(n))
    l = data.draw(elements(n))
    assert comm(ctx, comm(ctx, comm(ctx, g, h), k), l) == IDENTITY
    jac = mul(ctx, mul(ctx, comm(ctx, comm(ctx, g, h), k),
                       comm(ctx, comm(ctx, h, k), g)),
              comm(ctx, comm(ctx, k, g), h))
    assert jac == IDENTITY
