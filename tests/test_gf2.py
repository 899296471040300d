"""Bitmask GF(2) linear algebra."""

import random

from hypothesis import given, settings, strategies as st

from legch.gf2 import (
    Eliminator,
    apply_cols,
    bits,
    compose,
    in_span,
    invert,
    kernel_basis,
    rank,
    solve,
    span_basis,
    transpose,
)


def test_bits_yields_set_positions_ascending():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def test_apply_cols_is_matrix_vector_product():
    cols = [0b01, 0b11]  # matrix [[1,1],[0,1]] column-major
    assert apply_cols(cols, 0b10) == 0b11
    assert apply_cols(cols, 0b11) == 0b10
    assert apply_cols(cols, 0) == 0


@given(st.integers(1, 12).flatmap(
    lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=16)
))
def test_rank_equals_the_eliminator_rank(vectors):
    elim = Eliminator()
    for v in vectors:
        elim.add(v)
    assert rank(vectors) == rank(iter(vectors)) == elim.rank


def test_rank_and_span_basics():
    vecs = [0b101, 0b011, 0b110]
    assert rank(vecs) == 2  # third is the sum of the first two
    basis = span_basis(vecs)
    assert len(basis) == 2
    assert in_span(vecs, 0b110)
    assert not in_span(vecs, 0b001)
    assert in_span(vecs, 0)


def test_eliminator_tracks_combinations():
    elim = Eliminator()
    created, _ = elim.add(0b101)
    assert created
    created, _ = elim.add(0b011)
    assert created
    created, combo = elim.add(0b110)
    assert not created
    # a dead vector's combo is a kernel relation over fed-vector tags
    assert combo == 0b111  # v0 ^ v1 ^ v2 == 0
    fed = [0b101, 0b011, 0b110]
    acc = 0
    for t in bits(combo):
        acc ^= fed[t]
    assert acc == 0
    assert elim.rank == 2


def test_solve_and_kernel_describe_the_map():
    cols = [0b1, 0b1, 0b10]
    combo = solve(cols, 0b11)
    assert combo is not None
    assert apply_cols(cols, combo) == 0b11
    assert solve(cols, 0b100) is None
    for k in kernel_basis(cols):
        assert k and apply_cols(cols, k) == 0


def test_invert_round_trips():
    cols = [0b011, 0b001, 0b100]
    inv = invert(cols, 3)
    assert compose(cols, inv) == [0b001, 0b010, 0b100]
    assert compose(inv, cols) == [0b001, 0b010, 0b100]


def test_invert_rejects_singular():
    import pytest

    with pytest.raises(ValueError):
        invert([0b01, 0b01], 2)


def test_transpose_swaps_indices():
    cols = [0b10, 0b11]
    t = transpose(cols, 2)
    for i in range(2):
        for j in range(2):
            assert (cols[j] >> i) & 1 == (t[i] >> j) & 1


def _random_cols(rng, nrows, ncols):
    return [rng.randrange(1 << nrows) for _ in range(ncols)]


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_rank_nullity_theorem(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    assert rank(cols) + len(kernel_basis(cols)) == ncols
    assert rank(cols) == len(span_basis(cols))


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_solve_agrees_with_apply(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    x = rng.randrange(1 << ncols)
    target = apply_cols(cols, x)
    combo = solve(cols, target)
    assert combo is not None
    assert apply_cols(cols, combo) == target


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_double_transpose_is_identity(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    assert transpose(transpose(cols, nrows), ncols) == cols
