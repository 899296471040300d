"""Bitmask GF(2) linear algebra."""

import random

from hypothesis import given, settings, strategies as st

from legch.gf2 import (
    Eliminator,
    apply_cols,
    bits,
    in_span,
    invert,
    prefix_ranks,
    rank,
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


@given(st.integers(1, 12).flatmap(
    lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=16)
), st.lists(st.integers(0, 18), max_size=5))
def test_prefix_ranks_at_cuts_are_the_rank_of_each_prefix(vectors, cuts):
    cuts = sorted(cuts)
    want = [_fed(vectors[:c])[0].rank for c in cuts]
    assert list(prefix_ranks([(vectors, cuts)])) == [want]
    assert list(prefix_ranks(iter([(vectors, cuts), ([0] * len(vectors), [])]))) == [want, []]


def _chain(rng):
    """Random maps d: V1 -> V2 and e: V2 -> V3 with e d = 0, as columns: each
    column of d is a random sum of the kernel basis of e that an Eliminator
    reads off its dead combos."""
    e = _random_cols(rng, rng.randint(1, 6), rng.randint(1, 10))
    kernel = _fed(e)[1]
    d = [0] * rng.randint(0, 8)
    for i in range(len(d)):
        for k in kernel:
            d[i] ^= k if rng.random() < 0.5 else 0
    return d, e


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_prefix_ranks_with_clearing_are_the_rank_of_each_prefix(seed):
    """e is cleared by d; the last d follows a zero map, so nothing clears it."""
    rng = random.Random(seed)
    d, e = _chain(rng)
    assert not any(apply_cols(e, col) for col in d)
    before = (list(d), list(e))
    cuts = [sorted(rng.randint(0, len(cols)) for _ in range(3)) for cols in (d, e)]
    maps, cuts = [d, e, [0] * len(d), d], cuts + cuts[:1] * 2
    want = [[_fed(cols[:c])[0].rank for c in cut] for cols, cut in zip(maps, cuts)]
    assert list(prefix_ranks(zip(maps, cuts))) == want
    assert (d, e) == before


def test_prefix_ranks_skip_the_columns_at_the_pivots_of_the_map_before():
    """d's pivot row 0b11 sits on place 1, so the next map's column 1 is
    skipped: once e d = 0 fails, the skipped column shows in the rank."""
    d = [0b11]
    assert list(prefix_ranks([(d, [1]), ([0b1, 0b1], [1, 2])])) == [[1], [1, 1]]
    broken = [0, 0b1]  # broken d = 0b1, which is not 0
    assert list(prefix_ranks([(d, [1]), (broken, [1, 2])])) == [[1], [0, 0]]
    assert list(prefix_ranks([(d, [1]), ([0], [1]), (broken, [1, 2])])) == [[1], [0], [0, 1]]
    assert broken == [0, 0b1]


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


def _fed(cols):
    """An Eliminator fed ``cols``, and the combos of the columns that died:
    a basis of the kernel, over lowest-bit pivots."""
    elim, dead = Eliminator(), []
    for c in cols:
        created, combo = elim.add(c)
        if not created:
            dead.append(combo)
    return elim, dead


def test_solve_and_kernel_describe_the_map():
    cols = [0b1, 0b1, 0b10]
    elim, dead = _fed(cols)
    combo = elim.solve(0b11)
    assert combo is not None
    assert apply_cols(cols, combo) == 0b11
    assert elim.solve(0b100) is None
    assert dead
    for k in dead:
        assert k and apply_cols(cols, k) == 0


def test_invert_round_trips():
    cols = [0b011, 0b001, 0b100]
    inv = invert(cols, 3)
    assert [apply_cols(cols, c) for c in inv] == [0b001, 0b010, 0b100]
    assert [apply_cols(inv, c) for c in cols] == [0b001, 0b010, 0b100]


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
    # rank pivots on the highest set bit, the Eliminator on the lowest
    assert rank(cols) + len(_fed(cols)[1]) == ncols
    assert rank(cols) == len(span_basis(cols))


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_solve_agrees_with_apply(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    x = rng.randrange(1 << ncols)
    target = apply_cols(cols, x)
    combo = _fed(cols)[0].solve(target)
    assert combo is not None
    assert apply_cols(cols, combo) == target


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_double_transpose_is_identity(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    assert transpose(transpose(cols, nrows), ncols) == cols
