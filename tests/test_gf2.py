"""Bitmask GF(2) linear algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from legch.gf2 import (
    apply_cols,
    bits,
    echelon,
    in_span,
    invert,
    prefix_ranks,
    rank,
    span_basis,
    transpose,
)
from helpers import Eliminator


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
    assert 1 << rank(vectors) == _span_size(vectors)


def _span_size(vectors):
    """The number of sums of subsets of ``vectors``, 2^rank, by closure."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span)


@given(st.integers(1, 12).flatmap(
    lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=16)
), st.lists(st.integers(0, 18), max_size=5))
def test_prefix_ranks_at_cuts_are_the_rank_of_each_prefix(vectors, cuts):
    cuts = sorted(cuts)
    want = [_fed(vectors[:c])[0].rank for c in cuts]
    assert [1 << r for r in want] == [_span_size(vectors[:c]) for c in cuts]
    assert list(prefix_ranks([(vectors, cuts)])) == [want]
    assert list(prefix_ranks(iter([(vectors, cuts), ([0] * len(vectors), [])]))) == [want, []]


def _chain(rng):
    """Random maps d: V1 -> V2 and e: V2 -> V3 with e d = 0, as columns: each
    column of d is a random sum of the kernel basis of e that the reference
    Eliminator reads off its dead combos, and that ``echelon`` returns too:
    each is e_j plus the one sum of earlier live columns equal to column j,
    whatever the pivot rule."""
    e = _random_cols(rng, rng.randint(1, 6), rng.randint(1, 10))
    kernel = _fed(e)[1]
    assert echelon(e)[0] == kernel
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
    assert [[1 << r for r in w] for w in want] == [
        [_span_size(cols[:c]) for c in cut] for cols, cut in zip(maps, cuts)
    ]
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
    kernel, pairs = echelon(fed)
    assert kernel == [combo]
    assert len(pairs) == elim.rank
    for residue, tags in pairs:
        assert apply_cols(fed, tags) == residue


def _fed(cols):
    """The reference Eliminator fed ``cols``, and the combos of the columns
    that died: a basis of the kernel, over lowest-bit pivots."""
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
    assert in_span(cols, 0b11) and not in_span(cols, 0b100)
    assert dead
    for k in dead:
        assert k and apply_cols(cols, k) == 0
    assert echelon(cols)[0] == dead


def test_invert_round_trips():
    cols = [0b011, 0b001, 0b100]
    inv = invert(cols, 3)
    assert [apply_cols(cols, c) for c in inv] == [0b001, 0b010, 0b100]
    assert [apply_cols(inv, c) for c in cols] == [0b001, 0b010, 0b100]


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert([0b01, 0b01], 2)


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_invert_is_the_reference_solve_of_each_unit_vector(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    cols = _random_cols(rng, n, n)
    elim = _fed(cols)[0]
    if elim.rank < n:
        with pytest.raises(ValueError):
            invert(cols, n)
    else:
        assert invert(cols, n) == [elim.solve(1 << i) for i in range(n)]


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
    # the library's rank beside the reference's kernel, and its own
    kernel, pairs = echelon(cols)
    assert rank(cols) + len(_fed(cols)[1]) == ncols
    assert rank(cols) == len(span_basis(cols)) == len(pairs) == ncols - len(kernel)
    elim = Eliminator()
    assert span_basis(cols) == [c for c in cols if elim.add(c)[0]]


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
    assert in_span(cols, target)


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_double_transpose_is_identity(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    cols = _random_cols(rng, nrows, ncols)
    assert transpose(transpose(cols, nrows), ncols) == cols
