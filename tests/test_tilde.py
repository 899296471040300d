"""Order-n cohomology: word complexes, transpose check, splitting, reflection."""

import random
import sys
import time
from bisect import bisect_left
from collections import Counter, OrderedDict
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, ainfty, algebra, augment, tilde
from legch.ainfty import (
    MAX_RELATION_TERMS,
    AInftyMorphism,
    AInftyStructure,
    CheckReport,
    _relation_terms,
    build_ring,
    check_an_relations,
    transfer_minimal_model,
)
from legch.algebra import DGA, canon_degree, mirror_dga, stabilize
from legch.augment import enumerate_augmentations
from legch.cli import main
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fileio import parse_dga, serialize_dga
from legch.fingerprint import compare_mirror
from legch.gf2 import bits, rank
from legch.linear import GradedMatrixMap, homology
from legch.tilde import MAX_WINDOW_BITS, check_order_n_transpose, order_n_cohomology, tilde_complex

import helpers
import theorems
from helpers import (
    Codes,
    Letters,
    _chain_terms,
    _cochain_terms,
    _perturbed_complex,
    _transpose_slices,
    decode,
    flip_table_bit,
    letter_windows,
    pair_oracle,
    pair_oracle_count,
    proved_rings,
    random_augmented_dga,
    random_dga,
    random_dgas,
    sliced_count,
    toggle_entry,
    twist_firsts,
    word_space,
    word_window_matrix,
    words_by_degree,
)
from theorems import (
    _word_by_word_reflection,
    order_n_homology,
    per_class_pair_splitting_check_n2,
    reflection_compare,
    representatives,
    splitting_check_n2,
    tilde_of_morphism,
)

TREFOIL_ORDER_DIMS = {
    1: {0: 2, 1: 1},
    2: {0: 5, 1: 4, 2: 1},
    3: {0: 9, 1: 11, 2: 6, 3: 1},
}


def test_order_and_engine_validation(monkeypatch):
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    with pytest.raises(ContractError):
        order_n_cohomology(ring, 0)
    with pytest.raises(ContractError):
        order_n_cohomology(ring, 5)
    with pytest.raises(ContractError, match="^engine must be 'auto', 'dense' or 'perturbation'$"):
        order_n_cohomology(ring, 2, engine="fast")
    # the cap is the module's budget, read on every call
    monkeypatch.setattr(tilde, "MAX_ORDER", 5)
    high = order_n_cohomology(ring, 5)
    assert high.order == 5 and sum(high.dims.values()) > 0


# Every entry that reads an order, the library's and the test-side theorem
# checks, refuses it through ``tilde._check_order``.
ORDER_ENTRIES = {
    "order_n_cohomology": lambda dga, ring, n: order_n_cohomology(ring, n),
    "check_order_n_transpose": lambda dga, ring, n: check_order_n_transpose(ring, n),
    "tilde_complex": lambda dga, ring, n: tilde_complex(ring.structure, n),
    "tilde_of_morphism": lambda dga, ring, n: tilde_of_morphism(ring.minimal(2)[1], n),
    "reflection_compare": lambda dga, ring, n: reflection_compare(dga, n),
}


@pytest.mark.parametrize(
    "n,message",
    [(0, "order must be at least 1"), (5, "order 5 exceeds the budget MAX_ORDER = 4")],
)
@pytest.mark.parametrize("name", list(ORDER_ENTRIES))
def test_every_order_n_entry_refuses_an_order_outside_1_to_max_order(name, n, message):
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    with pytest.raises(ContractError) as info:
        ORDER_ENTRIES[name](dga, ring, n)
    assert str(info.value) == message


def test_trefoil_order_dims_frozen():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    for n, dims in TREFOIL_ORDER_DIMS.items():
        got = order_n_cohomology(ring, n)
        assert got.dims == dims, n
        assert got.complex_dim == sum(5**a for a in range(1, n + 1))
    assert order_n_cohomology(ring, 1).dims == {0: 2, 1: 1}


def test_order_one_matches_linearized_cohomology():
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            got = order_n_cohomology(ring, 1, engine="dense")
            assert got.dims == ring.cochain.dims(), name


def _assert_engines_agree(ring, n):
    auto = order_n_cohomology(ring, n)
    dense = order_n_cohomology(ring, n, engine="dense")
    pert = order_n_cohomology(ring, n, engine="perturbation")
    assert auto.engine == "perturbation"
    assert dense.engine == "dense" and pert.engine == "perturbation"
    for got in (auto, pert):
        assert got.dims == dense.dims, n
        assert got.orders == dense.orders, n
        assert got.complex_dim == dense.complex_dim, n
        assert got.transpose_entries == dense.transpose_entries, n


def test_engines_agree():
    """auto, dense and perturbation on every augmentation of the examples, and
    on every ring of ``helpers.proved_rings()`` at n = 1..3 where the dense
    window has at most 50,000 words (all but masseyex(1,4,9,20) at n = 3)."""
    jobs = [(trefoil(), 3), (cupex(1, 3, 7), 2), (masseyex(1, 4, 9, 20), 2)]
    for dga, n in jobs:
        for aug in enumerate_augmentations(dga):
            _assert_engines_agree(build_ring(dga, aug), n)
    for ring in helpers.proved_rings():
        for n in (1, 2, 3):
            if tilde._word_count(len(ring.dga.generators), n) <= 50000:
                _assert_engines_agree(ring, n)


def _assert_every_order_is_its_own_call(ring, top):
    """At each n <= top, ``orders[m]`` is the m-th call's dims for every m <= n,
    on the perturbation engine and, where the order-n words of the
    generators number at most 20000, on the dense one."""
    size = len(ring.dga.generators)
    for n in range(1, top + 1):
        dense = tilde._word_count(size, n) <= 20000
        for engine in ("perturbation", "dense")[: 1 + dense]:
            got = order_n_cohomology(ring, n, engine=engine)
            assert list(got.orders) == list(range(1, n + 1)) and got.orders[n] == got.dims
            for m in range(1, n):
                assert got.orders[m] == order_n_cohomology(ring, m, engine=engine).dims, (n, m)


def test_every_lower_order_comes_from_the_one_window_on_the_examples():
    for dga in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                _assert_every_order_is_its_own_call(build_ring(side, aug), 4)


def test_every_lower_order_comes_from_the_one_window_on_random_dgas():
    for dga in random_dgas(20261019, 20, 6):
        for aug in enumerate_augmentations(dga)[:2]:
            _assert_every_order_is_its_own_call(build_ring(dga, aug), 4)


def _assert_rank_dims_are_homology_dims(ring, n, engine):
    """Dims read off ranks equal those of a full homology() of the engine's complex."""
    got = order_n_cohomology(ring, n, engine=engine)
    if engine == "dense":
        structure, built = ring.structure, tilde_complex(ring.structure, n).differential
    else:
        structure = ring.minimal(max(n, 2))[0]  # the one transfer the engine read
        built = _perturbed_complex(ring.structure, ring.cochain, n)
    data = order_n_homology(structure, n)
    assert data.differential == built
    assert got.dims == data.dims(), (n, engine)


def test_rank_dims_are_homology_dims_on_the_examples_and_their_mirrors():
    # Dense at n = 3 is skipped only on masseyex(1,4,9,20): 688,600 words.
    for dga in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        for side in (dga, mirror_dga(dga)):
            size = len(side.generators)
            for aug in enumerate_augmentations(side):
                ring = build_ring(side, aug)
                for n in (1, 2, 3):
                    _assert_rank_dims_are_homology_dims(ring, n, "perturbation")
                    if sum(size**a for a in range(1, n + 1)) <= 10**5:
                        _assert_rank_dims_are_homology_dims(ring, n, "dense")


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_rank_dims_are_homology_dims_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    for n in (1, 2, 3):
        for engine in ("dense", "perturbation"):
            _assert_rank_dims_are_homology_dims(ring, n, engine)


def _spy_prefix_ranks(monkeypatch):
    """Record each ``prefix_ranks`` call of ``_order_dims``: its blocks and ranks."""
    calls, real = [], tilde.prefix_ranks

    def spy(blocks):
        blocks = list(blocks)
        calls.append((blocks, list(real(blocks))))
        return iter(calls[-1][1])

    monkeypatch.setattr(tilde, "prefix_ranks", spy)
    return calls


def _assert_cleared_ranks_are_prefix_ranks(ring, n, engine, calls):
    calls.clear()
    got = order_n_cohomology(ring, n, engine=engine)
    ((blocks, ranks),) = calls
    assert len(blocks) == len(ranks) and [cuts[-1] for _, cuts in blocks] == [
        len(cols) for cols, _ in blocks
    ]
    for (cols, cuts), cleared in zip(blocks, ranks):
        assert cleared == [rank(cols[:c]) for c in cuts], (n, engine, got.dims)


def test_cleared_prefix_ranks_are_the_ranks_of_each_prefix(monkeypatch):
    """On every window of the proved rings at n = 1..3, on both engines (dense
    up to 50,000 words: not masseyex(1,4,9,20) at n = 3), and of seeded
    rings with a cyclic grading, clearing leaves the rank at every cut."""
    calls = _spy_prefix_ranks(monkeypatch)
    cyclic = [dga for dga in random_dgas(20261020, 60, 6) if dga.modulus > 0]
    rings = list(helpers.proved_rings())
    rings += [build_ring(dga, aug) for dga in cyclic for aug in helpers.twist_firsts(dga)]
    assert sum(ring.dga.modulus > 0 for ring in rings) >= 20
    for ring in rings:
        size = len(ring.dga.generators)
        for n in (1, 2, 3):
            _assert_cleared_ranks_are_prefix_ranks(ring, n, "perturbation", calls)
            if tilde._word_count(size, n) <= 50000:
                _assert_cleared_ranks_are_prefix_ranks(ring, n, "dense", calls)


def test_clearing_skips_columns_of_a_cyclic_graded_complex(monkeypatch):
    """Modulus 3: m_1 a = c + d, m_1 c = m_1 d = e, m_1 f = b.  Degree 0 is
    reduced first, and not cleared though its degree below, 2, holds rows;
    its row c + d sits on d's place and degree 1's row e on e's place, so
    the nonzero column d and the column e are skipped.  Reduced in
    descending degree, degree 1's row e would name column a instead."""
    s = AInftyStructure(
        3,
        {0: ("a", "b", "x"), 1: ("c", "d"), 2: ("e", "f")},
        1,
        {1: {("a",): 0b11, ("c",): 0b01, ("d",): 0b01, ("f",): 0b010}},
    )
    words = word_space(s, 1)
    window = tilde._window_matrix(s, words, tilde._window_pairs(s))
    cols = {0: [0b11, 0, 0], 1: [0b01, 0b01], 2: [0, 0b010]}
    assert window.cols == cols
    calls = _spy_prefix_ranks(monkeypatch)
    assert tilde._order_dims(window, words) == {1: {0: 1}}  # x; the rest is exact
    assert calls[0][1] == [[1], [1], [1]]
    assert window.cols == cols


def test_order_dims_leaves_the_window_unchanged(monkeypatch):
    calls = _spy_prefix_ranks(monkeypatch)
    ring = build_ring(trefoil(), enumerate_augmentations(trefoil())[0])
    tilde.check_order_n_transpose(ring, 3)
    words = word_space(ring.structure, 3)
    window = tilde._window_matrix(ring.structure, words, ring.pairs)
    before = {k: list(cols) for k, cols in window.cols.items()}
    assert tilde._order_dims(window, words) == TREFOIL_ORDER_DIMS
    assert window.cols == before
    ((blocks, ranks),) = calls  # a nonzero block after one of nonzero rank was cleared
    assert any(any(cols) and below[-1] for (cols, _), below in zip(blocks[1:], ranks))


def test_auto_engine_resolution_and_frozen_counts():
    """``auto`` is the perturbation engine on every window, small or large."""
    cup = cupex(1, 3, 7)
    big = order_n_cohomology(build_ring(cup, enumerate_augmentations(cup)[0]), 3)
    assert big.engine == "perturbation"
    assert big.complex_dim == 44135
    assert big.transpose_entries == 106531
    mas = masseyex(1, 4, 9, 20)
    mid = order_n_cohomology(build_ring(mas, enumerate_augmentations(mas)[0]), 2)
    assert mid.engine == "perturbation"
    assert mid.complex_dim == 7656
    assert mid.transpose_entries == 13523
    tre = trefoil()
    ring = build_ring(tre, enumerate_augmentations(tre)[0])
    small = order_n_cohomology(ring, 2)
    assert small.engine == "perturbation"
    assert small.dims == TREFOIL_ORDER_DIMS[2]


def test_transpose_check_counts_linear_entries_at_order_one():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    # twisted d a1 and d a2 each have linear part b1 + b3
    assert check_order_n_transpose(ring, 1) == 4


def test_representatives_label_words():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    got = order_n_cohomology(ring, 2, engine="dense")
    reps = representatives(order_n_homology(ring.structure, 2), 2)
    assert len(reps) == got.dims[2] == 1
    assert all("|" in r or r.startswith("[") for r in reps)


def test_splitting_identity_on_trefoil_and_cup_family():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        report = splitting_check_n2(build_ring(dga, aug))
        assert report.ok
        assert "cup" in report.convention or "mu_2" in report.convention
        for row in report.rows:
            assert row.expected == row.kernel_dim + row.homology_dim - row.image_dim
    cup = cupex(1, 3, 7)
    assert splitting_check_n2(build_ring(cup, enumerate_augmentations(cup)[0])).ok


def test_splitting_rows_frozen_on_first_trefoil_augmentation():
    dga = trefoil()
    report = splitting_check_n2(build_ring(dga, enumerate_augmentations(dga)[0]))
    table = [(r.degree, r.order2_dim, r.kernel_dim, r.homology_dim, r.image_dim) for r in report.rows]
    assert table == [(0, 5, 3, 2, 0), (1, 4, 4, 1, 1), (2, 1, 1, 0, 0)]


def _splitting_rings():
    """40 closed letters of degrees 1..40 (1,600 degree pairs, no support) at
    modulus 0 and 3, every twist of the bundled examples and the mirror
    bases, and the first augmentation of 20 random DGAs."""
    dgas = [helpers.closed_letters(40, modulus) for modulus in (0, 3)]
    for dga in dgas + [dga for _, dga in bundled_examples()] + helpers.mirror_bases():
        for aug in helpers.twist_firsts(dga):
            yield build_ring(dga, aug)
    for dga in random_dgas(20261020, 20):
        yield build_ring(dga, enumerate_augmentations(dga)[0])


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_splitting_reads_the_pair_blocks_as_the_per_class_pair_cups_do():
    """The check builds no pair block off the support, and its kernels,
    counted from the dims, are those of the per-class-pair cups."""
    for ring in _splitting_rings():
        report = splitting_check_n2(ring)
        assert set(ring.products._pairs) <= set(ring.products.support)
        assert report == per_class_pair_splitting_check_n2(ring)


def _count_twists(monkeypatch):
    """The augmentations that ``twist`` is called with, in every legch module."""
    calls = []
    real_twist = augment.twist

    def counted(dga, aug, arity=None):
        calls.append(aug)
        return real_twist(dga, aug, arity)

    for name, module in list(sys.modules.items()):
        if name.startswith("legch") and getattr(module, "twist", None) is real_twist:
            monkeypatch.setattr(module, "twist", counted)
    return calls


def test_only_build_ring_twists(monkeypatch):
    calls = _count_twists(monkeypatch)
    compare_mirror(trefoil())
    assert len(calls) == 5  # one build_ring per augmentation: the mirror's fingerprint is derived
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    del calls[:]
    for engine in ("dense", "perturbation"):
        order_n_cohomology(ring, 3, engine=engine)
    check_order_n_transpose(ring, 3)
    splitting_check_n2(ring)
    assert calls == []


def test_augmentations_with_one_twist_share_their_ring(monkeypatch, tmp_path, capsys):
    """A degree-0 stabilization doubles the augmentations and no twist:
    each command twists once per distinct twist (twice for the two sides
    of ``reflection_compare``), and still reports every augmentation."""
    calls = _count_twists(monkeypatch)
    once = stabilize(trefoil(), 0)
    assert len(compare_mirror(once).knot.profiles) == 10
    assert len(calls) == 5
    del calls[:]
    report = reflection_compare(once, 2)
    assert len(calls) == 10
    assert len(report.rows) == 10 and report.conjugation_words == 10 * (7 + 49)
    path = tmp_path / "t3.dga"
    path.write_text(serialize_dga(stabilize(stabilize(once, 0), 0)), encoding="utf-8")
    del calls[:]
    assert main(["report", str(path)]) == 0
    assert "augmentations: 40\n" in capsys.readouterr().out
    assert len(calls) == 5


def test_reflection_compare_on_trefoil():
    report = reflection_compare(trefoil(), 2)
    assert report.ok
    assert report.order == 2
    assert len(report.rows) == 5
    assert report.conjugation_words == 5 * (5 + 25)
    for row in report.rows:
        assert row.dims == row.mirror_dims


def test_tilde_complex_dims_match_engine_output():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    ring = build_ring(dga, aug)
    built = tilde_complex(ring.structure, 2)
    assert built.total_dim() == 30
    assert homology(built.differential).dims() == TREFOIL_ORDER_DIMS[2]


def test_minimal_model_tilde_complex_computes_order_n_dims():
    jobs = [(trefoil(), 3), (cupex(1, 3, 7), 3), (masseyex(1, 4, 9, 20), 2)]
    for dga, top in jobs:
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            mu, _ = transfer_minimal_model(ring.cochain, ring.structure, 3)
            for n in range(1, top + 1):
                small = tilde_complex(mu, n)
                want = order_n_cohomology(ring, n, engine="dense")
                assert homology(small.differential).dims() == want.dims


def test_tilde_of_morphism_is_a_quasi_isomorphism():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        mu, f = transfer_minimal_model(ring.cochain, ring.structure, 3)
        for n in (2, 3):
            induced = tilde_of_morphism(f, n)
            ranks = induced.induced_ranks()
            assert induced.is_quasi_iso(), ranks
            for k, (a, b, r) in ranks.items():
                assert a == b == r, (k, a, b, r)


def test_tilde_of_morphism_blocks_match_the_composition_sum():
    for dga in (trefoil(), cupex(1, 3, 7)):
        for aug in enumerate_augmentations(dga):
            f = build_ring(dga, aug).minimal(3)[1]
            for n in (1, 2, 3):
                assert tilde_of_morphism(f, n).blocks == theorems.composition_tilde_blocks(f, n)


def test_tilde_of_morphism_rejects_incomplete_or_wrong_input():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    ring = build_ring(dga, aug)
    mu, f = transfer_minimal_model(ring.cochain, ring.structure, 3)
    bare = AInftyMorphism(3, {n: dict(t) for n, t in f.tables.items()})
    with pytest.raises(ContractError):
        tilde_of_morphism(bare, 2)
    broken_tables = {n: dict(t) for n, t in f.tables.items()}
    broken_tables[1] = dict(broken_tables[1])
    broken_tables[1][("[b2]",)] = 0b001  # no longer a chain map
    broken = AInftyMorphism(3, broken_tables, src=mu, dst=ring.structure)
    with pytest.raises(ContractError):
        tilde_of_morphism(broken, 2)


@pytest.mark.parametrize(
    "letter,n,word",
    [("[b2]", 1, "[b2]"), ("[b2]", 2, "[b2]"), ("[a1]", 2, "[b2]|[b1+b3]")],
)
def test_tilde_of_morphism_rejects_a_map_that_does_not_commute(monkeypatch, letter, n, word):
    # One flipped bit of f_1 breaks the chain map; with the morphism check
    # reporting ok, the block check on the window matrices names the first
    # source word where F d_src and d_dst F differ.
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    f = ring.minimal(2)[1]
    tables = {a: dict(t) for a, t in f.tables.items()}
    tables[1][(letter,)] ^= 1
    broken = AInftyMorphism(f.arity, tables, src=f.src, dst=f.dst)
    monkeypatch.setattr(theorems, "check_ainfty_morphism", lambda *args: CheckReport(True, ""))
    with pytest.raises(InternalConsistencyError) as info:
        tilde_of_morphism(broken, n)
    assert str(info.value) == "induced map fails to commute with the differentials on " + word


def _word_by_word_entries(ring, n):
    """Oracle: the transpose check's two matrices, word by word per degree.

    Returns the (column word, row word) entries of the Leibniz side (from
    ``ring.twisted``) and of the window side (from ``ring.structure``),
    expanding every word of length <= n with ``_chain_terms`` and
    ``_cochain_terms``.
    """
    twisted, s = ring.twisted, ring.structure
    letters = Letters(s)
    windows = letter_windows(s, letters)
    repl = [
        tuple(tuple(letters.index[x] for x in w) for w in twisted.d(lbl))
        for lbl in letters.labels
    ]
    groups = words_by_degree(letters.degree, n, s.modulus)
    chain, window = set(), set()
    for m, ws in groups.items():
        low = canon_degree(s.modulus, m - 1)
        for w in ws:
            for v in _chain_terms(repl, w, n):
                if canon_degree(s.modulus, sum(letters.degree[x] for x in v)) != low:
                    raise InternalConsistencyError("Leibniz image not homogeneous")
                chain.add((w, v))
        high = canon_degree(s.modulus, m + 1)
        for v in ws:
            for u in _cochain_terms(windows, v):
                if canon_degree(s.modulus, sum(letters.degree[x] for x in u)) != high:
                    raise InternalConsistencyError("window image not homogeneous")
                window.add((u, v))
    return chain, window


def _sliced_entries(ring, n):
    entries = set()
    for codes, chain in _transpose_slices(ring, n):
        for code in chain:
            col, row = divmod(code, codes.total)
            entries.add((decode(codes, col), decode(codes, row)))
    return entries


def _tilde_entries(s, n):
    """(target word, source word) of every nonzero tilde_complex entry."""
    built = tilde_complex(s, n)
    index = Letters(s).index
    words = {
        k: [tuple(index[x] for x in w) for w in ws] for k, ws in built.words.items()
    }
    entries = set()
    for k, cols in built.differential.cols.items():
        high = built.differential.canon(k + 1)
        for i, vec in enumerate(cols):
            for j in bits(vec):
                entries.add((words[high][j], words[k][i]))
    return entries


def _assert_matches_oracle(ring, n):
    chain, window = _word_by_word_entries(ring, n)
    assert chain == window
    assert _sliced_entries(ring, n) == chain
    assert check_order_n_transpose(ring, n) == len(chain)
    assert _tilde_entries(ring.structure, n) == window


def test_transpose_check_matches_the_word_by_word_oracle(monkeypatch):
    for name, dga in bundled_examples():
        top = 2 if name.startswith("masseyex") else 3
        for aug in enumerate_augmentations(dga):
            for n in range(1, top + 1):
                _assert_matches_oracle(build_ring(dga, aug), n)
    dga = trefoil()
    monkeypatch.setattr(tilde, "MAX_ORDER", 5)
    for n in (4, 5):
        _assert_matches_oracle(build_ring(dga, enumerate_augmentations(dga)[0]), n)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(deadline=None, max_examples=25)
def test_transpose_check_matches_the_oracle_on_random_dgas(seed, n):
    _assert_matches_oracle(random_augmented_dga(random.Random(seed))[2], n)


def _uncancelled_count(ring, n):
    """The count if no two triples met on an entry: sum over pairs of W(n - |t|)."""
    size = len(ring.structure.order)
    pairs = tilde._window_pairs(ring.structure)
    return sum(
        (m + 1) * size**m for _, t in pairs if len(t) <= n for m in range(n - len(t) + 1)
    )


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(deadline=None, max_examples=40)
@example(12, 3)
@example(37, 3)
@example(83, 3)
@example(12, 4)  # from n = 4 on, a core can carry a third triple: s = 3
@example(37, 4)
def test_entry_count_matches_the_sliced_oracle_on_random_dgas(seed, n):
    ring = random_augmented_dga(random.Random(seed))[2]
    assert check_order_n_transpose(ring, n) == sliced_count(ring, n)


def test_entry_count_cancels_on_the_pinned_random_seeds():
    # Seeds whose window matrix has two triples on one entry at n = 3.
    for seed in (12, 37, 83):
        ring = random_augmented_dga(random.Random(seed))[2]
        count = check_order_n_transpose(ring, 3)
        assert count == sliced_count(ring, 3)
        assert count < _uncancelled_count(ring, 3), seed
    ring = random_augmented_dga(random.Random(37))[2]
    assert (check_order_n_transpose(ring, 3), _uncancelled_count(ring, 3)) == (60, 68)


def _diagonal_dga():
    """d g = d x = g + x, d y = 0, all in degree 0: pairs (g, (g)) need modulus 1."""
    return DGA(
        1,
        ("g", "x", "y"),
        {"g": 0, "x": 0, "y": 0},
        {"g": frozenset({("g",), ("x",)}), "x": frozenset({("g",), ("x",)})},
    )


def test_entry_count_on_a_modulus_one_dga_with_diagonal_cores():
    dga = _diagonal_dga()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        for n, want in ((1, 4), (2, 20), (3, 88), (4, 344)):
            assert check_order_n_transpose(ring, n) == want == sliced_count(ring, n)
            dense = order_n_cohomology(ring, n, engine="dense")
            pert = order_n_cohomology(ring, n, engine="perturbation")
            assert dense.transpose_entries == pert.transpose_entries == want
            assert dense.dims == pert.dims == {0: n}


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
@example(4)  # cores with an odd number s of triples
@example(6691)
def test_entry_count_matches_the_sliced_oracle_on_modulus_one_dgas(seed):
    rng = random.Random(seed)
    dga = random_dga(rng, 6, moduli=(1,))
    # build_ring checks the relations up to the longest word, which takes
    # tens of seconds on some words of length 15 and more.
    assume(max((len(w) for g in dga.generators for w in dga.d(g)), default=0) <= 8)
    augs = enumerate_augmentations(dga)
    assume(augs)
    ring = build_ring(dga, augs[rng.randrange(len(augs))])
    for n in (1, 2, 3, 4):
        assert check_order_n_transpose(ring, n) == sliced_count(ring, n)


def test_dense_engine_rejects_a_window_matrix_off_the_count(monkeypatch):
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    real = tilde._entry_count
    monkeypatch.setattr(tilde, "_entry_count", lambda *args: real(*args) + 1)
    _raises_naming(
        "order-2 window matrix has 46 nonzero entries, its pairs count 47",
        lambda: order_n_cohomology(ring, 2, engine="dense"),
    )


def test_dense_window_matrix_is_the_word_by_word_matrix_on_the_examples_and_their_mirrors():
    for name, dga in bundled_examples():
        top = 2 if name.startswith("masseyex") else 3
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                s = build_ring(side, aug).structure
                for n in range(1, top + 1):
                    oracle = word_window_matrix(s, n)
                    assert oracle.is_square_zero()
                    assert tilde_complex(s, n).differential == oracle, (name, n)


def _assert_raises_exactly_when_not_square_zero(ring, n, engine, structure):
    """order_n_cohomology raises on ``engine`` exactly when the word-by-word
    window matrix of ``structure``, the one that engine reduces, has d d != 0."""
    if word_window_matrix(structure, n).is_square_zero():
        order_n_cohomology(ring, n, engine=engine)
    else:
        _raises_naming(
            "order-%d differential does not square to zero: relation fails at arity" % n,
            lambda: order_n_cohomology(ring, n, engine=engine),
        )


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(deadline=None, max_examples=25)
@example(2, 3)  # fails at arity 3 only
@example(8, 2)  # fails at arity 2
def test_order_n_raises_exactly_when_a_mutated_window_matrix_does_not_square_to_zero(seed, n):
    rng = random.Random(seed)
    mutated = flip_table_bit(random_augmented_dga(rng, max_gens=6)[2], rng)
    assume(mutated is not None)
    with pytest.MonkeyPatch.context() as patch:
        _assert_raises_exactly_when_not_square_zero(mutated, n, "dense", mutated.structure)
        try:
            mu = mutated.minimal(max(n, 2))[0]
        except (ContractError, InternalConsistencyError):
            # The transfer of a structure off its relations may fail outright.
            with pytest.raises((ContractError, InternalConsistencyError)):
                order_n_cohomology(mutated, n, engine="perturbation")
        else:
            _assert_raises_exactly_when_not_square_zero(mutated, n, "perturbation", mu)


def test_a_relation_failing_only_above_build_rings_arity_is_caught_at_that_order(monkeypatch):
    good = parse_dga("modulus 0\ngen a 1\ngen b 1\ngen c 1\ngen u 3\ngen g 5\nd u = a b\n")
    # One flipped m_2 bit: m_2(u, c) = g, in the good ring's structure and
    # twist (d g = u c, with d d g = a b c != 0, so build_ring would refuse
    # that DGA).  The differential is quadratic and m_1 = 0, so the relations
    # of arities 1 and 2 hold, but associativity fails:
    # m_2(m_2(a, b), c) = g, m_2(a, m_2(b, c)) = 0.
    aug = enumerate_augmentations(good)[0]
    ring = toggle_entry(build_ring(good, aug), ("u", "c"), "g")
    assert ring.structure.arity == 2
    assert check_an_relations(ring.structure, 2).ok
    # The dense engine meets the failure in its order-3 window matrix.  The
    # perturbation engine meets it already at order 2, in the check of the
    # transfer it reads, which runs one arity above the transfer's.
    order_n_cohomology(ring, 2, engine="dense")
    _raises_naming(
        "order-3 differential does not square to zero: relation fails at arity 3",
        lambda: order_n_cohomology(ring, 3, engine="dense"),
    )
    for n in (2, 3):
        _raises_naming(
            "transferred structure fails a relation: relation fails at arity 3 on ([a], [b], [c])",
            lambda: order_n_cohomology(ring, n, engine="perturbation"),
        )
    _raises_naming(
        "relation fails at arity 3 on (a, b, c)",
        lambda: order_n_cohomology(ring, 3, engine="dense"),
    )
    assert not word_window_matrix(ring.structure, 3).is_square_zero()


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_dense_side_relation_checks_stay_far_below_the_budget():
    # The ordern dense-side bases at n = 3 and trefoil+2s0 dense at n = 4.
    jobs = [(stabilize(cupex(1, 1, 2), 1), 3), (stabilize(stabilize(trefoil(), 0), 0), 4)]
    for dga, n in jobs:
        ring = build_ring(dga, enumerate_augmentations(dga)[0])
        assert _relation_terms(ring.structure, n) * 10**4 < MAX_RELATION_TERMS
        assert order_n_cohomology(ring, n, engine="dense").engine == "dense"


def _assert_minimal_window_is_the_perturbed_complex(ring, n):
    """The perturbation engine's matrix equals the word-by-word series, labels included."""
    mu = ring.minimal(max(n, 2))[0]
    assert tilde_complex(mu, n).differential == _perturbed_complex(ring.structure, ring.cochain, n)


def test_minimal_model_window_matrix_is_the_perturbed_complex():
    for name, dga in bundled_examples():
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                ring = build_ring(side, aug)
                for n in (1, 2, 3):
                    _assert_minimal_window_is_the_perturbed_complex(ring, n)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_minimal_model_window_matrix_is_the_perturbed_complex_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed))[2]
    for n in (1, 2, 3):
        _assert_minimal_window_is_the_perturbed_complex(ring, n)


def test_each_dga_is_validated_once_and_an_invalid_one_still_fails(monkeypatch):
    monkeypatch.setattr(algebra, "_VALIDATED", OrderedDict())
    calls = []
    real = algebra.validate_dga

    def counted(dga):
        calls.append(dga)
        return real(dga)

    monkeypatch.setattr(algebra, "validate_dga", counted)
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        for n in (1, 2):
            order_n_cohomology(ring, n)
    assert len(calls) == 1
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    diff = {g: dga.d(g) for g in dga.generators}
    diff["a1"] = diff["a1"] | {("a2",)}  # degree 1 in d a1: not homogeneous
    invalid = replace(ring, dga=dga.replace_diff(diff))
    for _ in range(2):  # a failure is not remembered as valid
        with pytest.raises(ContractError):
            order_n_cohomology(invalid, 2)
    assert len(calls) == 3


def test_pairs_are_compared_once_per_ring_and_letters_built_per_window_matrix(monkeypatch):
    compared, letters = [], []
    real_pairs, real_words = tilde._TwistedPairs, tilde._Words
    monkeypatch.setattr(
        tilde, "_TwistedPairs", lambda *args: compared.append(args) or real_pairs(*args)
    )
    # each word space codes the letters of its structure
    monkeypatch.setattr(
        tilde, "_Words", lambda s, counts: letters.append(s) or real_words(s, counts)
    )
    dga = trefoil()
    rings = [build_ring(dga, aug) for aug in enumerate_augmentations(dga)]
    for ring in rings:
        for n in (1, 2, 3, 4):
            for engine in ("dense", "perturbation"):
                order_n_cohomology(ring, n, engine=engine)
            check_order_n_transpose(ring, n)
    # one pass per ring, over that ring's twist and structure, at the first order asked
    assert len(compared) == len(rings)
    assert all(t is r.twisted and s is r.structure and n == 1 for (t, s, n), r in zip(compared, rings))
    assert len(letters) == len(rings) * 4 * 2  # one per window matrix built
    assert all(s is rings[0].structure for s in letters[:8:2])  # dense, then the minimal model


def test_each_order_n_check_is_made_once_per_call(monkeypatch):
    """Per ``order_n_cohomology`` call: one ``_degree_counts``, on either
    engine; on the dense engine one relation check, the structure's up to
    n (Square zero); on the perturbation engine only its transfer's, up to
    max(n, 2) + 1 when the call builds it, and none once it is kept
    (Perturbation)."""
    counted, checked = [], []
    real_counts, real_check = tilde._degree_counts, ainfty.check_an_relations
    monkeypatch.setattr(tilde, "_degree_counts", lambda *a: counted.append(a) or real_counts(*a))

    def check(s, up_to):
        checked.append((s, up_to))
        return real_check(s, up_to)

    monkeypatch.setattr(tilde, "check_an_relations", check)
    monkeypatch.setattr(ainfty, "check_an_relations", check)
    for dga in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        aug, size = enumerate_augmentations(dga)[0], len(dga.generators)
        for n in (1, 2, 3):
            ring = build_ring(dga, aug)
            for engine in ("perturbation", "perturbation", "dense"):
                if engine == "dense" and tilde._word_count(size, n) > 50000:
                    continue  # masseyex(1,4,9,20) at n = 3: over MAX_WINDOW_BITS
                counted.clear(), checked.clear()
                kept = ring.products._model
                order_n_cohomology(ring, n, engine=engine)
                assert len(counted) == 1, (n, engine)
                if engine == "dense":
                    want = [(ring.structure, n)]
                else:
                    want = [] if kept else [(ring.minimal(max(n, 2))[0], max(n, 2) + 1)]
                assert checked == want and all(s is w for (s, _), (w, _) in zip(checked, want))


def test_dense_engine_builds_on_the_pairs_the_ring_compared(monkeypatch):
    # The dense window matrix is built from the pairs the one pass proved,
    # kept as ``ring.pairs``; no table is scanned for pairs on the way.
    scanned, built = [], []
    real = tilde._window_matrix
    monkeypatch.setattr(tilde, "_window_pairs", lambda s: scanned.append(s))

    def spy(s, words, pairs, *rest):
        built.append((sys._getframe(1).f_code.co_name, s, pairs))
        return real(s, words, pairs, *rest)

    monkeypatch.setattr(tilde, "_window_matrix", spy)
    dga = trefoil()
    rings = [build_ring(dga, aug) for aug in enumerate_augmentations(dga)]
    for ring in rings:
        for n in (1, 2, 3, 4):
            order_n_cohomology(ring, n, engine="dense")
    assert scanned == []
    assert len(built) == 4 * len(rings)
    for (caller, s, pairs), ring in zip(built, [r for r in rings for _ in range(4)]):
        assert (caller, s, pairs) == ("order_n_cohomology", ring.structure, ring.pairs)
        assert s is ring.structure and pairs is ring.pairs
        assert set(pairs) == pair_oracle(ring, 4)


def test_library_complexes_are_reduced_without_squaring_them_again(monkeypatch):
    # build_ring's two maps and every window matrix carry their d d = 0 proof
    # in the A-infinity relations; only the public ``homology`` squares.
    calls = []
    real = GradedMatrixMap.is_square_zero
    monkeypatch.setattr(GradedMatrixMap, "is_square_zero", lambda m: calls.append(m) or real(m))
    dga = trefoil()
    rings = [build_ring(dga, aug) for aug in enumerate_augmentations(dga)]
    for ring in rings:
        for n in (1, 2):
            for engine in ("dense", "perturbation"):
                result = order_n_cohomology(ring, n, engine=engine)
                structure = ring.structure if engine == "dense" else ring.minimal(max(n, 2))[0]
                data = order_n_homology(structure, n)
                for k in result.dims:
                    assert len(representatives(data, k)) == result.dims[k]
            ranks = tilde_of_morphism(ring.minimal(2)[1], n).induced_ranks()
            assert all(a == b == r for a, b, r in ranks.values())
    assert calls == []
    for ring in rings:
        for h in (ring.chain, ring.cochain):
            before = len(calls)
            assert homology(h.differential).dims() == h.dims()
            assert len(calls) == before + 1


def test_minimal_model_is_kept_whole_until_a_higher_arity_rebuilds_it(monkeypatch):
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    top = ring.minimal(3)
    assert top[0].arity == 3 and all(ring.minimal(k) == top for k in (2, 3))
    assert ring.minimal(2)[0] is top[0] and ring.minimal(2)[1] is top[1]
    read, real = [], tilde._window_matrix
    monkeypatch.setattr(tilde, "_window_matrix", lambda s, *rest: read.append(s) or real(s, *rest))
    order_n_cohomology(ring, 2, engine="perturbation")
    assert len(read) == 1 and read[0] is top[0]  # read whole, its terms of length <= 2
    higher = ring.minimal(4)  # a higher arity rebuilds the transfer
    assert higher[0].arity == 4 and ring.minimal(2)[0] is higher[0] is not top[0]
    assert {k: higher[0].tables[k] for k in (2, 3)} == {k: top[0].tables[k] for k in (2, 3)}


def test_transpose_check_rejects_a_one_sided_pair_longer_than_the_order():
    # The pair sets are compared at every term length, so an arity-3 entry
    # missing from the window side fails at orders 1 and 2 as well, where the
    # order-n matrices alone (|t| <= n) would still agree.
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    args = min(s.tables[3], key=lambda a: [s.order[x] for x in a])
    vec = s.tables[3][args]
    tables = {k: dict(t) for k, t in s.tables.items()}
    del tables[3][args]
    lowest = s.names(s.out_degree(args))[(vec & -vec).bit_length() - 1]
    for n in (1, 2, 3):
        mutated = replace(ring, structure=AInftyStructure(s.modulus, s.basis, s.arity, tables))
        chain, window = _word_by_word_entries(mutated, n)
        assert (chain == window) == (n < 3)
        _raises_naming(
            "order-%d transpose equality fails: only the Leibniz side has the entry (%s -> %s)"
            % (n, lowest, "|".join(args)),
            lambda: check_order_n_transpose(mutated, n),
        )
    diff = {g: ring.twisted.d(g) for g in ring.twisted.generators}
    diff["a1"] = diff["a1"] | {("b2", "b2", "b2")}
    spurious = replace(ring, twisted=ring.twisted.replace_diff(diff))
    _raises_naming(
        "order-1 transpose equality fails: only the Leibniz side has the entry (a1 -> b2|b2|b2)",
        lambda: check_order_n_transpose(spurious, 1),
    )


def _raises_naming(expected, call):
    """``call`` raises an internal error whose message names side and words."""
    with pytest.raises(InternalConsistencyError) as info:
        call()
    assert expected in str(info.value), str(info.value)


def test_transpose_check_rejects_a_dropped_table_entry():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    n = 3
    for j in sorted(s.tables):
        if j > n or not s.tables[j]:
            continue
        args = min(s.tables[j], key=lambda a: [s.order[x] for x in a])
        tables = {k: dict(t) for k, t in s.tables.items()}
        vec = tables[j].pop(args)
        mutated = replace(ring, structure=AInftyStructure(s.modulus, s.basis, s.arity, tables))
        lowest = s.names(s.out_degree(args))[(vec & -vec).bit_length() - 1]
        chain, window = _word_by_word_entries(mutated, n)
        assert chain != window
        _raises_naming(
            "only the Leibniz side has the entry (%s -> %s)" % (lowest, "|".join(args)),
            lambda: check_order_n_transpose(mutated, n),
        )


def test_transpose_check_rejects_a_spurious_twisted_term():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    diff = {g: ring.twisted.d(g) for g in ring.twisted.generators}
    assert ("b2",) not in diff["a1"]
    diff["a1"] = diff["a1"] | {("b2",)}
    spurious = replace(ring, twisted=ring.twisted.replace_diff(diff))
    chain, window = _word_by_word_entries(spurious, 2)
    assert chain != window
    _raises_naming(
        "only the Leibniz side has the entry (a1 -> b2)",
        lambda: check_order_n_transpose(spurious, 2),
    )


def test_transpose_check_rejects_a_table_entry_of_the_wrong_degree(monkeypatch):
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    args = min(s.tables[2], key=lambda a: [s.order[x] for x in a])
    right = s.out_degree(args)
    wrong = next(k for k in s.basis if k != right and len(s.names(k)) >= len(s.names(right)))
    real = s.out_degree
    # Read the image vector of m_2(args) in the basis of another degree.
    monkeypatch.setattr(s, "out_degree", lambda a: wrong if a == args else real(a))
    first = s.names(wrong)[(s.tables[2][args] & -s.tables[2][args]).bit_length() - 1]
    with pytest.raises(InternalConsistencyError):
        _word_by_word_entries(ring, 2)
    # The pass sums each term's degree from s.degree_of, so the wrong reading
    # shows where the tables are read through s.out_degree: in the scan for
    # window-only pairs that a failing pass runs (one twisted term dropped),
    # and in tilde_complex.
    message = "window image %s of %s is not homogeneous" % (first, "|".join(args))
    g = next(x for x in s.order if args in ring.twisted.d(x))
    _raises_naming(message, lambda: check_order_n_transpose(_with_terms(ring, {g: {args}}), 2))
    _raises_naming(message, lambda: tilde_complex(s, 2))



def test_an_inhomogeneous_leibniz_pair_outranks_an_inhomogeneous_window_pair(monkeypatch):
    """The wrong-degree reading of the test above, and a twisted term of the
    wrong degree beside it: the Leibniz side is named, as the oracle does."""
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    args = min(s.tables[2], key=lambda a: [s.order[x] for x in a])
    right = s.out_degree(args)
    wrong = next(k for k in s.basis if k != right and len(s.names(k)) >= len(s.names(right)))
    real = s.out_degree
    monkeypatch.setattr(s, "out_degree", lambda a: wrong if a == args else real(a))
    mutated = _with_terms(ring, {"a2": {("a1",)}})
    message = "Leibniz image a1 of a2 is not homogeneous of degree 0"
    assert _pair_outcome(lambda: pair_oracle(mutated, 2)) == ("error", message)
    assert _pair_outcome(lambda: check_order_n_transpose(mutated, 2)) == ("error", message)
    g = next(x for x in s.order if args in ring.twisted.d(x))  # the window side alone
    window = _pair_outcome(lambda: check_order_n_transpose(_with_terms(ring, {g: {args}}), 2))
    assert window[0] == "error" and window[1].startswith("window image")

def test_transpose_check_rejects_a_dropped_entry_in_a_later_slice():
    dga = cupex(1, 3, 7)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    n = 3
    letters = Letters(s)
    windows = letter_windows(s, letters)
    codes = Codes(len(letters.labels), n)
    step = max(1, helpers._SLICE_WORDS // (codes.off[n] + 1))
    assert step < len(letters.labels)  # the window count takes several slices
    args, hits = next(
        (args, hits)
        for j in sorted(windows) if j <= n
        for args, hits in sorted(windows[j].items())
        if hits and min(hits) >= step
    )
    labels = tuple(letters.labels[x] for x in args)
    tables = {k: dict(t) for k, t in s.tables.items()}
    del tables[len(args)][labels]
    mutated = replace(ring, structure=AInftyStructure(s.modulus, s.basis, s.arity, tables))
    _raises_naming(
        "only the Leibniz side has the entry (%s -> %s)"
        % (letters.labels[min(hits)], "|".join(labels)),
        lambda: check_order_n_transpose(mutated, n),
    )


def _pair_outcome(call):
    """("ok", value) or ("error", message) of a call that may fail a pair check."""
    try:
        return "ok", call()
    except InternalConsistencyError as err:
        return "error", str(err)


def _with_terms(ring, changes):
    """``ring`` with each twisted d(g) XORed with its set of words, the structure kept."""
    twisted = ring.twisted
    diff = {g: twisted.d(g) ^ frozenset(changes.get(g, ())) for g in twisted.generators}
    return replace(ring, twisted=twisted.replace_diff(diff))


def _with_table_bit(ring, args, g):
    """``ring`` with g toggled in m_|args|(args), the twist kept."""
    s = ring.structure
    tables = {j: dict(t) for j, t in s.tables.items()}
    table = tables.setdefault(len(args), {})
    table[args] = table.get(args, 0) ^ (1 << s.names(s.degree_of[g]).index(g))
    structure = AInftyStructure(s.modulus, s.basis, max(s.arity, len(args)), tables)
    return replace(ring, structure=structure)


def _pair_mutations(ring, rng):
    """``ring`` and mutations of one side of its pairs: a random word toggled
    in a random d(g) (of any degree, so often inhomogeneous), a term dropped
    from the twist, a table bit toggled on an entry or on random letters,
    and a constant term."""
    s = ring.structure
    labels = sorted(s.order, key=s.order.get)
    yield ring
    word = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
    yield _with_terms(ring, {rng.choice(labels): {word}})
    terms = [(g, t) for g in labels for t in ring.twisted.d(g)]
    if terms:
        g, t = rng.choice(terms)
        yield _with_terms(ring, {g: {t}})
    entries = sorted(args for table in s.tables.values() for args in table)
    if entries and rng.random() < 0.5:
        args = rng.choice(entries)
    else:
        args = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
    out = s.basis.get(s.out_degree(args), ())
    if out:
        yield _with_table_bit(ring, args, rng.choice(out))
    yield _with_terms(ring, {rng.choice(labels): {()}})


def _one_pass_rings():
    """The proved rings, the twists of more random draws, and modulus-1 rings
    whose one-letter terms (g, (g)) make diagonal cores."""
    yield from proved_rings()
    rng = random.Random(20261020)
    draws = random_dgas(44, 40) + [_diagonal_dga()]
    draws += [random_dga(rng, 6, moduli=(1,)) for _ in range(30)]
    for dga in draws:
        # build_ring checks the relations up to the longest word: keep them short
        if max((len(w) for g in dga.generators for w in dga.d(g)), default=0) <= 8:
            for aug in twist_firsts(dga):
                yield build_ring(dga, aug)


KINDS = ("constant term", "not homogeneous", "only the Leibniz side", "only the window side")


def test_one_pass_verdict_and_count_are_the_set_oracles():
    """The one pass and the full-set comparison agree on every ring and every
    one-sided mutation of it at n = 1..4: the same count, or the same error."""
    rng = random.Random(44)
    rings = diagonal = 0
    kinds = Counter()
    for ring in _one_pass_rings():
        rings += 1
        diagonal += any((g,) in ring.twisted.d(g) for g in ring.structure.order)
        for mutated in _pair_mutations(ring, rng):
            size = len(mutated.structure.order)
            for n in (1, 2, 3, 4):
                fresh = replace(mutated)
                want = _pair_outcome(lambda: pair_oracle_count(pair_oracle(mutated, n), size, n))
                assert _pair_outcome(lambda: check_order_n_transpose(fresh, n)) == want
                if want[0] == "ok":
                    assert set(fresh.pairs) == pair_oracle(mutated, n)
                else:
                    assert fresh.pairs is None
                kinds["ok" if want[0] == "ok" else next(k for k in KINDS if k in want[1])] += 1
    # 170 rings, 16 with a diagonal pair; every kind of verdict is met
    assert rings >= 150 and diagonal >= 10, (rings, diagonal)
    assert set(kinds) == {"ok", *KINDS}, kinds


@pytest.mark.parametrize("n", [1, 2, 4])
def test_each_pair_failure_keeps_its_exact_message(n):
    """Each failure kind, with a lesser one beside it that it outranks."""
    ring = build_ring(trefoil(), enumerate_augmentations(trefoil())[0])
    cases = [
        # a constant term outranks an inhomogeneous term of an earlier letter
        ({"b1": {("a1",)}, "a1": {()}}, "twisted differential of a1 has a constant term"),
        # an inhomogeneous Leibniz pair outranks a one-sided pair of an earlier letter
        ({"a1": {("b1",)}, "a2": {("a1",)}}, "Leibniz image a1 of a2 is not homogeneous of degree 0"),
        # the smallest one-sided pair in code order names its side
        (
            {"a1": {("b2",)}, "a2": {("b3", "b2", "b1")}},
            "order-%d transpose equality fails: only the Leibniz side has the entry (a1 -> b2)" % n,
        ),
        (
            {"a1": {("b1", "b2")}, "a2": {("b2",)}},
            "order-%d transpose equality fails: only the window side has the entry (a1 -> b1|b2)" % n,
        ),
    ]
    for changes, message in cases:
        mutated = _with_terms(ring, changes)
        assert _pair_outcome(lambda: pair_oracle(mutated, n)) == ("error", message)
        assert _pair_outcome(lambda: check_order_n_transpose(mutated, n)) == ("error", message)


def test_reflection_check_matches_the_word_by_word_oracle():
    for name, dga in bundled_examples():
        top = 2 if name.startswith("masseyex") else 3
        mirror = mirror_dga(dga)
        for aug in enumerate_augmentations(dga):
            knot, other = build_ring(dga, aug).twisted, build_ring(mirror, aug).twisted
            for n in range(1, top + 1):
                want = _word_by_word_reflection(knot, other, n)
                assert theorems._check_reflection_conjugation(knot, other, n) == want
                assert want == sum(len(dga.generators) ** a for a in range(1, n + 1))


def test_reflection_check_rejects_a_spurious_mirror_term():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    knot, other = build_ring(dga, aug).twisted, build_ring(mirror_dga(dga), aug).twisted
    diff = {g: other.d(g) for g in other.generators}
    assert ("b2", "b1") not in diff["a2"]
    diff["a2"] = diff["a2"] | {("b2", "b1")}
    spurious = other.replace_diff(diff)
    for n in (2, 3):
        for check in (theorems._check_reflection_conjugation, _word_by_word_reflection):
            _raises_naming(
                "reflection conjugation fails on a2", lambda: check(knot, spurious, n)
            )


def _free_degree_one(count: int) -> DGA:
    names = tuple("a%d" % i for i in range(count))
    return DGA(0, names, dict.fromkeys(names, 1), {})


@pytest.mark.parametrize(
    "dga,argv,bits",
    [
        (cupex(1, 3, 7), ("--n", "4", "--engine", "dense"), 211313670160),
        (masseyex(1, 4, 9, 20), ("--n", "3", "--engine", "dense"), 69126969925),
        (_free_degree_one(60), ("--n", "3"), 46668963600),
    ],
)
def test_window_builds_over_the_budget_fail_fast_with_its_name(capsys, tmp_path, dga, argv, bits):
    path = tmp_path / "big.dga"
    path.write_text(serialize_dga(dga), encoding="utf-8")
    start = time.perf_counter()
    code = main(["ordern", *argv, str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "take %d window bits" % bits in captured.err
    assert "MAX_WINDOW_BITS = %d" % MAX_WINDOW_BITS in captured.err
    assert elapsed < 1.0


def test_the_window_budget_admits_30_letters_and_refuses_40_at_order_3():
    """7.3e8 bits at 30 degree-1 letters, 4.1e9 at 40; counted before any word exists."""
    bits = []
    for count in (30, 40):
        dga = _free_degree_one(count)
        bits.append(tilde._window_bits(build_ring(dga, enumerate_augmentations(dga)[0]).structure, 3))
    assert bits[0] <= MAX_WINDOW_BITS < bits[1] == 4098561600


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_bits_count_the_blocks_of_the_built_word_space(n):
    dgas = [trefoil(), stabilize(trefoil(), 0), cupex(1, 1, 2), masseyex(1, 1, 1, 1)]
    dgas += list(helpers.random_dgas(20261019, 6))
    for dga in dgas:
        for aug in enumerate_augmentations(dga)[:2]:
            ring = build_ring(dga, aug)
            mu = ring.minimal(max(n, 2))[0]
            # the perturbation engine's counts, read off the cochain dims before the transfer
            h = ring.cochain
            assert tilde._degree_counts(h.modulus, h.dims(), n) == word_space(mu, n).counts
            for s in (ring.structure, mu):
                words = word_space(s, n)
                groups = words.groups
                assert tilde._window_bits(s, n) == sum(len(codes) ** 2 for codes in groups.values())
                for m, counts in enumerate(words.counts, 1):  # each group's codes below off[m + 1]
                    cuts = {k: bisect_left(codes, words.off[m + 1]) for k, codes in groups.items()}
                    assert counts == {k: c for k, c in cuts.items() if c}, (n, m)
