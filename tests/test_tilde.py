"""Order-n cohomology: word complexes, transpose check, splitting, reflection."""

import random
import sys
from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, algebra, augment, tilde
from legch.ainfty import (
    MAX_RELATION_TERMS,
    AInftyMorphism,
    AInftyStructure,
    _relation_terms,
    build_ring,
    transfer_minimal_model,
)
from legch.algebra import DGA, canon_degree, mirror_dga, stabilize
from legch.augment import enumerate_augmentations
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fileio import parse_dga
from legch.fingerprint import compare_mirror
from legch.gf2 import bits
from legch.linear import GradedMatrixMap, homology
from legch.tilde import (
    _Letters,
    _words_by_degree,
    check_order_n_transpose,
    order_n_cohomology,
    reflection_compare,
    splitting_check_n2,
    tilde_complex,
    tilde_of_morphism,
)

import helpers
from helpers import (
    _chain_terms,
    _cochain_terms,
    _perturbed_complex,
    _transpose_slices,
    decode,
    flip_table_bit,
    letter_windows,
    random_augmented_dga,
    random_dga,
    sliced_count,
    word_window_matrix,
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
    with pytest.raises(ContractError):
        order_n_cohomology(ring, 2, engine="fast")
    # the cap is the module's budget, read on every call
    monkeypatch.setattr(tilde, "MAX_ORDER", 5)
    high = order_n_cohomology(ring, 5)
    assert high.order == 5 and sum(high.dims.values()) > 0


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
            got = order_n_cohomology(ring, 1)
            assert got.dims == ring.cochain.dims(), name


def test_engines_agree():
    jobs = [(trefoil(), 3), (cupex(1, 3, 7), 2), (masseyex(1, 4, 9, 20), 2)]
    for dga, n in jobs:
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            dense = order_n_cohomology(ring, n, engine="dense")
            pert = order_n_cohomology(ring, n, engine="perturbation")
            assert dense.engine == "dense" and pert.engine == "perturbation"
            assert dense.dims == pert.dims
            assert dense.complex_dim == pert.complex_dim
            assert dense.transpose_entries == pert.transpose_entries


def _assert_rank_dims_are_homology_dims(ring, n, engine):
    """Dims read off ranks equal those of a full homology() of the engine's complex."""
    got = order_n_cohomology(ring, n, engine=engine)
    if engine == "dense":
        built = tilde_complex(ring.structure, n).differential
    else:
        built = _perturbed_complex(ring.structure, ring.cochain, n)
    assert got.data.differential == built  # the retract, built on first use
    assert got.dims == got.data.dims(), (n, engine)


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


def test_auto_engine_resolution_and_frozen_counts(monkeypatch):
    cup = cupex(1, 3, 7)
    big = order_n_cohomology(build_ring(cup, enumerate_augmentations(cup)[0]), 3)
    assert big.engine == "perturbation"
    assert big.complex_dim == 44135
    assert big.transpose_entries == 106531
    mas = masseyex(1, 4, 9, 20)
    mid = order_n_cohomology(build_ring(mas, enumerate_augmentations(mas)[0]), 2)
    assert mid.engine == "dense"
    assert mid.complex_dim == 7656
    assert mid.transpose_entries == 13523
    tre = trefoil()
    ring = build_ring(tre, enumerate_augmentations(tre)[0])
    monkeypatch.setattr(tilde, "DENSE_LIMIT", 10)
    forced = order_n_cohomology(ring, 2)
    assert forced.engine == "perturbation"
    assert forced.dims == TREFOIL_ORDER_DIMS[2]


def test_transpose_check_counts_linear_entries_at_order_one():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    # twisted d a1 and d a2 each have linear part b1 + b3
    assert check_order_n_transpose(ring, 1) == 4


def test_representatives_label_words():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    got = order_n_cohomology(ring, 2, engine="dense")
    reps = got.representatives(2)
    assert len(reps) == 1
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


def test_only_build_ring_twists(monkeypatch):
    calls = []
    real_twist = augment.twist

    def counted(dga, aug):
        calls.append(aug)
        return real_twist(dga, aug)

    for name, module in list(sys.modules.items()):
        if name.startswith("legch") and getattr(module, "twist", None) is real_twist:
            monkeypatch.setattr(module, "twist", counted)
    compare_mirror(trefoil())
    assert len(calls) == 10  # one build_ring per (augmentation, side)
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    del calls[:]
    for engine in ("dense", "perturbation"):
        order_n_cohomology(ring, 3, engine=engine)
    check_order_n_transpose(ring, 3)
    splitting_check_n2(ring)
    assert calls == []


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
    assert homology(built.differential, "cochain").dims() == TREFOIL_ORDER_DIMS[2]


def test_minimal_model_tilde_complex_computes_order_n_dims():
    jobs = [(trefoil(), 3), (cupex(1, 3, 7), 3), (masseyex(1, 4, 9, 20), 2)]
    for dga, top in jobs:
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            mu, _ = transfer_minimal_model(ring.cochain, ring.structure, 3)
            for n in range(1, top + 1):
                small = tilde_complex(mu, n)
                want = order_n_cohomology(ring, n)
                assert homology(small.differential, "cochain").dims() == want.dims


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


def _word_by_word_entries(ring, n):
    """Oracle: the transpose check's two matrices, word by word per degree.

    Returns the (column word, row word) entries of the Leibniz side (from
    ``ring.twisted``) and of the window side (from ``ring.structure``),
    expanding every word of length <= n with ``_chain_terms`` and
    ``_cochain_terms``.
    """
    twisted, s = ring.twisted, ring.structure
    letters = tilde._Letters(s)
    windows = letter_windows(s, letters)
    repl = [
        tuple(tuple(letters.index[x] for x in w) for w in twisted.d(lbl))
        for lbl in letters.labels
    ]
    groups = _words_by_degree(letters.degree, n, s.modulus)
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
    index = _Letters(s).index
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
    # One flipped m_2 bit: m_2(u, c) = g.  The differential is quadratic and
    # m_1 = 0, so the relations build_ring checks (arities 1 and 2) hold, but
    # associativity fails: m_2(m_2(a, b), c) = g, m_2(a, m_2(b, c)) = 0.
    bad = good.replace_diff({**good.diff, "g": frozenset({("u", "c")})})
    aug = enumerate_augmentations(good)[0]
    ring = replace(build_ring(bad, aug), dga=good)
    assert ring.structure.arity == 2
    for engine in ("dense", "perturbation"):
        order_n_cohomology(ring, 2, engine=engine)
        _raises_naming(
            "order-3 differential does not square to zero: relation fails at arity 3",
            lambda: order_n_cohomology(ring, 3, engine=engine),
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
        assert order_n_cohomology(ring, n).engine == "dense"


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
    real_pairs, real_letters = tilde._twisted_pairs, tilde._Letters
    monkeypatch.setattr(
        tilde, "_twisted_pairs", lambda *args: compared.append(args) or real_pairs(*args)
    )
    monkeypatch.setattr(tilde, "_Letters", lambda s: letters.append(s) or real_letters(s))
    dga = trefoil()
    rings = [build_ring(dga, aug) for aug in enumerate_augmentations(dga)]
    for ring in rings:
        for n in (1, 2, 3, 4):
            for engine in ("dense", "perturbation"):
                order_n_cohomology(ring, n, engine=engine)
            check_order_n_transpose(ring, n)
    assert len(compared) == len(rings)
    assert len(letters) == len(rings) * 4 * 2  # one per window matrix built
    assert all(s is rings[0].structure for s in letters[:8:2])  # dense, then the minimal model


def test_dense_engine_builds_on_the_pairs_the_ring_compared(monkeypatch):
    callers = []
    real = tilde._window_pairs

    def spy(s):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(s)

    monkeypatch.setattr(tilde, "_window_pairs", spy)
    dga = trefoil()
    rings = [build_ring(dga, aug) for aug in enumerate_augmentations(dga)]
    for ring in rings:
        for n in (1, 2, 3, 4):
            order_n_cohomology(ring, n, engine="dense")
    assert callers == ["_ring_pairs"] * len(rings)


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
                for k in result.dims:
                    assert len(result.representatives(k)) == result.dims[k]
            ranks = tilde_of_morphism(ring.minimal(2)[1], n).induced_ranks()
            assert all(a == b == r for a, b, r in ranks.values())
    assert calls == []
    for ring in rings:
        for h, direction in ((ring.chain, "chain"), (ring.cochain, "cochain")):
            before = len(calls)
            assert homology(h.differential, direction).dims() == h.dims()
            assert len(calls) == before + 1


def test_minimal_model_cuts_are_kept_until_the_transfer_is_rebuilt():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    top = ring.minimal(3)
    low = ring.minimal(2)
    assert low[0].arity == 2 and ring.minimal(2)[0] is low[0] and ring.minimal(2)[1] is low[1]
    assert ring.minimal(3)[0] is top[0]
    ring.minimal(4)  # a higher arity rebuilds the transfer and drops the cuts
    assert ring.minimal(2)[0] is not low[0]
    assert ring.minimal(2)[0].tables == low[0].tables


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
    _raises_naming(
        "window image %s of %s is not homogeneous" % (first, "|".join(args)),
        lambda: check_order_n_transpose(ring, 2),
    )


def test_transpose_check_rejects_a_dropped_entry_in_a_later_slice():
    dga = cupex(1, 3, 7)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    s = ring.structure
    n = 3
    letters = _Letters(s)
    windows = letter_windows(s, letters)
    codes = tilde._Codes(len(letters.labels), n)
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


def _word_by_word_reflection(twisted, twisted_mirror, n):
    """Oracle: rev(d(w)) = d_mirror(rev(w)) on every word of length <= n,
    expanded word by word with ``_chain_terms``; returns the words checked."""
    index = {g: i for i, g in enumerate(twisted.generators)}

    def encode(source):
        return [tuple(tuple(index[x] for x in w) for w in source.d(g)) for g in source.generators]

    repl, repl_mirror = encode(twisted), encode(twisted_mirror)
    count = 0
    layer = [()]
    for _ in range(n):
        layer = [w + (g,) for w in layer for g in range(len(index))]
        for w in layer:
            left = {v[::-1] for v in _chain_terms(repl, w, n)}
            if left != _chain_terms(repl_mirror, w[::-1], n):
                raise InternalConsistencyError(
                    "reflection conjugation fails on %s"
                    % "|".join(twisted.generators[g] for g in w)
                )
            count += 1
    return count


def test_reflection_check_matches_the_word_by_word_oracle():
    for name, dga in bundled_examples():
        top = 2 if name.startswith("masseyex") else 3
        mirror = mirror_dga(dga)
        for aug in enumerate_augmentations(dga):
            knot, other = build_ring(dga, aug).twisted, build_ring(mirror, aug).twisted
            for n in range(1, top + 1):
                want = _word_by_word_reflection(knot, other, n)
                assert tilde._check_reflection_conjugation(knot, other, n) == want
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
        for check in (tilde._check_reflection_conjugation, _word_by_word_reflection):
            _raises_naming(
                "reflection conjugation fails on a2", lambda: check(knot, spurious, n)
            )
