"""Linearized complexes, homology retracts, and the duality certificate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError, InternalConsistencyError
from legch.ainfty import adjoint_structure, build_ring
from legch.algebra import DGA, canon_degree, component_k, mirror_dga
from legch.augment import Augmentation, enumerate_augmentations, per_twist, twist
from legch.families import bundled_examples, cupex, trefoil
from legch.gf2 import rank
from legch.cli import main
from legch.fileio import parse_dga, serialize_dga
from legch.linear import (
    MAX_DUALITY_PAIRS,
    GradedMatrixMap,
    _retract,
    duality_search,
    homology,
    linearized_complexes,
    pair_bit,
    vector_label,
)
from helpers import (
    apply,
    assert_retract_identities,
    duality_search_oracle,
    path_dga,
    proved_rings,
    random_augmented_dga,
    random_dgas,
    zero_product_dga,
)


def test_pair_bit_counts_common_bits_mod_2():
    assert pair_bit(0b110, 0b011) == 1
    assert pair_bit(0b110, 0b110) == 0
    assert pair_bit(0, 0b1) == 0


def test_vector_label_joins_basis_names():
    assert vector_label(("x", "y", "z"), 0b101) == "x+z"
    assert vector_label(("x",), 0) == "0"


def test_vector_label_reads_the_set_bits_as_the_name_scan_does():
    """On a 1000-name degree the label, read off the set bits, equals the
    scan of every name in order, at every density and at both ends."""
    names = tuple("a%d" % i for i in range(1000))
    rng = random.Random(1000)
    vectors = [0, 1, 1 << 999, (1 << 1000) - 1] + [
        rng.getrandbits(1000) & rng.getrandbits(1000) >> rng.randrange(1000) for _ in range(200)
    ]
    for vec in vectors:
        scan = [names[i] for i in range(len(names)) if (vec >> i) & 1]
        assert vector_label(names, vec) == ("+".join(scan) if scan else "0")


def test_linearized_complexes_directions_and_squares():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        chain, cochain = linearized_complexes(adjoint_structure(twist(dga, aug)))
        assert chain.shift == -1 and cochain.shift == 1
        assert chain.is_square_zero() and cochain.is_square_zero()
        # transpose relation: <d x, y> = <x, delta y> entry for entry
        for k in chain.degrees():
            rows = chain.basis.get(k, ())
            low = chain.canon(k - 1)
            cols_chain = chain.columns(k)
            cols_cochain = cochain.columns(low)
            for i in range(len(rows)):
                for j in range(len(chain.basis.get(low, ()))):
                    assert (cols_chain[i] >> j) & 1 == (cols_cochain[j] >> i) & 1


def _assert_complexes_are_the_twisted_linear_part(ring):
    """Chain columns are the linear part of the twisted d, read directly;
    the cochain is their transpose, entry for entry."""
    twisted = ring.twisted
    basis = {}
    for g in twisted.generators:
        basis.setdefault(twisted.degree(g), []).append(g)
    chain, cochain = linearized_complexes(ring.structure)
    assert {k: list(v) for k, v in chain.basis.items()} == basis
    assert cochain.basis == chain.basis
    for k, names in basis.items():
        lower = basis.get(canon_degree(twisted.modulus, k - 1), [])
        want = [
            sum(1 << lower.index(w[0]) for w in component_k(twisted.d(g), 1))
            for g in names
        ]
        assert chain.columns(k) == want
        upper = basis.get(canon_degree(twisted.modulus, k + 1), [])
        assert all(col >> len(upper) == 0 for col in cochain.columns(k))
        low = cochain.columns(canon_degree(twisted.modulus, k - 1))
        for j in range(len(names)):
            for i in range(len(lower)):
                assert (want[j] >> i) & 1 == (low[i] >> j) & 1


def test_linearized_complexes_match_the_twisted_linear_part():
    for _, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            _assert_complexes_are_the_twisted_linear_part(build_ring(dga, aug))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_linearized_complexes_match_the_twisted_linear_part_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    _assert_complexes_are_the_twisted_linear_part(ring)


def test_inhomogeneous_twisted_differential_is_rejected():
    # d a = b c has degree 0, not |a| - 1 = 1; read as m_2 it would give
    # m_2(b, c) = e, the only degree-1 generator.
    dga = DGA(
        0,
        ("a", "e", "b", "c"),
        {"a": 2, "e": 1, "b": 0, "c": 0},
        {"a": frozenset({("b", "c")})},
    )
    zero = Augmentation(tuple((g, 0) for g in dga.generators))
    with pytest.raises(InternalConsistencyError, match="twisted d a is not degree-homogeneous"):
        adjoint_structure(twist(dga, zero))
    # build_ring validates the DGA before it twists anything
    with pytest.raises(ContractError, match="invalid DGA: d a is not homogeneous"):
        build_ring(dga, zero)


def test_a_nonzero_square_of_m1_fails_the_relation_check_in_build_ring():
    # d a = b, d b = c: d d a = c, so m_1 m_1 (c) = a.  build_ring refuses the
    # DGA itself, whose d d = 0 its proof of the relations rests on; the
    # public adjoint_structure, handed the twist, rejects it by relation l = 1.
    dga = DGA(
        0,
        ("a", "b", "c"),
        {"a": 2, "b": 1, "c": 0},
        {"a": frozenset({("b",)}), "b": frozenset({("c",)})},
    )
    zero = Augmentation(tuple((g, 0) for g in dga.generators))
    with pytest.raises(ContractError, match=r"invalid DGA: d\(d a\) != 0"):
        build_ring(dga, zero)
    with pytest.raises(InternalConsistencyError, match=r"relation fails at arity 1 on \(c\)"):
        adjoint_structure(twist(dga, zero))


def test_chain_and_cochain_dims_agree_per_degree():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        assert ring.chain.dims() == ring.cochain.dims()


def test_homology_rejects_wrong_direction_or_shift():
    # the shift is the direction: -1 chain, +1 cochain, and nothing else
    m = GradedMatrixMap(0, 2, {0: ("x",)}, {0: [0]})
    with pytest.raises(ContractError, match="map has degree shift 2, neither -1 nor \\+1"):
        homology(m)
    line = GradedMatrixMap(0, 1, {0: ("x",), 1: ("y",), 2: ("z",)}, {0: [1], 1: [1]})
    with pytest.raises(ContractError, match="map does not square to zero; homology is undefined"):
        homology(line)  # d d x = z


def test_homology_is_a_strong_deformation_retract_on_trefoil():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        chain, cochain = linearized_complexes(adjoint_structure(twist(dga, aug)))
        assert_retract_identities(homology(chain))
        assert_retract_identities(homology(cochain))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_homology_retract_identities_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    assert_retract_identities(ring.chain)
    assert_retract_identities(ring.cochain)


def test_the_retracts_build_ring_proves_satisfy_every_identity_on_every_basis_vector():
    # the oracle of the proof in linear._retract, which no transfer re-checks
    for ring in proved_rings():
        assert_retract_identities(ring.chain)
        assert_retract_identities(ring.cochain)


def test_the_chain_homology_built_on_first_read_is_the_eager_retract():
    """``ring.chain`` retracts the ring's chain map when first read, once, and
    equals the retract of the chain complex of the ring's structure."""
    for ring in proved_rings():
        assert "chain" not in vars(ring)
        assert ring.chain == _retract(linearized_complexes(ring.structure)[0])
        assert ring.chain is ring.chain


def test_split_is_project_and_homotopy_from_one_inverse_read():
    for ring in proved_rings():
        for h in (ring.chain, ring.cochain):
            for k, names in h.differential.basis.items():
                for i in range(len(names)):
                    assert h.split(k, 1 << i) == (h.project(k, 1 << i), h.homotopy(k, 1 << i))


def test_class_of_rejects_non_cycles():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    chain, _ = linearized_complexes(adjoint_structure(twist(dga, aug)))
    h = homology(chain)
    # b1 (a basis vector of degree 0) is a cycle; a1 in degree 1 is not
    assert h.is_cycle(0, 0b1)
    assert not h.is_cycle(1, 0b1)
    with pytest.raises(ContractError):
        h.class_of(1, 0b1)


def test_duality_certificate_on_first_trefoil_augmentation():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    ring = build_ring(dga, aug)
    cert = duality_search(ring)
    assert cert.ok
    assert cert.kappa_label == "[a1+a2]"
    assert cert.c_label == "[a1]"
    assert [(deg, label) for deg, _, label in cert.complement] == [
        (0, "[b2]"),
        (0, "[b1+b3]"),
    ]
    assert cert.gram == [[0, 1], [1, 0]]


def test_duality_certificates_on_all_trefoil_augmentations():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        assert duality_search(ring).ok


def test_duality_certificate_on_cup_family():
    dga = cupex(1, 3, 7)
    aug = enumerate_augmentations(dga)[0]
    ring = build_ring(dga, aug)
    cert = duality_search(ring)
    assert cert.ok
    # complement pairs off in (k, -k) blocks with full-rank pairing
    degrees = sorted(deg for deg, _, _ in cert.complement)
    assert degrees == [-7, -5, -3, 3, 5, 7]


def test_duality_failure_reports_counts():
    dga = DGA_no_degree_one()
    aug = enumerate_augmentations(dga)[0]
    ring = build_ring(dga, aug)
    result = duality_search(ring)
    assert not result.ok
    assert "degree 1" in result.reason
    assert (result.pairs_tried, result.complements_tried) == (0, 0)
    # the totals of the per-complement loop run to the end, which the oracle
    # counted on these zero augmentations: the paths fail the dimension test,
    # the zero products pass it and fail the rank bound for every kappa
    for dga, pairs, complements in [
        (path_dga(6), 496, 7936),
        (path_dga(7), 2016, 64512),
        (path_dga(8), 8128, 8128),
        (zero_product_dga(6), 2016, 64512),
    ]:
        result = duality_search(build_ring(dga, enumerate_augmentations(dga)[0]))
        assert not result.ok
        assert (result.pairs_tried, result.complements_tried) == (pairs, complements)


def test_the_class_level_duality_form_is_the_chain_level_one():
    """On every proved ring and every nonzero degree-1 kappa of the chain
    homology, <m_2(i e_i, i e_j), kappa> on the chain vector of kappa equals
    the cup e_i e_j's class coordinates paired with kappa's row of the
    class pairing, as ``duality_search`` reads it, on every pair of basis
    classes of opposite degrees: 110 pairs, 48 of which pair to 1."""
    pairs = ones = 0
    for ring in proved_rings():
        chain_h, h = ring.chain, ring.cochain
        one = h.canon(1)
        cbasis = [h.include(one, 1 << b) for b in range(h.dim(one))]
        blocks = []  # (class rows, chain vectors) per degree pair (k, -k)
        for k in h.degrees():
            l = h.canon(-k)
            reps = [[h.include(d, 1 << i) for i in range(h.dim(d))] for d in (k, l)]
            chains = [[apply(ring.structure, [(k, x), (l, y)])[1] for y in reps[1]] for x in reps[0]]
            blocks.append((ring.products.pair(k, l).coords, chains))
        for kmask in range(1, 1 << chain_h.dim(one)):
            kappa = chain_h.include(one, kmask)
            paired = sum(pair_bit(c, kappa) << b for b, c in enumerate(cbasis))
            for coords, chains in blocks:
                want = [pair_bit(v, kappa) for row in chains for v in row]
                assert [pair_bit(c, paired) for row in coords for c in row] == want
                pairs, ones = pairs + len(want), ones + sum(want)
    assert (pairs, ones) == (110, 48)


def _same_as_oracle(dga, aug) -> None:
    ring = build_ring(dga, aug)
    assert duality_search(ring) == duality_search_oracle(ring)


def test_duality_search_equals_the_per_complement_oracle():
    """Field for field: the certificate's masks, vectors, labels, complement
    and Gram, or the failure's reason and both counts.  The oracle takes
    about 8 s on the zero augmentation of the 7-letter path and 10 s on
    ``zero_product_dga(6)``, so those two are pinned by their counts in
    ``test_duality_failure_reports_counts`` instead."""
    for _, dga in bundled_examples():
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                _same_as_oracle(side, aug)
    for dga in random_dgas(20261018, 30):
        per_twist(enumerate_augmentations(dga), lambda aug: _same_as_oracle(dga, aug))
    for k in range(2, 8):
        dga = path_dga(k)
        for aug in enumerate_augmentations(dga)[1 if k == 7 else 0 :]:
            _same_as_oracle(dga, aug)
    dga = path_dga(8)
    _same_as_oracle(dga, enumerate_augmentations(dga)[0])
    for k in range(1, 6):
        dga = zero_product_dga(k)
        _same_as_oracle(dga, enumerate_augmentations(dga)[0])
    # with d q = x y + y x the first certificate depends on the order of the
    # variants and on which unit the complement drops; with d q = x y the
    # degree-1 block is nondegenerate but not symmetric
    for words in ("x y + y x", "x y"):
        dga = parse_dga("modulus 0\ngen x 1\ngen q 1\ngen y -1\nd q = %s\n" % words)
        _same_as_oracle(dga, enumerate_augmentations(dga)[0])


def test_duality_search_over_budget_fails_fast(tmp_path, capsys):
    # eleven closed degree-1 generators: (2^11 - 1)^2 candidate (kappa, c) pairs
    gens = tuple("x%d" % i for i in range(11))
    dga = DGA(0, gens, {g: 1 for g in gens}, {g: frozenset() for g in gens})
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert ring.chain.dim(1) == ring.cochain.dim(1) == 11
    assert (2**11 - 1) ** 2 > MAX_DUALITY_PAIRS
    refused = (
        "duality search over 4190209 (kappa, c) candidates, over the budget"
        " MAX_DUALITY_PAIRS = %d" % MAX_DUALITY_PAIRS
    )
    with pytest.raises(ContractError) as exc:
        duality_search(ring)
    assert str(exc.value) == refused
    path = tmp_path / "wide.dga"
    path.write_text(serialize_dga(dga), encoding="utf-8")
    assert main(["duality", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % refused


def DGA_no_degree_one():
    from legch.algebra import DGA

    return DGA(0, ("x",), {"x": 0}, {})


def test_dimension_relations_on_bundled_examples():
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            co = ring.cochain.dims()
            ch = ring.chain.dims()
            degrees = set(co) | {-k for k in ch}
            for k in sorted(degrees):
                lhs = co.get(k, 0)
                rhs = ch.get(-k, 0)
                if k == 1:
                    assert lhs == rhs + 1, (name, k)
                elif k == -1:
                    assert lhs + 1 == rhs, (name, k)
                else:
                    assert lhs == rhs, (name, k)
