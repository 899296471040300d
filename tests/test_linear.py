"""Linearized complexes, homology retracts, and the duality certificate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError, InternalConsistencyError
from legch.ainfty import adjoint_structure, build_ring
from legch.algebra import DGA, canon_degree, component_k
from legch.augment import Augmentation, enumerate_augmentations, twist
from legch.families import bundled_examples, cupex, trefoil
from legch.gf2 import rank
from legch.cli import main
from legch.fileio import serialize_dga
from legch.linear import (
    MAX_DUALITY_PAIRS,
    GradedMatrixMap,
    duality_search,
    homology,
    linearized_complexes,
    pair_bit,
    vector_label,
)
from helpers import random_augmented_dga


def test_pair_bit_counts_common_bits_mod_2():
    assert pair_bit(0b110, 0b011) == 1
    assert pair_bit(0b110, 0b110) == 0
    assert pair_bit(0, 0b1) == 0


def test_vector_label_joins_basis_names():
    assert vector_label(("x", "y", "z"), 0b101) == "x+z"
    assert vector_label(("x",), 0) == "0"


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
    for build in (lambda: adjoint_structure(twist(dga, zero)), lambda: build_ring(dga, zero)):
        with pytest.raises(InternalConsistencyError, match="twisted d a is not degree-homogeneous"):
            build()


def test_a_nonzero_square_of_m1_fails_the_relation_check_in_build_ring():
    # d a = b, d b = c: d d a = c, so m_1 m_1 (c) = a.  The linearized maps are
    # no longer squared on their own; relation l = 1 is what rejects them.
    dga = DGA(
        0,
        ("a", "b", "c"),
        {"a": 2, "b": 1, "c": 0},
        {"a": frozenset({("b",)}), "b": frozenset({("c",)})},
    )
    zero = Augmentation(tuple((g, 0) for g in dga.generators))
    with pytest.raises(InternalConsistencyError, match=r"relation fails at arity 1 on \(c\)"):
        build_ring(dga, zero)


def test_chain_and_cochain_dims_agree_per_degree():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        ring = build_ring(dga, aug)
        assert ring.chain.dims() == ring.cochain.dims()


def test_homology_rejects_wrong_direction_or_shift():
    m = GradedMatrixMap(0, 1, {0: ("x",)}, {0: [0]})
    with pytest.raises(ContractError):
        homology(m, "sideways")
    with pytest.raises(ContractError):
        homology(m, "chain")  # chain needs shift -1
    line = GradedMatrixMap(0, 1, {0: ("x",), 1: ("y",), 2: ("z",)}, {0: [1], 1: [1]})
    with pytest.raises(ContractError, match="map does not square to zero; homology is undefined"):
        homology(line, "cochain")  # d d x = z


def _retract_identities(h):
    """include/project/homotopy satisfy the strong deformation retract laws."""
    m = h.differential
    for k in m.degrees() or list(m.basis):
        dim_total = m.dim(k)
        for i in range(h.dim(k)):
            v = h.include(k, 1 << i)
            # included representatives are cycles projecting to themselves
            assert m.apply(k, v) == 0
            assert h.project(k, v) == 1 << i
        for probe in range(min(dim_total, 6)):
            vec = 1 << probe
            # p respects classes: p(v + d h v + h d v) == p v
            dh = m.apply(h.canon(k - m.shift), h.homotopy(k, vec))
            hd = h.homotopy(h.canon(k + m.shift), m.apply(k, vec))
            recon = vec ^ dh ^ hd
            assert h.include(k, h.project(k, vec)) == recon


def test_homology_is_a_strong_deformation_retract_on_trefoil():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        chain, cochain = linearized_complexes(adjoint_structure(twist(dga, aug)))
        _retract_identities(homology(chain, "chain"))
        _retract_identities(homology(cochain, "cochain"))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_homology_retract_identities_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    _retract_identities(ring.chain)
    _retract_identities(ring.cochain)


def test_class_of_rejects_non_cycles():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    chain, _ = linearized_complexes(adjoint_structure(twist(dga, aug)))
    h = homology(chain, "chain")
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


def test_duality_search_over_budget_fails_fast(tmp_path, capsys):
    # eleven closed degree-1 generators: (2^11 - 1)^2 candidate (kappa, c) pairs
    gens = tuple("x%d" % i for i in range(11))
    dga = DGA(0, gens, {g: 1 for g in gens}, {g: frozenset() for g in gens})
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert ring.chain.dim(1) == ring.cochain.dim(1) == 11
    assert (2**11 - 1) ** 2 > MAX_DUALITY_PAIRS
    with pytest.raises(ContractError, match="exceeds the budget"):
        duality_search(ring)
    path = tmp_path / "wide.dga"
    path.write_text(serialize_dga(dga), encoding="utf-8")
    assert main(["duality", str(path)]) == 1
    assert "exceeds the budget %d" % MAX_DUALITY_PAIRS in capsys.readouterr().err


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
