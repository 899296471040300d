"""Rings built up to an arity: each equals the full ring restricted to it,
every read above it is refused, and each command builds its ring at the
arity its output reads."""

import pytest

from legch import ContractError, cli, fingerprint, tilde
from legch.cli import main
from legch.ainfty import HClass, build_ring
from legch.augment import enumerate_augmentations
from legch.families import masseyex, trefoil
from legch.fileio import parse_dga, serialize_dga
from legch.fingerprint import cup_rank_table, fingerprint_dga, massey_table, order_dim_table
from legch.linear import duality_search
from legch.tilde import check_order_n_transpose, order_n_cohomology
from helpers import proved_rings
from limits import forced, raised_path


def _restricted(full, arity):
    """What a ring built up to ``arity`` must hold, read off the full ring."""
    twisted = {g: {w for w in full.twisted.d(g) if len(w) <= arity} for g in full.dga.generators}
    tables = {k: t for k, t in full.structure.tables.items() if k <= arity}
    return twisted, tables


def _layers(ring, arity):
    """Every layer a ring of ``arity`` may read, at each arity it admits."""
    layers = {"cochain": ring.cochain, "chain": ring.chain}
    if arity >= 2:
        products = ring.products
        layers["pairs"] = [(ab, products.pair(*ab)) for ab in products.support]
        for k in range(2, arity + 1):
            mu, incl = ring.minimal(k)
            layers["minimal", k] = (
                {r: mu.tables.get(r, {}) for r in range(1, k + 1)},
                {r: incl.tables.get(r, {}) for r in range(1, k + 1)},
            )
    # the perturbation engine reads a transfer to max(n, 2), so m_2 even at n = 1
    engines = ("dense", "perturbation") if arity >= 2 else ("dense",)
    for n in range(1, min(arity, tilde.MAX_ORDER) + 1):
        layers["transpose", n] = check_order_n_transpose(ring, n)
        for engine in engines:
            try:
                result = order_n_cohomology(ring, n, engine)
                layers[engine, n] = (result.orders, result.transpose_entries)
            except ContractError as exc:  # a window past MAX_WINDOW_BITS, on both rings alike
                layers[engine, n] = str(exc)
    return layers


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_a_ring_built_up_to_an_arity_is_the_full_ring_restricted_to_it(arity):
    """Over ``helpers.proved_rings()``: the twisted words, the structure's
    tables, both retracts, the pair blocks, ``minimal(k)`` for
    2 <= k <= arity, and the order dims and transpose counts for n <= arity."""
    pairs = list(zip(proved_rings(), proved_rings(arity)))
    assert len(pairs) > 60
    cut = 0
    for full, ring in pairs:
        assert ring.arity == arity and full.arity is None
        twisted, tables = _restricted(full, arity)
        assert {g: set(ring.twisted.d(g)) for g in ring.dga.generators} == twisted
        assert ring.structure.tables == tables
        assert _layers(ring, arity) == _layers(full, arity)
        cut += full.structure.arity > arity
    assert cut > 10  # most rings have words past every arity tested


def test_every_read_above_the_ring_s_arity_is_refused():
    dga = masseyex(1, 4, 9, 20)
    aug = enumerate_augmentations(dga)[0]
    one, two, three = (build_ring(dga, aug, a) for a in (1, 2, 3))
    x = HClass(one.cochain.degrees()[0], 1)
    cases = [
        (lambda: one.products, "the product table reads m_2, above the ring's arity 1"),
        (lambda: one.minimal(2), "the product table reads m_2, above the ring's arity 1"),
        (lambda: duality_search(one), "the product table reads m_2, above the ring's arity 1"),
        (lambda: cup_rank_table(one), "the product table reads m_2, above the ring's arity 1"),
        (lambda: two.minimal(3), "a transfer to arity 3 reads m_3, above the ring's arity 2"),
        (lambda: two.products.minimal(3),
         "a transfer to arity 3 reads m_3, above the ring's arity 2"),
        (lambda: two.products.massey(x, x, x),
         "a transfer to arity 3 reads m_3, above the ring's arity 2"),
        (lambda: massey_table(two, 3), "a transfer to arity 3 reads m_3, above the ring's arity 2"),
        (lambda: massey_table(three, 4), "a transfer to arity 4 reads m_4, above the ring's"
         " arity 3"),
        (lambda: check_order_n_transpose(one, 2), "an order-2 complex reads m_2, above the ring's"
         " arity 1"),
        (lambda: order_n_cohomology(three, 4), "an order-4 complex reads m_4, above the ring's"
         " arity 3"),
        (lambda: order_n_cohomology(two, 3, engine="dense"),
         "an order-3 complex reads m_3, above the ring's arity 2"),
        (lambda: order_dim_table(two, 3), "an order-3 complex reads m_3, above the ring's"
         " arity 2"),
        (lambda: order_n_cohomology(one, 1), "the product table reads m_2, above the ring's"
         " arity 1"),
        (lambda: build_ring(dga, aug, 0), "ring arity must be at least 1"),
    ]
    for read, message in cases:
        with pytest.raises(ContractError) as refused:
            read()
        assert str(refused.value) == message
    # below its arity every reader reads as on the full ring
    assert order_dim_table(three, 3) == order_dim_table(build_ring(dga, aug), 3)


def test_the_twist_budget_still_counts_the_untruncated_words():
    """forced(24)'s twist is refused at arity 1 with the full twist's count,
    though at that arity it would keep 25 words."""
    dga = parse_dga(forced(24))
    aug = enumerate_augmentations(dga)[0]
    with pytest.raises(ContractError, match="would build 33554508 terms, over the budget"):
        build_ring(dga, aug, 1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _arities(monkeypatch):
    """The arity of every ring that ``cli`` and ``fingerprint`` build."""
    arities = []

    def spy(dga, aug, arity=None):
        arities.append(arity)
        return build_ring(dga, aug, arity)

    monkeypatch.setattr(cli, "build_ring", spy)
    monkeypatch.setattr(fingerprint, "build_ring", spy)
    return arities


COMMANDS = [
    ("linhom", 1),
    ("ring", 2),
    ("duality", 2),
    ("report", 2),
    ("massey --classes 0:1,0:1,0:1", 3),
    ("massey --classes 0:1,0:1,0:1,0:1", 4),
    ("massey --classes 0:1,0:1", 2),
    ("minimal", 3),
    ("minimal --arity 1", 2),
    ("minimal --arity 5", 5),
    ("ordern --n 1", 2),
    ("ordern --n 3 --engine dense", 3),
    ("ordern --n 5", 4),
    ("compare-mirror", 3),
    ("compare-mirror --massey-order 0 --order-cap 0", 2),
    ("compare-mirror --massey-order 2 --order-cap 4", 4),
    ("compare-mirror --massey-order 5 --order-cap 1", 5),
    ("compare-mirror --order-cap 7", 4),
]


@pytest.mark.parametrize("argv, arity", COMMANDS)
def test_each_command_builds_its_ring_at_the_arity_its_output_reads(
    monkeypatch, capsys, tmp_path, argv, arity
):
    """The arity of every ring a command builds, and its output equal to that
    of a full ring per augmentation."""
    path = tmp_path / "trefoil.dga"
    path.write_text(serialize_dga(trefoil()), encoding="utf-8")
    command, *options = argv.split()
    want = run_cli(capsys, command, str(path), *options)
    with monkeypatch.context() as full:
        full.setattr(cli, "_ring_arity", lambda args: None)
        full.setattr(fingerprint, "build_ring", lambda dga, aug, arity=None: build_ring(dga, aug))
        assert run_cli(capsys, command, str(path), *options) == want
    arities = _arities(monkeypatch)
    assert run_cli(capsys, command, str(path), *options) == want
    assert arities and set(arities) == {arity}


@pytest.mark.parametrize("argv", [
    "minimal --arity 17",
    "compare-mirror --massey-order 17",
    "massey --classes " + ",".join(["0:1"] * 17),
])
def test_an_arity_over_the_budget_is_refused_before_any_ring_is_built(
    monkeypatch, capsys, tmp_path, argv
):
    arities = _arities(monkeypatch)
    command, *options = argv.split()
    path = tmp_path / "trefoil.dga"
    path.write_text(serialize_dga(trefoil()), encoding="utf-8")
    refused = (1, "", "error: transfer arity 17 exceeds the budget MAX_ARITY = 16\n")
    assert run_cli(capsys, command, str(path), *options) == refused
    assert arities == []


def test_the_massey_arity_is_read_only_where_a_ring_is_built(capsys, tmp_path):
    """A DGA with no augmentation builds no ring, so ``compare-mirror`` has
    no transfer arity to refuse."""
    path = tmp_path / "none.dga"
    path.write_text("modulus 0\ngen a 1\nd a = 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compare-mirror", str(path), "--massey-order", "17")
    assert (code, err) == (0, "")
    assert "augmentations: 0" in out.splitlines()


def test_fingerprint_dga_builds_at_its_orders(monkeypatch):
    arities = _arities(monkeypatch)
    fingerprint_dga(trefoil(), massey_order=4, order_cap=2)
    assert arities == [4] * 5


def test_window_bits_are_read_before_any_transfer(monkeypatch):
    """``order_dim_table`` reads every order's window bits off the cochain
    dims before the first transfer: raised_path(1000) is refused at order 2
    with no transfer built, and an input over the window budget at order 2
    and the relation budget at order 1 gets the window's refusal."""
    built = []
    monkeypatch.setattr(
        fingerprint, "build_ring", lambda *args: built.append(build_ring(*args)) or built[-1]
    )
    dga = parse_dga(raised_path(1000))
    with pytest.raises(ContractError, match="over the budget MAX_WINDOW_BITS"):
        fingerprint.compare_mirror(dga)
    assert [ring.products._model for ring in built] == [None]
    dga = masseyex(1, 4, 9, 20)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    monkeypatch.setattr(tilde, "MAX_WINDOW_BITS", tilde._window_bits(ring.minimal(2)[0], 2) - 1)
    monkeypatch.setattr("legch.ainfty.MAX_RELATION_TERMS", -1)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    with pytest.raises(ContractError, match="order-2 words over 9 letters take"):
        order_dim_table(ring, 2)
    assert ring.products._model is None
