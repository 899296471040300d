"""A-infinity structures on linearized cochain complexes.

The word-length-k part of a twisted differential dualizes to an operation
m_k of degree +1; together these satisfy the A-infinity relations.  This
module stores such structures as sparse tables, checks the relations and
the morphism equation, computes cup and (higher) Massey products (cups and
triple brackets are read off a ``ProductTable`` of basis blocks), and
transfers the structure to homology through a strong deformation retract
by Kadeishvili's recursion, up to the arity budget ``MAX_ARITY``.  The
relations, the morphism equation and the transfer share two sums: inserting
m_j into an outer operation, and composing m_r with blocks of a table of
multilinear maps.  Both are driven by sparse tables through one inverted
index (basis label -> table keys whose vector contains it): the insertion
sum looks up which m_j entries hit each input label of the outer table, and
the composition sum looks up, per block arity, which table words hit each
input label of an m_r entry.  Neither builds a tuple whose terms all vanish.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .algebra import DGA, canon_degree
from .augment import Augmentation, twist
from .gf2 import apply_block, bits, in_span, span_basis
from .linear import HomologyData, _retract, linearized_complexes

__all__ = [
    "HClass",
    "AInftyStructure",
    "AInftyMorphism",
    "MasseyResult",
    "CheckReport",
    "PairBlock",
    "ProductTable",
    "CohomologyRing",
    "adjoint_structure",
    "basis_classes",
    "build_ring",
    "check_an_relations",
    "check_ainfty_morphism",
    "cup_product",
    "massey_triple",
    "massey_higher",
    "transfer_minimal_model",
]

# Defining systems massey_higher enumerates unless told otherwise.
DEFAULT_MAX_SYSTEMS = 1 << 20

# Top arity transfer_minimal_model accepts.  The tables and the time grow
# 1.6-1.9x per arity; at 16 the transfer plus the inclusion's morphism check
# takes at most 0.4 s on each bundled example, at 20 up to 1.7 s.
MAX_ARITY = 16

# Insertion terms check_an_relations may toggle, counted before it starts.
# A term takes about 1.15 us (2,008,036 terms in 2.33 s, python 3.11 on a
# 2-vCPU VM), so an accepted check stays near 2.3 s; the test suite's
# largest count is 356,106.
MAX_RELATION_TERMS = 2_000_000


class HClass(NamedTuple):
    """A homology class: degree plus coordinates over the chosen representatives."""

    degree: int
    coords: int


@dataclass
class CheckReport:
    ok: bool
    detail: str
    arity: Optional[int] = None
    args: Optional[Tuple[str, ...]] = None


@dataclass
class AInftyStructure:
    """Sparse operations m_k on a graded space with named basis.

    ``tables[k]`` maps an ordered k-tuple of basis labels to the image
    vector, a bitmask over the basis in the output degree.  Every m_k has
    degree +1: the output of m_k(x_1..x_k) lives in degree sum|x_i| + 1,
    which is enforced representationally (vectors are read in that degree).
    """

    modulus: int
    basis: Dict[int, Tuple[str, ...]]
    arity: int
    tables: Dict[int, Dict[Tuple[str, ...], int]]

    def __post_init__(self):
        if self.arity < 1:
            raise ContractError("arity bound must be at least 1")
        self.degree_of: Dict[str, int] = {}
        for k, names in self.basis.items():
            if canon_degree(self.modulus, k) != k:
                raise ContractError("basis degree %d is not canonical" % k)
            for lbl in names:
                if lbl in self.degree_of:
                    raise ContractError("duplicate basis label %s" % lbl)
                self.degree_of[lbl] = k
        self.order: Dict[str, int] = {}
        for k in sorted(self.basis):
            for lbl in self.basis[k]:
                self.order[lbl] = len(self.order)
        cleaned: Dict[int, Dict[Tuple[str, ...], int]] = {}
        for k, table in self.tables.items():
            if k < 1 or k > self.arity:
                raise ContractError("table arity %d outside 1..%d" % (k, self.arity))
            kept = {}
            for args, vec in table.items():
                if len(args) != k:
                    raise ContractError("entry %r in arity-%d table" % (args, k))
                for lbl in args:
                    if lbl not in self.degree_of:
                        raise ContractError("unknown basis label %s" % lbl)
                if vec:
                    width = len(self.names(self.out_degree(args)))
                    if vec >> width:
                        raise ContractError(
                            "entry on (%s) has bits outside the degree-(sum+1) basis"
                            % ", ".join(args)
                        )
                    kept[args] = vec
            cleaned[k] = kept
        self.tables = cleaned
        self._hits: Dict[int, Dict[str, List[Tuple[str, ...]]]] = {}

    def names(self, k: int) -> Tuple[str, ...]:
        return self.basis.get(canon_degree(self.modulus, k), ())

    def out_degree(self, args: Sequence[str]) -> int:
        return canon_degree(self.modulus, sum(self.degree_of[x] for x in args) + 1)

    def entry(self, args: Sequence[str]) -> int:
        table = self.tables.get(len(args))
        return table.get(tuple(args), 0) if table else 0

    def apply(self, pairs: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
        """m_k on a tuple of (degree, vector) arguments, by multilinearity.

        Returns (output degree, output vector); the degree is meaningful
        even when the vector is zero.
        """
        outdeg = canon_degree(self.modulus, sum(d for d, _ in pairs) + 1)
        table = self.tables.get(len(pairs))
        if not table:
            return outdeg, 0
        label_choices = []
        for d, vec in pairs:
            names = self.names(d)
            chosen = [names[i] for i in bits(vec)]
            if not chosen:
                return outdeg, 0
            label_choices.append(chosen)
        acc = 0
        for combo in iproduct(*label_choices):
            acc ^= table.get(combo, 0)
        return outdeg, acc

    def hits(self, j: int) -> Dict[str, List[Tuple[str, ...]]]:
        """For each basis label y, the arity-j argument tuples whose image contains y."""
        if j not in self._hits:
            self._hits[j] = _inverted_index(self, self.tables.get(j, {}), self.out_degree)
        return self._hits[j]


def _inverted_index(
    s: AInftyStructure,
    table: Dict[Tuple[str, ...], int],
    degree: Callable[[Tuple[str, ...]], int],
) -> Dict[str, List[Tuple[str, ...]]]:
    """For each basis label y of ``s``, the keys of ``table`` whose vector contains y.

    The vector of key w is read in the basis of ``s`` in degree ``degree(w)``.
    """
    index: Dict[str, List[Tuple[str, ...]]] = {}
    for key, vec in table.items():
        names = s.names(degree(key))
        for i in bits(vec):
            index.setdefault(names[i], []).append(key)
    return index


@dataclass
class AInftyMorphism:
    """Sparse degree-0 maps f_n from tensor powers of one structure to another."""

    arity: int
    tables: Dict[int, Dict[Tuple[str, ...], int]]
    src: Optional["AInftyStructure"] = None
    dst: Optional["AInftyStructure"] = None
    # the chain table p_3 of a transfer's inclusion (see transfer_minimal_model)
    p3: Dict[Tuple[str, ...], int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.tables = {
            n: {args: vec for args, vec in table.items() if vec}
            for n, table in self.tables.items()
        }
        for n, table in self.tables.items():
            if n < 1 or n > self.arity:
                raise ContractError("morphism table arity %d outside 1..%d" % (n, self.arity))
            for args in table:
                if len(args) != n:
                    raise ContractError("entry %r in arity-%d morphism table" % (args, n))
        if self.src is not None and self.dst is not None:
            self.validate_against(self.src, self.dst)

    def validate_against(self, src: AInftyStructure, dst: AInftyStructure) -> None:
        """Every entry's labels are src basis labels, and its vector lies in the
        dst basis of degree sum|labels| (each f_n has degree 0)."""
        for table in self.tables.values():
            for args, vec in table.items():
                for lbl in args:
                    if lbl not in src.degree_of:
                        raise ContractError(
                            "morphism entry on (%s) has unknown source label %s"
                            % (", ".join(map(str, args)), lbl)
                        )
                degree = canon_degree(dst.modulus, sum(src.degree_of[x] for x in args))
                if vec >> len(dst.names(degree)):
                    raise ContractError(
                        "morphism entry on (%s) has bits outside the degree-%d target basis"
                        % (", ".join(args), degree)
                    )


def _basis_by_degree(dga: DGA) -> Tuple[Dict[int, Tuple[str, ...]], Dict[str, int]]:
    basis: Dict[int, List[str]] = {}
    pos: Dict[str, int] = {}
    for g in dga.generators:
        k = dga.degree(g)
        basis.setdefault(k, [])
        pos[g] = len(basis[k])
        basis[k].append(g)
    return {k: tuple(v) for k, v in basis.items()}, pos


def adjoint_structure(twisted: DGA) -> AInftyStructure:
    """Dualize each word-length part of an already twisted differential.

    m_k(x_1..x_k) is the sum of the generators whose twisted differential
    contains the word x_1..x_k.  Every word must have degree |g| - 1, so that
    m_k has degree +1, and the relations must hold up to the arity bound (the
    longest word occurring); either failure is an internal error.
    """
    basis, pos = _basis_by_degree(twisted)
    arity = 1
    tables: Dict[int, Dict[Tuple[str, ...], int]] = {}
    for g in twisted.generators:
        want = canon_degree(twisted.modulus, twisted.degree(g) - 1)
        for w in twisted.d(g):
            got = twisted.word_degree(w)
            if got != want:
                raise InternalConsistencyError(
                    "twisted d %s is not degree-homogeneous: term %s has degree %d,"
                    " expected %d" % (g, "".join(w), got, want)
                )
            arity = max(arity, len(w))
            table = tables.setdefault(len(w), {})
            table[w] = table.get(w, 0) ^ (1 << pos[g])
    structure = AInftyStructure(twisted.modulus, basis, arity, tables)
    report = check_an_relations(structure, arity)
    if not report.ok:
        raise InternalConsistencyError(report.detail)
    return structure


def _toggle(total: Dict[Tuple[str, ...], int], args: Tuple[str, ...], vec: int) -> None:
    cur = total.get(args, 0) ^ vec
    if cur:
        total[args] = cur
    else:
        total.pop(args, None)


def _insertion_sum(
    outer: Dict[int, Dict[Tuple[str, ...], int]],
    inner: AInftyStructure,
    n: int,
    total: Dict[Tuple[str, ...], int],
) -> None:
    """Add sum over i+j+k = n of outer_{i+1+k}(1 x m_j x 1) to ``total``.

    ``outer`` holds the sparse tables of a structure or a morphism by arity;
    terms accumulate on their n-tuple of inputs.
    """
    for j in range(1, min(inner.arity, n) + 1):
        table = outer.get(n + 1 - j)
        inner_hits = inner.hits(j)
        if not table or not inner_hits:
            continue
        for i in range(n + 1 - j):
            for oargs, ovec in table.items():
                for iargs in inner_hits.get(oargs[i], ()):
                    _toggle(total, oargs[:i] + iargs + oargs[i + 1 :], ovec)


def _compositions(n: int, r: int) -> List[Tuple[int, ...]]:
    """All r-tuples of positive integers summing to n."""
    if r == 1:
        return [(n,)]
    out = []
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            out.append((first,) + rest)
    return out


def _composition_sum(
    m: AInftyStructure,
    index: Dict[int, Dict[str, List[Tuple[str, ...]]]],
    degree_of: Dict[str, int],
    n: int,
    min_blocks: int,
    total: Dict[Tuple[str, ...], int],
) -> None:
    """Add sum over r >= min_blocks, c_1+..+c_r = n of m_r(f_{c_1} x .. x f_{c_r}).

    ``f`` holds sparse tables by arity whose vectors live in the basis of
    ``m``, and ``entry_degree(w)`` is the degree of f_{|w|}(w).  The sum
    reads f only through ``index``: per block arity c,
    ``index[c] = _inverted_index(m, f_c, entry_degree)`` maps each basis
    label y of ``m`` to the words w whose f_c(w), read in degree
    entry_degree(w), contains y.  Callers build each arity's index once per
    transfer or morphism check, since f_c does not change under it.  Terms
    accumulate on the concatenated n-tuple of inputs.

    The sparse m_r tables drive the sum.  For each composition whose
    blocks are all nonempty and each entry (x_1..x_r) -> v of m_r, v is
    toggled onto every concatenation w_1..w_r with w_j among the index hits
    of x_j at c_j.  This is the per-tuple sum: by multilinearity
    m_r(f(w_1), .., f(w_r)) is the XOR of m_r(y_1, .., y_r) over the labels
    y_j in f(w_j), and only the nonzero entries of the table add anything.
    Exchanging the two sums, entry (x_1..x_r) -> v reaches w_1..w_r exactly
    when every x_j lies in f(w_j), once for each such tuple, which is the
    index condition.  Tuples on which every term vanishes are never built.

    Degree check.  An entry's vector v lives in degree sum|x_j| + 1 of
    ``m``, where |x_j| = entry_degree(w_j) because the index read f(w_j)
    there; the accumulated tuple is read in degree sum(degree_of) + 1.  The
    two are compared on every contributing term, and a mismatch is an
    internal error.  Checking only contributing terms weakens nothing: both
    sides are functions of the words alone, and a tuple on which every term
    vanishes puts no vector into ``total``, so nothing is read there in a
    wrong degree.  (In ``check_ainfty_morphism`` entry_degree sums
    degree_of, so the sides agree on every tuple; in the transfer they
    differ by 1 - shift per block of length > 1, which is 0 on a cochain
    retract.)
    """
    for r in range(min_blocks, min(m.arity, n) + 1):
        table = m.tables.get(r)
        if not table:
            continue
        for comp in _compositions(n, r):
            blocks = [index.get(c) for c in comp]
            if not all(blocks):
                continue
            for xs, vec in table.items():
                choices = [block.get(x) for block, x in zip(blocks, xs)]
                if not all(choices):
                    continue
                got = m.out_degree(xs)
                for words in iproduct(*choices):
                    args = tuple(x for w in words for x in w)
                    want = canon_degree(m.modulus, sum(degree_of[x] for x in args) + 1)
                    if got != want:
                        raise InternalConsistencyError(
                            "composition sum in mixed degrees: m_%d on (%s) lands in"
                            " degree %d, the labels give %d" % (r, ", ".join(args), got, want)
                        )
                    _toggle(total, args, vec)


def _relation_terms(s: AInftyStructure, up_to: int) -> int:
    """The number of terms ``_insertion_sum`` toggles for the relations l <= up_to:
    one per m_j entry hitting each label of each outer key of arity l + 1 - j."""
    occurrences = {r: Counter(x for args in table for x in args) for r, table in s.tables.items()}
    total = 0
    for l in range(1, up_to + 1):
        for j in range(1, min(s.arity, l) + 1):
            hits = s.hits(j)
            for x, times in occurrences.get(l + 1 - j, {}).items():
                total += times * len(hits.get(x, ()))
    return total


def check_an_relations(s: AInftyStructure, up_to: int) -> CheckReport:
    """Verify sum over i+j+k=l of m_{i+1+k}(1 x m_j x 1) = 0 for l <= up_to.

    More than ``MAX_RELATION_TERMS`` terms are refused before any is toggled;
    they are counted only past the bound sum r |m_r| |m_{l+1-r}| (an m_j
    entry hits each label of an arity-r key at most once).
    """
    size = {k: len(t) for k, t in s.tables.items()}
    pairs = [(r, l + 1 - r) for l in range(1, up_to + 1) for r in range(1, l + 1)]
    if sum(r * size.get(r, 0) * size.get(j, 0) for r, j in pairs) > MAX_RELATION_TERMS:
        terms = _relation_terms(s, up_to)
        if terms > MAX_RELATION_TERMS:
            raise ContractError(
                "the A-infinity relations up to arity %d take %d terms, over the budget"
                " MAX_RELATION_TERMS = %d" % (up_to, terms, MAX_RELATION_TERMS)
            )
    for l in range(1, up_to + 1):
        total: Dict[Tuple[str, ...], int] = {}
        _insertion_sum(s.tables, s, l, total)
        if total:
            key = min(total, key=lambda a: tuple(s.order[x] for x in a))
            return CheckReport(
                False,
                "relation fails at arity %d on (%s)" % (l, ", ".join(key)),
                l,
                key,
            )
    return CheckReport(True, "relations hold up to arity %d" % up_to)


def check_ainfty_morphism(
    f: AInftyMorphism, src: AInftyStructure, dst: AInftyStructure, up_to: int
) -> CheckReport:
    """Verify the morphism equation up to the given arity.

    For every n <= up_to and every input tuple, the sum of
    f_{i+1+k}(1 x m_j x 1) must equal the sum over all splittings
    i_1+..+i_r = n of m_r(f_{i_1} x .. x f_{i_r}).  Tables that do not fit
    ``src`` and ``dst`` are a ``ContractError``.
    """
    f.validate_against(src, dst)

    def entry_degree(w: Tuple[str, ...]) -> int:
        return canon_degree(src.modulus, sum(src.degree_of[x] for x in w))

    index = {c: _inverted_index(dst, table, entry_degree) for c, table in f.tables.items()}
    for n in range(1, up_to + 1):
        total: Dict[Tuple[str, ...], int] = {}
        _insertion_sum(f.tables, src, n, total)
        _composition_sum(dst, index, src.degree_of, n, 1, total)
        if total:
            key = min(total, key=lambda a: tuple(src.order[x] for x in a))
            return CheckReport(
                False,
                "morphism equation fails at arity %d on (%s)" % (n, ", ".join(key)),
                n,
                key,
            )
    return CheckReport(True, "morphism equation holds up to arity %d" % up_to)


def cup_product(h: HomologyData, s: AInftyStructure, x: HClass, y: HClass) -> HClass:
    """The class of m_2 on chosen representatives; degree |x| + |y| + 1."""
    xv, yv = h.include(x.degree, x.coords), h.include(y.degree, y.coords)
    deg, vec = s.apply([(h.canon(x.degree), xv), (h.canon(y.degree), yv)])
    return HClass(deg, h.class_of(deg, vec))


def basis_classes(h: HomologyData, k: int) -> List[HClass]:
    """The basis classes of degree k, in coordinate order."""
    k = h.canon(k)
    return [HClass(k, 1 << i) for i in range(h.dim(k))]


@dataclass
class MasseyResult:
    """Outcome of a Massey product computation.

    When defined: a representative class (degree, value), the indeterminacy
    subspace basis, and for higher orders the full set of values over the
    enumerated defining systems.  When undefined: a witness description of
    the obstruction.
    """

    status: str  # "defined" | "undefined"
    degree: Optional[int] = None
    value: Optional[int] = None
    indeterminacy: List[int] = field(default_factory=list)
    value_set: Optional[List[int]] = None
    witness: Optional[str] = None
    truncated: bool = False
    systems: int = 0

    @property
    def defined(self) -> bool:
        return self.status == "defined"

    def contains(self, coords: int) -> bool:
        """Is the given class inside the value coset?"""
        if not self.defined:
            raise ContractError("undefined Massey product has no value coset")
        return in_span(self.indeterminacy, self.value ^ coords)

    def is_trivial(self) -> bool:
        return self.contains(0)


class PairBlock(NamedTuple):
    """Cup data of a degree pair (a, b) on basis classes x_i, y_j.

    ``chains[i][j]`` is the chain vector m_2(i x_i, i y_j) and ``coords[i][j]``
    its class, both in ``degree`` = a + b + 1.
    """

    degree: int
    coords: List[List[int]]
    chains: List[List[int]]


class ProductTable:
    """Cups and triple Massey brackets of a cohomology ring, read off basis blocks.

    Everything is filled on first use and kept for the life of the table,
    keyed by degree: per degree its canonical form and the inclusion vectors
    i x_i of the basis classes; per degree pair (a, b) a ``PairBlock``
    (``class_of`` runs on every entry, so a product that is not closed is
    rejected); the ring's one transfer ``minimal``, which checks its mu_2
    against those pair blocks; and the triple blocks, the transfer's chain
    table p_3 grouped by degree triple:

        p_3(x_i, y_j, z_k) = m_3(i x_i, i y_j, i z_k) + m_2(i x_i, i_2(y_j, z_k))
                             + m_2(i_2(x_i, y_j), i z_k),   i_2 = h m_2.

    Why reading blocks equals the chain-level formulas class tuple by class
    tuple.  The paper (arXiv:0901.0490) defines the cup product as the class
    of m_2 on representatives, and the triple Massey product of x, y, z with
    x y = y z = 0 through m_2, m_3 and the retract (i, p, h): its value is
    the class of m_3(ix, iy, iz) + m_2(ix, h m_2(iy, iz)) + m_2(h m_2(ix, iy), iz).
    The inclusion i and the homotopy h are linear and m_2, m_3 are
    multilinear, so for x = sum x_i, y = sum y_j, z = sum z_k that chain
    vector is the XOR of p_3(x_i, y_j, z_k) over the set bits of the three
    coordinate vectors, and m_2(ix, iy) is the XOR of the pair entries
    (``gf2.apply_block``).  ``class_of`` is linear on cycles and still runs
    on every defined bracket's XOR, so ``value`` returns what the
    chain-level formula returns, and ``cup`` what ``cup_product`` returns.
    By Kadeishvili's transfer this value is mu_3(x, y, z) of the minimal
    model, which lies in the bracket with indeterminacy x H + H z
    (Lu-Palmieri-Wu-Zhang 2009, A-infinity structures on Ext-algebras,
    Thm 3.1).  Higher brackets stay chain-level in ``massey_higher``: for
    n >= 4 that theorem gives only the containment of mu_n in the bracket,
    not the bracket's full value set.

    Support.  A triple block holds only the nonzero p_3 vectors, keyed by
    basis-index triple, and a degree triple without a p_3 entry has no
    block.  On such a triple every bracket's value chain is 0, and 0 is
    closed with class 0, so ``class_of`` on it cannot fail and ``flags``
    returns (True, False) at the first defined combination.  If moreover
    mu_2 has no entry in degrees (a, b) or (b, c), both pair blocks are zero
    (the transfer checks mu_2 against them), so every triple of nonzero
    classes is defined and (a, b, c) is (True, False) without a flags pass:
    ``fingerprint.massey_table`` calls ``flags`` only on the support of mu_2
    and p_3.  On every nonzero block ``class_of`` runs on the XOR of every
    defined combination.

    The flags pass.  ``flags(a, b, c)`` is (some bracket is defined, some
    bracket is nonzero modulo its indeterminacy) over every triple of nonzero
    coordinate vectors, enumerated in ``itertools.product`` order and
    stopping at the first nonzero one, as bracket-by-bracket reading would.
    Definedness is read off the pair blocks' class rows (``apply_block``),
    and the indeterminacy is formed only for a nonzero value.
    """

    def __init__(self, h: HomologyData, s: AInftyStructure):
        self.h = h
        self.s = s
        self._bases: Dict[int, Tuple[int, List[int]]] = {}
        self._pairs: Dict[Tuple[int, int], PairBlock] = {}
        self._cuts: Dict[int, Tuple[AInftyStructure, AInftyMorphism]] = {}  # by arity

    def _basis(self, k: int) -> Tuple[int, List[int]]:
        """(canonical degree, inclusion vectors of the basis classes) of degree k."""
        entry = self._bases.get(k)
        if entry is None:
            h = self.h
            c = h.canon(k)
            entry = self._bases[k] = (c, [h.include(c, 1 << i) for i in range(h.dim(c))])
        return entry

    def pair(self, a: int, b: int) -> PairBlock:
        """The (a, b) pair block."""
        block = self._pairs.get((a, b))
        if block is None:
            h, s = self.h, self.s
            (ca, xs), (cb, ys) = self._basis(a), self._basis(b)
            degree = h.canon(ca + cb + 1)
            coords, chains = [], []
            for ix in xs:
                vecs = [s.apply([(ca, ix), (cb, iy)])[1] for iy in ys]
                coords.append([h.class_of(degree, vec) for vec in vecs])
                chains.append(vecs)
            block = self._pairs[(a, b)] = PairBlock(degree, coords, chains)
        return block

    def minimal(self, arity: int) -> Tuple[AInftyStructure, AInftyMorphism]:
        """``transfer_minimal_model(self.h, self.s, arity, self)``, cached.

        Only the highest arity transferred so far is kept, so the cache holds
        at most one transfer of arity <= ``MAX_ARITY``.  The recursion builds
        arity k from lower arities alone, so a lower arity is the kept tables
        cut at ``arity``; each cut is kept until the transfer is rebuilt.
        """
        if not 2 <= arity <= max(self._cuts, default=0):
            self._cuts = {arity: transfer_minimal_model(self.h, self.s, arity, self)}
        if arity not in self._cuts:
            mu, incl = self._cuts[max(self._cuts)]
            low = AInftyStructure(
                mu.modulus, mu.basis, arity, {k: t for k, t in mu.tables.items() if k <= arity}
            )
            cut = {k: t for k, t in incl.tables.items() if k <= arity}
            self._cuts[arity] = low, AInftyMorphism(arity, cut, src=low, dst=incl.dst, p3=incl.p3)
        return self._cuts[arity]

    @cached_property
    def triples(self) -> Dict[Tuple[int, int, int], Dict[Tuple[int, int, int], int]]:
        """Nonzero p_3 vectors of ``minimal(3)`` by degree triple, then basis-index triple."""
        mu, incl = self.minimal(3)
        where = {lbl: (k, i) for k, names in mu.basis.items() for i, lbl in enumerate(names)}
        blocks: Dict[Tuple[int, int, int], Dict[Tuple[int, int, int], int]] = {}
        for labels, vec in incl.p3.items():
            (a, i), (b, j), (c, k) = map(where.__getitem__, labels)
            blocks.setdefault((a, b, c), {})[(i, j, k)] = vec
        return blocks

    def cup(self, x: HClass, y: HClass) -> HClass:
        """x * y, bilinear in the pair block."""
        degree, coords, _ = self.pair(x.degree, y.degree)
        return HClass(degree, apply_block(coords, x.coords, y.coords))

    def value(self, x: HClass, y: HClass, z: HClass) -> HClass:
        """The value class of <x, y, z> (x y = y z = 0), trilinear in the triple block."""
        h = self.h
        ca, cb, cc = h.canon(x.degree), h.canon(y.degree), h.canon(z.degree)
        degree = h.canon(ca + cb + cc + 1)
        vec = 0
        for (i, j, k), v in self.triples.get((ca, cb, cc), {}).items():
            if x.coords >> i & y.coords >> j & z.coords >> k & 1:
                vec ^= v
        return HClass(degree, h.class_of(degree, vec))

    def indeterminacy(self, x: HClass, z: HClass, degree: int) -> List[int]:
        """Basis of x H + H z in the given degree, the indeterminacy of <x, y, z>."""
        h = self.h
        cups = [self.cup(x, e) for e in basis_classes(h, degree - x.degree - 1)]
        cups += [self.cup(e, z) for e in basis_classes(h, degree - z.degree - 1)]
        return span_basis(c.coords for c in cups)

    def flags(self, a: int, b: int, c: int) -> Tuple[bool, bool]:
        """(defined, nonzero) over every bracket of nonzero classes in degrees (a, b, c).

        "Nonzero" means the value coset omits zero; see the class docstring.
        """
        da, db, dc = (len(self._basis(k)[1]) for k in (a, b, c))
        xy = self.pair(a, b).coords
        yz = None
        defined = False
        for x, y in iproduct(range(1, 1 << da), range(1, 1 << db)):
            if apply_block(xy, x, y):
                continue
            if yz is None:
                yz = self.pair(b, c).coords
            for z in range(1, 1 << dc):
                if apply_block(yz, y, z):
                    continue
                defined = True
                if tuple(map(self.h.canon, (a, b, c))) not in self.triples:
                    return True, False
                xc, zc = HClass(a, x), HClass(c, z)
                value = self.value(xc, HClass(b, y), zc)
                if value.coords and not in_span(
                    self.indeterminacy(xc, zc, value.degree), value.coords
                ):
                    return True, True
        return defined, False


def massey_triple(
    h: HomologyData, s: AInftyStructure, x: HClass, y: HClass, z: HClass
) -> MasseyResult:
    """Triple Massey product with explicit definedness check and indeterminacy,
    read off a ``ProductTable`` over (h, s)."""
    table = ProductTable(h, s)
    for which, (u, v) in (("first", (x, y)), ("second", (y, z))):
        product = table.cup(u, v)
        if product.coords:
            return MasseyResult(
                "undefined",
                witness="%s pair has nonzero product %s"
                % (which, h.label(product.degree, product.coords)),
            )
    value = table.value(x, y, z)
    return MasseyResult(
        "defined",
        degree=value.degree,
        value=value.coords,
        indeterminacy=table.indeterminacy(x, z, value.degree),
        systems=1,
    )


def massey_higher(
    h: HomologyData,
    s: AInftyStructure,
    classes: Sequence[HClass],
    cap: int = DEFAULT_MAX_SYSTEMS,
) -> MasseyResult:
    """Order-n Massey product by exhaustive defining-system enumeration.

    Builds families b[l,m] with b[m,m] representing the m-th input class and
    d(b[l,m]) equal to the sum over proper consecutive partitions of [l,m]
    of m_k applied to the blocks.  The bracket value applies the same sum to
    [1,n].  All GF(2) choices (representative shifts by boundaries, solution
    shifts by cocycles) are enumerated, up to ``cap`` complete systems.
    """
    n = len(classes)
    if n < 3:
        raise ContractError("higher Massey products need at least 3 classes")
    if cap < 1:
        raise ContractError("system cap must be positive")

    deg: Dict[Tuple[int, int], int] = {}
    for l in range(1, n + 1):
        run = 0
        for m in range(l, n + 1):
            run += classes[m - 1].degree
            deg[(l, m)] = h.canon(run)

    variables: List[Tuple[int, int]] = []
    for width in range(n - 1):
        for l in range(1, n + 1 - width):
            m = l + width
            if (l, m) != (1, n):
                variables.append((l, m))

    def partitions(l: int, m: int):
        """Partitions of [l,m] into 2..arity consecutive blocks (first, last)."""
        out = []
        for r in range(2, min(s.arity, m - l + 1) + 1):
            for comp in _compositions(m - l + 1, r):
                blocks = []
                start = l
                for c in comp:
                    blocks.append((start, start + c - 1))
                    start += c
                out.append(blocks)
        return out

    parts_cache = {(l, m): partitions(l, m) for (l, m) in variables + [(1, n)]}

    state: Dict[Tuple[int, int], int] = {}
    values: set = set()
    counters = {"systems": 0, "visited": 0}
    obstruction: List[str] = []
    value_degree = h.canon(sum(c.degree for c in classes) + 1)

    def block_sum(l: int, m: int) -> int:
        total = 0
        for blocks in parts_cache[(l, m)]:
            pairs = [(deg[b], state[b]) for b in blocks]
            if any(v == 0 for _, v in pairs):
                continue
            _, vec = s.apply(pairs)
            total ^= vec
        return total

    def freedom(l: int, m: int) -> Tuple[int, List[int]]:
        """Base point and shift basis for variable (l, m), or obstruction (None)."""
        k = deg[(l, m)]
        if l == m:
            base = h.include(k, classes[l - 1].coords)
            return base, list(h.boundaries.get(k, []))
        target = block_sum(l, m)  # lives in degree k + 1
        tdeg = h.canon(k + 1)
        if not h.is_cycle(tdeg, target):
            raise InternalConsistencyError(
                "defining-system constraint at (%d, %d) is not closed" % (l, m)
            )
        obs = h.project(tdeg, target)
        if obs:
            obstruction.append(
                "sub-bracket obstruction %s at (%d, %d)" % (h.label(tdeg, obs), l, m)
            )
            return -1, []
        return h.homotopy(tdeg, target), list(h.cycles.get(k, []))

    def walk(idx: int) -> bool:
        """DFS over variable choices; returns False to abort (cap exhausted)."""
        counters["visited"] += 1
        if counters["visited"] > 4 * cap:
            return False
        if idx == len(variables):
            value = block_sum(1, n)
            if not h.is_cycle(value_degree, value):
                raise InternalConsistencyError("Massey bracket value is not closed")
            values.add(h.project(value_degree, value))
            counters["systems"] += 1
            return counters["systems"] < cap
        l, m = variables[idx]
        base, shifts = freedom(l, m)
        if base == -1:
            return True  # dead branch, keep searching elsewhere
        for mask in range(1 << len(shifts)):
            vec = base
            for i in bits(mask):
                vec ^= shifts[i]
            state[(l, m)] = vec
            keep_going = walk(idx + 1)
            del state[(l, m)]
            if not keep_going:
                return False
        return True

    completed = walk(0)
    truncated = not completed

    if not values:
        witness = obstruction[-1] if obstruction else "no defining system found"
        return MasseyResult("undefined", witness=witness, truncated=truncated)
    ordered = sorted(values)
    rep = ordered[0]
    indet = span_basis([v ^ rep for v in ordered if v != rep])
    return MasseyResult(
        "defined",
        degree=value_degree,
        value=rep,
        indeterminacy=indet,
        value_set=ordered,
        truncated=truncated,
        systems=counters["systems"],
    )


def _verify_retract(h: HomologyData) -> None:
    d = h.differential
    for k in d.basis:
        dim = len(d.basis[k])
        nreps = len(h.reps.get(k, []))
        for i in range(nreps):
            e = 1 << i
            if h.project(k, h.include(k, e)) != e:
                raise ContractError("retract fails p(i(x)) = x in degree %d" % k)
            if h.homotopy(k, h.include(k, e)):
                raise ContractError("retract fails h(i(x)) = 0 in degree %d" % k)
        for i in range(dim):
            v = 1 << i
            hv = h.homotopy(k, v)
            back = h.canon(k - d.shift)
            lhs = d.apply(back, hv) ^ h.homotopy(h.canon(k + d.shift), d.apply(k, v))
            if lhs != v ^ h.include(k, h.project(k, v)):
                raise ContractError("retract fails the homotopy identity in degree %d" % k)
            if h.homotopy(back, hv):
                raise ContractError("retract fails h(h(x)) = 0 in degree %d" % k)
            if h.project(back, hv):
                raise ContractError("retract fails p(h(x)) = 0 in degree %d" % k)


def transfer_minimal_model(
    h: HomologyData, s: AInftyStructure, up_to: int, products: Optional[ProductTable] = None
) -> Tuple[AInftyStructure, AInftyMorphism]:
    """Minimal A-infinity structure on homology, plus the inclusion morphism.

    The homotopy transfer sums over rooted planar trees with k leaves and
    no unary vertices: representatives i(x) at the leaves, m_r at each
    vertex, the homotopy h on each internal edge.  Group the trees by the
    root's arity r and its children's leaf counts k_1+..+k_r = k.  The
    subtrees below a child range independently over all trees with k_j
    leaves, so by multilinearity of m_r the group contributes
    m_r(i_{k_1} x .. x i_{k_r}), where i_1 = i and i_j = h(p_j) is h of the
    whole tree sum p_j with j leaves.  Hence Kadeishvili's recursion:

        p_k = sum over r >= 2 and k_1+..+k_r = k of m_r(i_{k_1} x .. x i_{k_r}),

    with mu_k = p(p_k) and i_k = h(p_k); mu_1 = 0.  Each p_k reuses the
    stored i_j tables of lower arity.  p_3 is kept before projection, as
    the inclusion's ``p3``, for the triple blocks of ``ProductTable``.  mu_2
    is checked against the cup product: the class rows of the pair blocks
    of ``products``, a ``ProductTable`` over h and s (built here if none is
    given).  Arities above ``MAX_ARITY`` are refused before any work.
    """
    if up_to < 2:
        raise ContractError("transfer needs arity at least 2")
    if up_to > MAX_ARITY:
        raise ContractError(
            "transfer arity %d exceeds the budget MAX_ARITY = %d" % (up_to, MAX_ARITY)
        )
    _verify_retract(h)

    hbasis: Dict[int, Tuple[str, ...]] = {}
    class_list: List[Tuple[int, int, str]] = []  # (degree, index, label)
    for k in h.degrees():
        names = tuple(h.label(k, 1 << i) for i in range(h.dim(k)))
        hbasis[k] = names
        for i, lbl in enumerate(names):
            class_list.append((k, i, lbl))
    degree_of = {lbl: k for k, _, lbl in class_list}

    def entry_degree(w: Tuple[str, ...]) -> int:
        """Degree of i_j(w): i is degree 0, h(p_j) lowers m_r's +1 by the shift."""
        lift = 1 - h.shift if len(w) > 1 else 0
        return h.canon(sum(degree_of[x] for x in w) + lift)

    mu_tables: Dict[int, Dict[Tuple[str, ...], int]] = {}
    i_tables: Dict[int, Dict[Tuple[str, ...], int]] = {
        1: {
            (lbl,): h.include(k, 1 << i)
            for k, i, lbl in class_list
            if h.include(k, 1 << i)
        }
    }
    index = {1: _inverted_index(s, i_tables[1], entry_degree)}
    p3: Dict[Tuple[str, ...], int] = {}
    for k in range(2, up_to + 1):
        p_k: Dict[Tuple[str, ...], int] = {}
        _composition_sum(s, index, degree_of, k, 2, p_k)
        mu_k: Dict[Tuple[str, ...], int] = {}
        i_k: Dict[Tuple[str, ...], int] = {}
        for labels, total in p_k.items():
            outdeg = h.canon(sum(degree_of[x] for x in labels) + 1)
            coords = h.project(outdeg, total)
            if coords:
                mu_k[labels] = coords
            tail = h.homotopy(outdeg, total)
            if tail:
                i_k[labels] = tail
        mu_tables[k] = mu_k
        i_tables[k] = i_k
        index[k] = _inverted_index(s, i_k, entry_degree)
        if k == 3:
            p3 = p_k

    mu = AInftyStructure(h.modulus, hbasis, up_to, mu_tables)

    if products is None:
        products = ProductTable(h, s)
    for (a, i, lx), (b, j, ly) in iproduct(class_list, class_list):
        if mu.entry((lx, ly)) != products.pair(a, b).coords[i][j]:
            raise InternalConsistencyError(
                "transferred mu_2 disagrees with the cup product on (%s, %s)" % (lx, ly)
            )

    return mu, AInftyMorphism(up_to, i_tables, src=mu, dst=s, p3=p3)


@dataclass
class CohomologyRing:
    """An augmented DGA made linear once: its twist, the adjoint structure
    and both homologies of m_1, shared by every per-augmentation layer, and
    the cohomology's product table, which holds the minimal model, built on
    first use."""

    dga: DGA
    aug: Augmentation
    twisted: DGA
    structure: AInftyStructure
    chain: HomologyData
    cochain: HomologyData
    # (letter, term) pairs of ``structure``, set once ``tilde.check_order_n_transpose``
    # finds them homogeneous and equal to those of ``twisted``; the dense order-n
    # engine builds its window matrix from them.  A ``replace`` copy checks anew.
    pairs: Optional[FrozenSet[tuple]] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def products(self) -> ProductTable:
        """The cohomology product table; its blocks fill as readers ask for them."""
        return ProductTable(self.cochain, self.structure)

    def minimal(self, arity: int) -> Tuple[AInftyStructure, AInftyMorphism]:
        """The minimal model to the given arity, from the product table's cached transfer."""
        return self.products.minimal(arity)


def build_ring(dga: DGA, aug: Augmentation) -> CohomologyRing:
    """Twist once into the adjoint structure, and take homology of m_1 both ways.

    ``adjoint_structure`` checks m_1 m_1 = 0 as relation l = 1, so both maps
    go to ``linear._retract`` unsquared (the proof is in its docstring)."""
    twisted = twist(dga, aug)
    s = adjoint_structure(twisted)
    chain_map, cochain_map = linearized_complexes(s)
    return CohomologyRing(dga, aug, twisted, s, _retract(chain_map), _retract(cochain_map))
