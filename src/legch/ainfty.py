"""A-infinity structures on linearized cochain complexes.

The word-length-k part of a twisted differential dualizes to an operation
m_k of degree +1; together these satisfy the A-infinity relations.  This
module stores such structures as sparse tables, checks the relations and
the morphism equation, computes cup products (off a ``ProductTable`` of
pair blocks) and Massey brackets of every order (``massey_higher``, one
walk over the defining systems of the minimal model, its outermost layer
summed as a coset, under ``MAX_MASSEY_SYSTEMS``), and transfers the
structure to homology through a strong deformation retract by
Kadeishvili's recursion, up to the arity budget ``MAX_ARITY``.  The
relations, the morphism equation and the transfer share two sums: inserting
m_j into an outer operation, and composing m_r with blocks of a table of
multilinear maps.  Both are driven by sparse tables through one inverted
index (basis label -> table keys whose vector contains it): the insertion
sum looks up which m_j entries hit each input label of the outer table, and
the composition sum visits each m_r entry once, looks up the block arities
at which table words hit each of its input labels, and enumerates only the
compositions whose every block has hits, reading each hit word's degree
sum once.  Neither builds a tuple whose terms all vanish.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, groupby, pairwise
from itertools import product as iproduct
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError, check_budget
from .algebra import DGA, assert_valid, canon_degree
from .augment import Augmentation, twist
from .gf2 import apply_block, apply_cols, bits, in_span, span_basis
from .linear import GradedMatrixMap, HomologyData, _retract, linearized_complexes, vector_label

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
    "check_massey_budget",
    "cup_product",
    "massey_triple",
    "massey_higher",
    "transfer_minimal_model",
]

# Inner defining systems the massey_higher walks on one ring may visit (the
# two outer variables are summed as a coset), counted before any walk
# (check_massey_budget).  Each trefoil ring counts 8,281 at Massey order 4
# and 4,928,414 up to order 5, which stays refused.  The slowest admitted
# case found is one bracket at the bound, `legch massey --classes
# 0:1,0:1,0:1,5:1` on 7 free degree-0 and 6 free degree-5 generators:
# 2^20 inner systems in 3.4-4.5 s at 25.8-25.9 MB as a process (the limits
# row two_degrees(7, 6); python 3.11, 2 vCPUs, shared host).
MAX_MASSEY_SYSTEMS = 1 << 20

# Top arity transfer_minimal_model accepts.  The tables and the time grow
# 1.4-2x per arity; at 16 the transfer plus the inclusion's morphism check
# takes at most 0.13 s on each bundled example, at 20 up to 0.6 s
# (in-process, best of 3, python 3.11, 2 vCPUs).  `legch minimal --arity 16`
# on masseyex(1,4,9,20), which also checks mu's relations up to arity 17,
# takes 0.57-0.59 s as a process on the same host.
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

    def require(self, error: type, prefix: str = "") -> None:
        """The one conversion of a failed identity check into the exit-code
        contract: raise ``error`` (``ContractError``, exit 1, for a caller's
        input, or ``InternalConsistencyError``, exit 2, for a proved
        identity) reading ``prefix`` then the detail, unless the check held."""
        if not self.ok:
            raise error(prefix + self.detail)


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
        degree = self.degree_of.__getitem__
        for k, table in self.tables.items():
            if k < 1 or k > self.arity:
                raise ContractError("table arity %d outside 1..%d" % (k, self.arity))
            kept = {}
            for args, vec in table.items():
                if len(args) != k:
                    raise ContractError("entry %r in arity-%d table" % (args, k))
                try:
                    out = canon_degree(self.modulus, sum(map(degree, args)) + 1)
                except KeyError:
                    unknown = next(lbl for lbl in args if lbl not in self.degree_of)
                    raise ContractError("unknown basis label %s" % unknown) from None
                if vec:
                    if vec >> len(self.basis.get(out, ())):
                        raise ContractError(
                            "entry on (%s) has bits outside the degree-(sum+1) basis"
                            % ", ".join(args)
                        )
                    kept[args] = vec
            cleaned[k] = kept
        self.tables = cleaned
        self._hits: Dict[int, Dict[str, List[Tuple[str, ...]]]] = {}
        self._grouped: Dict[int, Dict[Tuple[int, ...], list]] = {}

    def names(self, k: int) -> Tuple[str, ...]:
        return self.basis.get(canon_degree(self.modulus, k), ())

    def dim(self, k: int) -> int:
        return len(self.names(k))

    def out_degree(self, args: Sequence[str]) -> int:
        return canon_degree(self.modulus, sum(map(self.degree_of.__getitem__, args)) + 1)

    def entry(self, args: Sequence[str]) -> int:
        table = self.tables.get(len(args))
        return table.get(tuple(args), 0) if table else 0

    def grouped(self, r: int) -> Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], int]]]:
        """m_r's entries by degree tuple (k_1..k_r), each as (basis-index tuple,
        vector); a degree tuple with no entry is absent.  Grouped on first use."""
        if r not in self._grouped:
            where = {lbl: i for names in self.basis.values() for i, lbl in enumerate(names)}
            groups = self._grouped[r] = {}
            for w, vec in self.tables.get(r, {}).items():
                key = tuple(map(self.degree_of.get, w))
                groups.setdefault(key, []).append((tuple(map(where.get, w)), vec))
        return self._grouped[r]

    def hits(self, j: int) -> Dict[str, List[Tuple[str, ...]]]:
        """For each basis label y, the arity-j argument tuples whose image contains y."""
        if j not in self._hits:
            self._hits[j] = _inverted_index(self, self.tables.get(j, {}), self.out_degree)
        return self._hits[j]


def _apply_entries(entries: Iterable[Tuple[Tuple[int, ...], int]], *masks: int) -> int:
    """The multilinear map with these (index tuple, vector) entries, as
    ``AInftyStructure.grouped`` keeps them, on one mask per position: the
    XOR of the vectors of the entries whose every index is a set bit of its
    position's mask."""
    out = 0
    for idx, vec in entries:
        for i, mask in zip(idx, masks):
            if not mask >> i & 1:
                break
        else:
            out ^= vec
    return out


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
                if vec >> dst.dim(degree):
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
    longest word occurring); either failure is an internal error.  A twisted
    DGA from a caller carries no proof of the relations, so they are checked
    here; ``build_ring`` dualizes its own twist unchecked (proof in its
    docstring).
    """
    structure = _dualize(twisted)
    check_an_relations(structure, structure.arity).require(InternalConsistencyError)
    return structure


def _dualize(twisted: DGA) -> AInftyStructure:
    """The tables of ``adjoint_structure``, with each word's degree checked
    and the relations not."""
    basis, pos = _basis_by_degree(twisted)
    modulus, degrees = twisted.modulus, twisted.degrees
    arity = 1
    tables: Dict[int, Dict[Tuple[str, ...], int]] = {}
    for g in twisted.generators:
        want = canon_degree(modulus, degrees[g] - 1)
        for w in twisted.d(g):
            got = canon_degree(modulus, sum(map(degrees.__getitem__, w)))
            if got != want:
                raise InternalConsistencyError(
                    "twisted d %s is not degree-homogeneous: term %s has degree %d,"
                    " expected %d" % (g, "".join(w), got, want)
                )
            arity = max(arity, len(w))
            table = tables.setdefault(len(w), {})
            table[w] = table.get(w, 0) ^ (1 << pos[g])
    return AInftyStructure(twisted.modulus, basis, arity, tables)


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
        for oargs, ovec in table.items():
            for i, x in enumerate(oargs):
                hits = inner_hits.get(x)
                if not hits:
                    continue
                before, after = oargs[:i], oargs[i + 1 :]
                for iargs in hits:
                    _toggle(total, before + iargs + after, ovec)


def _compositions(n: int, r: int) -> Tuple[Tuple[int, ...], ...]:
    """All r-tuples of positive integers summing to n, in lexicographic order."""
    return _compositions_in((tuple(range(1, n + 1)),) * r, n)


# A transfer with its morphism check at MAX_ARITY makes at most 541 distinct
# keys on the bundled examples (masseyex(1,4,9,20), holding about 90 KiB),
# so one such run fits in the cache twice over.
@lru_cache(maxsize=1024)
def _compositions_in(options: Tuple[Tuple[int, ...], ...], n: int) -> Tuple[Tuple[int, ...], ...]:
    """The compositions of n whose j-th part lies in ``options[j]`` (ascending),
    in lexicographic order.  A part is tried only where the parts after it
    can still make up the rest (between the sums of their least and greatest
    options), and each suffix is solved once per remainder while cached, so
    the product of the option lists is never formed."""
    if len(options) == 1:
        return ((n,),) if n in options[0] else ()
    rest = options[1:]
    low, high = sum(o[0] for o in rest), sum(o[-1] for o in rest)
    return tuple(
        (c,) + tail
        for c in options[0]
        if low <= n - c <= high
        for tail in _compositions_in(rest, n - c)
    )


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

    The sparse m_r tables drive the sum, entry by entry.  ``arities[y]``
    lists the block arities c <= n at which some word hits the label y.  An
    entry (x_1..x_r) -> v of m_r contributes only at the compositions
    (c_1..c_r) of n with every c_j in arities[x_j] (``_compositions_in``,
    which prunes by the arity still to place), and there v is toggled onto
    every concatenation w_1..w_r with w_j among the index hits of x_j at
    c_j.  This is the per-tuple sum: by multilinearity m_r(f(w_1), ..,
    f(w_r)) is the XOR of m_r(y_1, .., y_r) over the labels y_j in f(w_j),
    and only the nonzero entries of the table add anything.  Exchanging the
    two sums, entry (x_1..x_r) -> v reaches w_1..w_r exactly when every x_j
    lies in f(w_j), once for each such tuple, which is the index condition.
    Tuples on which every term vanishes are never built, and neither is a
    composition with an empty block.  The (composition, entry) pairs found
    for one r run in the order composition (lexicographic), entry (table
    order), words (the product of the hit lists, first block slowest): the
    order of a scan of every entry at every composition, so ``total``
    receives the same toggles in the same order, and the degree check
    below names the same first tuple.

    Degree check.  An entry's vector v lives in degree sum|x_j| + 1 of
    ``m``, where |x_j| = entry_degree(w_j) because the index read f(w_j)
    there; the accumulated tuple is read in degree sum(degree_of) + 1.  The
    two are compared on every contributing term, and a mismatch is an
    internal error naming the first such tuple.  Each hit word's degree sum
    is read once per call, and a term's sum adds up its words' sums.
    Checking only contributing terms weakens nothing: both sides are
    functions of the words alone, and a tuple on which every term vanishes
    puts no vector into ``total``, so nothing is read there in a wrong
    degree.  (In
    ``check_ainfty_morphism`` entry_degree sums degree_of, so the sides
    agree on every tuple; in the transfer they differ by 1 - shift per
    block of length > 1, which is 0 on a cochain retract.)
    """
    arities: Dict[str, Tuple[int, ...]] = {}
    for c in sorted(c for c in index if c <= n):
        for x in index[c]:
            arities[x] = arities.get(x, ()) + (c,)
    canon = partial(canon_degree, m.modulus)
    hits: Dict[Tuple[int, str], List[Tuple[Tuple[str, ...], int]]] = {}
    for r in range(min_blocks, min(m.arity, n) + 1):
        found: Dict[Tuple[int, ...], list] = {}
        for xs, vec in m.tables.get(r, {}).items():
            options = tuple(map(arities.get, xs))
            if None not in options:
                for comp in _compositions_in(options, n):
                    found.setdefault(comp, []).append((xs, vec))
        for comp in sorted(found):
            for xs, vec in found[comp]:
                terms = [((), 0)]
                for key in zip(comp, xs):
                    words = hits.get(key)
                    if words is None:
                        words = hits[key] = [
                            (w, sum(map(degree_of.__getitem__, w))) for w in index[key[0]][key[1]]
                        ]
                    terms = [(a + w, d + e) for a, d in terms for w, e in words]
                got = m.out_degree(xs)
                for args, degree in terms:
                    want = canon(degree + 1)
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


def _check_relation_budget(s: AInftyStructure, up_to: int) -> None:
    """Refuse a relation check up to ``up_to`` of more than ``MAX_RELATION_TERMS``
    terms.  They are counted only past the bound sum r |m_r| |m_{l+1-r}| (an
    m_j entry hits each label of an arity-r key at most once)."""
    size = {k: len(t) for k, t in s.tables.items()}
    pairs = [(r, l + 1 - r) for l in range(1, up_to + 1) for r in range(1, l + 1)]
    if sum(r * size.get(r, 0) * size.get(j, 0) for r, j in pairs) > MAX_RELATION_TERMS:
        terms = _relation_terms(s, up_to)
        what = "the A-infinity relations up to arity %d take %d terms, over"
        check_budget("MAX_RELATION_TERMS", MAX_RELATION_TERMS, terms, what, up_to)


def _failure(total: Dict[Tuple[str, ...], int], s: AInftyStructure, text: str, n: int):
    """The failed check at the first input tuple left in ``total``, in the
    basis order of ``s``."""
    key = min(total, key=lambda a: tuple(s.order[x] for x in a))
    return CheckReport(False, text % (n, ", ".join(key)), n, key)


def check_an_relations(s: AInftyStructure, up_to: int) -> CheckReport:
    """Verify sum over i+j+k=l of m_{i+1+k}(1 x m_j x 1) = 0 for l <= up_to.

    More than ``MAX_RELATION_TERMS`` terms are refused before any is toggled
    (``_check_relation_budget``).
    """
    _check_relation_budget(s, up_to)
    for l in range(1, up_to + 1):
        total: Dict[Tuple[str, ...], int] = {}
        _insertion_sum(s.tables, s, l, total)
        if total:
            return _failure(total, s, "relation fails at arity %d on (%s)", l)
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
        return canon_degree(src.modulus, sum(map(src.degree_of.__getitem__, w)))

    index = {c: _inverted_index(dst, table, entry_degree) for c, table in f.tables.items()}
    for n in range(1, up_to + 1):
        total: Dict[Tuple[str, ...], int] = {}
        _insertion_sum(f.tables, src, n, total)
        _composition_sum(dst, index, src.degree_of, n, 1, total)
        if total:
            return _failure(total, src, "morphism equation fails at arity %d on (%s)", n)
    return CheckReport(True, "morphism equation holds up to arity %d" % up_to)


def cup_product(h: HomologyData, s: AInftyStructure, x: HClass, y: HClass) -> HClass:
    """The class of m_2 on chosen representatives, of degree |x| + |y| + 1:
    ``ProductTable(h, s).cup(x, y)``, read off the (|x|, |y|) pair block, so
    a basis product of that block that is not closed is refused."""
    return ProductTable(h, s).cup(x, y)


def basis_classes(h: HomologyData, k: int) -> List[HClass]:
    """The basis classes of degree k, in coordinate order."""
    k = h.canon(k)
    return [HClass(k, 1 << i) for i in range(h.dim(k))]


@dataclass
class MasseyResult:
    """Outcome of a Massey product computation.

    When defined: a representative class (degree, value), the indeterminacy
    subspace basis, and for higher orders the full set of values over the
    defining systems, ``systems`` of them.  When undefined: a witness
    description of the obstruction.
    """

    status: str  # "defined" | "undefined"
    degree: Optional[int] = None
    value: Optional[int] = None
    indeterminacy: List[int] = field(default_factory=list)
    value_set: Optional[List[int]] = None
    witness: Optional[str] = None
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
    """Cup data of a degree pair (a, b) on basis classes x_i, y_j:
    ``coords[i][j]`` is the class of the chain m_2(i x_i, i y_j), in
    ``degree`` = a + b + 1.
    """

    degree: int
    coords: List[List[int]]


class ProductTable:
    """The products of a cohomology ring: cups read off pair blocks, and the
    ring's one transfer.

    Everything is filled on first use and kept for the life of the table,
    keyed by degree: per degree its canonical form and, per basis letter,
    the basis classes whose representative i x_i holds it (its owners); per
    degree pair (a, b) a ``PairBlock`` of class rows and its
    ``annihilators``, one bitmask of the y with x y = 0 per class x; and the
    ring's one transfer ``minimal``, which checks its mu_2 against those
    pair blocks and verifies a retract h from a caller.

    Pair blocks.  m_2 is bilinear, so the chain m_2(i x_i, i y_j) is the
    XOR of the m_2 entries (k, l) -> v on the pair's canonical degrees whose
    letter k occurs in i x_i and l in i y_j.  ``pair`` XORs each entry into
    the class pairs that own its two letters, at a cost of entries times
    owners, and keeps only the classes: ``class_of`` runs on every class
    pair of a block on the support, so a product that is not closed is
    rejected.

    The support.  ``support`` holds the degree pairs (a, b) of H on which
    the chain-level m_2 has an entry; every other pair block is the zero
    block, built with no ``class_of``: with no entry every chain is 0,
    closed, and ``class_of(0) = p(0) = 0`` as p is linear.  So
    a reader of cups or annihilators needs only the support (off it every
    annihilator mask is full, which ``fingerprint.massey_table`` reads
    without building one), and so does
    the transfer's mu_2 check, which compares mu_2(x_i, y_j) with the class
    row entry of every class pair whose degree pair (a, b) is on the
    support, carries a mu_2 entry, or has a block built already (which a
    caller may have changed), in class order.  On any other degree pair
    both sides are 0: mu_2 has no entry there, and the block, built when it
    is first asked for, is the zero block.  So the check is the comparison
    of every class pair, and names the same first failure, without
    building the zero blocks.
    The paper (arXiv:0901.0490) defines the cup product as the class of m_2
    on representatives; i is linear and m_2 bilinear, so ``cup`` reads a
    product of arbitrary classes off the class rows by multilinearity
    (``gf2.apply_block``), and is the one cup evaluator: ``cup_product`` is
    ``cup`` on a new table.

    The transfer.  ``minimal`` keeps one transfer, at the highest arity
    asked so far, and hands it out whole: the recursion builds arity k
    from lower arities alone, so its tables of arity <= k are those of a
    transfer to k, and every reader reads m_r only up to the arity it asks
    (an order-n walk r <= n, a window matrix |t| <= n).  It is checked once,
    when it is built: for a table built by a caller, the structure's
    relations up to that arity k (a ``ContractError``), then mu's up to
    k + 1 (an ``InternalConsistencyError``).  With m_1 = 0 the arity-l
    relation sums mu_a(1 x mu_b x 1) over a + b = l + 1 with a, b >= 2, so
    no relation of arity <= k reads mu_k, while the arity-(k + 1) relation
    reads mu_2..mu_k and no mu_(k + 1): it is defined on a transfer of
    arity k, checks mu_3 at k = 3 and mu_2's associativity at k = 2.  The
    inclusion's morphism equation up to k would also refuse what no
    relation can: of 12 transfers at k = 3 with one set bit of mu_3
    cleared (the first two augmentations of trefoil, cupex(1,3,7),
    masseyex(1,4,9,20) and masseyex(2,3,5,9)), the relations up to arity 4
    refuse 8, and 4 only the morphism equation, which ``legch minimal``
    prints.  It is not checked here: on the 24 rings of the ``mirror``
    benchmark's bases and their mirrors at k = 3 it takes 6.6 ms in all,
    more than the transfers' 5.5 ms, where the arity-4 relations add
    0.2 ms to the 0.3 ms of those up to arity 3 (in-process, best of 7,
    python 3.11, 2 vCPUs).

    Triple brackets.  The paper's triple Massey product of x, y, z with
    x y = y z = 0 is the class of the chain

        p_3 = m_3(ix, iy, iz) + m_2(ix, i_2(y, z)) + m_2(i_2(x, y), iz),   i_2 = h m_2,

    with indeterminacy x H + H z.  ``massey`` reads it as the case n = 3 of
    ``massey_higher``'s walk: one coset, mu_3(x, y, z) + x H + H z
    (Lu-Palmieri-Wu-Zhang 2009, A-infinity structures on Ext-algebras,
    Thm 3.1).  Kadeishvili's mu_3 is p(p_3), and p is the class of a cycle,
    so mu_3(x, y, z) is the chain-level value once p_3 is closed, and on a
    defined triple it is.  Since m_1 i = 0, the arity-2 relation (Leibniz)
    gives m_1 m_2(iy, iz) = 0, and with the homotopy identity
    m_1 h + h m_1 = 1 + i p, m_1 i_2(y, z) = m_2(iy, iz) + i(y z); the
    arity-3 relation gives m_1 m_3(ix, iy, iz) = m_2(m_2(ix, iy), iz)
    + m_2(ix, m_2(iy, iz)).  Summing, with Leibniz on the two outer terms,

        m_1 p_3 = m_2(ix, i(y z)) + m_2(i(x y), iz),

    which is 0 when x y = y z = 0.  On the ring's table the relations and
    the retract identities are proved (``build_ring``, ``linear._retract``);
    a table built by a caller (as in ``massey_triple``) verifies its
    retract and its structure's relations in its transfer.  So no
    closedness check runs on a value, and mu's relations up to one above
    the transfer's arity, which read mu_3, are checked before it is read.
    """

    def __init__(self, h: HomologyData, s: AInftyStructure):
        self.h = h
        self.s = s
        # Set by ``CohomologyRing.products``: h is the ring's own retract,
        # which ``linear._retract`` builds as one, and s its own structure,
        # whose relations ``build_ring`` proves, so neither is checked here.
        self.proved = False
        self._bases: Dict[int, Tuple[int, Dict[int, List[int]]]] = {}
        self._pairs: Dict[Tuple[int, int], PairBlock] = {}
        self._zeros: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._model: Optional[Tuple[AInftyStructure, AInftyMorphism]] = None

    @cached_property
    def support(self) -> Tuple[Tuple[int, int], ...]:
        """The degree pairs of H where the chain-level m_2 has an entry, sorted."""
        dims = self.h.dims()
        return tuple(sorted(p for p in self.s.grouped(2) if p[0] in dims and p[1] in dims))

    def _basis(self, k: int) -> Tuple[int, Dict[int, List[int]]]:
        """(canonical degree, owners) of degree k: each basis letter's index ->
        the indices of the basis classes whose representative holds it."""
        entry = self._bases.get(k)
        if entry is None:
            h, owners = self.h, {}
            c = h.canon(k)
            for x in range(h.dim(c)):
                for i in bits(h.include(c, 1 << x)):
                    owners.setdefault(i, []).append(x)
            entry = self._bases[k] = (c, owners)
        return entry

    def pair(self, a: int, b: int) -> PairBlock:
        """The (a, b) pair block, built entry by entry (class docstring)."""
        block = self._pairs.get((a, b))
        if block is None:
            h = self.h
            (ca, xs), (cb, ys) = self._basis(a), self._basis(b)
            degree = h.canon(ca + cb + 1)
            rows = [[0] * h.dim(cb) for _ in range(h.dim(ca))]
            for (i, j), vec in self.s.grouped(2).get((ca, cb), ()):
                for x in xs.get(i, ()):
                    for y in ys.get(j, ()):
                        rows[x][y] ^= vec
            if (ca, cb) in self.support:  # else the zero block (class docstring)
                rows = [[h.class_of(degree, vec) for vec in row] for row in rows]
            block = self._pairs[(a, b)] = PairBlock(degree, rows)
        return block

    def annihilators(self, a: int, b: int) -> Dict[int, int]:
        """Each nonzero class x of degree a -> the mask whose bit y is set for
        the nonzero y of degree b with x y = 0: the full mask off the
        support, where the pair block is zero, and otherwise the y on which
        x's row of products with the basis classes sums to 0."""
        zero = self._zeros.get((a, b))
        if zero is None:
            xs, ys = range(1, 1 << self.h.dim(a)), range(1, 1 << self.h.dim(b))
            if (a, b) not in self.support:
                zero = dict.fromkeys(xs, (2 << len(ys)) - 2)
            else:
                columns, zero = list(zip(*self.pair(a, b).coords)), {}
                for x in xs:
                    row = [apply_cols(column, x) for column in columns]
                    zero[x] = sum(1 << y for y in ys if not apply_cols(row, y))
            self._zeros[(a, b)] = zero
        return zero

    def minimal(self, arity: int) -> Tuple[AInftyStructure, AInftyMorphism]:
        """The kept transfer, ``transfer_minimal_model(self.h, self.s, arity,
        self)`` rebuilt and checked (class docstring) when ``arity`` lies
        above its arity, so it holds at most one transfer of arity <=
        ``MAX_ARITY``.  Its tables of arity <= ``arity`` are those of a
        transfer to ``arity``."""
        if not 2 <= arity <= (self._model[0].arity if self._model else 0):
            mu, incl = transfer_minimal_model(self.h, self.s, arity, self)
            if not self.proved:
                relations = check_an_relations(self.s, arity)
                relations.require(ContractError, "structure fails a relation: ")
            relations = check_an_relations(mu, arity + 1)
            relations.require(InternalConsistencyError, "transferred structure fails a relation: ")
            self._model = mu, incl
        return self._model

    def cup(self, x: HClass, y: HClass) -> HClass:
        """x * y, bilinear in the pair block."""
        degree, coords = self.pair(x.degree, y.degree)
        return HClass(degree, apply_block(coords, x.coords, y.coords))

    def massey(self, x: HClass, y: HClass, z: HClass) -> MasseyResult:
        """<x, y, z> in the triple's own format: undefined with the first pair
        whose product is nonzero as witness, else the value mu_3(x, y, z) and
        the indeterminacy x H + H z (``span_basis`` of the x e_i, then the
        e_j z), from one system of the checked transfer (class docstring)."""
        h, walk = self.h, _BracketWalk(self.minimal(3)[0], 3)
        degrees, coords = (x.degree, y.degree, z.degree), (x.coords, y.coords, z.coords)
        for value in walk.cosets(degrees, coords):
            basis = span_basis(walk.shifts(degrees, coords))
            return MasseyResult("defined", h.canon(sum(degrees) + 1), value, basis, systems=1)
        (l, m), vec = walk.obstruction
        which, label = "first" if l == 1 else "second", h.label(sum(degrees[l - 1 : m]) + 1, vec)
        return MasseyResult("undefined", witness="%s pair has nonzero product %s" % (which, label))


def massey_triple(
    h: HomologyData, s: AInftyStructure, x: HClass, y: HClass, z: HClass
) -> MasseyResult:
    """Triple Massey product with explicit definedness check and indeterminacy,
    read off a new ``ProductTable`` over (h, s), whose transfer verifies h and
    the relations of s."""
    return ProductTable(h, s).massey(x, y, z)


def _prefix_runs(t: Tuple[int, ...], known: dict, dim) -> Tuple[int, Tuple[int, ...]]:
    """What ``check_massey_budget`` keeps of a prefix t, in ``known``: the
    summed dims of its runs of two or more classes other than t itself,
    and its suffixes' degree sums, shortest first."""
    if t not in known:
        runs, suffixes = _prefix_runs(t[:-1], known, dim)
        ends = [s + t[-1] for s in suffixes]
        runs += sum(map(dim, ends[:-1])) + (dim(suffixes[-1]) if len(t) > 2 else 0)
        known[t] = runs, (t[-1], *ends)
    return known[t]


def check_massey_budget(
    h: HomologyData | AInftyStructure, tuples: Iterable[Tuple[Sequence[int], int]]
) -> None:
    """Refuse ``massey_higher`` walks of more than ``MAX_MASSEY_SYSTEMS``
    inner defining systems in all, before any runs.  ``h`` is the cohomology
    or a minimal model on it: only its ``dim`` is read.

    ``tuples`` pairs a degree tuple with the number of class tuples to be
    walked in it.  A walk in degrees (k_1..k_n) visits at most
    2^(sum of dim H in degree k_l + .. + k_m) inner systems, the sum over
    its inner variables b[l, m], 1 <= m - l <= n - 3 (``massey_higher``):
    the two outer ones are summed as a coset, not walked.  The bound reads
    only the dimensions of H.  The sum extends level by level: each prefix
    t keeps, once per call, the summed dims of its runs of two or more
    classes other than t itself, and its suffixes' degree sums.  A tuple
    t + (k) of n classes sums those of t and the runs of 2 to n - 2
    classes ending at k, and keeps those and t and the runs of 2 to n - 1
    classes ending at k.  The refusal comes at the first tuple over the
    budget, with the total up to it.
    """
    dim, known, total = lru_cache(maxsize=None)(h.dim), {(): (0, ())}, 0
    for degrees, count in tuples:
        head = tuple(degrees[:-1])
        runs, suffixes = known[head] if head in known else _prefix_runs(head, known, dim)
        for s in suffixes[: len(degrees) - 3]:
            runs += dim(s + degrees[-1])
        total += count << runs
        if total > MAX_MASSEY_SYSTEMS:
            break
    what = "the Massey brackets take at least %d defining systems, over"
    check_budget("MAX_MASSEY_SYSTEMS", MAX_MASSEY_SYSTEMS, total, what)


@lru_cache(maxsize=256)
def _runs(l: int, m: int) -> List[List[Tuple[int, int]]]:
    """The partitions of [l, m] into r >= 2 consecutive runs (first, last)."""
    comps = (c for r in range(2, m - l + 2) for c in _compositions(m - l + 1, r))
    return [[(a + 1, b) for a, b in pairwise(accumulate(c, initial=l - 1))] for c in comps]


class _BracketWalk:
    """The defining systems of the order-n brackets of a minimal model, walked
    as ``massey_higher`` describes: the variables b[l, m] in the order
    (width, l), each a dead branch where its partition sum is nonzero; an
    inner one (width at most n - 3) ranges over H in its degree, the two
    outer ones are checked and left 0, so each inner system with both outer
    obstructions zero yields its value sum c_s, and its coset c_s + W.

    Brackets share what reads only degrees: per run [l, m] summed and the
    degrees of its classes, the partitions into r >= 2 runs on whose degrees
    m_r has an entry, each with those entries (``AInftyStructure.grouped``),
    so a partition sum is a few ``_apply_entries`` calls.
    """

    def __init__(self, mu: AInftyStructure, n: int):
        self.mu, self.diagonal = mu, [(l, l) for l in range(1, n + 1)]
        self.variables = [(l, l + w) for w in range(1, n - 1) for l in range(1, n + 1 - w)]
        self.terms: Dict[Tuple[int, Tuple[int, ...]], list] = {}
        self.obstruction: Optional[Tuple[Tuple[int, int], int]] = None

    def deg(self, degrees: Tuple[int, ...], l: int, m: int) -> int:
        """The canonical degree of the run [l, m] of classes in these degrees."""
        return canon_degree(self.mu.modulus, sum(degrees[l - 1 : m]))

    def _terms(self, run: Tuple[int, int], degrees: Tuple[int, ...]) -> list:
        """The partitions of the run into r >= 2 consecutive runs (first, last)
        on whose degrees m_r has an entry, each as (getter of its runs'
        vectors, m_r's entries there); for [1, n] without the two through
        the outer variables, which stay 0."""
        (l, m), n = run, len(degrees)
        key = l, degrees[l - 1 : m]
        if key not in self.terms:
            self.terms[key], outer = [], {(1, n - 1), (2, n)} if run == (1, n) else set()
            for blocks in filter(outer.isdisjoint, _runs(l, m)):
                ks = tuple([self.deg(degrees, *b) for b in blocks])
                entries = self.mu.grouped(len(ks)).get(ks)
                if entries:
                    self.terms[key].append((itemgetter(*blocks), entries))
        return self.terms[key]

    def _sum(self, run: Tuple[int, int], degrees: Tuple[int, ...], state: dict) -> int:
        total = 0
        for vectors, entries in self._terms(run, degrees):
            vecs = vectors(state)
            if all(vecs):
                total ^= _apply_entries(entries, *vecs)
        return total

    def cosets(self, degrees: Tuple[int, ...], coords: Sequence[int], idx=0, state=None):
        """c_s for each inner system s whose outer obstructions vanish, in walk
        order.  The last obstruction met is kept as ``obstruction``, a pair
        (run, vector in the degree above the run's); a walk with no coset
        meets at least one."""
        state = dict(zip(self.diagonal, coords)) if state is None else state
        last = idx == len(self.variables) - 2
        for run in self.variables[idx:] if last else self.variables[idx : idx + 1]:
            obstruction = self._sum(run, degrees, state)
            if obstruction:
                self.obstruction = run, obstruction
                return
        if last:
            yield self._sum((1, len(coords)), degrees, state)
            return
        run = self.variables[idx]
        for state[run] in range(1 << self.mu.dim(self.deg(degrees, *run))):
            yield from self.cosets(degrees, coords, idx + 1, state)

    def shifts(self, degrees: Tuple[int, ...], coords: Sequence[int]) -> List[int]:
        """Vectors spanning W: m_2(x_1, e_i) over the basis e_i of degree
        (2, n), then m_2(e_j, x_n) over that of degree (1, n-1)."""
        n, deg, m_2 = len(coords), partial(self.deg, degrees), self.mu.grouped(2)
        left, right = m_2.get((deg(1, 1), deg(2, n)), ()), m_2.get((deg(1, n - 1), deg(n, n)), ())
        return [_apply_entries(left, coords[0], 1 << i) for i in range(self.mu.dim(deg(2, n)))] + [
            _apply_entries(right, 1 << j, coords[-1]) for j in range(self.mu.dim(deg(1, n - 1)))
        ]

    def flags(self, degrees: Tuple[int, ...], coords: Sequence[int]) -> Tuple[bool, bool]:
        """(defined, nonzero) of one bracket, where nonzero means 0 lies
        outside the affine hull of the value set (``MasseyResult.is_trivial``).
        The hull c_0 + span(W, c_s - c_0) only grows as cosets come in, so
        the walk stops at the first coset after which it holds 0."""
        hull: List[int] = []
        for c in self.cosets(degrees, coords):
            hull = hull or [c] + (self.shifts(degrees, coords) if c else [])
            hull.append(c ^ hull[0])
            if in_span(hull[1:], hull[0]):
                return True, False
        return bool(hull), bool(hull)

    def result(self, degrees: Tuple[int, ...], coords: Sequence[int]) -> MasseyResult:
        """``massey_higher``'s result: the union of the cosets, listed.  It has
        at most as many elements as there are systems."""
        cosets = list(self.cosets(degrees, coords))
        if not cosets:
            (l, m), vec = self.obstruction
            label = vector_label(self.mu.names(self.deg(degrees, l, m) + 1), vec)
            witness = "sub-bracket obstruction %s at (%d, %d)" % (label, l, m)
            return MasseyResult("undefined", witness=witness)
        basis = span_basis(shifts := self.shifts(degrees, coords))
        span = [apply_cols(basis, t) for t in range(1 << len(basis))]
        values = sorted({c ^ w for c in set(cosets) for w in span})
        indeterminacy = span_basis([v ^ values[0] for v in values[1:]])
        degree = canon_degree(self.mu.modulus, sum(degrees) + 1)
        systems = len(cosets) << len(shifts)
        return MasseyResult("defined", degree, values[0], indeterminacy, values, systems=systems)


def massey_higher(mu: AInftyStructure, classes: Sequence[HClass]) -> MasseyResult:
    """Order-n Massey product on a minimal model, over every defining system.

    A defining system for classes x_1..x_n is a family b[l, m],
    1 <= l <= m <= n and (l, m) != (1, n), with b[m, m] representing x_m
    and m_1(b[l, m]) the sum over partitions of [l, m] into r >= 2
    consecutive blocks of m_r on the blocks' entries; its value is the
    class of the same sum over [1, n].  On ``mu`` (``CohomologyRing.minimal``,
    m_1 = 0) b[m, m] is the class itself, a variable b[l, m] is a dead
    branch where that sum is nonzero and otherwise ranges over all of H in
    its degree, and the value is the sum over [1, n].
    ``check_massey_budget(mu, ...)`` refuses the bracket before the walk
    when its inner systems exceed ``MAX_MASSEY_SYSTEMS``.

    The outer layer is a coset.  The two variables of width n - 2,
    b[1, n-1] and b[2, n], lie in no other variable's partition sum (a run
    of width at most n - 3 has no sub-run of width n - 2), and in the
    value's only through the partitions [1][2..n] and [1..n-1][n], as
    m_2(x_1, b[2, n]) + m_2(b[1, n-1], x_n); their own obstructions read
    inner variables alone, of width at most n - 3.  So the walk goes over
    the inner systems s only, in the order (width, l).  Where both outer
    obstructions of s vanish, b[1, n-1] and b[2, n] range freely over H in
    their degrees, and as m_2 is bilinear the values of the systems over s
    are the coset c_s + W: c_s is the value at b[1, n-1] = b[2, n] = 0 and
    W = m_2(x_1, H) + m_2(H, x_n) in those degrees, the same W for every s.
    The value set is the union of the cosets, ``systems`` is
    2^(dim H in degree (1, n-1) + dim H in degree (2, n)) per coset, and
    an undefined bracket's witness is the last obstruction met in the
    order inner variables, (1, n-1), (2, n): the order of a walk over every
    variable, which meets (2, n) after each of the 2^dim choices of
    b[1, n-1] alike.  At n = 3 the one inner system is empty and
    c = mu_3(x_1, x_2, x_3), the triple bracket of ``ProductTable.massey``.

    Why the walk on mu gives the chain-level value set.  Let N be the
    strictly upper-triangular (n+1) x (n+1) matrices over GF(2), with
    elementary matrices E_{a,b}, and put X = sum b[l, m] (x) E_{l-1,m} in
    A (x) N, with m_r(a_1 (x) E_1, .., a_r (x) E_r) = m_r(a_1..a_r) (x) E_1..E_r.
    A product E_{l_1-1,m_1} .. E_{l_r-1,m_r} is E_{l_1-1,m_r} when the
    blocks are consecutive and 0 otherwise, so in MC(X) = sum_r m_r(X^(x)r)
    the coefficient of E_{l-1,m} is m_1(b[l, m]) plus the partition sum of
    [l, m].  The defining systems are therefore the X whose MC(X) lives
    only in the corner E_{0,n}, with b[m, m] in x_m, and that corner is
    the value chain.  An A-infinity morphism f: A -> B gives
    F(X) = sum_k f_k(X^(x)k) (N is nilpotent, so the sum is finite), and
    the morphism equation, applied to every X^(x)k and summed, reads
    MC_B(F(X)) = sum f_{i+1+k}(X^(x)i (x) MC_A(X) (x) X^(x)k).  E_{0,n}
    times any element of N is 0 on either side, so only i = k = 0
    survives: MC_B(F(X)) = f_1(c) (x) E_{0,n} for the value chain c.
    Dropping the corner c' (x) E_{0,n} of F(X) changes no product of two or
    more factors and MC by m_1(c') (x) E_{0,n}, and leaves the diagonal
    f_1(b[m, m]), a representative of f_1* x_m.  So F(X) less its corner
    is a defining system for f_1* x_1..f_1* x_n with value f_1* [c]: any
    A-infinity morphism maps the value set V(x) into V(f_1* x) through f_1*.
    The inclusion i: mu -> A of the transfer is an A-infinity
    quasi-isomorphism, and over a field it has an A-infinity
    quasi-inverse g: A -> mu with g_1* = (i_1*)^-1 (Markl 2006,
    Transferring A-infinity structures; Lefevre-Hasegawa 2003, Sur les
    A-infini categories, Thm 1.3.1.3).  By f = i, i_1* V_mu(x) lies in
    V_A(i_1* x); by f = g, g_1* V_A(i_1* x) lies in V_mu(g_1* i_1* x) =
    V_mu(x), so V_A(i_1* x) = i_1* g_1* V_A(i_1* x) lies in i_1* V_mu(x).
    The two value sets are equal, and so is definedness; i_1 includes
    the representatives, so i_1* keeps coordinates, and the chain-level
    walk's projected values are these coordinate vectors.  That walk's
    closedness checks of each constraint and of the value are vacuous at
    m_1 = 0; ``ProductTable.minimal`` checks mu's A-infinity relations up
    to one above its arity, at least n + 1, instead, which reads mu_n.

    ``mu.arity`` below n, a nonzero m_1 and a walk over the budget are
    refused.
    """
    n = len(classes)
    if n < 3:
        raise ContractError("higher Massey products need at least 3 classes")
    if mu.arity < n:
        raise ContractError(
            "an order-%d bracket needs a minimal model of arity %d, not %d" % (n, n, mu.arity)
        )
    if mu.tables.get(1):
        raise ContractError("a Massey walk needs a minimal model, with m_1 = 0")
    degrees = tuple(c.degree for c in classes)
    check_massey_budget(mu, [(degrees, 1)])
    return _BracketWalk(mu, n).result(degrees, [c.coords for c in classes])


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

    with mu_k = p(p_k) and i_k = h(p_k), each entry's pair read off one
    application of the degree's inverse (``HomologyData.split``); mu_1 = 0.
    Each p_k reuses the stored i_j tables of lower arity; only mu_k and i_k
    are kept, and Massey brackets of every order read mu
    (``massey_higher``; on a defined triple p_3 is closed, so mu_3 is its
    class, as ``ProductTable`` proves).  mu_2 is checked against the cup product:
    the class rows of the pair blocks of ``products``, a ``ProductTable``
    over h and s (built here if none is given), on the degree pairs where
    the two can differ (``ProductTable``).  Arities above
    ``MAX_ARITY`` are refused before any work.  The five retract identities
    are verified on h (``_verify_retract``) unless ``products`` is the
    ring's own table over h (``CohomologyRing.products``), whose retract
    ``linear._retract`` builds as one (proof there).
    """
    if up_to < 2:
        raise ContractError("transfer needs arity at least 2")
    check_budget("MAX_ARITY", MAX_ARITY, up_to, "transfer arity %d exceeds")
    if products is None:
        products = ProductTable(h, s)
    if not (products.proved and products.h is h):
        _verify_retract(h)

    hbasis: Dict[int, Tuple[str, ...]] = {}
    class_list: List[Tuple[int, int, str]] = []  # (degree, index, label)
    for k in h.degrees():
        names = tuple(h.label(k, 1 << i) for i in range(h.dim(k)))
        hbasis[k] = names
        for i, lbl in enumerate(names):
            class_list.append((k, i, lbl))
    degree_of = {lbl: k for k, _, lbl in class_list}

    canon, lift = partial(canon_degree, h.modulus), 1 - h.shift

    def entry_degree(w: Tuple[str, ...]) -> int:
        """Degree of i_j(w): i is degree 0, h(p_j) lowers m_r's +1 by the shift."""
        return canon(sum(map(degree_of.__getitem__, w)) + (lift if len(w) > 1 else 0))

    mu_tables: Dict[int, Dict[Tuple[str, ...], int]] = {}
    i_tables: Dict[int, Dict[Tuple[str, ...], int]] = {
        1: {
            (lbl,): h.include(k, 1 << i)
            for k, i, lbl in class_list
            if h.include(k, 1 << i)
        }
    }
    index = {1: _inverted_index(s, i_tables[1], entry_degree)}
    for k in range(2, up_to + 1):
        p_k: Dict[Tuple[str, ...], int] = {}
        _composition_sum(s, index, degree_of, k, 2, p_k)
        mu_k: Dict[Tuple[str, ...], int] = {}
        i_k: Dict[Tuple[str, ...], int] = {}
        for labels, total in p_k.items():
            outdeg = canon(sum(map(degree_of.__getitem__, labels)) + 1)
            coords, tail = h.split(outdeg, total)
            if coords:
                mu_k[labels] = coords
            if tail:
                i_k[labels] = tail
        mu_tables[k] = mu_k
        i_tables[k] = i_k
        index[k] = _inverted_index(s, i_k, entry_degree)

    mu = AInftyStructure(h.modulus, hbasis, up_to, mu_tables)

    # the degree pairs where mu_2 and the cup table can differ (ProductTable), in class order
    entries = (tuple(map(degree_of.get, w)) for w in mu.tables.get(2, {}))
    pairs = set(chain(products.support, products._pairs, entries))
    pairs = sorted(p for p in pairs if p[0] in hbasis and p[1] in hbasis)
    for a, group in groupby(pairs, itemgetter(0)):
        for (i, lx), (_, b) in iproduct(enumerate(hbasis[a]), group):
            for ly, cup in zip(hbasis[b], products.pair(a, b).coords[i]):
                if mu.entry((lx, ly)) != cup:
                    raise InternalConsistencyError(
                        "transferred mu_2 disagrees with the cup product on (%s, %s)" % (lx, ly)
                    )
    return mu, AInftyMorphism(up_to, i_tables, src=mu, dst=s)


@dataclass
class CohomologyRing:
    """An augmented DGA made linear once: its twist, the adjoint structure
    and both homologies of m_1, shared by every per-augmentation layer, and
    the cohomology's product table, which holds the minimal model, built on
    first use.  It holds no augmentation: the ring depends on one only
    through the twist, so the members of one twist share it
    (``augment.per_twist``).  A ring from ``build_ring`` is proved, not
    checked: its structure satisfies the A-infinity relations at every arity
    (``build_ring``) and both homologies are strong deformation retracts
    (``linear._retract``).  A ring assembled by hand carries no such proof;
    the checks that stay (the window relations, the pair check, the
    transfer's mu_2 and mu's relations) run on it as on any other.

    The chain homology is read only by ``linhom`` and ``duality_search``, so
    the ring keeps the chain map and retracts it on first read (``chain``);
    a ``replace`` copy retracts its own."""

    dga: DGA
    twisted: DGA
    structure: AInftyStructure
    chain_map: GradedMatrixMap
    cochain: HomologyData
    # (letter, term) pairs of ``structure``, set once ``tilde.check_order_n_transpose``
    # finds them homogeneous and equal to those of ``twisted``; the dense order-n
    # engine builds its window matrix from them.  A ``replace`` copy checks anew.
    pairs: Optional[FrozenSet[tuple]] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def chain(self) -> HomologyData:
        """The chain homology, the retract of ``chain_map``, built on first read."""
        return _retract(self.chain_map)

    @cached_property
    def products(self) -> ProductTable:
        """The cohomology product table; its blocks fill as readers ask for them.
        Its retract and structure are the ring's own, so its transfer skips
        ``_verify_retract`` and the structure's relation check."""
        table = ProductTable(self.cochain, self.structure)
        table.proved = True
        return table

    def minimal(self, arity: int) -> Tuple[AInftyStructure, AInftyMorphism]:
        """The product table's one checked transfer, of arity at least ``arity``
        (``ProductTable.minimal``): read its m_r for r <= ``arity`` only."""
        return self.products.minimal(arity)


def build_ring(dga: DGA, aug: Augmentation) -> CohomologyRing:
    """Twist once into the adjoint structure, and take the cohomology of m_1;
    the chain homology is retracted on first read (``CohomologyRing.chain``).

    ``dga`` is validated first (``assert_valid``, a memo hit for a DGA that
    was loaded), so an invalid DGA is a ``ContractError`` before anything is
    twisted.  The twist is then dualized with no relation check, because
    the relations hold at every arity.  Over GF(2):

    * phi(g) = g + eps(g) extends to an algebra map with phi phi = id, and
      ``twist`` computes d^eps = phi d phi^-1: it substitutes q -> q + eps(q)
      into each d(g), and phi(d(phi^-1 g)) = phi(d g) since d(1) = 0.  So
      (d^eps)^2 = phi d^2 phi^-1.
    * d^2 is a derivation in characteristic 2 (the cross terms of d(d(xy))
      come in equal pairs), so ``validate_dga``'s d(d g) = 0 on every
      generator gives d^2 = 0 on every word, and (d^eps)^2 = 0.
    * ``twist`` refuses a constant term, so every word of d^eps(g) has
      length >= 1 and is a key of some m_k.
    * d^eps is a derivation, so the coefficient of x_1..x_l in
      (d^eps)^2(g) counts the words w = y.u.z of d^eps(g), u a generator,
      and words t of d^eps(u) with y.t.z = x_1..x_l.  Such a pair is one
      term of the arity-l relation sum m_(i+1+k)(1 x m_j x 1) at
      (x_1..x_l), read at g: t in m_j, w in m_(i+1+k), with i = |y|,
      j = |t| and k = |z|.  Every term of that sum is one such pair, and
      since |t| >= 1 every pair is such a term, so the two counts agree,
      and both are 0.

    So the relations hold at every arity, also above the arity that
    ``adjoint_structure`` checks, and m_1 m_1 = 0 is the case l = 1, which
    ``linear._retract`` needs of both maps (its docstring).  ``_dualize``
    still checks each word's degree, and ``twist`` the constant terms.
    """
    assert_valid(dga)
    twisted = twist(dga, aug)
    s = _dualize(twisted)
    chain_map, cochain_map = linearized_complexes(s)
    return CohomologyRing(dga, twisted, s, chain_map, _retract(cochain_map))
