"""Free unital GF(2) tensor algebras with a degree -1 differential.

Words are tuples of generator names (the empty tuple is the unit), a
polynomial is a frozenset of words (set membership = coefficient 1), and a
DGA bundles the generator order, gradings modulo a fixed modulus, and the
differential.  Modulus 0 means plain integer gradings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from . import ContractError

Word = Tuple[str, ...]
Poly = FrozenSet[Word]

ZERO: Poly = frozenset()
ONE: Poly = frozenset({()})

# Budget on the terms an elementary isomorphism may expand a differential to.
MAX_ISO_TERMS = 1 << 16

__all__ = [
    "Word",
    "Poly",
    "ZERO",
    "ONE",
    "canon_degree",
    "reduce_terms",
    "padd",
    "pmul",
    "component_k",
    "DGA",
    "ElementaryIso",
    "MAX_ISO_TERMS",
    "validate_dga",
    "assert_valid",
    "mirror_dga",
    "stabilize",
    "apply_elementary_iso",
    "iso_expansion_terms",
    "substitute",
    "leibniz",
    "diff_poly",
]


def canon_degree(modulus: int, value: int) -> int:
    """Canonical representative of a degree: in [0, modulus) unless modulus=0."""
    return value % modulus if modulus > 0 else value


def reduce_terms(terms: Iterable[Word]) -> Tuple[Poly, int]:
    """Fold a term list into a poly, cancelling duplicates in pairs.

    Returns (poly, number_of_cancelled_pairs).
    """
    terms = list(terms)
    seen = set()
    for w in terms:
        if w in seen:
            seen.discard(w)
        else:
            seen.add(w)
    cancelled = (len(terms) - len(seen)) // 2
    return frozenset(seen), cancelled


def padd(*polys: Poly) -> Poly:
    out: FrozenSet[Word] = frozenset()
    for p in polys:
        out = out ^ p
    return out


def pmul(p: Poly, q: Poly) -> Poly:
    """Product in the tensor algebra (concatenation of words, mod 2)."""
    out = set()
    for u in p:
        for v in q:
            w = u + v
            if w in out:
                out.discard(w)
            else:
                out.add(w)
    return frozenset(out)


def component_k(p: Poly, k: int) -> Poly:
    """The sub-polynomial of terms of word length exactly k."""
    if k < 0:
        raise ContractError("word length must be non-negative")
    return frozenset(w for w in p if len(w) == k)


@dataclass
class DGA:
    """Generators with gradings and a differential assignment.

    Every generator has a differential entry; absent map keys are treated
    as zero by ``d()`` so constructors may omit them.
    """

    modulus: int
    generators: Tuple[str, ...]
    degrees: Dict[str, int]
    diff: Dict[str, Poly] = field(default_factory=dict)

    def __post_init__(self):
        if self.modulus < 0:
            raise ContractError("grading modulus must be non-negative")
        if len(set(self.generators)) != len(self.generators):
            dupes = sorted({g for g in self.generators if self.generators.count(g) > 1})
            raise ContractError("duplicate generator declaration: %s" % ", ".join(dupes))
        for g in self.generators:
            if g not in self.degrees:
                raise ContractError("generator %s has no declared degree" % g)
        self.degrees = {g: canon_degree(self.modulus, self.degrees[g]) for g in self.generators}
        self.diff = {g: self.diff.get(g, ZERO) for g in self.generators}
        self.index = {g: i for i, g in enumerate(self.generators)}

    def d(self, name: str) -> Poly:
        return self.diff[name]

    def degree(self, name: str) -> int:
        return self.degrees[name]

    def word_degree(self, word: Word) -> int:
        return canon_degree(self.modulus, sum(self.degrees[g] for g in word))

    def word_key(self, word: Word):
        """Canonical sort key: length-major, then lexicographic by index."""
        return (len(word), tuple(self.index[g] for g in word))

    def sorted_terms(self, p: Poly) -> List[Word]:
        return sorted(p, key=self.word_key)

    def replace_diff(self, diff: Dict[str, Poly]) -> "DGA":
        return DGA(self.modulus, self.generators, dict(self.degrees), diff)


@dataclass
class ElementaryIso:
    """The graded algebra automorphism q_j -> q_j + u fixing all other generators."""

    target: str
    shift: Poly

    def check(self, dga: DGA) -> None:
        if self.target not in dga.index:
            raise ContractError("unknown generator %s in elementary isomorphism" % self.target)
        deg = dga.degree(self.target)
        for w in self.shift:
            if len(w) == 0:
                raise ContractError("shift of elementary isomorphism may not contain the unit")
            if self.target in w:
                raise ContractError(
                    "shift of elementary isomorphism mentions its own target %s" % self.target
                )
            for g in w:
                if g not in dga.index:
                    raise ContractError("unknown generator %s in shift" % g)
            if dga.word_degree(w) != deg:
                raise ContractError(
                    "shift term %s has degree %d, expected %d"
                    % ("".join(w) or "1", dga.word_degree(w), deg)
                )


def leibniz(dga: DGA, word: Word, diff: Optional[Dict[str, Poly]] = None) -> Poly:
    """Differential of a word: sum over letters of prefix*(d letter)*suffix."""
    table = dga.diff if diff is None else diff
    out: FrozenSet[Word] = frozenset()
    for i, g in enumerate(word):
        dg = table.get(g, ZERO)
        if not dg:
            continue
        prefix, suffix = word[:i], word[i + 1 :]
        out = out ^ frozenset(prefix + t + suffix for t in dg)
    return out


def diff_poly(dga: DGA, p: Poly, diff: Optional[Dict[str, Poly]] = None) -> Poly:
    out: FrozenSet[Word] = frozenset()
    for w in p:
        out = out ^ leibniz(dga, w, diff)
    return out


def validate_dga(dga: DGA) -> List[str]:
    """All structural and homological violations, empty list when valid."""
    problems = []
    for g in dga.generators:
        for w in dga.d(g):
            for letter in w:
                if letter not in dga.index:
                    problems.append("d %s uses undeclared generator %s" % (g, letter))
    if problems:
        return problems  # degree/d^2 checks would crash on undeclared letters
    for g in dga.generators:
        want = canon_degree(dga.modulus, dga.degree(g) - 1)
        for w in dga.d(g):
            got = dga.word_degree(w)
            if got != want:
                problems.append(
                    "d %s is not homogeneous: term %s has degree %d, expected %d"
                    % (g, "".join(w) or "1", got, want)
                )
    for g in dga.generators:
        square = diff_poly(dga, dga.d(g))
        if square:
            term = dga.sorted_terms(square)[0]
            problems.append(
                "d(d %s) != 0 (e.g. surviving term %s)" % (g, "".join(term) or "1")
            )
    return problems


# Contents (``dga_key``) that passed ``validate_dga``, least recently used first out.
# A command reads a DGA and at most its mirror; each entry keeps a DGA's terms alive.
_VALIDATED: "OrderedDict[tuple, bool]" = OrderedDict()
_VALIDATED_SIZE = 4


def assert_valid(dga: DGA, key: Optional[tuple] = None) -> None:
    """Raise ``ContractError`` listing the problems of an invalid DGA.  A content
    (``dga_key``, passed as ``key`` if already computed) that passed is not
    validated again; failures are not remembered."""
    key = dga_key(dga) if key is None else key
    if key in _VALIDATED:
        _VALIDATED.move_to_end(key)
        return
    problems = validate_dga(dga)
    if problems:
        raise ContractError("invalid DGA: " + "; ".join(problems))
    _VALIDATED[key] = True
    if len(_VALIDATED) > _VALIDATED_SIZE:
        _VALIDATED.popitem(last=False)


def dga_key(dga: DGA) -> tuple:
    """Hashable content fingerprint (for caching derived computations); each
    differential stays a frozenset, whose hash Python caches, so nothing is sorted."""
    return (
        dga.modulus,
        dga.generators,
        tuple(dga.degrees[g] for g in dga.generators),
        tuple(frozenset(dga.d(g)) for g in dga.generators),
    )


def mirror_dga(dga: DGA) -> DGA:
    """Letter-reverse every differential word (the Legendrian mirror)."""
    diff = {g: frozenset(w[::-1] for w in p) for g, p in dga.diff.items()}
    return dga.replace_diff(diff)


def stabilize(dga: DGA, degree: int, names: Optional[Tuple[str, str]] = None) -> DGA:
    """Adjoin a cancelling pair e1, e2 with |e1| = degree and d e1 = e2."""
    if names is None:
        suffix = ""
        k = 0
        while ("e1" + suffix) in dga.index or ("e2" + suffix) in dga.index:
            k += 1
            suffix = "_%d" % k
        names = ("e1" + suffix, "e2" + suffix)
    e1, e2 = names
    if e1 == e2:
        raise ContractError("stabilization names must be distinct")
    for name in names:
        if name in dga.index:
            raise ContractError("stabilization name %s collides with a generator" % name)
    degrees = dict(dga.degrees)
    degrees[e1] = canon_degree(dga.modulus, degree)
    degrees[e2] = canon_degree(dga.modulus, degree - 1)
    diff = dict(dga.diff)
    diff[e1] = frozenset({(e2,)})
    diff[e2] = ZERO
    return DGA(dga.modulus, dga.generators + (e1, e2), degrees, diff)


def substitute(p: Poly, images: Dict[str, Poly]) -> Poly:
    """Apply the algebra map sending each listed letter to its image poly."""
    out: Set[Word] = set()
    for w in p:
        acc = ONE
        for g in w:
            acc = pmul(acc, images.get(g, frozenset({(g,)})))
        out.symmetric_difference_update(acc)
    return frozenset(out)


def iso_expansion_terms(dga: DGA, iso: ElementaryIso) -> int:
    """Predicted term count of the differential rewritten by ``iso``.

    Substituting q -> q + u multiplies a word's term count by (1 + |u|) per
    occurrence of q, before anything cancels, so repeated shifts grow
    exponentially.
    """
    width = 1 + len(iso.shift)
    return sum(
        width ** sum(1 for letter in w if letter == iso.target)
        for g in dga.generators
        for w in dga.d(g)
    )


def apply_elementary_iso(dga: DGA, iso: ElementaryIso) -> DGA:
    """Pushforward differential phi o d o phi^{-1} (phi is its own inverse).

    Raises ContractError, before expanding anything, when the predicted
    term count exceeds ``MAX_ISO_TERMS``.
    """
    iso.check(dga)
    predicted = iso_expansion_terms(dga, iso)
    if predicted > MAX_ISO_TERMS:
        raise ContractError(
            "elementary isomorphism on %s would expand the differential to %d terms,"
            " over the budget MAX_ISO_TERMS = %d" % (iso.target, predicted, MAX_ISO_TERMS)
        )
    image = frozenset({(iso.target,)}) ^ iso.shift
    images = {iso.target: image}
    diff = {}
    for g in dga.generators:
        if g == iso.target:
            # d'(q_j) = phi(d(q_j + u)); u avoids q_j so d' and phi o d agree on u
            source = dga.d(g) ^ diff_poly(dga, iso.shift)
        else:
            source = dga.d(g)
        diff[g] = substitute(source, images)
    return dga.replace_diff(diff)
