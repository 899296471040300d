"""Free unital GF(2) tensor algebras with a degree -1 differential.

Words are tuples of generator names (the empty tuple is the unit), a
polynomial is a frozenset of words (set membership = coefficient 1), and a
DGA bundles the generator order, gradings modulo a fixed modulus, and the
differential.  Modulus 0 means plain integer gradings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import groupby
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import ContractError, assemble, check_budget

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
    "substitution_terms",
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
        """This DGA's generators and degrees with differential ``diff``, a
        generator absent from it mapping to ``ZERO`` (``twist``,
        ``mirror_dga``, ``apply_elementary_iso``).  ``__post_init__`` checks
        only the generators and their degrees, which this DGA's construction
        checked and canonicalized, so it is not run again; the copy holds
        its own ``degrees`` and ``index`` dicts."""
        diff = {g: diff.get(g, ZERO) for g in self.generators}
        degrees, index = dict(self.degrees), dict(self.index)
        return assemble(DGA, self.modulus, self.generators, degrees, diff, index=index)


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


def leibniz(dga: DGA, word: Word) -> Poly:
    """Differential of a word: sum over letters of prefix*(d letter)*suffix,
    the ``diff_poly`` of the one-word polynomial."""
    return diff_poly(dga, frozenset({word}))


def diff_poly(dga: DGA, p: Poly) -> Poly:
    """Differential of a polynomial by the Leibniz rule, each word's terms
    summed into one set over GF(2) in place: the cost is the terms added,
    linear in them, not the size of the sum."""
    out: Set[Word] = set()
    for w in p:
        for i, g in enumerate(w):
            dg = dga.diff.get(g, ZERO)
            if dg:
                prefix, suffix = w[:i], w[i + 1 :]
                out.symmetric_difference_update(prefix + t + suffix for t in dg)
    return frozenset(out)


def _undeclared(dga: DGA) -> List[str]:
    """One problem per letter of a differential word that is no generator."""
    where = ((g, x) for g in dga.generators for w in dga.d(g) for x in w if x not in dga.index)
    return ["d %s uses undeclared generator %s" % gx for gx in where]


def _inhomogeneous(dga: DGA) -> Iterator[Tuple[str, Word, int, int]]:
    """Each term w of a d g whose degree is not deg g - 1, as (g, w, its
    degree, deg g - 1), canonical; every letter must be a generator.  The
    one homogeneity scan, of ``validate_dga`` and ``adjoint_structure``."""
    degree = dga.degrees.__getitem__
    for g in dga.generators:
        want = canon_degree(dga.modulus, degree(g) - 1)
        for w in dga.d(g):
            got = canon_degree(dga.modulus, sum(map(degree, w)))
            if got != want:
                yield g, w, got, want


def validate_dga(dga: DGA) -> List[str]:
    """All structural and homological violations, empty list when valid."""
    problems = _undeclared(dga)
    if problems:
        return problems  # degree/d^2 checks would crash on undeclared letters
    for g, w, got, want in _inhomogeneous(dga):
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


def assert_valid(dga: DGA) -> None:
    """Raise ``ContractError`` listing the problems of an invalid DGA.  A content
    (``dga_key``) that passed is not validated again; failures are not remembered."""
    key = dga_key(dga)
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
    """Hashable content fingerprint (the key of the validation memo); each
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


def substitute(p: Poly, images: Dict[str, Poly], arity: Optional[int] = None) -> Poly:
    """Apply the algebra map sending each listed letter to its image poly;
    given ``arity``, cut to the words of length <= ``arity``.

    A word with no listed letter is its own image.  Any other word is
    multiplied out letter by letter: an unlisted letter is appended to each
    partial product, which keeps them distinct, and a listed letter's image
    multiplies them with ``pmul``, which cancels equal terms at once, so a
    repeated letter never multiplies terms that have cancelled (b^k under
    b -> b + 1 holds at most k + 1 terms, not 2^k).

    The arity cut.  A partial product only grows as letters are appended,
    by one per unlisted letter and by at least 0 per listed one, so every
    word it leads to is at least its length plus the unlisted letters still
    to come.  On a word longer than ``arity`` a partial product past
    ``arity`` by that count is dropped, and a word with more than ``arity``
    unlisted letters is skipped outright: neither leads to a kept word, and
    equal partial products are dropped together, so such a word gives
    exactly its image's words of length <= ``arity``.  A shorter word is
    multiplied out whole.  So the result agrees with the full image on every
    word of length <= ``arity``, and holds no longer word when no image word
    has more than one letter, as under a twist q -> q + eps(q), which never
    lengthens a word.
    """
    out: Set[Word] = set()
    for w in p:
        room = None  # the length a partial product may reach before the letters to come
        if arity is not None and len(w) > arity:
            room = arity - len(w) + sum(map(images.__contains__, w))
            if room < 0:
                continue
        if images.keys().isdisjoint(w):
            if w in out:
                out.discard(w)
            else:
                out.add(w)
            continue
        acc: AbstractSet[Word] = ONE
        for g in w:
            image = images.get(g)
            if image is None:
                letter = (g,)
                acc = {t + letter for t in acc}
                if room is not None:
                    room += 1
            else:
                acc = pmul(acc, image)
                if room is not None:
                    acc = {t for t in acc if len(t) <= room}
        out.symmetric_difference_update(acc)
    return frozenset(out)


def substitution_terms(polys: Iterable[Poly], images: Dict[str, Poly]) -> int:
    """Bound on the words ``substitute`` builds from ``polys`` before anything
    cancels: the sum over their words of the product over maximal runs g^m
    of a substituted letter of the distinct words the image's m-th power can
    hold.  With p the nonempty words of the image, that is p^m, or
    1 + p + .. + p^m when the image holds the empty word (b^m under the
    twist b -> b + 1 gives m + 1), so repeated substitutions grow
    exponentially.
    """
    total = 0
    for p in polys:
        for w in p:
            terms = 1
            if not images.keys().isdisjoint(w):
                for g, run in groupby(w):
                    image = images.get(g)
                    if image is not None:
                        m = sum(1 for _ in run)
                        width = len(image) - (() in image)
                        terms *= sum(width**j for j in range(m + 1)) if () in image else width**m
            total += terms
    return total


def iso_expansion_terms(dga: DGA, iso: ElementaryIso) -> int:
    """Predicted term count of the differential rewritten by ``iso``: q -> q + u
    multiplies a word's count by (1 + |u|) per occurrence of q."""
    image = frozenset({(iso.target,)}) ^ iso.shift
    return substitution_terms(dga.diff.values(), {iso.target: image})


def apply_elementary_iso(dga: DGA, iso: ElementaryIso) -> DGA:
    """Pushforward differential phi o d o phi^{-1} (phi is its own inverse).

    Raises ContractError, before expanding anything, when the predicted
    term count exceeds ``MAX_ISO_TERMS``.
    """
    iso.check(dga)
    what = "elementary isomorphism on %s would expand the differential to %d terms, over"
    check_budget("MAX_ISO_TERMS", MAX_ISO_TERMS, iso_expansion_terms(dga, iso), what, iso.target)
    images = {iso.target: frozenset({(iso.target,)}) ^ iso.shift}
    diff = {}
    for g in dga.generators:
        if g == iso.target:
            # d'(q_j) = phi(d(q_j + u)); u avoids q_j so d' and phi o d agree on u
            source = dga.d(g) ^ diff_poly(dga, iso.shift)
        else:
            source = dga.d(g)
        diff[g] = substitute(source, images)
    return dga.replace_diff(diff)
