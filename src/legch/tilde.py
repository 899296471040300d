"""Truncated bar complexes and order-n linearized cohomology.

The order-n complex of an A-infinity structure is spanned by tensor words
of length 1..n; the differential applies every operation m_j to every
window of consecutive letters.  Outputs never exceed the length bound, so
no truncation happens on this side.  Dually, the tensor algebra truncated
at word length n carries the Leibniz expansion of the twisted differential
with long words dropped; the two matrices must be transposes of each
other, and ``order_n_cohomology`` asserts that entry for entry on every
run before reducing.

Two engines are available, and both are one construction, the window
matrix, applied to two structures: the dense engine builds it on the adjoint
structure itself, over words of generators; the perturbation engine
builds it on the ring's transferred minimal model, over words of
cohomology classes (Perturbation, below).  Either way its d d = 0 is read
from that structure's A-infinity relations up to arity n (Square zero),
and the dimensions are dim_k = |basis_k| - rank d_k - rank d_(k-1), read
off ranks with no word labels; the homology retract of the order-n
complex, with labelled representatives, is built only on demand.

The transpose check and the window matrix are built from (letter, term)
triples instead of expanding word by word.  Index both matrices by a
column word w and a row word v (Leibniz: w -> v, window: v -> w).  Then:

* Triples.  The Leibniz image of w is the sum over positions of
  w[:i] . d(w[i]) . w[i+1:], long words dropped, so the (w, v) entry is
  the parity of the triples (h, (g, t), tl) with w = h.g.tl, v = h.t.tl,
  t a term of the twisted d(g) and |h| + |t| + |tl| <= n.  The window
  image of v is the sum over windows v[i:i+j] = t of v[:i] . m_j(t) .
  v[i+j:], so its (w, v) entry is the parity of the same shape of triple
  with g in m_|t|(t) and |v| <= n.  Both sides are therefore GF(2) sums
  of triples; twisted differentials have no constant term, so |t| >= 1
  and every column word has length |h| + 1 + |tl| <= n.
* Codes.  A word of length L over |V| letters codes as off[L] plus its
  base-|V| value, off[L] = |V| + ... + |V|^(L-1): a bijection onto
  [0, M), M the number of words, increasing in the canonical
  length-major lexicographic order; ``_Words`` is that word space, the
  only one built, with its degree groups and spelled words.  An entry
  codes as col * M + row.
  For fixed (g, t, |h|, |tl|) the row word codes as r0 + H |V|^(|t|+|tl|)
  + Z and the column word as c0 + H |V|^(|tl|+1) + Z over the base-|V|
  values H of the head and Z of the tail: a fixed head runs both through
  contiguous ranges of tails, a fixed tail both through progressions of
  heads, and distinct (H, Z) give distinct words.  So each head (or tail)
  XORs one slice of column-word bits into one slice of row-word columns,
  the GF(2) sum of those triples.
* Pairs.  Write F(P) for the GF(2) sum of the triples of a set P of
  pairs (g, t), |t| <= n: F is linear in P (symmetric difference), the
  Leibniz matrix is F(P_Leibniz) and the window matrix F(P_window).  F is
  injective: a triple with a one-letter column word g has h and tl empty,
  so the (g, t) entry of F(Q) is 1 exactly when (g, t) is in Q.  So the
  matrices are equal exactly when the pair sets are.  These are the pairs
  with |t| <= n of the full sets (every term of d(g), every table entry),
  so equal full sets give equal matrices at every order.
  ``check_order_n_transpose`` proves them equal once per ring, in one pass
  over the terms of the twisted differential and no set built
  (``_TwistedPairs``): each term t of d(g) is nonempty, has degree
  deg g - 1 and holds g's bit, its place in the basis of its degree, in
  the table vector of t, so (g, t) is a window pair and P_Leibniz lies in
  P_window; and the terms are as many as the set bits of all table
  vectors, which is |P_window|, as each bit is one pair (the labels are
  unique).  So the sets are equal; that also rejects a one-sided pair
  longer than n.  Only on a failure are the tables scanned for the
  window-only pairs, to name the smallest differing pair in code order
  (letter, term length, term); one-letter columns code first, so with
  |t| <= n it is the smallest differing entry of the matrices.  Reversal
  conjugation maps the triple h.g.tl -> h.t.tl to rev tl.g.rev h ->
  rev tl.rev t.rev h, so rev d rev = F(rev P) with rev P = {(g, rev t)},
  and rev d rev = d_mirror holds on every word of length <= n exactly
  when it holds on the one-letter words; the fingerprint's mirror
  derivation rests on this (``fingerprint.compare_mirror``), and the
  tests check it on the one-letter words against a word-by-word
  expansion.  Neither argument uses |t| >= 1.
* Count.  The nonzero entries of F(P) are counted from P alone.  Let
  W(k) = sum_{m=0..k} (m + 1) |V|^m, the (head, tail) pairs with
  |h| + |tl| <= k.  An entry carrying c triples is nonzero when c is odd,
  and [c odd] = sum_{k>=1} (-2)^(k-1) C(c, k) (expand (1 - 2)^c), so the
  count sums (-2)^(k-1) over the k-sets of triples on a common entry.
  k = 1 gives sum_P W(n - |t|).  Triples on one entry share its row
  length, so |t| = L for all of them.  Two at column positions i < j are
  (h, (g, t), u.g'.tl') and (h.g.u, (g', t'), tl') with t.u.g' = g.u.t'
  for the middle word u: a core, with column cc = g.u.g' and row
  rc = t.u.g', the entry being (h.cc.tl, h.rc.tl) for any h, tl with
  |h| + |rc| + |tl| <= n.  A k-set, k >= 2, is its outermost two triples
  (a core, a head and a tail) plus any subset of the other positions of
  cc carrying a triple of (cc, rc); with s such positions in all, the
  subsets add -2 (1 - 2)^(s - 2) = -2 (-1)^s.  Hence
      count = sum_P W(n - |t|) - 2 sum_cores (-1)^s W(n - |rc|).
  Cores: t.u.g' = g.u.t' forces t[0] = g.  For L >= 2, X = t.u.g' has
  X[1 + i] = X[L + i] for i < |u|, so X[1:] has period L - 1: u and t'
  less its last letter g' are rotations of t[1:] fixed by |u|, and only
  (g', t') is looked up in P.  For L = 1 the pairs are (g, (g)) and
  (g', (g')), which need deg g = deg g - 1, a modulus-1 grading; then
  cc = rc = g.u.g' with u free and s the number of letters of cc in
  S = {g : (g, (g)) in P}.  With sigma = |S|, the u of length m add
  sigma^2 (|V| - 2 sigma)^m, so these cores give
  -2 sigma^2 sum_{m=0..n-2} (|V| - 2 sigma)^m W(n - m - 2).
  So the count reads P through three things only: its number of pairs
  per term length; the pairs (g, t) with t[0] = g or t[-1] = g, which hold
  every core's outer pairs and S; and membership of a core's other pairs,
  t' in d(g').  The pass of Pairs records the first two on its way, so
  ``check_order_n_transpose`` returns the count on every call with no
  second scan of P.
* Homogeneity.  By additivity of degree, deg(h.t.tl) - deg(h.g.tl) =
  deg t - deg g, so every output word has degree one below its column
  word exactly when every contributing pair has deg t = deg g - 1.  Each
  pair with |t| <= n contributes the uncancelled entry (g, t) itself
  (see Pairs), so checking once per pair is equivalent to checking every
  output word.
* Perturbation.  Let (i, p, h) be the homology retract of (V, m_1).  The
  tensor trick contracts the order-n complex of (V, m_1) onto words of
  classes with the homotopy sum_r (i p)^(x r) x h x 1 (heads i p, the
  middle h, an identity tail).  The windows with j >= 2 shorten words, so
  the perturbation lemma's series terminates, and the perturbed
  differential is the bar differential of the structure transferred
  along (i, p, h), truncated at length n (Kadeishvili 1980;
  Huebschmann-Kadeishvili 1991; Markl 2006, Transferring A-infinity
  structures).  So the perturbation engine is the window matrix of the
  ring's one transfer, ``ring.minimal(max(n, 2))``, whose arity may lie
  above n: a window of more than n letters fits no word of the order-n
  space, so the matrix keeps the terms with |t| <= n, those of a transfer
  to max(n, 2).  Its d d = 0 is the minimal model's A-infinity relations
  up to arity n (Square zero).  The transfer's own check reads one arity
  further, up to max(n, 2) + 1, the first relation that reads mu_n, so
  the relations on every mu_r the window reads, mu_2's associativity
  among them, hold before it is built.
  The transfer checks its mu_2 against the cup product; (i, p, h) is the
  ring's own retract, a strong deformation retract by construction
  (``linear._retract``).
* Square zero.  The window differential only shortens words, so nothing
  is truncated.  A term of d d(w) applies a window W1 of w, then a window
  of the result.  If that second window misses W1's output letter, it is
  a window W2 of w disjoint from W1, and applying W2 first gives the same
  word: these terms cancel in pairs over GF(2).  Every output is one
  letter, so each other term is h.m(x, m(W1), y).tl with W = x.W1.y a
  window of w = h.W.tl.  Hence d d(w) is the sum over windows W of w of
  h.R(W).tl, R the arity-|W| relation sum m(1 x m x 1).  Only W = w gives
  a one-letter word, so the one-letter part of d d(w) is R(w), and d d =
  0 on words of length <= n exactly when R_l = 0 for every l <= n.
  ``_window_matrix``, behind both engines and ``tilde_complex``, decides
  that on the tables with ``check_an_relations(s, n)``.  The adjoint
  structure of a ring from ``build_ring`` satisfies the relations at every
  arity (proof there); the check stays for every structure handed in, the
  minimal model and a ring assembled by hand among them.  That is the
  only d d = 0 check on a window matrix: ``linear._retract`` reduces it
  without squaring it again.
* Filtration.  No window lengthens a word: the window image of v is a sum
  of words of length |v| - |t| + 1 <= |v|.  So for m <= n the words of
  length <= m span a subcomplex of the order-n complex, and it is the
  order-m complex: a word of length <= m has the same windows, all of
  length <= m, in both, so its column in the order-n matrix is its
  column in the order-m one, and lies in the same span.  Codes are
  length-major, so those words are a prefix of each degree group, of
  c_k(m) words, the codes below off[m + 1].  The rank of the first c
  columns of a degree does not depend on the columns after them, so one
  elimination in code order, its rank read at each cut c_k(1) <= .. <=
  c_k(n), gives dim_k = c_k(m) - rank d_k - rank d_(k-1) at every order
  m <= n from the one order-n matrix; its d d = 0 (the relations up to
  arity n) covers every lower order's, since its lower blocks are theirs.
* Clearing.  The degree blocks are reduced in ascending degree, and
  before d_k is reduced every column whose place is the pivot of a row
  stored while reducing the block before it is skipped (the twist of
  Chen-Kerber, Persistent homology computation with a twist, 2011;
  Bauer-Kerber-Reininghaus, Clear and Compress, 2014).  The block before
  d_k is d_(k-1), unless no word has degree k - 1: then it maps into
  that empty degree, so it is zero and stores no row.  Columns run in
  code order and a pivot sits on the highest set bit, the largest place,
  so a row R stored while reducing d_(k-1), a combination of its
  columns, is e_i plus places below i.  d_k R = 0 (d d = 0, which
  ``_window_matrix`` asserts on both engines through
  ``check_an_relations(s, n)`` before it returns), so column i of d_k
  lies in the span of the columns before it, and dropping it changes no
  prefix rank; by induction neither does dropping several.  Every cut
  c_k(m) is a prefix, so column i lies inside every cut above i and
  outside every other: the ranks at every cut, and so ``orders`` at
  every m <= n, are those of the full blocks.  With a cyclic grading the
  first degree reduced has its degree below reduced last, so it is not
  cleared.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, groupby, product as iproduct
from operator import xor
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import ContractError, InternalConsistencyError, check_budget
from .algebra import DGA, assert_valid, canon_degree
from .ainfty import AInftyStructure, CohomologyRing, _check_relation_budget, check_an_relations
from .gf2 import prefix_ranks
from .linear import GradedMatrixMap, HomologyData, _retract

__all__ = [
    "DENSE_LIMIT",
    "MAX_ORDER",
    "MAX_WINDOW_BITS",
    "OrderNCohomology",
    "TildeComplex",
    "check_order_n_transpose",
    "order_n_cohomology",
    "tilde_complex",
]

MAX_ORDER = 4
DENSE_LIMIT = 20000
# A window matrix holds about one bit per (row word, column word) pair of a
# degree block: Σ_k |block_k|² bits over the word space's degree blocks.
MAX_WINDOW_BITS = 1 << 31


def _check_order(n: int) -> None:
    if n < 1:
        raise ContractError("order must be at least 1")
    check_budget("MAX_ORDER", MAX_ORDER, n, "order %d exceeds")


def _word_count(size: int, n: int) -> int:
    """The number of words of length 1..n over ``size`` letters."""
    return sum(size**length for length in range(1, n + 1))


def _window_bits(s: AInftyStructure, n: int) -> int:
    """Σ_k |block_k|² over the degree blocks of the order-n words, with no word
    built: a word of length 1..j+1 is a letter and then a word of length
    0..j, so each degree's word count is the letters' degree histogram (the
    basis sizes, in canonical degrees) convolved n times with the counts
    before it and the empty word."""
    letters = [(k, len(names)) for k, names in s.basis.items() if names]
    modulus, blocks = s.modulus, {}
    for _ in range(n):
        step: Dict[int, int] = {}
        for d, count in [(0, 1), *blocks.items()]:
            for e, times in letters:
                k = (d + e) % modulus if modulus else d + e  # canon_degree
                step[k] = step.get(k, 0) + count * times
        blocks = step
    return sum(size * size for size in blocks.values())


def _check_window_bits(s: AInftyStructure, n: int) -> None:
    """Refuse an order-n word space of ``s`` whose ``_window_bits`` exceed ``MAX_WINDOW_BITS``."""
    what = "order-%d words over %d letters take %d window bits, over"
    check_budget("MAX_WINDOW_BITS", MAX_WINDOW_BITS, _window_bits(s, n), what, n, len(s.order))


class _Words:
    """The order-n word space of a structure: every word of length 1..n over
    its basis letters, in ``s.order``, coded as ints (Codes, in the module
    docstring).

    A word of length L codes as ``off[L]`` plus its base-``size`` value, so
    codes 0..total-1 run through the canonical length-major lexicographic
    order.  ``groups`` holds each degree's codes, ascending, degrees in
    order of their first word; ``bit``, indexed by code, is the word's bit
    1 << (its place in its degree's group).  Words are spelled in letter
    labels only by ``spelled``.  A space whose ``_window_bits`` exceed the
    budget ``MAX_WINDOW_BITS`` is refused before any word is built.
    """

    def __init__(self, s: AInftyStructure, n: int):
        _check_window_bits(s, n)
        self.n = n
        self.labels: List[str] = sorted(s.order, key=s.order.get)
        self.index: Dict[str, int] = {lbl: i for i, lbl in enumerate(self.labels)}
        self.size = len(self.labels)
        self.off = [0] + [_word_count(self.size, length) for length in range(n + 1)]
        self.total = self.off[-1]
        letter_degrees = [s.degree_of[lbl] for lbl in self.labels]
        degree: List[int] = []
        layer = [0]
        for _ in range(n):
            layer = [d + e for d in layer for e in letter_degrees]
            degree += layer
        if s.modulus:
            degree = [d % s.modulus for d in degree]  # canon_degree
        # A stable sort keeps each degree's codes ascending.
        order = sorted(range(len(degree)), key=degree.__getitem__)
        runs = [list(codes) for _, codes in groupby(order, key=degree.__getitem__)]
        self.groups: Dict[int, List[int]] = {degree[codes[0]]: codes for codes in sorted(runs)}
        unit = [1 << i for i in range(max(map(len, runs), default=0))]
        self.bit: List[int] = [0] * self.total
        for codes in runs:
            for code, u in zip(codes, unit):
                self.bit[code] = u

    def spelled(self) -> Dict[int, Tuple[Tuple[str, ...], ...]]:
        """Each degree's words as tuples of letter labels, in code order."""
        spelled = [w for a in range(1, self.n + 1) for w in iproduct(self.labels, repeat=a)]
        return {k: tuple(spelled[c] for c in codes) for k, codes in self.groups.items()}


Pair = Tuple[str, Tuple[str, ...]]


def _code_order(s: AInftyStructure):
    """Sort key of (letter, term) pairs: letter, term length, term, in ``s.order``."""
    return lambda pair: (s.order[pair[0]], len(pair[1]), [s.order[x] for x in pair[1]])


def _check_homogeneous(s: AInftyStructure, side: str, pairs) -> None:
    """Homogeneity of every pair: deg t = deg g - 1; names the first failure in code order."""
    degree_of, modulus = s.degree_of, s.modulus

    def up(t):  # the degree of m_|t|(t)
        return canon_degree(modulus, sum(map(degree_of.__getitem__, t)) + 1)
    bad = [(g, t) for g, t in pairs if up(t) != degree_of[g]]
    if bad:
        g, t = min(bad, key=_code_order(s))
        image, source, want = (t, (g,), degree_of[g] - 1) if side == "Leibniz" else ((g,), t, up(t))
        raise InternalConsistencyError(
            "%s image %s of %s is not homogeneous of degree %d"
            % (side, "|".join(image), "|".join(source), canon_degree(modulus, want))
        )


class _TwistedPairs:
    """The (letter, term) pairs of a twisted differential, proved equal to the
    window pairs of a structure in one pass over the terms (Pairs, in the
    module docstring): each term t of d(g) is nonempty, of degree deg g - 1
    (read through ``s.out_degree``) and holds g's bit in its table vector,
    and the terms are as many as the tables' set bits.

    Iterating yields every term t of ``diff[g]`` as (g, t), letter by letter
    in ``letters`` (``s.order``); the pass also keeps the number of pairs
    per term length, ``lengths``, and the few pairs whose term begins or
    ends with its own letter, ``own``, which is all ``_entry_count`` walks.
    On a failure the tables are scanned for window-only pairs, and the
    error names, in this order, a constant term, an inhomogeneous pair of
    either side, or the smallest one-sided pair in code order (``n`` only
    names the order)."""

    def __init__(self, twisted: DGA, s: AInftyStructure, n: int):
        diff, tables, out_degree, none = twisted.diff, s.tables, s.out_degree, {}
        failing, own, terms = [], [], 0
        for k in sorted(s.basis):  # the letters in s.order, g's bit its place in its degree
            for place, g in enumerate(s.basis[k]):
                dg = diff[g]
                if () in dg:
                    what = "twisted differential of %s has a constant term"
                    raise InternalConsistencyError(what % g)
                terms += len(dg)
                for t in dg:
                    if out_degree(t) != k or not tables.get(len(t), none).get(t, 0) >> place & 1:
                        failing.append((g, t))
                    elif t[0] == g or t[-1] == g:
                        own.append((g, t))
        lengths = {j: sum(map(int.bit_count, table.values())) for j, table in tables.items()}
        if failing or terms != sum(lengths.values()):
            # the other terms passed out_degree, the same sum, so they and the
            # window pairs they are are homogeneous: _window_pairs can only
            # name an inhomogeneous window-only pair
            _check_homogeneous(s, "Leibniz", failing)
            window = [(g, t) for g, t in _window_pairs(s) if t not in diff[g]]
            g, t = min(failing + window, key=_code_order(s))
            raise InternalConsistencyError(
                "order-%d transpose equality fails: only the %s side has the entry (%s -> %s)"
                % (n, "Leibniz" if t in diff[g] else "window", g, "|".join(t))
            )
        self.diff, self.letters, self.lengths, self.own = diff, s.order, lengths, own

    def __iter__(self):
        return ((g, t) for g in self.letters for t in self.diff[g])


def _window_pairs(s: AInftyStructure) -> FrozenSet[Pair]:
    """(g, t) for every letter g in m_|t|(t), at every arity, read off the
    structure's label index ``s.hits(j)``, which the relation check reuses,
    once each is homogeneous."""
    pairs = frozenset((g, t) for j in s.tables for g, ts in s.hits(j).items() for t in ts)
    _check_homogeneous(s, "window", pairs)
    return pairs


def _xor_triples(flat: List[int], pairs, words: _Words) -> None:
    """Add over GF(2) the entry of every triple into the row words' columns.

    A pair (g, t) with a head h and a tail tl, |h| + |t| + |tl| <= n, is
    the entry of column word h.g.tl in the image of row word h.t.tl:
    ``words.bit`` of the column's code is XORed into ``flat`` at the row's code.
    For fixed (g, t, |h|, |tl|) both codes step by one per tail and by a
    fixed stride per head (Codes), so each head (or each tail, whichever
    loop is shorter) is one slice XOR.
    """
    size, n, off, bit = words.size, words.n, words.off, words.bit
    for g, t in pairs:
        lt = len(t)
        value = 0
        for x in t:
            value = value * size + x
        for a in range(n - lt + 1):
            heads = size**a
            for b in range(n - lt - a + 1):
                tails = size**b
                row, col = off[a + lt + b] + value * tails, off[a + 1 + b] + g * tails
                rstride, cstride = size**lt * tails, size * tails
                if heads >= tails:  # one slice per tail, strided over the heads
                    starts = [(row + z, col + z) for z in range(tails)]
                    count, rstep, cstep = heads, rstride, cstride
                else:  # one contiguous slice of tails per head
                    starts = [(row + h * rstride, col + h * cstride) for h in range(heads)]
                    count, rstep, cstep = tails, 1, 1
                for r, c in starts:
                    rows = slice(r, r + count * rstep, rstep)
                    flat[rows] = map(xor, flat[rows], bit[c : c + count * cstep : cstep])


def _entry_count(pairs: _TwistedPairs, size: int, n: int) -> int:
    """Nonzero entries of F(P) over ``size`` letters at order n (Count), P the
    pairs in ``pairs`` with |t| <= n.

    The triples count sum_P W(n - |t|), read off the pairs per term length;
    each core (g, t, u, g', t') takes away 2 (-1)^s W(n - |rc|), and the
    cores of one-letter terms (g, (g)) are summed in closed form.  A core's
    outer pairs begin and end with their own letters, so only those pairs
    are walked, and the others are only asked for membership.  Only
    equality and slicing of letters is used.
    """
    weights = list(accumulate((m + 1) * size**m for m in range(n + 1)))
    ends: Dict[Tuple[str, ...], List[str]] = {}  # t' less g' -> letters g' ending t'
    for g, t in pairs.own:
        if t[-1] == g and len(t) < n:
            ends.setdefault(t[:-1], []).append(g)
    count = sum(weights[n - j] * c for j, c in pairs.lengths.items() if j <= n)
    sigma = 0
    for g, t in pairs.own:
        length = len(t)
        if t[0] != g:
            continue
        if length == 1:
            sigma += 1
            continue
        rest = t[1:]
        for m in range(n - length):
            middle = tuple(rest[i % (length - 1)] for i in range(m))
            prefix = tuple(rest[(m + i) % (length - 1)] for i in range(length - 1))
            for last in ends.get(prefix, ()):
                cc = (g,) + middle + (last,)
                rc = t + middle + (last,)
                s = sum(
                    1
                    for p in range(len(cc))
                    if cc[:p] == rc[:p]
                    and cc[p + 1 :] == rc[p + length :]
                    and rc[p : p + length] in pairs.diff[cc[p]]
                )
                count -= 2 * (-1) ** s * weights[n - len(rc)]
    free = size - 2 * sigma
    count -= 2 * sigma * sigma * sum(free**m * weights[n - m - 2] for m in range(n - 1))
    return count


@dataclass
class TildeComplex:
    """Tensor words of length 1..n with the windowed differential (degree +1)."""

    structure: AInftyStructure
    order: int
    words: Dict[int, Tuple[Tuple[str, ...], ...]]
    differential: GradedMatrixMap

    def dims(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.words.items()) if v}

    def total_dim(self) -> int:
        return sum(len(v) for v in self.words.values())


def _window_matrix(
    s: AInftyStructure, words: _Words, pairs, entries: Optional[int] = None
) -> GradedMatrixMap:
    """The order-n window differential on the codes of ``words``, the word
    space of ``s``, built from the (letter, term) pairs of ``s``, which the
    caller has checked homogeneous.  Asserts d d = 0 through the A-infinity
    relations of ``s`` up to arity n (Square zero, in the module docstring)
    and, when given, the number of nonzero entries."""
    n = words.n
    prefix = "order-%d differential does not square to zero: " % n
    check_an_relations(s, n).require(InternalConsistencyError, prefix)
    code = words.index.__getitem__
    coded = [(code(g), tuple(map(code, t))) for g, t in pairs if len(t) <= n]
    flat = [0] * words.total  # by row word code: its column, over the target degree's places
    _xor_triples(flat, coded, words)
    if entries is not None:
        found = sum(map(int.bit_count, flat))
        if found != entries:
            raise InternalConsistencyError(
                "order-%d window matrix has %d nonzero entries, its pairs count %d"
                % (n, found, entries)
            )
    cols = {k: list(map(flat.__getitem__, codes)) for k, codes in words.groups.items()}
    return GradedMatrixMap(s.modulus, 1, words.groups, cols)


def _order_dims(window: GradedMatrixMap, words: _Words) -> Dict[int, Dict[int, int]]:
    """The nonzero dims of every order m <= n, by m, off the order-n window
    matrix on ``words`` (Filtration, in the module docstring): dim_k = c_k -
    r_k - r_(k-1), with c_k the words of degree k and length <= m, a prefix
    of the degree group, and r_k the rank of their columns, read at every
    cut by one elimination per degree, the degrees ascending and each
    cleared by the one below (Clearing)."""
    ends = words.off[2:]  # the words of length <= m code below off[m + 1]
    cuts = {k: [bisect_left(words.groups[k], end) for end in ends] for k in sorted(words.groups)}
    ranks = dict(zip(cuts, prefix_ranks((window.cols[k], cut) for k, cut in cuts.items())))
    orders: Dict[int, Dict[int, int]] = {m: {} for m in range(1, words.n + 1)}
    for k, cut in cuts.items():  # k - 1 is canonical but at k = 0
        below = ranks.get(k - 1) or ranks.get(window.canon(k - 1), [0] * words.n)
        for dims, c, r, b in zip(orders.values(), cut, ranks[k], below):
            if c - r - b:
                dims[k] = c - r - b
    return orders


def tilde_complex(s: AInftyStructure, n: int) -> TildeComplex:
    """Materialize the order-n complex of a structure.

    Word labels join their letters with "|".  The differential sends a word
    to the sum over all windows of consecutive letters of replacing the
    window by its operation image; its entries come from the same
    (letter, term) triples as the window side of the transpose check.
    Homogeneity and squaring to zero (through the relations up to arity
    n) are asserted.
    """
    _check_order(n)
    pairs = _window_pairs(s)
    space = _Words(s, n)
    window = _window_matrix(s, space, pairs)
    words = space.spelled()
    basis = {k: tuple("|".join(w) for w in ws) for k, ws in words.items()}
    return TildeComplex(s, n, words, replace(window, basis=basis))


def check_order_n_transpose(ring: CohomologyRing, n: int) -> int:
    """Assert the order-n differential is the Leibniz expansion's transpose.

    The tensor algebra truncated at word length n carries the Leibniz
    expansion of ``ring.twisted`` (degree -1, long outputs dropped); its
    matrix must be, entry for entry, the transpose of the window
    differential of ``ring.structure``.  They are equal exactly when their
    (letter, term) pair sets are, and equal full sets cover every order
    (Pairs, in the module docstring).  One pass over the twisted
    differential per ring (``_TwistedPairs``) proves them equal, and keeps
    what it checked as ``ring.pairs``, which the dense engine builds its
    window matrix from; a discrepancy is an internal error naming the side
    and the smallest offending pair, and ``n`` names the order in it.
    Orders above ``MAX_ORDER`` are refused.  Returns, on every call, the
    number of nonzero entries of the window matrix, in closed form from
    what the pass kept (Count): the work is over pairs and letters, never
    over words.
    """
    _check_order(n)
    if ring.pairs is None:
        ring.pairs = _TwistedPairs(ring.twisted, ring.structure, n)
    return _entry_count(ring.pairs, len(ring.structure.order), n)


@dataclass
class OrderNCohomology:
    """Graded dimensions and representatives of order-n cohomology.

    ``orders`` holds the dims of every order m <= n, by m, read off the same
    window matrix (Filtration, in the module docstring); ``dims`` is
    ``orders[n]``.

    ``engine`` records which structure's window complex was reduced:
    "dense" the adjoint structure (representatives are words of
    generators), "perturbation" the transferred minimal model (words of
    cohomology classes); ``structure`` is that structure.  ``data``, the
    homology of its complex, is rebuilt on first use through
    ``tilde_complex``, which reads and checks the structure's pairs itself
    and asserts d d = 0 through the relations (Square zero), and is reduced
    by ``linear._retract`` without squaring the matrix again;
    ``complex_dim`` is the dimension of the order-n word space of the
    generators, and ``transpose_entries`` counts the nonzero entries of the
    window matrix, which the transpose check proved equal to the Leibniz one.
    """

    order: int
    engine: str
    dims: Dict[int, int]
    complex_dim: int
    transpose_entries: int
    orders: Dict[int, Dict[int, int]]
    structure: AInftyStructure = field(repr=False, compare=False)

    @cached_property
    def data(self) -> HomologyData:
        return _retract(tilde_complex(self.structure, self.order).differential)

    def representatives(self, k: int) -> List[str]:
        return [self.data.label(k, 1 << i) for i in range(self.data.dim(k))]


def order_n_cohomology(ring: CohomologyRing, n: int, engine: str = "auto") -> OrderNCohomology:
    """Order-n linearized cohomology of the augmented DGA behind a ring.

    Always verifies the transpose equality between the window differential
    and the truncated Leibniz differential before reducing, through
    ``check_order_n_transpose``: one pass per ring over the twisted
    differential covers every order, and the window matrix's nonzero
    entries are counted on every call from what that pass kept.  The dense
    engine builds that matrix on ``ring.structure`` from the pairs the pass
    checked, ``ring.pairs``, and asserts the count; the perturbation engine
    reads and checks the pairs of the ring's one transfer
    ``ring.minimal(max(n, 2))`` and builds its window matrix from those
    with |t| <= n (Perturbation, in the module docstring).
    Either asserts d d = 0 through its structure's A-infinity relations up
    to arity n (Square zero).
    The "auto" engine is dense up to ``DENSE_LIMIT`` words of length <= n.
    Dimensions come from ranks (``_order_dims``), with no retract and no
    word labels, and those of every order m <= n come with them, as
    ``orders``, from the one matrix and one elimination (Filtration): the
    relations up to arity n cover every lower order's, and the pair check,
    the transfer's checks and the entry count are the order-n ones.  Each
    DGA's contents are validated once per process (``assert_valid``'s
    bounded memo, shared with loading).  Orders above the budget
    ``MAX_ORDER`` raise ``ContractError``.
    """
    _check_order(n)
    if engine not in ("auto", "dense", "perturbation"):
        raise ContractError("engine must be 'auto', 'dense' or 'perturbation'")
    total = _word_count(len(ring.dga.generators), n)
    if engine == "auto":
        engine = "dense" if total <= DENSE_LIMIT else "perturbation"
    assert_valid(ring.dga)
    entries = check_order_n_transpose(ring, n)
    if engine == "dense":
        structure, pairs, count = ring.structure, ring.pairs, entries
    else:
        structure, count = ring.minimal(max(n, 2))[0], None
        pairs = _window_pairs(structure)
    words = _Words(structure, n)
    orders = _order_dims(_window_matrix(structure, words, pairs, count), words)
    return OrderNCohomology(n, engine, orders[n], total, entries, orders, structure)


def _check_lower_orders(ring: CohomologyRing, n: int) -> None:
    """Refuse what the perturbation engine's loop over the orders m < n
    would refuse, with its message, before the order-n call builds the one
    window: per order, ascending, the order (``MAX_ORDER``), the ring's
    transfer to max(m, 2) with its own checks, then the window bits
    (``MAX_WINDOW_BITS``) and relation terms (``MAX_RELATION_TERMS``) of
    order m.  The order-n call then runs the checks of the loop's last
    step, in its order.  The transfer is the ring's one kept transfer,
    raised as the loop raised it; its tables up to arity m are those of a
    transfer to max(m, 2), and so are the budgets read from them."""
    for m in range(1, n):
        _check_order(m)
        s = ring.minimal(max(m, 2))[0]
        _check_window_bits(s, m)
        _check_relation_budget(s, m)
