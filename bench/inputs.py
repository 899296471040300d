"""Seeded job streams for the four benchmark workloads.

A job is one ``legch`` CLI command on one generated ``.dga`` file.  Every
file is a *disguise* of a bundled family member (its *base*): the base
plus nonzero-degree stabilizations, then elementary isomorphisms
``q -> q + u`` whose shift ``u`` is a sum of two-letter words in
nonzero-degree generators.  Such a shift vanishes under every
augmentation and has no linear part after twisting, so the disguise keeps
the augmentations (and their enumeration order) and the linearized
complexes of the base, plus one acyclic summand per stabilization.  That
is what lets the base's own output serve as each job's reference.

This module does its algebra itself (only ``legch.families`` is used, to
build the bases), so the inputs do not change when the library does.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

Word = Tuple[str, ...]
Poly = FrozenSet[Word]

STAB_DEGREES = (-3, -2, -1, 1, 2, 3)
ISOS_PER_JOB = 4
ISO_TRIES = 60
# Substituting q -> q + u multiplies a word's term count by (1 + |u|) per
# occurrence of q, so each disguise caps its growth over the base.
EXTRA_TERMS = 40
EXTRA_WORD_LENGTH = 2


@dataclass(frozen=True)
class Presentation:
    """A DGA as plain data: grading modulus, generators in order, differential."""

    modulus: int
    generators: Tuple[str, ...]
    degrees: Dict[str, int]
    diff: Dict[str, Poly]

    def d(self, g: str) -> Poly:
        return self.diff.get(g, frozenset())

    def terms(self) -> int:
        return sum(len(p) for p in self.diff.values())

    def max_word_length(self) -> int:
        return max((len(w) for p in self.diff.values() for w in p), default=0)

    def text(self) -> str:
        """The ``.dga`` file, with terms in a fixed order."""
        lines = ["modulus %d" % self.modulus]
        lines += ["gen %s %d" % (g, self.degrees[g]) for g in self.generators]
        for g in self.generators:
            if self.d(g):
                words = sorted(self.d(g), key=lambda w: (len(w), w))
                lines.append("d %s = %s" % (g, " + ".join(" ".join(w) or "1" for w in words)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Base:
    """A family member, optionally stabilized in degree 0 to multiply its augmentations."""

    family: str
    params: Tuple[int, ...] = ()
    degree0_stabs: int = 0

    @property
    def name(self) -> str:
        label = "%s(%s)" % (self.family, ",".join(map(str, self.params)))
        return label + ("+%ds0" % self.degree0_stabs if self.degree0_stabs else "")

    def build(self) -> Presentation:
        from legch.families import FamilyGradingWarning, generate_family

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FamilyGradingWarning)
            dga = generate_family(self.family, self.params)
        p = Presentation(dga.modulus, dga.generators, dict(dga.degrees), dict(dga.diff))
        for i in range(1, self.degree0_stabs + 1):
            p = stabilize(p, 0, "p%d" % i, "q%d" % i)
        return p


@dataclass(frozen=True)
class Spec:
    """One kind of job: a command with its options on a base."""

    base: Base
    argv: Tuple[str, ...]
    stabs: int

    @property
    def name(self) -> str:
        return "%s %s" % (" ".join(self.argv), self.base.name)


@dataclass(frozen=True)
class Job:
    spec: Spec
    text: str


def _specs(command: Sequence[str], stabs: int, bases: Sequence[Base]) -> List[Spec]:
    return [Spec(b, tuple(command), stabs) for b in bases]


CUPEX_137 = Base("cupex", (1, 3, 7))
MASSEYEX_1_4_9_20 = Base("masseyex", (1, 4, 9, 20))
TREFOIL = Base("trefoil")

QUICK_COMMANDS = (
    ("validate",),
    ("augs",),
    ("linhom",),
    ("ring",),
    ("massey", "--classes", "0:1,0:1,0:1"),
    ("duality",),
    ("report",),
)

# Every spec runs equally often, so in a run of whole rounds the median and
# the p75 job each fall at a fixed rank.  The specs are chosen so that these
# ranks lie inside groups of specs of similar cost, not at a gap between two
# costs, where the figure would jump from run to run: two or three cheap
# specs, then a group of similar ones holding both ranks, or one holding
# the median and one holding p75.
WORKLOADS: Dict[str, List[Spec]] = {
    "mirror": _specs(
        ("compare-mirror",),
        2,
        [
            CUPEX_137,
            Base("cupex", (2, 5, 9)),
            Base("trefoil", (), 1),
            Base("masseyex", (1, 2, 3, 4)),
            Base("masseyex", (2, 3, 5, 9)),
            Base("masseyex", (1, 3, 6, 12)),
            Base("masseyex", (2, 3, 5, 8)),
            MASSEYEX_1_4_9_20,
        ],
    ),
    # One stabilization keeps |V| of the dense-side inputs (11, 13 and 23)
    # and of the perturbation-side ones (27 to 37) on the sides of the auto
    # engine threshold (|V| <= 26 at n = 3) that their bases are on.
    "ordern": _specs(
        ("ordern", "--n", "3"),
        1,
        [
            Base("trefoil", (), 2),
            Base("trefoil", (), 3),
            Base("cupex", (1, 2, 3)),
            Base("cupex", (1, 2, 4)),
            Base("masseyex", (1, 1, 1, 1)),
            Base("cupex", (2, 3, 5)),
            Base("cupex", (1, 1, 2)),
            CUPEX_137,
        ],
    ),
    "minimal": _specs(
        ("minimal", "--arity", "5"), 2, [TREFOIL, Base("trefoil", (), 1), Base("trefoil", (), 2)]
    )
    + _specs(
        ("minimal", "--arity", "4"),
        2,
        [
            Base("cupex", (1, 2, 3)),
            CUPEX_137,
            Base("cupex", (2, 3, 5)),
            Base("cupex", (1, 1, 2)),
            Base("masseyex", (1, 2, 3, 4)),
        ],
    ),
    "quick": [
        spec
        for command in QUICK_COMMANDS
        for spec in _specs(command, 2, [TREFOIL, Base("trefoil", (), 2), Base("trefoil", (), 3)])
    ],
}


def _leibniz(p: Presentation, word: Word) -> Poly:
    out: set = set()
    for i, g in enumerate(word):
        for t in p.d(g):
            out ^= {word[:i] + t + word[i + 1 :]}
    return frozenset(out)


def _substitute(poly: Poly, target: str, image: Poly) -> Poly:
    out: set = set()
    for word in poly:
        for parts in product(*(image if g == target else ((g,),) for g in word)):
            out ^= {sum(parts, ())}
    return frozenset(out)


def stabilize(p: Presentation, degree: int, e1: str, e2: str) -> Presentation:
    """Adjoin a cancelling pair with |e1| = degree and d e1 = e2."""
    degrees = dict(p.degrees, **{e1: degree, e2: degree - 1})
    return Presentation(p.modulus, p.generators + (e1, e2), degrees, dict(p.diff, **{e1: frozenset({(e2,)})}))


def elementary_iso(p: Presentation, target: str, shift: Poly) -> Presentation:
    """Conjugate the differential by q -> q + u; the map is its own inverse."""
    image = frozenset({(target,)}) | shift
    diff = {}
    for g in p.generators:
        source = p.d(g)
        if g == target:
            extra: set = set()
            for w in shift:
                extra ^= _leibniz(p, w)
            source = source ^ frozenset(extra)
        if source:
            diff[g] = _substitute(source, target, image)
    return Presentation(p.modulus, p.generators, p.degrees, diff)


def _predicted_terms(p: Presentation, target: str, width: int) -> int:
    return sum(width ** w.count(target) for poly in p.diff.values() for w in poly)


def _fresh_name(rng: random.Random, prefix: str, taken) -> str:
    while True:
        name = "%s%d" % (prefix, rng.randrange(10000))
        if name not in taken:
            return name


def disguise(rng: random.Random, base: Presentation, stabs: int) -> Presentation:
    """The base plus ``stabs`` stabilizations and up to ISOS_PER_JOB isomorphisms."""
    term_cap = base.terms() + EXTRA_TERMS
    length_cap = base.max_word_length() + EXTRA_WORD_LENGTH
    p = base
    for _ in range(stabs):
        e1 = _fresh_name(rng, "s", p.degrees)
        e2 = _fresh_name(rng, "u", set(p.degrees) | {e1})
        p = stabilize(p, rng.choice(STAB_DEGREES), e1, e2)
    letters = [g for g in p.generators if p.degrees[g] != 0]
    applied = 0
    for _ in range(ISO_TRIES):
        if applied == ISOS_PER_JOB:
            break
        target = rng.choice(p.generators)
        want = p.degrees[target]
        pairs = [
            (a, b)
            for a in letters
            for b in letters
            if target not in (a, b) and p.degrees[a] + p.degrees[b] == want
        ]
        if not pairs:
            continue
        shift = frozenset(rng.sample(pairs, min(len(pairs), rng.randint(1, 2))))
        if _predicted_terms(p, target, 1 + len(shift)) > term_cap:
            continue
        q = elementary_iso(p, target, shift)
        if q.terms() <= term_cap and q.max_word_length() <= length_cap:
            p = q
            applied += 1
    return p


def rounds(workload: str, seed: int, bases: Dict[Base, Presentation]) -> Iterator[List[Job]]:
    """Endless rounds; each runs every spec of the workload once, in a seeded order.

    No two jobs of one stream have the same input text.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    specs = WORKLOADS[workload]
    seen = set()
    while True:
        order = list(specs)
        rng.shuffle(order)
        batch = []
        for spec in order:
            text = disguise(rng, bases[spec.base], spec.stabs).text()
            while text in seen:
                text = disguise(rng, bases[spec.base], spec.stabs).text()
            seen.add(text)
            batch.append(Job(spec, text))
        yield batch


def inputs_sha256(batches: Sequence[Sequence[Job]]) -> str:
    """Digest of the job stream: commands and input files, in order."""
    h = hashlib.sha256()
    for batch in batches:
        for job in batch:
            h.update(("%s\n%s\0" % (" ".join(job.spec.argv), job.text)).encode())
    return h.hexdigest()
