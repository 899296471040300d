"""Command-line interface.

Every report-producing command accepts ``--format text|structured``; the
two renderings differ only in the key/value separator (": " vs " = "),
and rows are emitted in a fixed deterministic order: augmentations by
enumeration index, degrees ascending, classes by canonical basis.  The
``mirror`` and ``family`` commands emit DGA files instead of reports.

Each report command is a function from parsed arguments to its rows;
``build_parser`` binds it to ``emit_report``, the one renderer, and puts
the per-augmentation preamble (``_on_ring``) before the six commands that
read one ring.  A command does all its fallible work before it returns,
handing the per-augmentation rows of ``augs``, ``report`` and
``compare-mirror`` over as a generator, so stdout stays empty on every
error and those rows are never held in one list.

Exit codes: 0 success, 1 contract violation (bad input, bad flags) or a
closed stdout pipe, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from itertools import chain, count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .ainfty import (
    CohomologyRing,
    HClass,
    build_ring,
    check_ainfty_morphism,
    check_massey_budget,
    massey_higher,
)
from .algebra import DGA, assert_valid, mirror_dga, validate_dga
from .augment import Augmentations, enumerate_augmentations, per_twist
from .families import FamilyGradingWarning, generate_family
from .fileio import parse_dga, serialize_dga
from .fingerprint import (
    DEFAULT_MASSEY_ORDER,
    DEFAULT_ORDER_CAP,
    AugmentationProfile,
    compare_mirror,
)
from .linear import duality_search, vector_label
from .tilde import order_n_cohomology

__all__ = ["main", "build_parser"]

NO_AUGMENTATIONS = "no augmentations; linearization unavailable"

Row = Tuple[str, str]
Rows = List[Row]


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors follow our exit-code contract."""

    def error(self, message):
        raise ContractError(message)


def emit_report(rows: Iterable[Row], fmt: str) -> None:
    """Render key/value rows on stdout, line by line; both formats are
    deterministic and stable."""
    sep = " = " if fmt == "structured" else ": "
    sys.stdout.writelines("%s%s%s\n" % (key, sep, value) for key, value in rows)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError("cannot read %s: %s" % (path, exc))


def _parse(path: str) -> Tuple[DGA, Rows]:
    """Parse a DGA file; its parse warnings become the first rows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dga = parse_dga(_read_text(path))
    return dga, [("warning.%d" % i, str(w.message)) for i, w in enumerate(caught)]


def _load(path: str) -> Tuple[DGA, Rows]:
    """Parse and validate a DGA file; its parse warnings become the first rows."""
    dga, rows = _parse(path)
    assert_valid(dga)
    return dga, rows


def _enumerate(dga: DGA, rows: Rows) -> Augmentations:
    """Every augmentation, with the ``augmentations`` count (and the note when
    there is none) appended to ``rows``."""
    augs = enumerate_augmentations(dga)
    rows.append(("augmentations", str(len(augs))))
    if not augs:
        rows.append(("note", NO_AUGMENTATIONS))
    return augs


def _on_ring(command):
    """The preamble of the per-augmentation commands: load and validate, pick
    ``--aug``, build its ring, then the ``augmentation`` row and the rows of
    ``command(ring, args)``."""

    def run(args) -> Rows:
        dga, rows = _load(args.file)
        augs = enumerate_augmentations(dga)
        if not augs:
            raise ContractError(NO_AUGMENTATIONS)
        if args.aug < 0 or args.aug >= len(augs):
            raise ContractError(
                "augmentation index %d out of range; there are %d" % (args.aug, len(augs))
            )
        aug = augs[args.aug]
        ring = build_ring(dga, aug)
        return rows + [("augmentation", aug.describe())] + command(ring, args)

    return run


def _label(h, degree: int, coords: int) -> str:
    return h.label(degree, coords) if coords else "0"


def _dims_rows(prefix: str, dims: Dict[int, int]) -> Rows:
    return [("%s.%d" % (prefix, k), str(dims[k])) for k in sorted(dims) if dims[k]]


def _product_rows(ring: CohomologyRing) -> Rows:
    """Nonzero cup products of basis classes, keyed product.X.Y: the class rows
    of the pair blocks on the product table's support, where every nonzero
    product lies (``ProductTable``)."""
    h = ring.cochain
    return [
        ("product.%s.%s" % (h.label(r, 1 << i), h.label(s, 1 << j)), h.label(block.degree, v))
        for r, s in ring.products.support
        for block in [ring.products.pair(r, s)]
        for i, row in enumerate(block.coords)
        for j, v in enumerate(row)
        if v
    ]


def cmd_validate(args) -> Rows:
    dga, rows = _parse(args.file)
    findings = validate_dga(dga)
    rows.append(("generators", str(len(dga.generators))))
    rows.append(("modulus", str(dga.modulus)))
    rows.append(("valid", "yes" if not findings else "no"))
    return rows + [("finding.%d" % i, finding) for i, finding in enumerate(findings)]


def cmd_augs(args) -> Iterable[Row]:
    dga, rows = _load(args.file)
    augs = _enumerate(dga, rows)
    return chain(rows, (("augmentation.%d" % i, row) for i, row in enumerate(augs.descriptions())))


def cmd_linhom(ring: CohomologyRing, args) -> Rows:
    return [
        *_dims_rows("cohomology.dim", ring.cochain.dims()),
        ("cohomology.total", str(ring.cochain.total_dim())),
        *_dims_rows("homology.dim", ring.chain.dims()),
        ("homology.total", str(ring.chain.total_dim())),
    ]


def cmd_ring(ring: CohomologyRing, args) -> Rows:
    h = ring.cochain
    basis = [
        ("basis.%d" % k, " ".join(h.label(k, 1 << i) for i in range(h.dim(k))))
        for k in h.degrees()
    ]
    return basis + _product_rows(ring)


def _parse_classes(h, spec: str) -> List[HClass]:
    classes = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ContractError("empty class in --classes")
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ContractError(
                "class %r is not DEGREE:MASK (e.g. 0:1 for the first basis class)"
                % chunk
            )
        try:
            degree, mask = int(parts[0]), int(parts[1])
        except ValueError:
            raise ContractError("class %r is not DEGREE:MASK with integers" % chunk)
        degree = h.canon(degree)
        if mask <= 0 or mask >= (1 << h.dim(degree)):
            raise ContractError(
                "mask %d is not a nonzero vector in degree %d (dim %d)"
                % (mask, degree, h.dim(degree))
            )
        classes.append(HClass(degree, mask))
    return classes


def cmd_massey(ring: CohomologyRing, args) -> Rows:
    h = ring.cochain
    classes = _parse_classes(h, args.classes)
    if len(classes) < 3:
        raise ContractError("Massey products need at least 3 classes")
    if len(classes) == 3:
        result = ring.products.massey(*classes)
    else:
        check_massey_budget(h, [([c.degree for c in classes], 1)])
        result = massey_higher(ring.minimal(len(classes))[0], classes)
    rows = [
        ("classes", ", ".join(_label(h, c.degree, c.coords) for c in classes)),
        ("status", result.status),
    ]
    if not result.defined:
        return rows + [("witness", result.witness or "")]
    rows.append(("degree", str(result.degree)))
    rows.append(("value", _label(h, result.degree, result.value)))
    rows.append(("indeterminacy.dim", str(len(result.indeterminacy))))
    for i, vec in enumerate(result.indeterminacy):
        rows.append(("indeterminacy.%d" % i, _label(h, result.degree, vec)))
    rows.append(("trivial", "yes" if result.is_trivial() else "no"))
    if result.value_set is not None:
        rows.append(("values", str(len(result.value_set))))
    rows.append(("systems", str(result.systems)))
    # every walk reaches all of its systems; the constant row keeps the report's shape
    rows.append(("truncated", "no"))
    return rows


def cmd_minimal(ring: CohomologyRing, args) -> Rows:
    mu, incl = ring.minimal(args.arity)
    inclusion = check_ainfty_morphism(incl, mu, ring.structure, args.arity)
    inclusion.require(InternalConsistencyError, "inclusion fails the morphism equation: ")
    rows = [("arity", str(args.arity))]
    rows += [("basis.%d" % k, " ".join(mu.basis[k])) for k in sorted(mu.basis) if mu.basis[k]]
    for k in range(1, args.arity + 1):
        table = mu.tables.get(k, {})
        for key in sorted(table, key=lambda t: tuple(mu.order[n] for n in t)):
            label = vector_label(mu.names(mu.out_degree(key)), table[key])
            rows.append(("m%d(%s)" % (k, ",".join(key)), label))
    rows.append(("relations", "ok up to arity %d" % args.arity))
    rows.append(("inclusion", "ok up to arity %d" % args.arity))
    return rows


def cmd_ordern(ring: CohomologyRing, args) -> Rows:
    result = order_n_cohomology(ring, args.n, engine=args.engine)
    return [
        ("order", str(result.order)),
        ("engine", result.engine),
        ("complex.dim", str(result.complex_dim)),
        ("transpose.entries", str(result.transpose_entries)),
        *_dims_rows("dim", result.dims),
        ("total", str(sum(result.dims.values()))),
    ]


def cmd_duality(ring: CohomologyRing, args) -> Rows:
    result = duality_search(ring)
    if not result.ok:
        return [
            ("status", "no certificate"),
            ("reason", result.reason),
            ("pairs.tried", str(result.pairs_tried)),
            ("complements.tried", str(result.complements_tried)),
        ]
    rows = [("status", "certificate"), ("kappa", result.kappa_label), ("c", result.c_label)]
    for i, (degree, _, label) in enumerate(result.complement):
        rows.append(("complement.%d" % i, "degree %d class %s" % (degree, label)))
    return rows + [("gram.%d" % i, " ".join(map(str, row))) for i, row in enumerate(result.gram)]


def cmd_mirror(args) -> None:
    dga, _ = _load(args.file)
    # line by line: one large write can end short on a closed pipe without raising
    sys.stdout.writelines(serialize_dga(mirror_dga(dga)).splitlines(keepends=True))


def cmd_family(args) -> None:
    params = []
    if args.params:
        for chunk in args.params.split(","):
            try:
                params.append(int(chunk.strip()))
            except ValueError:
                raise ContractError("--params must be comma-separated integers")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dga = generate_family(args.name, tuple(params))
    for w in caught:
        if issubclass(w.category, FamilyGradingWarning):
            sys.stdout.write("# warning: %s\n" % w.message)
    sys.stdout.write(serialize_dga(dga))


def _profile_rows(prefix: str, profile: AugmentationProfile) -> Iterable[Row]:
    """One augmentation's ``compare-mirror`` rows, keyed under ``prefix``."""
    yield prefix + "dims", " ".join("%d:%d" % pair for pair in profile.dims) or "none"
    for (r, s), rank_value in profile.cup_ranks:
        yield "%scup_rank.%d.%d" % (prefix, r, s), str(rank_value)
    nonzero = [key for key, flags in profile.massey if flags[1]]
    yield prefix + "massey.nonzero", str(len(nonzero))
    for j, (order, degs) in enumerate(nonzero):
        yield (
            "%smassey.nonzero.%d" % (prefix, j),
            "order %d degrees (%s)" % (order, ", ".join(map(str, degs))),
        )
    by_n: Dict[int, List[str]] = {}
    for (n, degree), dim in profile.order_dims:
        by_n.setdefault(n, []).append("%d:%d" % (degree, dim))
    for n in sorted(by_n):
        yield "%sorder%d.dims" % (prefix, n), " ".join(by_n[n])


def cmd_compare_mirror(args) -> Iterable[Row]:
    dga, rows = _load(args.file)
    report = compare_mirror(dga, massey_order=args.massey_order, order_cap=args.order_cap)
    rows.append(("verdict", report.verdict))
    if report.witness:
        rows.append(("witness", report.witness))
    rows.append(("note", report.note))
    rows.append(("augmentations", str(len(report.knot.profiles))))
    sides = (("knot", report.knot), ("mirror", report.mirror))
    return chain(
        rows,
        chain.from_iterable(
            _profile_rows("%s.%d." % (side, i), profile)
            for side, fp in sides
            for i, profile in enumerate(fp.profiles)
        ),
    )


def _ring_report_rows(ring: CohomologyRing) -> Rows:
    """``report``'s rows of one ring, keyed without the aug.N. prefix."""
    rows = _dims_rows("cohomology.dim", ring.cochain.dims()) + _product_rows(ring)
    result = duality_search(ring)
    return rows + [("duality", "certificate" if result.ok else "no certificate: %s" % result.reason)]


def cmd_report(args) -> Iterable[Row]:
    dga, rows = _load(args.file)
    rows.append(("generators", str(len(dga.generators))))
    rows.append(("modulus", str(dga.modulus)))
    augs = _enumerate(dga, rows)
    # The rows below aug.N read only the ring, so augmentations with one
    # twist share them.
    bodies = per_twist(augs, lambda aug: _ring_report_rows(build_ring(dga, aug)))

    def per_augmentation(i: int, description: str) -> Iterable[Row]:
        yield "aug.%d" % i, description
        for key, value in bodies[i]:
            yield "aug.%d.%s" % (i, key), value

    return chain(rows, chain.from_iterable(map(per_augmentation, count(), augs.descriptions())))


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing reads it
    and never changes it."""
    parser = _Parser(
        prog="legch",
        description="Legendrian contact homology: augmentations, linearized "
        "(co)homology, A-infinity products, and mirror comparison.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output rendering (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text, with_file=True, report=True, with_aug=False):
        """A subcommand running ``func``; a report command's rows are
        rendered with its ``--format``, and ``with_aug`` puts the
        per-augmentation preamble (``_on_ring``) before it."""
        p = sub.add_parser(name, parents=[common] if report else [], help=help_text)
        if with_file:
            p.add_argument("file", metavar="FILE", help="DGA description file")
        if with_aug:
            p.add_argument(
                "--aug",
                type=int,
                default=0,
                metavar="IDX",
                help="augmentation index from `augs` (default 0)",
            )
            func = _on_ring(func)
        p.set_defaults(func=(lambda args: emit_report(func(args), args.format)) if report else func)
        return p

    add("validate", cmd_validate, "check the differential laws and report findings")
    add("augs", cmd_augs, "enumerate augmentations")
    add("linhom", cmd_linhom, "linearized (co)homology dimensions", with_aug=True)
    add("ring", cmd_ring, "cohomology basis and all nonzero cup products", with_aug=True)
    p = add("massey", cmd_massey, "Massey product of 3 or more classes", with_aug=True)
    p.add_argument(
        "--classes",
        required=True,
        metavar="SPEC",
        help="comma-separated DEGREE:MASK class list, e.g. '0:1,0:3,1:1'",
    )
    p = add("minimal", cmd_minimal, "minimal A-infinity model on cohomology", with_aug=True)
    p.add_argument("--arity", type=int, default=3, metavar="N", help="top arity (default 3)")
    p = add("ordern", cmd_ordern, "order-n linearized cohomology", with_aug=True)
    p.add_argument("--n", type=int, default=2, metavar="N", help="order (default 2)")
    p.add_argument(
        "--engine",
        choices=("auto", "dense", "perturbation"),
        default="auto",
        help="complex construction strategy (default auto)",
    )
    add("duality", cmd_duality, "duality pairing certificate", with_aug=True)
    add("mirror", cmd_mirror, "emit the mirrored DGA file", report=False)
    p = add("family", cmd_family, "emit a bundled family as a DGA file",
            with_file=False, report=False)
    p.add_argument("name", metavar="NAME", help="trefoil, cupex, or masseyex")
    p.add_argument(
        "--params",
        default="",
        metavar="K,L,M[,N]",
        help="family parameters, e.g. 1,3,7 for cupex",
    )
    p = add("compare-mirror", cmd_compare_mirror, "fingerprint comparison against the mirror")
    p.add_argument(
        "--massey-order",
        type=int,
        default=DEFAULT_MASSEY_ORDER,
        metavar="N",
        help="include Massey brackets up to this order (default %(default)s)",
    )
    p.add_argument(
        "--order-cap",
        type=int,
        default=DEFAULT_ORDER_CAP,
        metavar="N",
        help="include order-n cohomology dims up to this n (default %(default)s)",
    )
    add("report", cmd_report, "full per-augmentation summary")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe is seen here, not at exit
        return 0
    except BrokenPipeError:
        # The reader went away, as `| head` does.  Point stdout at devnull so
        # the interpreter's final flush cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ContractError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
