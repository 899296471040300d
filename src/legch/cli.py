"""Command-line interface.

Every report-producing command accepts ``--format text|structured``; the
two renderings differ only in the key/value separator (": " vs " = "),
and rows are emitted in a fixed deterministic order: augmentations by
enumeration index, degrees ascending, classes by canonical basis.  The
``mirror`` and ``family`` commands emit DGA files instead of reports.

Exit codes: 0 success, 1 contract violation (bad input, bad flags) or a
closed stdout pipe, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .ainfty import (
    DEFAULT_MAX_SYSTEMS,
    CohomologyRing,
    HClass,
    basis_classes,
    build_ring,
    check_ainfty_morphism,
    check_an_relations,
    massey_higher,
    massey_triple,
)
from .algebra import DGA, assert_valid, mirror_dga, validate_dga
from .augment import Augmentation, enumerate_augmentations
from .families import FamilyGradingWarning, generate_family
from .fileio import parse_dga, serialize_dga
from .fingerprint import DEFAULT_MASSEY_ORDER, DEFAULT_ORDER_CAP, compare_mirror
from .linear import duality_search, vector_label
from .tilde import order_n_cohomology

__all__ = ["main", "build_parser"]

NO_AUGMENTATIONS = "no augmentations; linearization unavailable"

Rows = List[Tuple[str, str]]


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors follow our exit-code contract."""

    def error(self, message):
        raise ContractError(message)


def emit_report(rows: Rows, fmt: str, out=None) -> None:
    """Render key/value rows; both formats are deterministic and stable."""
    out = out or sys.stdout
    sep = " = " if fmt == "structured" else ": "
    for key, value in rows:
        out.write("%s%s%s\n" % (key, sep, value))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError("cannot read %s: %s" % (path, exc))


def _parse(path: str, rows: Rows) -> DGA:
    """Parse a DGA file, recording parse warnings as rows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dga = parse_dga(_read_text(path))
    for i, w in enumerate(caught):
        rows.append(("warning.%d" % i, str(w.message)))
    return dga


def _load(path: str, rows: Optional[Rows] = None) -> DGA:
    """Parse and validate a DGA file, recording parse warnings as rows."""
    dga = _parse(path, [] if rows is None else rows)
    assert_valid(dga)
    return dga


def _pick_augmentation(dga: DGA, index: int) -> Augmentation:
    augs = enumerate_augmentations(dga)
    if not augs:
        raise ContractError(NO_AUGMENTATIONS)
    if index < 0 or index >= len(augs):
        raise ContractError(
            "augmentation index %d out of range; there are %d" % (index, len(augs))
        )
    return augs[index]


def _label(h, degree: int, coords: int) -> str:
    return h.label(degree, coords) if coords else "0"


def _dims_rows(rows: Rows, prefix: str, dims: Dict[int, int]) -> None:
    for degree in sorted(dims):
        if dims[degree]:
            rows.append(("%s.%d" % (prefix, degree), str(dims[degree])))


def _product_rows(rows: Rows, prefix: str, ring: CohomologyRing) -> None:
    """Nonzero cup products of basis classes, keyed <prefix>product.X.Y."""
    h = ring.cochain
    degrees = [k for k in sorted(h.dims()) if h.dim(k)]
    for r in degrees:
        for s in degrees:
            for x, y in iproduct(basis_classes(h, r), basis_classes(h, s)):
                value = ring.products.cup(x, y)
                if value.coords:
                    key = "%sproduct.%s.%s" % (
                        prefix,
                        h.label(r, x.coords),
                        h.label(s, y.coords),
                    )
                    rows.append((key, _label(h, value.degree, value.coords)))


def cmd_validate(args) -> int:
    rows: Rows = []
    dga = _parse(args.file, rows)
    findings = validate_dga(dga)
    rows.append(("generators", str(len(dga.generators))))
    rows.append(("modulus", str(dga.modulus)))
    rows.append(("valid", "yes" if not findings else "no"))
    for i, finding in enumerate(findings):
        rows.append(("finding.%d" % i, finding))
    emit_report(rows, args.format)
    return 0


def cmd_augs(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    augs = enumerate_augmentations(dga)
    rows.append(("augmentations", str(len(augs))))
    if not augs:
        rows.append(("note", NO_AUGMENTATIONS))
    for i, aug in enumerate(augs):
        rows.append(("augmentation.%d" % i, aug.describe()))
    emit_report(rows, args.format)
    return 0


def cmd_linhom(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    ring = build_ring(dga, aug)
    rows.append(("augmentation", aug.describe()))
    _dims_rows(rows, "cohomology.dim", ring.cochain.dims())
    rows.append(("cohomology.total", str(ring.cochain.total_dim())))
    _dims_rows(rows, "homology.dim", ring.chain.dims())
    rows.append(("homology.total", str(ring.chain.total_dim())))
    emit_report(rows, args.format)
    return 0


def cmd_ring(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    ring = build_ring(dga, aug)
    h = ring.cochain
    rows.append(("augmentation", aug.describe()))
    degrees = [k for k in sorted(h.dims()) if h.dim(k)]
    for k in degrees:
        rows.append(
            ("basis.%d" % k, " ".join(h.label(k, 1 << i) for i in range(h.dim(k))))
        )
    _product_rows(rows, "", ring)
    emit_report(rows, args.format)
    return 0


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


def cmd_massey(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    ring = build_ring(dga, aug)
    h = ring.cochain
    classes = _parse_classes(h, args.classes)
    if len(classes) < 3:
        raise ContractError("Massey products need at least 3 classes")
    rows.append(("augmentation", aug.describe()))
    rows.append(
        ("classes", ", ".join(_label(h, c.degree, c.coords) for c in classes))
    )
    if len(classes) == 3:
        result = massey_triple(h, ring.structure, *classes)
    else:
        result = massey_higher(h, ring.structure, classes, cap=args.max_systems)
    rows.append(("status", result.status))
    if result.defined:
        rows.append(("degree", str(result.degree)))
        rows.append(("value", _label(h, result.degree, result.value)))
        rows.append(("indeterminacy.dim", str(len(result.indeterminacy))))
        for i, vec in enumerate(result.indeterminacy):
            rows.append(("indeterminacy.%d" % i, _label(h, result.degree, vec)))
        rows.append(("trivial", "yes" if result.is_trivial() else "no"))
        if result.value_set is not None:
            rows.append(("values", str(len(result.value_set))))
        rows.append(("systems", str(result.systems)))
        rows.append(("truncated", "yes" if result.truncated else "no"))
    else:
        rows.append(("witness", result.witness or ""))
    emit_report(rows, args.format)
    return 0


def cmd_minimal(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    ring = build_ring(dga, aug)
    mu, incl = ring.minimal(args.arity)
    relations = check_an_relations(mu, args.arity)
    if not relations.ok:
        raise InternalConsistencyError(
            "transferred structure fails a relation: %s" % relations.detail
        )
    inclusion = check_ainfty_morphism(incl, mu, ring.structure, args.arity)
    if not inclusion.ok:
        raise InternalConsistencyError(
            "inclusion fails the morphism equation: %s" % inclusion.detail
        )
    rows.append(("augmentation", aug.describe()))
    rows.append(("arity", str(args.arity)))
    for k in sorted(mu.basis):
        if mu.basis[k]:
            rows.append(("basis.%d" % k, " ".join(mu.basis[k])))
    for k in range(1, args.arity + 1):
        table = mu.tables.get(k, {})
        for key in sorted(table, key=lambda t: tuple(mu.order[n] for n in t)):
            outdeg = mu.out_degree(key)
            rows.append(
                (
                    "m%d(%s)" % (k, ",".join(key)),
                    vector_label(mu.names(outdeg), table[key]),
                )
            )
    rows.append(("relations", "ok up to arity %d" % args.arity))
    rows.append(("inclusion", "ok up to arity %d" % args.arity))
    emit_report(rows, args.format)
    return 0


def cmd_ordern(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    result = order_n_cohomology(build_ring(dga, aug), args.n, engine=args.engine)
    rows.append(("augmentation", aug.describe()))
    rows.append(("order", str(result.order)))
    rows.append(("engine", result.engine))
    rows.append(("complex.dim", str(result.complex_dim)))
    rows.append(("transpose.entries", str(result.transpose_entries)))
    _dims_rows(rows, "dim", result.dims)
    rows.append(("total", str(sum(result.dims.values()))))
    emit_report(rows, args.format)
    return 0


def cmd_duality(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    aug = _pick_augmentation(dga, args.aug)
    ring = build_ring(dga, aug)
    result = duality_search(ring)
    rows.append(("augmentation", aug.describe()))
    rows.append(("status", "certificate" if result.ok else "no certificate"))
    if result.ok:
        rows.append(("kappa", result.kappa_label))
        rows.append(("c", result.c_label))
        for i, (degree, _, label) in enumerate(result.complement):
            rows.append(("complement.%d" % i, "degree %d class %s" % (degree, label)))
        for i, row in enumerate(result.gram):
            rows.append(("gram.%d" % i, " ".join(str(b) for b in row)))
    else:
        rows.append(("reason", result.reason))
        rows.append(("pairs.tried", str(result.pairs_tried)))
        rows.append(("complements.tried", str(result.complements_tried)))
    emit_report(rows, args.format)
    return 0


def cmd_mirror(args) -> int:
    dga = _load(args.file)
    # line by line: one large write can end short on a closed pipe without raising
    sys.stdout.writelines(serialize_dga(mirror_dga(dga)).splitlines(keepends=True))
    return 0


def cmd_family(args) -> int:
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
    return 0


def cmd_compare_mirror(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    report = compare_mirror(
        dga,
        massey_order=args.massey_order,
        order_cap=args.order_cap,
        max_systems=args.max_systems,
    )
    rows.append(("verdict", report.verdict))
    if report.witness:
        rows.append(("witness", report.witness))
    rows.append(("note", report.note))
    rows.append(("augmentations", str(len(report.knot.profiles))))
    for side, fp in (("knot", report.knot), ("mirror", report.mirror)):
        for i, profile in enumerate(fp.profiles):
            rows.append(
                (
                    "%s.%d.dims" % (side, i),
                    " ".join("%d:%d" % pair for pair in profile.dims) or "none",
                )
            )
            for (r, s), rank_value in profile.cup_ranks:
                rows.append(("%s.%d.cup_rank.%d.%d" % (side, i, r, s), str(rank_value)))
            nonzero = [key for key, flags in profile.massey if flags[1]]
            rows.append(("%s.%d.massey.nonzero" % (side, i), str(len(nonzero))))
            for j, (order, degs) in enumerate(nonzero):
                rows.append(
                    (
                        "%s.%d.massey.nonzero.%d" % (side, i, j),
                        "order %d degrees (%s)" % (order, ", ".join(map(str, degs))),
                    )
                )
            by_n: Dict[int, List[str]] = {}
            for (n, degree), dim in profile.order_dims:
                by_n.setdefault(n, []).append("%d:%d" % (degree, dim))
            for n in sorted(by_n):
                rows.append(("%s.%d.order%d.dims" % (side, i, n), " ".join(by_n[n])))
    emit_report(rows, args.format)
    return 0


def cmd_report(args) -> int:
    rows: Rows = []
    dga = _load(args.file, rows)
    rows.append(("generators", str(len(dga.generators))))
    rows.append(("modulus", str(dga.modulus)))
    augs = enumerate_augmentations(dga)
    rows.append(("augmentations", str(len(augs))))
    if not augs:
        rows.append(("note", NO_AUGMENTATIONS))
    for i, aug in enumerate(augs):
        rows.append(("aug.%d" % i, aug.describe()))
        ring = build_ring(dga, aug)
        _dims_rows(rows, "aug.%d.cohomology.dim" % i, ring.cochain.dims())
        _product_rows(rows, "aug.%d." % i, ring)
        result = duality_search(ring)
        if result.ok:
            rows.append(("aug.%d.duality" % i, "certificate"))
        else:
            rows.append(("aug.%d.duality" % i, "no certificate: %s" % result.reason))
    emit_report(rows, args.format)
    return 0


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

    def add(name, func, help_text, with_file=True, with_common=True, with_aug=False):
        parents = [common] if with_common else []
        p = sub.add_parser(name, parents=parents, help=help_text)
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
        p.set_defaults(func=func)
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
    p.add_argument(
        "--max-systems",
        type=int,
        default=DEFAULT_MAX_SYSTEMS,
        metavar="COUNT",
        help="cap on enumerated defining systems for orders > 3",
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
    add("mirror", cmd_mirror, "emit the mirrored DGA file", with_common=False)
    p = add("family", cmd_family, "emit a bundled family as a DGA file",
            with_file=False, with_common=False)
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
    p.add_argument(
        "--max-systems",
        type=int,
        default=DEFAULT_MAX_SYSTEMS,
        metavar="COUNT",
        help="cap on enumerated defining systems for orders > 3",
    )
    add("report", cmd_report, "full per-augmentation summary")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe is seen here, not at exit
        return code
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
