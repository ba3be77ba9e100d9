"""Batch front end: validate instances, run checks, emit deterministic reports.

Exit codes: 0 all checks pass, 1 some check failed, 2 input or usage error.
Reports contain no timestamps and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.induction import mv_truncated_check
from amalgext.instfile import ParseError, ValidationError, parse
from amalgext.mayer_vietoris import abelianized_hom_dim, ext_G, hom_sequence_check, verify_les
from amalgext.resolutions import ext_finite
from amalgext.tree import build_ball, chain_complex, to_dot

REPORT_FORMAT = 1

# The most cells (edge cosets, times the representation's dimension for
# mv-check) a tree, chain or mv-check ball may hold.  The dense matrices of
# chain and mv-check grow with its square.  It bounds the time only at small p:
# on D-infinity, mv-check --grep flip2 --radius 249 (998 cells) takes 0.08 s at
# p = 2 and 25 s at p = 2147483647, where matmul runs on Python integers
# (Python 3.11, numpy 2.4, one core of a shared x86-64 host).
MAX_BALL_CELLS = 1000


class _Report:
    def __init__(self, instance_name: str, command: str, characteristic: int):
        self.lines = [
            f"# amalgext report format {REPORT_FORMAT}",
            f"instance: {instance_name}",
            f"command: {command}",
            f"characteristic: {characteristic}",
        ]
        self.failed = False

    def add(self, text: str = ""):
        self.lines.append(text)

    def check(self, label: str, ok: bool):
        self.lines.append(f"{label}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            self.failed = True

    def finish(self) -> str:
        self.lines.append(f"RESULT: {'FAIL' if self.failed else 'PASS'}")
        return "\n".join(self.lines) + "\n"


def _positive_radius(value):
    r = int(value)
    if r < 0:
        raise argparse.ArgumentTypeError("radius must be nonnegative")
    return r


def _check_ball_size(datum, r: int, dim: int = 1):
    """Refuse a radius whose edge ball is too large, before building anything."""
    cosets = datum.edge_coset_count(r, cap=MAX_BALL_CELLS // dim)
    if cosets * dim > MAX_BALL_CELLS:
        size = f"{cosets} edge cosets" + (f" x dim {dim}" if dim > 1 else "")
        raise ValueError(f"--radius {r} spans at least {size}, over the limit of "
                         f"{MAX_BALL_CELLS} cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgext",
        description="exact checks for amalgams of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="instance description (.amg)")
        p.add_argument("--char", type=int, default=None,
                       help="override the field characteristic")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("validate", help="parse and validate an instance file")
    add_common(p)

    p = sub.add_parser("tree", help="build a ball of the acting tree")
    add_common(p)
    p.add_argument("--radius", type=_positive_radius, default=3)
    p.add_argument("--dot", default=None, help="write a DOT graph description")

    p = sub.add_parser("chain", help="simplicial chain complex checks on a ball")
    add_common(p)
    p.add_argument("--radius", type=_positive_radius, default=3)

    p = sub.add_parser("mv-check", help="truncated short-exact-sequence checks")
    add_common(p)
    p.add_argument("--radius", type=_positive_radius, default=3)
    p.add_argument("--grep", default="triv", help="representation name, or 'triv'")

    p = sub.add_parser("ext", help="Ext dimensions over G, K1, K2 or I")
    add_common(p)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--over", choices=["G", "K1", "K2", "I"], default="G")
    p.add_argument("--v1", default="triv")
    p.add_argument("--v2", default="triv")

    p = sub.add_parser("les", help="verify the long exact sequence")
    add_common(p)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--v1", default="triv")
    p.add_argument("--v2", default="triv")
    return parser


def _run_validate(built, args, report):
    d = built.datum
    report.add(f"groups: |K1| = {d.K1.order}, |K2| = {d.K2.order}, |I| = {d.I.order}")
    report.check("embedding I -> K1", True)  # validated during parsing
    report.check("embedding I -> K2", True)
    for name in sorted(built.modules):
        report.check(f"module {name}", True)
    for name in sorted(built.greps):
        report.check(f"grep {name} gluing", True)
    report.add(f"transversal sizes: {len(d.transversal[1])} and {len(d.transversal[2])}")


def _run_tree(built, args, report):
    _check_ball_size(built.datum, args.radius)
    ball = build_ball(built.datum, args.radius)
    report.add(f"radius: {args.radius}")
    report.add(f"vertices: {ball.num_vertices}")
    report.add(f"edges: {ball.num_edges}")
    degs = ball.degrees()
    interior = ball.interior_vertices()
    by_tag = {}
    for i in interior:
        by_tag.setdefault(ball.vertices[i].tag, set()).add(degs[i])
    for tag in (TAG_K1, TAG_K2):
        if tag in by_tag:
            report.add(f"interior {tag} degrees: {sorted(by_tag[tag])}")
    report.check("tree property (V = E + 1)", ball.num_vertices == ball.num_edges + 1)
    report.check("acyclic", ball.is_forest())
    report.check("connected", ball.is_connected())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(ball))
        report.add(f"dot written: {args.dot}")


def _run_chain(built, args, report):
    fld = built.field
    _check_ball_size(built.datum, args.radius)
    ball = build_ball(built.datum, args.radius)
    boundary, aug = chain_complex(ball, fld)
    rank = fld.rank(boundary)
    report.add(f"radius: {args.radius}")
    report.add(f"edges: {ball.num_edges}, vertices: {ball.num_vertices}")
    report.add(f"boundary rank: {rank}")
    report.check("augmentation o boundary = 0", not np.any(fld.matmul(aug, boundary)))
    report.check("H_1 = 0", rank == ball.num_edges)
    report.check("H_0 = k", ball.num_vertices - rank == 1)


def _grep(built, option: str, name: str):
    """The representation an option names; an unknown name is that option's error."""
    try:
        return built.grep(name)
    except KeyError as exc:
        raise ValueError(f"{option}: {exc.args[0]}") from None


def _run_mv_check(built, args, report):
    v = _grep(built, "--grep", args.grep)
    _check_ball_size(built.datum, args.radius, v.dim)
    out = mv_truncated_check(v, args.radius)
    report.add(f"radius: {args.radius}")
    report.add(f"representation: {args.grep} (dim {v.dim})")
    report.add(f"edge cosets: {out.edge_cosets}")
    report.add(f"comparison rank: {out.gamma_rank} of {out.edge_cosets * v.dim}")
    report.check("injective", out.injective)
    report.check("middle exact", out.middle_exact)
    report.check("surjective", out.surjective)


def _run_ext(built, args, report):
    if args.degree < 0:
        raise ValueError("--degree: degree must be nonnegative")
    v1, v2 = _grep(built, "--v1", args.v1), _grep(built, "--v2", args.v2)
    report.add(f"v1: {args.v1} (dim {v1.dim}), v2: {args.v2} (dim {v2.dim})")
    if args.over == "G":
        dims = ext_G(v1, v2, args.degree)
    else:
        tag = {"K1": TAG_K1, "K2": TAG_K2, "I": TAG_I}[args.over]
        dims = ext_finite(v1.module(tag), v2.module(tag), args.degree).dims
    report.add(f"ext_{args.over}: " + " ".join(str(x) for x in dims))
    if args.over == "G" and args.v1 == "triv" and args.v2 == "triv" and args.degree >= 1:
        oracle = abelianized_hom_dim(built.datum, built.characteristic)
        report.check("degree 1 matches abelianization oracle", dims[1] == oracle)


def _run_les(built, args, report):
    if args.degree < 1:
        raise ValueError("--degree: degree must be at least 1")
    v1, v2 = _grep(built, "--v1", args.v1), _grep(built, "--v2", args.v2)
    report.add(f"v1: {args.v1} (dim {v1.dim}), v2: {args.v2} (dim {v2.dim})")
    les = verify_les(v1, v2, args.degree)
    for line in les.render().splitlines():
        if line.startswith("RESULT:"):
            report.check("long exact sequence", les.exact)
        else:
            report.add(line)
    seq = hom_sequence_check(v1, v2)
    report.check("degree-0 sequence exact", seq["exact_at_middle"])


_RUNNERS = {
    "validate": _run_validate,
    "tree": _run_tree,
    "chain": _run_chain,
    "mv-check": _run_mv_check,
    "ext": _run_ext,
    "les": _run_les,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args leaves the parser as it was."""
    return build_parser()


def run(argv=None) -> tuple[int, str]:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code else 0), ""
    try:
        instance = parse(args.file)
    except (ParseError, ValidationError) as exc:
        return 2, f"error: {args.file}: {exc}\n"
    except OSError as exc:
        return 2, f"error: {exc}\n"
    try:
        built = instance.build(args.char)
    except ValidationError as exc:
        return 2, f"error: {args.file}: {exc}\n"
    except ValueError as exc:  # --char is not a prime the field accepts
        return 2, f"error: --char: {exc}\n"
    report = _Report(built.name, args.command, built.characteristic)
    try:
        _RUNNERS[args.command](built, args, report)
    except (ParseError, ValidationError, ValueError) as exc:
        return 2, f"error: {exc}\n"
    text = report.finish()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return (1 if report.failed else 0), text


def main(argv=None) -> int:
    code, text = run(argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
