"""Command line front end over the construction library.

Five subcommands cover the library surface: ``check`` audits metric axioms,
``build`` runs a named construction and reports its certificates,
``metrize`` turns a fundamental sequence of covers into an exact metric,
``embed`` runs the sequence-space embedding pipeline, and ``invlim``
analyzes inverse-sequence truncations.  Every run emits one canonical JSON
report (schema in docs/report-schema.json) to stdout or to --out.

Each command imports only what it runs: the construction modules are
imported inside the handlers that call them, so ``check`` never loads
them and each fresh process pays only for its own command.  Each command
reads its input once (``_open``), so the parse and the report digest see
the same bytes, and ``_cmd_build`` alone ends a build report with the
space built.

Each process builds its parser once: ``build_parser`` keeps it for the
next run in the same process; argparse reads ``COLUMNS``, ``sys.stdout``
and ``sys.stderr`` when it prints, not when it builds, so a kept parser
prints what a new one would.

The command line restates no rule of the library it calls.  It only splits
and parses ``--grid``; the library refuses a bad grid, a join grid without
0 under ``--oracle`` and a telescope ``--depth`` past the top level as
preconditions (exit 1) in its own words.  The kinds, modes, axiom rows and
echoed flags are read from the tables and the parsed arguments that define
them.  ``--oracle`` belongs to ``build`` alone, the one command whose
constructions have oracles.

Exit codes: 0 when every check passes, 1 for mathematical failures
(violated preconditions or failing check rows), 2 for input errors
(unreadable files, malformed JSON, unknown commands).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Optional

from .errors import PreconditionError, StructuralError
from .jsonio import (
    classes_from_json,
    expect_key,
    fundamental_sequence_from_json,
    ladder_from_json,
    load_document,
    mapping_from_json,
    scalar_from_json,
    space_from_json,
    space_to_json,
    subset_from_json,
    truncation_from_json,
)
from .reporting import ReportBuilder, canonical_bytes, digest_inputs
from .scalars import ONE, ZERO, as_scalar, brief_text, ratio_texts
from .spaces import AXIOMS, FiniteMetricSpace, check_metric_axioms, largest_gap

# ---- constants ----

DEFAULT_UNIT_GRID = "0,1/2,1"
DEFAULT_JOIN_GRID = "-1,-1/2,0,1/2,1"


# ---- flag parsing ----


def _seed_value(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}"
        ) from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_grid(text: str) -> list:
    """The values of a comma separated rational grid.  The construction
    checks them with ``parameter_grid``; like its refusals, a bad token is a
    precondition failure (exit 1), not a document error, because the grid
    is a construction parameter, not part of the input file."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise PreconditionError("grid has an empty entry")
        try:
            values.append(as_scalar(token))
        except ValueError:
            raise PreconditionError(
                f"grid entry {brief_text(token)} is not a rational"
            ) from None
    return values


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=_seed_value,
        default=None,
        help="unsigned 64-bit seed folded into the input digest",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the report to this path instead of stdout",
    )


def _add_check(sub) -> None:
    p = sub.add_parser("check", help="audit the metric axioms of a space file")
    p.add_argument("path", help="JSON space file")
    p.add_argument(
        "--pseudo",
        action="store_true",
        help="accept distance zero between distinct points",
    )
    _common(p)


def _add_build(sub) -> None:
    p = sub.add_parser("build", help="run a construction and certify it")
    p.add_argument("kind", choices=_BUILDERS)
    p.add_argument("path", help="JSON input bundle for the chosen kind")
    p.add_argument(
        "--grid",
        default=None,
        help="comma separated rational parameter values",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        help="stop level for telescope builds",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also check cone, join and cylinder builds against their oracles",
    )
    _common(p)
    p.set_defaults(usage_error=p.error)


def _add_metrize(sub) -> None:
    p = sub.add_parser("metrize", help="metrize a fundamental sequence of covers")
    p.add_argument("path", help="JSON fundamental sequence file")
    _common(p)


def _add_embed(sub) -> None:
    p = sub.add_parser("embed", help="embed a space into weighted sequence space")
    p.add_argument("path", help="JSON space file")
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        help="number of scales (default: enough to separate points)",
    )
    p.add_argument(
        "--rescale",
        action="store_true",
        help="rescale the space to diameter 1 first",
    )
    _common(p)


def _add_invlim(sub) -> None:
    p = sub.add_parser("invlim", help="analyze an inverse sequence truncation")
    p.add_argument("mode", choices=INVLIM_MODES)
    p.add_argument(
        "path",
        help="JSON truncation file (perturb: with cross, alphas, betas)",
    )
    _common(p)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  Built once and kept: parsing leaves
    a parser as it was, so every run in a process shares it, and no caller
    may change it.
    """
    parser = argparse.ArgumentParser(
        prog="unimet",
        description="exact metric constructions on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # In the order the usage lists them.
    for add in (_add_check, _add_build, _add_metrize, _add_embed, _add_invlim):
        add(sub)
    return parser


# ---- report assembly helpers ----


# Not echoed: the positionals, build's usage_error, and --out, which changes no result.
_NOT_ECHOED = ("command", "kind", "mode", "path", "out", "usage_error")


def _flag_echo(args: argparse.Namespace) -> list:
    """Each set flag, sorted: --name when True, --name=value otherwise."""
    flags = []
    for name, value in vars(args).items():
        if name in _NOT_ECHOED or value is None or value is False:
            continue
        flags.append(f"--{name}" if value is True else f"--{name}={value}")
    return sorted(flags)


def _open(args: argparse.Namespace, *extra: str) -> tuple:
    """The tree of ``args.path`` and a builder digesting the same bytes."""
    data, doc = load_document(args.path)
    echo = [args.command, *extra, os.path.basename(args.path)] + _flag_echo(args)
    return doc, ReportBuilder(echo, digest_inputs(data, args.seed))


def _violation_witness(violation) -> dict:
    return {
        "axiom": violation.axiom,
        "points": violation.witness,
        "lhs": violation.lhs,
        "rhs": violation.rhs,
    }


def _metric_row(builder: ReportBuilder, name: str, space: FiniteMetricSpace) -> bool:
    audit = check_metric_axioms(space)
    return builder.check(
        name, audit.ok, witnesses=[_violation_witness(v) for v in audit.violations]
    )


# ---- check ----


def _cmd_check(args: argparse.Namespace) -> ReportBuilder:
    doc, builder = _open(args)
    space = space_from_json(doc)
    builder.info(
        "space loaded",
        scalars={"points": space.n, "diameter": space.diameter()},
    )
    audit = check_metric_axioms(space, allow_pseudo=True if args.pseudo else None)
    by_axiom = {v.axiom: v for v in audit.violations}
    for axiom in AXIOMS:
        if axiom == "positivity" and audit.allow_pseudo:
            builder.info("axiom positivity waived for pseudometrics")
            continue
        violation = by_axiom.get(axiom)
        builder.check(
            f"axiom {axiom}",
            violation is None,
            witnesses=[] if violation is None else [_violation_witness(violation)],
        )
    return builder


# ---- build ----


def _build_cone(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .cones import cone_metric, cone_quotient_check

    base = space_from_json(doc)
    cone = cone_metric(base, _parse_grid(args.grid or DEFAULT_UNIT_GRID))
    _metric_row(builder, "cone satisfies the metric axioms", cone.space)
    bottom = [cone.class_index(i, ZERO) for i in range(base.n)]
    builder.check(
        "base slice embeds isometrically",
        largest_gap(base, cone.space, bottom) == 0,
    )
    if args.oracle:
        gap = cone_quotient_check(cone)
        builder.check(
            "cone formula matches the collapsed-slice quotient",
            gap == 0,
            scalars={"gap": gap},
        )
    return cone.space


def _build_join(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .cones import join_amalgam_equality, join_metric

    left = space_from_json(expect_key(doc, "left", "the join file"))
    right = space_from_json(expect_key(doc, "right", "the join file"))
    join = join_metric(left, right, _parse_grid(args.grid or DEFAULT_JOIN_GRID))
    _metric_row(builder, "join satisfies the metric axioms", join.space)
    xends = [join.xend_index(i) for i in range(left.n)]
    yends = [join.yend_index(j) for j in range(right.n)]
    builder.check(
        "left factor embeds isometrically",
        largest_gap(left, join.space, xends) == 0,
    )
    builder.check(
        "right factor embeds isometrically",
        largest_gap(right, join.space, yends) == 0,
    )
    if args.oracle:
        comparison = join_amalgam_equality(join)
        builder.check(
            "join equals the glued union of cone products",
            comparison.equal,
            scalars={"max_discrepancy": comparison.max_discrepancy},
        )
        builder.check(
            "two chain hops settle the glued union",
            comparison.two_hops_suffice,
        )
    return join.space


def _build_cylinder(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .cylinders import cylinder_adjunction_check, mapping_cylinder_metric

    source = space_from_json(expect_key(doc, "source", "the cylinder file"))
    target = space_from_json(expect_key(doc, "target", "the cylinder file"))
    mapping = mapping_from_json(expect_key(doc, "mapping", "the cylinder file"))
    grid = _parse_grid(args.grid or DEFAULT_UNIT_GRID)
    cylinder = mapping_cylinder_metric(source, target, mapping, grid)
    _metric_row(builder, "cylinder satisfies the metric axioms", cylinder.space)
    ys = [cylinder.y_index(j) for j in range(target.n)]
    bottom = [cylinder.class_index(x, ZERO) for x in range(source.n)]
    builder.check(
        "target copy embeds isometrically",
        largest_gap(target, cylinder.space, ys) == 0,
    )
    builder.check(
        "bottom slice carries the adjusted metric",
        largest_gap(cylinder.adjusted, cylinder.space, bottom) == 0,
    )
    if args.oracle:
        gap = cylinder_adjunction_check(cylinder)
        builder.check(
            "cylinder matches the attachment pipeline",
            gap == 0,
            scalars={"gap": gap},
        )
    return cylinder.space


def _build_adjunction(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .gluing import adjunction_space

    space = space_from_json(expect_key(doc, "space", "the adjunction file"))
    subset = subset_from_json(expect_key(doc, "subset", "the adjunction file"))
    target = space_from_json(expect_key(doc, "target", "the adjunction file"))
    attaching = mapping_from_json(expect_key(doc, "attaching", "the adjunction file"))
    cross = scalar_from_json(doc["cross"]) if "cross" in doc else None
    extension = space_from_json(doc["extension"]) if "extension" in doc else None
    result = adjunction_space(
        space, subset, target, attaching, cross=cross, extension=extension
    )
    builder.check("three-hop distance equals the chain limit", result.d3_equals_dinf)
    builder.check("result satisfies the metric axioms", result.metric_ok)
    builder.check("target embeds isometrically", result.y_isometric)
    builder.check(
        "points off the subset keep positive clearance", result.positivity_ok
    )
    return result.space


def _build_amalgam(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .quotients import amalgamated_union

    left = space_from_json(expect_key(doc, "left", "the amalgam file"))
    right = space_from_json(expect_key(doc, "right", "the amalgam file"))
    gluing = mapping_from_json(expect_key(doc, "gluing", "the amalgam file"))
    space = amalgamated_union(left, right, gluing)
    _metric_row(builder, "amalgam satisfies the metric axioms", space)
    return space


def _build_quotient(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .quotients import quotient_by_discrete_family

    space = space_from_json(expect_key(doc, "space", "the quotient file"))
    if "family" in doc:
        raw = doc["family"]
        if not isinstance(raw, list):
            raise StructuralError("quotient family must be an array of index arrays")
        family = [subset_from_json(item) for item in raw]
    elif "class_of" in doc:
        family = classes_from_json(doc, space)
    else:
        raise StructuralError("quotient file needs key 'family' or 'class_of'")
    result = quotient_by_discrete_family(space, family)
    # Always true: the quotient raises when d_2 differs from the chain limit.
    builder.check("two-hop distance equals the chain limit", True)
    _metric_row(builder, "quotient satisfies the metric axioms", result.space)
    builder.info("chain settles", scalars={"settled_at": result.settled_at})
    return result.space


def _build_telescope(args: argparse.Namespace, doc, builder: ReportBuilder) -> FiniteMetricSpace:
    from .invlim import telescope_metric

    truncation = truncation_from_json(doc)
    stop = truncation.top if args.depth is None else args.depth
    grid = _parse_grid(args.grid or DEFAULT_UNIT_GRID)
    result = telescope_metric(truncation, 0, stop, grid)
    # Always true: the telescope raises when a stage fails a certificate.
    builder.check("every stage is certified", True)
    _metric_row(builder, "telescope satisfies the metric axioms", result.space)
    return result.space


# Each kind's handler and the flags it reads besides --seed and --out, which
# every kind reads; a kind refuses the rest of --grid, --depth and --oracle.
_BUILDERS = {
    "cone": (_build_cone, ("grid", "oracle")),
    "join": (_build_join, ("grid", "oracle")),
    "cylinder": (_build_cylinder, ("grid", "oracle")),
    "adjunction": (_build_adjunction, ()),
    "amalgam": (_build_amalgam, ()),
    "quotient": (_build_quotient, ()),
    "telescope": (_build_telescope, ("grid", "depth")),
}


def _cmd_build(args: argparse.Namespace) -> ReportBuilder:
    build, reads = _BUILDERS[args.kind]
    for name in ("grid", "depth", "oracle"):
        value = getattr(args, name)
        if name not in reads and value is not None and value is not False:
            args.usage_error(f"argument --{name}: not read by build {args.kind}")
    doc, builder = _open(args, args.kind)
    space = build(args, doc, builder)
    builder.info("constructed space", witnesses=[space_to_json(space)])
    return builder


# ---- metrize ----


def _cmd_metrize(args: argparse.Namespace) -> ReportBuilder:
    from .covers import au_metrize

    doc, builder = _open(args)
    seq = fundamental_sequence_from_json(doc)
    witness = seq.refinement_witness
    ok = builder.check(
        "each cover star-refines its predecessor",
        witness is None,
        witnesses=[]
        if witness is None
        else [{"level": witness[0], "member": witness[1]}],
    )
    if not ok:
        return builder
    result = au_metrize(seq)
    failures = list(result.witnesses)
    builder.check(
        "gauge within a factor two of the metric",
        result.comparison_ok,
        witnesses=[w for w in failures if w[0] == "comparison"],
    )
    builder.check(
        "level 2n members have diameter at most 2^-n",
        result.member_diameter_ok,
        witnesses=[w for w in failures if w[0] == "member_diameter"],
    )
    builder.check(
        "sets of diameter at most 2^-(n+1) sit inside level 2n-1 members",
        result.clique_containment_ok,
        witnesses=[w for w in failures if w[0] == "clique_containment"],
    )
    builder.info("constructed space", witnesses=[space_to_json(result.space)])
    return builder


# ---- embed ----


def _cmd_embed(args: argparse.Namespace) -> ReportBuilder:
    from .embedding import aharoni_embed, sufficient_depth

    doc, builder = _open(args)
    space = space_from_json(doc)
    if args.rescale:
        space = space.rescaled_to_diameter(ONE)
        builder.info("space rescaled to diameter 1")
    depth = sufficient_depth(space) if args.depth is None else args.depth
    embedding = aharoni_embed(space, depth)
    builder.info("embedding depth", scalars={"depth": depth})
    builder.check("map is nonexpansive", embedding.certificate.nonexpansive_ok)
    builder.check(
        "level coordinates respect their caps",
        embedding.certificate.coordinate_bounds_ok,
    )
    for row in embedding.certificate.separation:
        builder.check(
            f"separation at level {row.level}",
            row.holds,
            scalars={
                "image_threshold": row.image_threshold,
                "point_bound": row.point_bound,
            },
        )
    builder.check("map is injective", embedding.certificate.injective)
    # The continuity rows and the images print from their ints over ``big``,
    # through one text per distinct value.
    rows, supports = embedding.certificate.continuity_ints, embedding.supports
    text = ratio_texts(set().union(*rows, *map(dict.values, supports)), embedding.big)
    builder.info(
        "modulus of continuity",
        witnesses=[[text[delta], text[eps]] for delta, eps in rows],
    )
    builder.info(
        "embedded images",
        witnesses=[
            {
                "point": point,
                "image": {"support": {str(k): text[v] for k, v in support.items()},
                          "tail": "0"},
            }
            for point, support in zip(space.points, supports)
        ],
    )
    return builder


# ---- invlim ----


def _invlim_threads(truncation, builder: ReportBuilder) -> None:
    from .invlim import threads

    found = threads(truncation)
    builder.check(
        "one thread per top-level point",
        len(found) == truncation.levels[truncation.top].n,
        scalars={"threads": len(found)},
    )
    builder.check(
        "every thread is bond compatible",
        all(bond[t[i + 1]] == t[i] for t in found for i, bond in enumerate(truncation.bonds)),
    )
    builder.info("threads", witnesses=found)


def _invlim_ml(truncation, builder: ReportBuilder) -> None:
    from .invlim import mittag_leffler_report

    for row in mittag_leffler_report(truncation):
        builder.check(
            f"image chain at level {row.level} stabilizes inside the window",
            row.stabilized,
            witnesses=[] if row.stabilized else [list(row.images)],
            scalars={}
            if row.stabilized_at is None
            else {"stabilized_at": row.stabilized_at},
        )


def _neighborhood_rows(builder: ReportBuilder, rows, label: str) -> None:
    for row in rows:
        builder.info(
            label,
            scalars={
                "level": row.level,
                "epsilon": row.epsilon,
                "holds_from": row.holds_from,
                "witnessed": row.witnessed,
            },
        )


def _invlim_converge(truncation, builder: ReportBuilder) -> None:
    from .invlim import convergence_report

    for level, rows in enumerate(convergence_report(truncation)):
        # The first row of a level is its row at scale 0.
        builder.check(
            f"images reach the shadow at level {level} inside the window",
            rows[0].witnessed,
        )
        _neighborhood_rows(builder, rows, "convergence row")


def _invlim_cauchy(truncation, builder: ReportBuilder) -> None:
    from .invlim import convergence_report, level_anchor_verdict

    for level, rows in enumerate(convergence_report(truncation)):
        verdict = level_anchor_verdict(truncation, level)
        witnesses = []
        scalars = {}
        if verdict.stabilized:
            witnesses.append("image chain stabilizes")
        if verdict.short_window:
            witnesses.append("window too short to judge; vacuous pass")
        if verdict.anchor_scale is not None:
            scalars = {
                "anchor_scale": verdict.anchor_scale,
                "anchor_from": verdict.anchor_from,
            }
        builder.check(
            f"tails cluster at level {level} inside the window",
            verdict.anchored,
            witnesses=witnesses,
            scalars=scalars,
        )
        _neighborhood_rows(builder, rows, "cauchy row")


def _invlim_separate(truncation, builder: ReportBuilder) -> None:
    from .invlim import separation_index, thread_space

    ts = thread_space(truncation)
    builder.info(
        "thread space",
        scalars={"threads": ts.space.n, "diameter": ts.space.diameter()},
    )
    for eps in ts.space.spectrum():
        result = separation_index(truncation, eps)
        builder.check(
            f"separation index exists for epsilon {eps}",
            result.found,
            scalars={
                "epsilon": eps,
                "level": result.level,
                "threshold": result.threshold,
            },
        )


def _invlim_perturb(doc, builder: ReportBuilder) -> None:
    from .invlim import perturbation_limit

    data = ladder_from_json(doc)
    report = perturbation_limit(data)
    for row in report.square_rows:
        builder.check(
            f"ladder square at level {row.level} stays within its budget",
            row.ok,
            witnesses=[] if row.witness is None else [row.witness],
            scalars={"budget": row.budget, "measured": row.measured},
        )
    for row in report.continuity_rows:
        builder.check(
            f"bonds from level {row.upper} to {row.lower} honor the alpha budget",
            row.ok,
            witnesses=[] if row.witness is None else [row.witness],
            scalars={"alpha": row.alpha, "bound": row.bound, "attained": row.attained},
        )
    for row in report.telescoping_rows:
        builder.check(
            f"telescoping step {row.stage} at level {row.level} within bound",
            row.ok,
            scalars={"bound": row.bound, "measured": row.measured},
        )
    for row in report.limit_rows:
        builder.check(
            f"limit map at level {row.level} within twice beta",
            row.ok,
            witnesses=[] if row.witness is None else [row.witness],
            scalars={"bound": row.bound, "measured": row.measured},
        )
    builder.info("limit thread map", witnesses=[list(report.thread_map)])
    if report.separation_note is not None:
        builder.info(
            "thread metric sections skipped", witnesses=[report.separation_note]
        )
    if report.unique is not None:
        for row in report.uniqueness_rows:
            builder.info(
                "uniqueness threshold",
                scalars={
                    "level": row.level,
                    "threshold": row.threshold,
                    "forced": row.forced,
                },
            )
        builder.info(
            "limit map pinned within thresholds", scalars={"unique": report.unique}
        )
    if report.injective_certified is not None:
        for row in report.injectivity_rows:
            builder.info(
                "injectivity constants",
                scalars={
                    "level": row.level,
                    "gamma": row.gamma,
                    "epsilon": row.epsilon,
                },
            )
        builder.check(
            "certified injectivity is observed",
            (not report.injective_certified) or report.injective_observed,
            scalars={
                "certified": report.injective_certified,
                "observed": report.injective_observed,
            },
        )


_INVLIM = {
    "threads": _invlim_threads,
    "ml": _invlim_ml,
    "converge": _invlim_converge,
    "cauchy": _invlim_cauchy,
    "separate": _invlim_separate,
}
INVLIM_MODES = (*_INVLIM, "perturb")


def _cmd_invlim(args: argparse.Namespace) -> ReportBuilder:
    doc, builder = _open(args, args.mode)
    if args.mode == "perturb":
        _invlim_perturb(doc, builder)
        return builder
    _INVLIM[args.mode](truncation_from_json(doc), builder)
    return builder


# ---- entry point ----

_COMMANDS = {
    "check": _cmd_check,
    "build": _cmd_build,
    "metrize": _cmd_metrize,
    "embed": _cmd_embed,
    "invlim": _cmd_invlim,
}


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "build":
        # "--grid -1,1" reads as "--grid=-1,1": argparse takes "-1,1" for an
        # option.  So does each abbreviation argparse expands to --grid.
        argv = list(argv)
        for i in range(len(argv) - 1, 0, -1):
            flag, value = argv[i - 1], argv[i]
            if (len(flag) > 2 and "--grid".startswith(flag)
                    and value[:1] == "-" and value[1:2].isdecimal()):
                argv[i - 1:i + 1] = [f"--grid={value}"]
    args = build_parser().parse_args(argv)
    try:
        builder = _COMMANDS[args.command](args)
        status = 0 if builder.all_passed else 1
        data = canonical_bytes(builder.finish(status))
    except StructuralError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(data.decode("ascii"))
    return status


if __name__ == "__main__":
    sys.exit(main())
