"""Command line front end.

Subcommands: `plan` prints the sampling plan for one (q, n); `table`
prints reference grids as CSV; `run` builds an oracle, samples it and
reports JSON; `dist` compares analytic zero-count models with brute-force
enumeration.  Exit codes: 0 success (or LikelyIrreducible), 1 usage or
oracle error, 2 infeasible plan, 3 LikelyReducible.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import islice, product

from .blackbox import (
    curve_determinantal_matrix,
    det_rank_bb,
    from_poly,
    load_poly_matrix,
    singular_curve_bb,
    ternary_monomials,
)
from .errors import Error, OrderOverflow, RangeError, TooLarge, _integer, _quoted, _shown
from .estimator import (
    INFEASIBLE,
    LIKELY_REDUCIBLE,
    estimate_gamma,
    run_irreducibility_test,
)
from .fields import GF, ORDER_CAP, make_field, power_exceeds
from .fixtures import make_product_trap_fixture
from .planner import COMPAT_S, emit_table_csv, plan_test
from .polynomials import parse_poly
from .stats import (
    det_expectation,
    gamma_model,
    intersection_model,
    product_model,
    substitution_model,
    brute_force_distribution,
)

# most functions `dist` enumerates by brute force, and most rows it prints
_BF_LIMIT = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fraction(text):
    """argparse type of --gamma-x; "1/0" is a usage error like "abc"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {_quoted(text)}") from None


def _int(text):
    """argparse type of every integer option: errors._integer, whose refusal
    quotes at most 20 characters of the text, as a usage error."""
    try:
        return _integer(text)
    except RangeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text):
    """argparse type of --seed and --fixture-seed: an integer in [0, 2^64).

    The generator is keyed by 64 bits; a seed outside that range would be
    reduced silently, so -1 would give the run of 2^64 - 1.
    """
    value = _int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed outside [0, 2^64): {_shown(value)!r}")
    return value


@functools.cache
def _build_parser():
    """The argparse tree, built once per process; parsing leaves it as it was."""
    parser = _Parser(prog="irredtest", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("-e", "--epsilon", type=float, default=0.005)
    common.add_argument(
        "--compat-s258",
        action="store_true",
        help="plan with the tabulated quantile 2.58 instead of the precise one",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", parents=[common], help="sampling plan for one (q, n)")
    p_plan.add_argument("-q", type=_int, required=True)
    p_plan.add_argument("-n", type=_int, required=True)
    p_plan.set_defaults(handler=cmd_plan)

    p_table = sub.add_parser("table", parents=[common], help="reference grid as CSV")
    p_table.add_argument("--which", choices=("N", "threshold"), required=True)
    p_table.set_defaults(handler=cmd_table)

    p_run = sub.add_parser("run", parents=[common], help="sample an oracle")
    p_run.add_argument("-q", type=_int, help="prime field order shorthand")
    p_run.add_argument("--field", help="field spec, e.g. 7 or 2^4:1,1,0,0,1")
    p_run.add_argument("-n", type=_int, help="number of variables (with --poly)")
    p_run.add_argument("--poly", help="polynomial text over x1..xn")
    p_run.add_argument("--matrix", help="matrix file; oracle is the rank-drop locus")
    p_run.add_argument("--fixture", choices=("trap", "curve", "singular"))
    p_run.add_argument("--fixture-seed", type=_seed, help="fixture seed (fixture trap; default 0)")
    p_run.add_argument("-d", "--degree", type=_int, help="form degree (fixture singular; default 3)")
    p_run.add_argument("--ext-bound", type=_int, help="extension search bound (fixture singular)")
    p_run.add_argument("-N", "--samples", type=_int, help="estimate only, with this many draws")
    p_run.add_argument("--exact", action="store_true", help="exhaustive count instead of sampling")
    p_run.add_argument("--seed", type=_seed, default=0)
    p_run.set_defaults(handler=cmd_run)

    p_dist = sub.add_parser("dist", help="zero-count distributions")
    p_dist.add_argument("--kind", required=True,
                        choices=("single", "product", "intersection", "substitution", "det"))
    p_dist.add_argument("-q", type=_int, required=True)
    p_dist.add_argument("-n", type=_int, help="number of variables (not det; default 1)")
    p_dist.add_argument("--x-count", type=_int,
                        help="size of the fixed point set (intersection, substitution)")
    p_dist.add_argument("--m", type=_int, help="target dimension (substitution)")
    p_dist.add_argument("--gamma-x", type=_fraction,
                        help="target density as a fraction, e.g. 1/3 (substitution)")
    p_dist.add_argument("--rows", type=_int, help="matrix rows (det; default 2)")
    p_dist.add_argument("--cols", type=_int, help="matrix columns (det; default 2)")
    p_dist.set_defaults(handler=cmd_dist)
    return parser


def _plan_quantile(args):
    return COMPAT_S if args.compat_s258 else None


def cmd_plan(args) -> int:
    plan = plan_test(args.q, args.n, args.epsilon, s=_plan_quantile(args))
    # the fields in declaration order, up to feasible=false if infeasible
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        print(f"{field.name}={str(value).lower() if type(value) is bool else value}")
        if field.name == "feasible" and not value:
            return 2
    return 0


def cmd_table(args) -> int:
    sys.stdout.write(emit_table_csv(args.epsilon, args.which, s=_plan_quantile(args)))
    return 0


def _run_field(args):
    if args.field and args.q is not None:
        raise _UsageError("give either -q or --field, not both")
    if args.field:
        return make_field(args.field)
    if args.q is not None:
        return GF(args.q)
    raise _UsageError("a field is required (-q or --field)")


def _run_oracle(args):
    sources = [s for s in (args.poly, args.matrix, args.fixture) if s]
    if len(sources) != 1:
        raise _UsageError("exactly one of --poly, --matrix, --fixture is required")
    # a flag that this oracle would ignore is refused, not dropped
    if args.matrix and (args.q is not None or args.field):
        raise _UsageError("--matrix takes its field from the file, not from -q or --field")
    if args.n is not None and not args.poly:
        raise _UsageError("-n applies to --poly only")
    if args.ext_bound is not None and args.fixture != "singular":
        raise _UsageError("--ext-bound applies to --fixture singular only")
    if args.degree is not None and args.fixture != "singular":
        raise _UsageError("-d applies to --fixture singular only")
    if args.fixture_seed is not None and args.fixture != "trap":
        raise _UsageError("--fixture-seed applies to --fixture trap only")
    if args.matrix:
        return det_rank_bb(load_poly_matrix(args.matrix))
    field = _run_field(args)
    if args.poly:
        if args.n is None:
            raise _UsageError("--poly needs -n (number of variables)")
        return from_poly(parse_poly(args.poly, field, args.n), label="cli poly")
    if args.fixture == "trap":
        seed = 0 if args.fixture_seed is None else args.fixture_seed
        fixture = make_product_trap_fixture(seed)
        return from_poly(fixture.reduce_mod(field), label=f"trap(seed={seed})")
    if args.fixture == "curve":
        return det_rank_bb(curve_determinantal_matrix(field))
    degree = 3 if args.degree is None else args.degree
    return singular_curve_bb(degree, field, ext_bound=args.ext_bound)


def _report_json(bb, seed, report, verdict=None) -> str:
    """The `run` JSON: the measurement, and for a planned run the plan and
    outcome.  Keys with nothing to report (no sample drawn) are null."""
    payload = {
        "q": bb.field.q,
        "n": bb.n,
        "N": report.N if report else None,
        "k": report.k if report else None,
        "p_hat": report.p_hat if report else None,
        "half_width": report.interval.half_width if report else None,
        "mode": report.mode if report else None,
        "seed": seed,
        "elapsed": report.elapsed if report else None,
    }
    if verdict is not None:
        plan = verdict.plan
        payload.update(
            s=plan.s,
            p1=plan.p1,
            p2=plan.p2,
            p_middle=plan.p_middle,
            threshold_k=plan.threshold_k,
            outcome=verdict.outcome,
        )
    return json.dumps(payload)


def cmd_run(args) -> int:
    if args.exact and args.samples is not None:
        raise _UsageError("-N applies to sampled runs, not to --exact")
    if args.compat_s258 and (args.exact or args.samples is not None):
        raise _UsageError("--compat-s258 applies to planned runs, not to -N or --exact")
    bb = _run_oracle(args)
    if args.exact or args.samples is not None:
        report = estimate_gamma(
            bb, args.samples or 0, args.seed, epsilon=args.epsilon,
            mode="exact" if args.exact else "auto",
        )
        print(_report_json(bb, args.seed, report))
        return 0
    plan = plan_test(bb.field.q, bb.n, args.epsilon, s=_plan_quantile(args))
    verdict = run_irreducibility_test(bb, plan, args.seed)
    print(_report_json(bb, args.seed, verdict.report, verdict))
    if verdict.outcome == INFEASIBLE:
        return 2
    return 3 if verdict.outcome == LIKELY_REDUCIBLE else 0


def _first_points(q, dims, count):
    """The first `count` points of F_q^dims in enumeration order (none
    for a negative count).

    A generator, so brute_force_distribution rejects an oversized case
    before any point, or even product's `dims` pools, is built.
    """
    yield from islice(product(range(q), repeat=dims), max(count, 0))


# the flags of `dist` that only some kinds read, and those kinds
_DIST_FLAGS = (
    ("-n", "n", ("single", "product", "intersection", "substitution")),
    ("--rows", "rows", ("det",)),
    ("--cols", "cols", ("det",)),
    ("--x-count", "x_count", ("intersection", "substitution")),
    ("--m", "m", ("substitution",)),
    ("--gamma-x", "gamma_x", ("substitution",)),
)


def cmd_dist(args) -> int:
    for flag, name, kinds in _DIST_FLAGS:
        if getattr(args, name) is not None and args.kind not in kinds:
            raise _UsageError(f"{flag} does not apply to --kind {args.kind}")
    q = args.q
    if args.kind == "det":
        rows = 2 if args.rows is None else args.rows
        cols = 2 if args.cols is None else args.cols
        p = det_expectation(q, rows, cols)
        print(f"# kind=det q={q} rows={rows} cols={cols} expectation={float(p)}")
        return 0
    n = 1 if args.n is None else args.n
    brute_args = {}  # keyword arguments of the brute-force column, None for none
    if args.kind == "single":
        model = gamma_model(q, n)
    elif args.kind == "product":
        model = product_model(q, n)
    elif args.kind == "intersection":
        if args.x_count is None:
            raise _UsageError("--kind intersection needs --x-count")
        model = intersection_model(q, n, args.x_count)
        brute_args = {"x_points": _first_points(q, n, args.x_count)}
    else:
        with_target = args.x_count is not None and args.m is not None
        if args.gamma_x is not None:
            gamma_x = args.gamma_x
        elif with_target:
            if q < 2 or args.m < 1:
                raise _UsageError("--x-count with --m needs -q >= 2 and --m >= 1")
            if power_exceeds(q, args.m, ORDER_CAP - 1):
                raise OrderOverflow(f"{_shown(q)}^{_shown(args.m)} target points exceed 2^63")
            gamma_x = Fraction(args.x_count, q**args.m)
        else:
            raise _UsageError("--kind substitution needs --gamma-x or --x-count with --m")
        model = substitution_model(q, n, gamma_x)
        brute_args = None
        if with_target:
            brute_args = {"x_points": _first_points(q, args.m, args.x_count), "m": args.m}
    if model.trials + 1 > _BF_LIMIT:
        raise TooLarge(f"{model.trials + 1} rows exceed the limit {_BF_LIMIT}")
    brute = None
    if brute_args is not None:
        try:
            brute = brute_force_distribution(q, n, args.kind, limit=_BF_LIMIT, **brute_args)
        except Error:
            pass  # beyond the limit or not enumerable: no brute-force column
    print(
        f"# kind={args.kind} q={q} n={n} trials={model.trials}"
        f" mean={float(model.mean_fraction())}"
    )
    print("k,p_analytic" + (",p_bruteforce" if brute else ""))
    rows = max(model.trials, len(brute) - 1 if brute else 0)
    exact_ok = model.trials <= 1000  # beyond that, rationals get enormous
    for k in range(rows + 1):
        analytic = float(model.pmf(k)) if exact_ok else model.pmf_float(k)
        line = f"{k},{analytic}"
        if brute:
            bf = brute[k] if k < len(brute) else Fraction(0)
            line += f",{float(bf)}"
        print(line)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of stdout left early (`| head`): point stdout at devnull
        # so that the flush at exit does not fail too, and exit 1 without a
        # message, as Python's documented SIGPIPE recipe does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
