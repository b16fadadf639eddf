#!/usr/bin/env python3
"""Run the product trap experiment across several primes.

One integer polynomial f = f1*f2 + p*f3 is drawn per seed (degree 5 factors,
degree 10 cofactor, four variables).  Reduced mod p it is a genuine product,
so the test should flag it; reduced mod any other prime it keeps degree 10
with no forced factorization, so the test should pass it.  The script runs
the full planned test for each (seed, prime) pair and tabulates verdicts.

Usage:
    python3 scripts/trap_experiment.py
    python3 scripts/trap_experiment.py --runs 50 --primes 7 11 13 17 --verbose
"""

import argparse
import sys
import time

from irredtest import (
    COMPAT_S,
    GF,
    from_poly,
    make_product_trap_fixture,
    plan_test,
    run_irreducibility_test,
)
from irredtest.estimator import LIKELY_REDUCIBLE
from irredtest.fixtures import TRAP_SPREAD, TRAP_VARS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20,
                        help="number of seeded fixtures (default 20)")
    parser.add_argument("--epsilon", type=float, default=0.005,
                        help="per-tail error budget (default 0.005)")
    parser.add_argument("--primes", type=int, nargs="+", default=[7, 11, 13],
                        help="primes to reduce mod (default: 7 11 13)")
    parser.add_argument("--precise", action="store_true",
                        help="plan with the full-precision quantile")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per (seed, prime) run")
    args = parser.parse_args(argv)

    if TRAP_SPREAD not in args.primes:
        print(f"note: the trap prime {TRAP_SPREAD} is not among --primes; "
              "every column should then look irreducible", file=sys.stderr)

    s = None if args.precise else COMPAT_S
    fields, plans = {}, {}
    for p in args.primes:
        fields[p] = GF(p)
        plans[p] = plan_test(p, TRAP_VARS, args.epsilon, s=s)
        if not plans[p].feasible:
            print(f"plan for q={p}, n={TRAP_VARS} is infeasible, dropping it",
                  file=sys.stderr)
    primes = [p for p in args.primes if plans[p].feasible]

    print(f"runs = {args.runs}, epsilon = {args.epsilon}")
    for p in primes:
        plan = plans[p]
        print(f"  q={p:>2}: N = {plan.N}, threshold = {plan.threshold_k}")
    print()

    flagged = {p: 0 for p in primes}
    t0 = time.perf_counter()
    for seed in range(args.runs):
        fx = make_product_trap_fixture(seed)
        for p in primes:
            bb = from_poly(fx.reduce_mod(fields[p]))
            verdict = run_irreducibility_test(bb, plans[p], seed)
            reducible = verdict.outcome == LIKELY_REDUCIBLE
            flagged[p] += reducible
            if args.verbose:
                r = verdict.report
                print(f"seed {seed:>3} mod {p:>2}: k = {r.k:>4} / N = {r.N}"
                      f"  -> {verdict.outcome}")
    elapsed = time.perf_counter() - t0

    print(f"\nflagged as reducible, out of {args.runs} seeds:")
    for p in primes:
        expectation = "trap prime, should be high" if p == TRAP_SPREAD \
            else "should be low"
        print(f"  mod {p:>2}: {flagged[p]:>3}   ({expectation})")
    print(f"\ntotal time {elapsed:.1f} s "
          f"({elapsed / max(1, args.runs * len(primes)) * 1000:.0f} ms per run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
