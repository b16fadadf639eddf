"""The four workloads of the irredtest benchmark.

Every input comes from a fixed pool, so that each output can be checked
against reference.json (written by make_reference.py).  The workload seed
picks and orders pool entries with the standard library's random module;
the library sees only the resulting fixtures, polynomials, oracles and
sampling seeds.

A workload is driven in rounds.  A round holds one item of each kind the
workload mixes, and a pass of PASS_ROUNDS rounds visits every input of
the run once.  Untraced runs end on a whole pass, so the mix of item
kinds behind the latency median is the same on every run and every seed.
An item returns (points, value): the points it probed, sampled or
enumerated, and a JSON-comparable value that must equal the reference.
"""

import contextlib
import functools
import io
import json
import random

EPSILON = 0.005


def _pick(rnd, pool, count):
    """`count` distinct indices of range(pool), in an order drawn from `rnd`."""
    return rnd.sample(range(pool), count)


class Workload:
    """Shared driving code; subclasses define the inputs, set-up and items."""

    name = None
    # nominal seconds per round on a 2-core Xeon with CPython 3.11; sizes
    # the fixed-length traced run, so it only needs to be roughly right
    ROUND_S = None
    # per-layer metrics that must be nonzero in a traced run
    EXPECT_NONZERO = ()
    # rounds after which round(state, r) repeats its inputs: one pass
    PASS_ROUNDS = None

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed

    def inputs(self):
        """The generated inputs of this run, as JSON data."""
        raise NotImplementedError

    def setup(self):
        """Build the oracles and plans the items use."""
        raise NotImplementedError

    def round(self, state, r):
        """Items of round r as (kind, key, call) triples."""
        raise NotImplementedError

    def pool_items(self):
        """(kind, key, call) for every pool entry, for the reference."""
        raise NotImplementedError

    def check(self, key, value, want):
        """None when `value` is right, else a message."""
        if value != want:
            return f"{key}: got {value!r}, reference {want!r}"
        return None

    def summary_errors(self, values):
        """Checks over all distinct outputs of a run ({key: value})."""
        return []


class TrapVerdict(Workload):
    """c07: f = f1*f2 + 7*f3 reduced mod 7 (a product) and mod 11, 13."""

    name = "trap-verdict"
    PRIMES = (7, 11, 13)
    NVARS = 4
    POOL = 64
    PER_RUN = 2
    PASS_ROUNDS = PER_RUN
    ROUND_S = 0.6
    EXPECT_NONZERO = (
        "rng.blocks",
        "rng.draws",
        "estimator.points_built",
        "blackbox.probes.trap",
        "blackbox.zero_hits.trap",
        "blackbox.oracle_setup_s",
        "polynomials.evaluate_calls",
        "polynomials.terms_evaluated",
        "polynomials.build_s",
        "planner.plan_calls",
        "stats.interval_calls",
    )

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.fixture_seeds = _pick(random.Random(seed), self.POOL, self.PER_RUN)

    def inputs(self):
        return {"fixture_seeds": self.fixture_seeds}

    def setup(self, fixture_seeds=None):
        lib = self.lib
        fields = {p: lib.GF(p) for p in self.PRIMES}
        plans = {
            p: lib.plan_test(p, self.NVARS, EPSILON, s=lib.COMPAT_S)
            for p in self.PRIMES
        }
        rounds = []
        for f in fixture_seeds or self.fixture_seeds:
            fx = lib.make_product_trap_fixture(f)
            rounds.append(
                [
                    (f"{f}:{p}", lib.from_poly(fx.reduce_mod(fields[p])), plans[p], f)
                    for p in self.PRIMES
                ]
            )
        return rounds

    def round(self, state, r):
        return [
            ("trap", key, functools.partial(self._verdict, bb, plan, f))
            for key, bb, plan, f in state[r % len(state)]
        ]

    def _verdict(self, bb, plan, seed):
        verdict = self.lib.run_irreducibility_test(bb, plan, seed)
        report = verdict.report
        return report.N, [report.N, report.k, verdict.outcome]

    def pool_items(self):
        state = self.setup(range(self.POOL))
        for r in range(len(state)):
            yield from self.round(state, r)

    def summary_errors(self, values):
        # c07's rates: at least 18 in 20 caught mod 7 and kept mod 11, 13
        errors = []
        for p in self.PRIMES:
            want = self.lib.LIKELY_REDUCIBLE if p == 7 else self.lib.LIKELY_IRREDUCIBLE
            outcomes = [v[2] for k, v in values.items() if k.endswith(f":{p}")]
            right = sum(o == want for o in outcomes)
            if outcomes and 20 * right < 18 * len(outcomes):
                errors.append(f"mod {p}: {want} in only {right}/{len(outcomes)}")
        return errors


def small_poly_text(q, j):
    """Pool entry j over F_q: four terms in x1..x3; odd j give a product
    (a*m1 + b)*(c*m2 + d) of two binomials, which also expands to four
    terms, so both halves cost about the same to evaluate."""
    rnd = random.Random(1000 * q + j)

    def monomials(count):
        seen = set()
        while len(seen) < count:
            exps = tuple(rnd.randrange(3) for _ in range(3))
            if any(exps):
                seen.add(exps)
        return sorted(seen)

    def text(c, exps):
        factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e]
        return "*".join([str(c)] + factors)

    def coeff():
        return rnd.randrange(1, q)

    if j % 2:
        m1, m2 = monomials(2)
        return f"({text(coeff(), m1)} + {coeff()})*({text(coeff(), m2)} + {coeff()})"
    terms = [text(coeff(), m) for m in monomials(3)]
    return " + ".join(terms + [str(coeff())])


class SmallPolyVerdict(Workload):
    """Planned verdicts through the CLI on small sparse polynomials at n=3."""

    name = "small-poly-verdict"
    QS = (7, 11, 13)
    NVARS = 3
    POOL = 96
    PER_RUN = 4
    PASS_ROUNDS = PER_RUN
    ROUND_S = 0.5
    EXPECT_NONZERO = (
        "rng.blocks",
        "rng.draws",
        "estimator.points_built",
        "blackbox.probes.small-poly",
        "blackbox.oracle_setup_s",
        "polynomials.evaluate_calls",
        "polynomials.parse_s",
        "planner.plan_calls",
        "stats.interval_calls",
        "cli.main_calls",
        "cli.self_s",
    )

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rnd = random.Random(seed)
        self.texts = self._texts({q: _pick(rnd, self.POOL, self.PER_RUN) for q in self.QS})

    def _texts(self, entries):
        return {q: [(j, small_poly_text(q, j)) for j in entries[q]] for q in self.QS}

    def inputs(self):
        return {str(q): [text for _, text in self.texts[q]] for q in self.QS}

    def setup(self, texts=None):
        # parse and plan each input once, as a library caller would; the
        # CLI repeats this work inside every item
        lib = self.lib
        texts = texts or self.texts
        for q in self.QS:
            field = lib.GF(q)
            lib.plan_test(q, self.NVARS, EPSILON, s=lib.COMPAT_S)
            for _, text in texts[q]:
                lib.from_poly(lib.parse_poly(text, field, self.NVARS))
        return [[(q, j, text) for j, text in texts[q]] for q in self.QS]

    def round(self, state, r):
        items = []
        for per_q in state:
            q, j, text = per_q[r % len(per_q)]
            argv = [
                "run", "--poly", text, "-q", str(q), "-n", str(self.NVARS),
                "--compat-s258", "--seed", str(j),
            ]
            items.append(("small-poly", f"{q}:{j}", functools.partial(self._cli, argv)))
        return items

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(argv)
        report = json.loads(out.getvalue())
        return report["N"], [code, report["N"], report["k"], report["outcome"]]

    def pool_items(self):
        state = self.setup(self._texts({q: range(self.POOL) for q in self.QS}))
        for r in range(self.POOL):
            yield from self.round(state, r)

    def check(self, key, value, want):
        code, _, _, outcome = value
        expected_code = 3 if outcome == self.lib.LIKELY_REDUCIBLE else 0
        if code != expected_code:
            return f"{key}: exit code {code} does not match outcome {outcome}"
        return super().check(key, value, want)


class OracleEstimate(Workload):
    """Sampled zero fractions of the three non-polynomial oracle kinds."""

    name = "oracle-estimate"
    # draws per estimate, balanced so each kind takes about 60 ms: short
    # items give a run many passes, and their fastest pass is steadier;
    # kinds of equal cost keep the median over all items from jumping
    # between kinds as the seed changes which inputs a run draws
    DRAWS = {"rank": 800, "singular-gf3e2": 18, "singular-gf2e4": 1100}
    POOL = 64
    PER_RUN = 10
    PASS_ROUNDS = PER_RUN
    ROUND_S = 0.16
    EXPECT_NONZERO = (
        "rng.blocks",
        "rng.draws",
        "estimator.points_built",
        "blackbox.probes.rank",
        "blackbox.probes.singular-gf3e2",
        "blackbox.probes.singular-gf2e4",
        "blackbox.matrix_rank_calls",
        "blackbox.oracle_setup_s",
        "polynomials.evaluate_calls",
        "polynomials.parse_s",
        "fields.ext_mul_calls",
        "fields.ext_add_calls",
        "fields.extension_setup_s",
        "stats.interval_calls",
    )

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rnd = random.Random(seed)
        self.seeds = {kind: _pick(rnd, self.POOL, self.PER_RUN) for kind in self.DRAWS}

    def inputs(self):
        return {"draws": self.DRAWS, "sampling_seeds": self.seeds}

    def setup(self):
        lib = self.lib
        return {
            "rank": lib.det_rank_bb(lib.curve_determinantal_matrix(lib.GF(7))),
            # the generic extension-tuple path and the packed-XOR path
            "singular-gf3e2": lib.singular_curve_bb(3, lib.GF(3), ext_bound=2),
            "singular-gf2e4": lib.singular_curve_bb(3, lib.GF(2), ext_bound=4),
        }

    def round(self, state, r, seeds=None):
        seeds = seeds or self.seeds
        items = []
        for kind, draws in self.DRAWS.items():
            s = seeds[kind][r % len(seeds[kind])]
            call = functools.partial(self._estimate, state[kind], draws, s)
            items.append((kind, f"{kind}:{s}", call))
        return items

    def _estimate(self, bb, draws, seed):
        # mode="sample": GF(2)^10 has only 1024 points, and "auto" would
        # switch the 1100-draw estimate to exhaustive counting
        report = self.lib.estimate_gamma(bb, draws, seed, epsilon=EPSILON, mode="sample")
        return report.N, [report.N, report.k]

    def pool_items(self):
        state = self.setup()
        seeds = {kind: list(range(self.POOL)) for kind in self.DRAWS}
        for r in range(self.POOL):
            yield from self.round(state, r, seeds)


class ExactSweep(Workload):
    """Exhaustive zero counts of dense sextics over F_3^4 (the c10 family),
    every third item a brute-force zero-count pmf against its model."""

    name = "exact-sweep"
    NVARS, DEGREE = 4, 6
    DOMAIN = 3**4
    # c10 draws its sextics from this stream of each seed
    SEXTIC_STREAM = 1 << 32
    POOL = 1024
    PER_RUN = 256
    PASS_ROUNDS = PER_RUN // 2
    DIST_CASES = (
        ("single", 2, 1),
        ("single", 2, 2),
        ("single", 2, 3),
        ("single", 3, 1),
        ("single", 3, 2),
        ("single", 5, 1),
        ("product", 2, 1),
        ("product", 2, 2),
        ("product", 3, 1),
    )
    ROUND_S = 0.01
    EXPECT_NONZERO = (
        "rng.blocks",
        "estimator.exact_points",
        "estimator.exact_s",
        "blackbox.probes.sextic",
        "blackbox.oracle_setup_s",
        "polynomials.evaluate_calls",
        "polynomials.terms_evaluated",
        "polynomials.build_s",
        "stats.brute_force_functions",
        "stats.brute_force_s",
        "stats.pmf_s",
    )

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        rnd = random.Random(seed)
        self.sextic_seeds = _pick(rnd, self.POOL, self.PER_RUN)
        self.case_order = _pick(rnd, len(self.DIST_CASES), len(self.DIST_CASES))

    def inputs(self):
        return {
            "sextic_seeds": self.sextic_seeds,
            "dist_cases": [self.DIST_CASES[i] for i in self.case_order],
        }

    def setup(self, sextic_seeds=None):
        lib = self.lib
        field = lib.GF(3)
        return [
            (s, lib.from_poly(lib.random_dense_poly(
                field, self.NVARS, self.DEGREE,
                lib.RandomStream(s, stream=self.SEXTIC_STREAM),
            )))
            for s in sextic_seeds or self.sextic_seeds
        ]

    def round(self, state, r):
        items = []
        for s, bb in (state[2 * r % len(state)], state[(2 * r + 1) % len(state)]):
            items.append(("sextic", f"sextic:{s}", functools.partial(self._exact, bb)))
        kind, q, n = self.DIST_CASES[self.case_order[r % len(self.case_order)]]
        items.append(("dist", f"dist:{kind}:{q}:{n}", functools.partial(self._dist, kind, q, n)))
        return items

    def _exact(self, bb):
        return self.DOMAIN, str(self.lib.exact_gamma(bb))

    def _dist(self, kind, q, n):
        lib = self.lib
        brute = lib.brute_force_distribution(q, n, kind)
        model = lib.gamma_model(q, n) if kind == "single" else lib.product_model(q, n)
        analytic = model.pmf_vector()
        return 0, [[str(x) for x in brute], [str(x) for x in analytic]]

    def pool_items(self):
        state = self.setup(range(self.POOL))
        for s, bb in state:
            yield "sextic", f"sextic:{s}", functools.partial(self._exact, bb)
        for kind, q, n in self.DIST_CASES:
            yield "dist", f"dist:{kind}:{q}:{n}", functools.partial(self._dist, kind, q, n)

    def check(self, key, value, want):
        if key.startswith("dist:") and value[0] != value[1]:
            return f"{key}: brute force {value[0]} differs from the model {value[1]}"
        return super().check(key, value, want)


WORKLOADS = {
    cls.name: cls for cls in (TrapVerdict, SmallPolyVerdict, OracleEstimate, ExactSweep)
}
