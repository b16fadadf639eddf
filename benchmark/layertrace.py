"""Layer tracing for the benchmark, installed from outside the library.

Each wrapper replaces a public name where its callers look it up, a
module global or a class attribute, and leaving the Tracer's with-block
puts the original back.  Calls at layer boundaries become spans (id,
parent id, name, start, end) kept in memory; hot leaves, called once per
draw, Philox block, probe, evaluation or field operation, only add to a
count and a busy time so that tracing stays affordable.  A span's self time is its
duration minus that of its child spans.
"""

import importlib
import time

_MISSING = object()

PROBE_KINDS = ("trap", "small-poly", "rank", "singular-gf3e2", "singular-gf2e4", "sextic")

PER_LAYER = (
    [
        ("rng.blocks", "count"),
        ("rng.draws", "count"),
        ("rng.rejections", "count"),
        ("rng.busy_s", "s"),
        ("rng.blocks_per_s", "1/s"),
        ("estimator.points_built", "count"),
        ("estimator.point_build_s", "s"),
        ("estimator.points_per_s", "1/s"),
        ("estimator.exact_points", "count"),
        ("estimator.exact_s", "s"),
    ]
    + [
        (f"blackbox.{metric}.{kind}", unit)
        for kind in PROBE_KINDS
        for metric, unit in (
            ("probes", "count"),
            ("probe_s", "s"),
            ("probes_per_s", "1/s"),
            ("zero_hits", "count"),
            ("hit_ratio", "ratio"),
        )
    ]
    + [
        ("blackbox.matrix_rank_calls", "count"),
        ("blackbox.matrix_rank_s", "s"),
        ("blackbox.oracle_setup_s", "s"),
        ("polynomials.evaluate_calls", "count"),
        ("polynomials.terms_evaluated", "count"),
        ("polynomials.evaluate_s", "s"),
        ("polynomials.evals_per_s", "1/s"),
        ("polynomials.parse_s", "s"),
        ("polynomials.build_s", "s"),
        ("fields.ext_mul_calls", "count"),
        ("fields.ext_add_calls", "count"),
        ("fields.ext_op_s", "s"),
        ("fields.extension_setup_s", "s"),
        ("planner.plan_calls", "count"),
        ("planner.plan_s", "s"),
        ("stats.interval_calls", "count"),
        ("stats.interval_s", "s"),
        ("stats.brute_force_functions", "count"),
        ("stats.brute_force_s", "s"),
        ("stats.pmf_s", "s"),
        ("cli.main_calls", "count"),
        ("cli.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _functions_enumerated(args, kwargs):
    # the function space brute_force_distribution walks, per its docstring
    q, n, kind = (_arg(args, kwargs, i, k) for i, k in enumerate(("q", "n", "kind")))
    per = q ** (q**n)
    if kind == "product":
        return per * per
    if kind == "substitution":
        return (q ** _arg(args, kwargs, 4, "m")) ** (q**n)
    return per


# (owner, attribute, span name, counter, counted amount); an owner is a
# module path or "module:Class".  A span is named after the function it
# wraps, and a function has one wrapper per namespace its callers use.
SPANS = (
    ("irredtest.cli", "main", "cli.main", None, None),
    ("irredtest", "plan_test", "planner.plan_test", None, None),
    ("irredtest.cli", "plan_test", "planner.plan_test", None, None),
    ("irredtest", "parse_poly", "polynomials.parse_poly", None, None),
    ("irredtest.cli", "parse_poly", "polynomials.parse_poly", None, None),
    ("irredtest.blackbox", "parse_poly", "polynomials.parse_poly", None, None),
    ("irredtest", "make_product_trap_fixture", "polynomials.make_product_trap_fixture", None, None),
    ("irredtest:ProductTrapFixture", "reduce_mod", "polynomials.reduce_mod", None, None),
    ("irredtest", "random_dense_poly", "polynomials.random_dense_poly", None, None),
    ("irredtest", "from_poly", "blackbox.from_poly", None, None),
    ("irredtest.cli", "from_poly", "blackbox.from_poly", None, None),
    ("irredtest", "curve_determinantal_matrix", "blackbox.curve_determinantal_matrix", None, None),
    ("irredtest", "det_rank_bb", "blackbox.det_rank_bb", None, None),
    ("irredtest", "singular_curve_bb", "blackbox.singular_curve_bb", None, None),
    ("irredtest.blackbox", "extension_of", "fields.extension_of", None, None),
    ("irredtest", "run_irreducibility_test", "estimator.run_irreducibility_test", None, None),
    ("irredtest.cli", "run_irreducibility_test", "estimator.run_irreducibility_test", None, None),
    ("irredtest", "estimate_gamma", "estimator.estimate_gamma", None, None),
    ("irredtest.estimator", "estimate_gamma", "estimator.estimate_gamma", None, None),
    (
        "irredtest.estimator", "count_zeros", "estimator.count_zeros",
        "estimator.points_built", lambda a, k: _arg(a, k, 1, "n_samples"),
    ),
    (
        "irredtest", "exact_gamma", "estimator.exact_gamma",
        "estimator.exact_points", lambda a, k: a[0].field.q ** a[0].n,
    ),
    (
        "irredtest.estimator", "exact_gamma", "estimator.exact_gamma",
        "estimator.exact_points", lambda a, k: a[0].field.q ** a[0].n,
    ),
    ("irredtest.estimator", "wald_interval", "stats.wald_interval", None, None),
    (
        "irredtest", "brute_force_distribution", "stats.brute_force_distribution",
        "stats.brute_force_functions", _functions_enumerated,
    ),
    ("irredtest:BinomialModel", "pmf_vector", "stats.pmf_vector", None, None),
)

# (owner, attribute, leaf name) of the hot leaves counted the plain way;
# next_below, next_u32, is_zero_at and evaluate have wrappers of their own
LEAVES = (
    ("irredtest.rng", "philox4x32", "rng.philox4x32"),
    ("irredtest:ExtensionField", "mul", "fields.ext_mul"),
    ("irredtest:ExtensionField", "add", "fields.ext_add"),
    ("irredtest.blackbox", "matrix_rank", "blackbox.matrix_rank"),
)


class TraceError(RuntimeError):
    """A patch target is missing, or a layer that must work recorded nothing."""


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        if not hasattr(obj, cls):
            raise TraceError(f"patch target {owner} is missing")
        obj = getattr(obj, cls)
    return obj


class Tracer:
    """Counts, busy times and spans of one traced pass.

    Use as a context manager; set `kind` to the probe kind of the item
    about to run, so probes are booked under it.
    """

    def __init__(self):
        self.kind = None
        self.spans = []
        self.counts = {}
        self.span_total = {}
        self.span_self = {}
        self.leaf = {}  # name -> [calls, busy seconds]
        self.probes = {kind: [0, 0.0, 0] for kind in PROBE_KINDS}  # calls, busy, hits
        self.point_build_s = 0.0
        self.rejections = 0
        self.terms = 0
        self._stack = []  # open spans: [id, child seconds, probe seconds]
        self._saved = []

    # -- install / uninstall ------------------------------------------

    def _patch(self, owner, attr, make):
        obj = _resolve(owner)
        if not hasattr(obj, attr):
            raise TraceError(f"patch target {owner}.{attr} is missing")
        original = getattr(obj, attr)
        self._saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, make(original))

    def __enter__(self):
        try:
            for owner, attr, name, counter, amount in SPANS:
                self._patch(owner, attr, lambda fn, n=name, c=counter, a=amount: self._span(n, fn, c, a))
            for owner, attr, name in LEAVES:
                self._patch(owner, attr, lambda fn, n=name: self._leaf(n, fn))
            self._patch("irredtest:RandomStream", "next_u32", self._next_u32)
            self._patch("irredtest:RandomStream", "next_below", self._next_below)
            self._patch("irredtest:BlackBox", "is_zero_at", self._is_zero_at)
            self._patch("irredtest:SparsePolynomial", "evaluate", self._evaluate)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, counter, amount):
        perf = time.perf_counter
        stack, spans, counts = self._stack, self.spans, self.counts
        total, own = self.span_total, self.span_self
        total.setdefault(name, 0.0)
        own.setdefault(name, 0.0)
        if counter:
            counts.setdefault(counter, 0)
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += amount(args, kwargs)
            counts[name] += 1
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0, 0.0]
            spans.append(None)  # keeps ids in start order
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total[name] += duration
                own[name] += duration - frame[1]
                if name == "estimator.count_zeros":
                    self.point_build_s += duration - frame[1] - frame[2]
                spans[frame[0]] = (frame[0], parent, name, start, end)

        return wrapper

    def _leaf(self, name, fn):
        perf = time.perf_counter
        cell = self.leaf.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            cell[1] += perf() - start
            cell[0] += 1
            return result

        return wrapper

    def _next_u32(self, fn):
        cell = self.leaf.setdefault("rng.next_u32", [0, 0.0])

        def next_u32(stream):
            cell[0] += 1
            return fn(stream)

        return next_u32

    def _next_below(self, fn):
        perf = time.perf_counter
        cell = self.leaf.setdefault("rng.next_below", [0, 0.0])
        words = self.leaf["rng.next_u32"]

        def next_below(stream, bound):
            before = words[0]
            start = perf()
            result = fn(stream, bound)
            cell[1] += perf() - start
            cell[0] += 1
            # one 32-bit word per accepted draw below 2^32, two above
            self.rejections += (words[0] - before) // (1 if bound <= 1 << 32 else 2) - 1
            return result

        return next_below

    def _is_zero_at(self, fn):
        perf = time.perf_counter
        stack = self._stack
        depth = [0]

        def is_zero_at(bb, point):
            if depth[0]:  # a combinator probing its parts: one probe
                return fn(bb, point)
            cell = self.probes[self.kind]
            depth[0] = 1
            start = perf()
            try:
                hit = fn(bb, point)
            finally:
                depth[0] = 0
            elapsed = perf() - start
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += bool(hit)
            if stack:
                stack[-1][2] += elapsed
            return hit

        return is_zero_at

    def _evaluate(self, fn):
        perf = time.perf_counter
        cell = self.leaf.setdefault("polynomials.evaluate", [0, 0.0])

        def evaluate(poly, point):
            start = perf()
            result = fn(poly, point)
            cell[1] += perf() - start
            cell[0] += 1
            self.terms += len(poly.terms)
            return result

        return evaluate

    # -- results ------------------------------------------------------

    def metrics(self, overhead_ratio):
        """Every per-layer metric by name, as {name: value}."""

        def leaf(name):
            return self.leaf.get(name, [0, 0.0])

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def spent(*names):
            return sum(self.span_total.get(n, 0.0) for n in names)

        def calls(*names):
            return sum(self.counts.get(n, 0) for n in names)

        blocks, philox_s = leaf("rng.philox4x32")
        draws, draw_s = leaf("rng.next_below")
        evals, eval_s = leaf("polynomials.evaluate")
        muls, mul_s = leaf("fields.ext_mul")
        adds, add_s = leaf("fields.ext_add")
        ranks, rank_s = leaf("blackbox.matrix_rank")
        points = self.counts.get("estimator.points_built", 0)
        out = {
            "rng.blocks": blocks,
            "rng.draws": draws,
            "rng.rejections": self.rejections,
            "rng.busy_s": draw_s,
            "rng.blocks_per_s": rate(blocks, philox_s),
            "estimator.points_built": points,
            "estimator.point_build_s": self.point_build_s,
            "estimator.points_per_s": rate(points, self.point_build_s),
            "estimator.exact_points": self.counts.get("estimator.exact_points", 0),
            "estimator.exact_s": spent("estimator.exact_gamma"),
        }
        for kind, (probes, probe_s, hits) in self.probes.items():
            out[f"blackbox.probes.{kind}"] = probes
            out[f"blackbox.probe_s.{kind}"] = probe_s
            out[f"blackbox.probes_per_s.{kind}"] = rate(probes, probe_s)
            out[f"blackbox.zero_hits.{kind}"] = hits
            out[f"blackbox.hit_ratio.{kind}"] = hits / probes if probes else 0.0
        out.update(
            {
                "blackbox.matrix_rank_calls": ranks,
                "blackbox.matrix_rank_s": rank_s,
                "blackbox.oracle_setup_s": spent(
                    "blackbox.from_poly",
                    "blackbox.curve_determinantal_matrix",
                    "blackbox.det_rank_bb",
                    "blackbox.singular_curve_bb",
                ),
                "polynomials.evaluate_calls": evals,
                "polynomials.terms_evaluated": self.terms,
                "polynomials.evaluate_s": eval_s,
                "polynomials.evals_per_s": rate(evals, eval_s),
                "polynomials.parse_s": spent("polynomials.parse_poly"),
                "polynomials.build_s": spent(
                    "polynomials.make_product_trap_fixture",
                    "polynomials.reduce_mod",
                    "polynomials.random_dense_poly",
                ),
                "fields.ext_mul_calls": muls,
                "fields.ext_add_calls": adds,
                "fields.ext_op_s": mul_s + add_s,
                "fields.extension_setup_s": spent("fields.extension_of"),
                "planner.plan_calls": calls("planner.plan_test"),
                "planner.plan_s": spent("planner.plan_test"),
                "stats.interval_calls": calls("stats.wald_interval"),
                "stats.interval_s": spent("stats.wald_interval"),
                "stats.brute_force_functions": self.counts.get("stats.brute_force_functions", 0),
                "stats.brute_force_s": spent("stats.brute_force_distribution"),
                "stats.pmf_s": spent("stats.pmf_vector"),
                "cli.main_calls": calls("cli.main"),
                "cli.self_s": self.span_self.get("cli.main", 0.0),
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return out

