"""The benchmark's two workloads: inputs drawn from a seed, ops and checks.

``exact`` runs the exact-arithmetic pipeline: full Stirling tables at high
order, interleaved with the paper's identities checked by independent
routes at J=10.  ``float_cli`` runs the float consumers and oracles
(Edgeworth CDFs against the exact Irwin-Hall CDF, seeded Monte Carlo),
interleaved with CLI commands, each in a new process.

A workload is a fixed list of rounds, each a list of ops.  An op is one
call (or one short group of calls) into pstirling whose result is checked
outside the timed interval.  Everything an op needs is drawn while the
workload is built, which is part of set-up, so the timed phase runs only
the program.

No input repeats within a run: catalog sequences appear once each, in the
first round(s), and after them only newly drawn seeded custom inputs are
used, so no cache can serve an op from an earlier input's work.  (Most
identity checks of one ``exact`` round are on one sequence, as acceptance
criterion 2 does; that is the reuse a user checking one sequence gets.)
Calls go through module attributes (``stirling.psn_egf``), never through
names bound at import, so a tracer or a test can rebind them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, NamedTuple

from pstirling import edgeworth, levy, moments, oracle, powerseries, randomvars, stirling

QC = powerseries.QC

# Nominal length of one round on the reference machine (2 cores), so that
# --seconds S gives round(S / ROUND_S) rounds.  The op set of a run depends
# only on (workload, seed, seconds), never on how fast the program is.
ROUND_S = {
    "exact": 3.6,
    "float_cli": 1.7,
}


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[name]))


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]      # the timed call
    check: Callable[[object], bool]
    text: Callable[[object], str]  # canonical text of the exact output, for the digest


@dataclass
class Workload:
    name: str
    rounds: list
    warmup: Callable[[], None]
    spawns_children: bool = False
    max_bits: int = 0  # largest numerator or denominator bit length in a returned table
    draws: int = 0     # values of Y the run's estimator calls draw (n per sample_sum call)


def _qc_text(v) -> str:
    return f"{v.re}|{v.im}"


def _table_text(table) -> str:
    return ";".join(
        _qc_text(table.entry(j, m)) for j in range(table.order + 1) for m in range(j + 1)
    )


def _observe_bits(workload: Workload, table) -> None:
    for j in range(table.order + 1):
        for m in range(j + 1):
            v = table.entry(j, m)
            for q in (v.re, v.im):
                workload.max_bits = max(workload.max_bits, q.numerator.bit_length(),
                                        q.denominator.bit_length())


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _fresh_custom(rng, order, is_complex, seen, vanish=0):
    """A custom moment sequence never drawn before in this run.

    mu_1..mu_vanish are zero and mu_{vanish+1} is not, so the vanishing
    order is exactly ``vanish``; complex sequences have a nonzero
    imaginary part somewhere.
    """
    while True:
        mu = [QC(1)] + [QC(0)] * vanish
        for _ in range(vanish + 1, order + 1):
            im = _small_rational(rng) if is_complex else 0
            mu.append(QC(_small_rational(rng), im))
        key = tuple(mu)
        if vanish < order and mu[vanish + 1] == 0:
            continue
        if is_complex and all(v.im == 0 for v in mu):
            continue
        if key in seen:
            continue
        seen.add(key)
        return randomvars.MomentSeq(key)


def _interleave(ops, extra):
    """``ops`` with the ``extra`` ops spread evenly among them, order kept."""
    step = len(ops) / (len(extra) + 1)
    out = []
    for i, op in enumerate(extra):
        out.extend(ops[round(i * step):round((i + 1) * step)])
        out.append(op)
    out.extend(ops[round(len(extra) * step):])
    return out


# --- exact --------------------------------------------------------------------

# Orders of the full tables, taken in turn, TABLES_PER_ROUND a round.  The
# tables are the run's largest ops, so op_tail_ms lies among them; their
# costs (0.2 to 0.6 s on the reference machine) spread over ten steps
# rather than a few levels, so that order statistic moves with the
# machine's speed as smoothly as wall_s does (see MC_MOMENTS).
TABLE_ORDERS = tuple(range(24, 34))
TABLES_PER_ROUND = 5
CROSS_ORDER = 10
RECURSION_MAX_J = 8
RECURSION_N = 20


def _table_catalog(order: int):
    return (
        randomvars.moments_of(randomvars.uniform_std(), order),
        randomvars.hat_transform(randomvars.moments_of(randomvars.uniform_std(), order)),
        randomvars.moments_of(randomvars.exponential(), order),
        randomvars.moments_of(randomvars.poisson(1), order),
        randomvars.moments_of(randomvars.normal(1), order),
    )


def _table_op(wl, m):
    """One full table; checked against the series-log cumulants, which do
    not use psn_egf, and against S(j,1) = mu_j."""
    def check(table):
        _observe_bits(wl, table)
        if table.order != m.order:
            return False
        kappa = moments.cumulants_oracle(m).kappa
        for j in range(1, m.order + 1):
            acc = QC(0)
            for mm in range(1, j + 1):
                sign = -1 if (mm - 1) % 2 else 1
                acc = acc + (sign * factorial(mm - 1)) * table.entry(j, mm)
            if acc != kappa[j - 1] or table.entry(j, 1) != m[j]:
                return False
        return True

    return Op("table", lambda: stirling.psn_egf(m), check, _table_text)


def _acceptance_sequences(order: int):
    uni = randomvars.moments_of(randomvars.uniform_std(), order)
    rad = randomvars.moments_of(randomvars.rademacher(), order)
    return (
        rad,
        randomvars.moments_of(randomvars.bernoulli(Fraction(1, 2)), order),
        uni,
        randomvars.moments_of(randomvars.poisson(1), order),
        randomvars.moments_of(randomvars.exponential(), order),
        randomvars.moments_of(randomvars.normal(1), order),
        randomvars.hat_transform(uni),
        randomvars.hat_transform(rad),
    )


def _subordinator_moment_by_cumulants(spec, j: int, t: Fraction):
    """E (X(t)-t)^j from the cumulants kappa_i = t tau^2 E T*^{i-2}, i >= 2.

    Independent of levy's weighted-sum formula: the moment is coefficient
    j of exp of the cumulant series.
    """
    kappa = [0, 0] + [t * spec.tau2 * spec.tstar_moments[i - 2].re for i in range(2, j + 1)]
    return powerseries.egf_exp(powerseries.EGFSeries(tuple(kappa)))[j].re


def _exact_warmup():
    stirling.psn_egf(randomvars.moments_of(randomvars.uniform_std(), 6))
    stirling.psn_direct(randomvars.moments_of(randomvars.rademacher(), 4), 4, 2)


def build_exact(seed: int, n_rounds: int) -> Workload:
    """Each round checks every identity on one moment sequence at J=10 and
    builds TABLES_PER_ROUND full tables at high order, spread among the checks.

    The identities take the eight acceptance sequences in rounds 0-7, then
    fresh customs with the same vanishing order as the acceptance sequence
    of that slot, alternately real and complex.  The tables take catalog
    sequences in round 0, then fresh customs, half of them complex.
    """
    rng = random.Random(seed)
    seen = set()
    catalog = _acceptance_sequences(CROSS_ORDER)
    wl = Workload("exact", [], warmup=_exact_warmup)
    used_t = set()

    def fresh_t():
        while True:
            t = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if t not in used_t:
                used_t.add(t)
                return t

    for r in range(n_rounds):
        slot = r % len(catalog)
        if r < len(catalog):
            m = catalog[r]
        else:
            m = _fresh_custom(rng, CROSS_ORDER, slot % 2 == 1, seen,
                              vanish=randomvars.vanishing_order(catalog[slot]))
        if r == 0:
            sub = levy.poisson_subordinator(CROSS_ORDER)
        elif r == 1:
            sub = levy.gamma_subordinator(CROSS_ORDER)
        else:
            tstar = [Fraction(1)] + [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                     for _ in range(CROSS_ORDER)]
            sub = levy.SubordinatorSpec(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                                        randomvars.MomentSeq(tuple(tstar)))
        checks = _cross_round(wl, m, randomvars.vanishing_order(m), sub, fresh_t)

        tables = []
        for i in range(TABLES_PER_ROUND):
            k = r * TABLES_PER_ROUND + i
            order = TABLE_ORDERS[k % len(TABLE_ORDERS)]
            if r == 0:
                tm = _table_catalog(order)[i]
            else:
                # complex on alternate tables, flipped every pass over the orders
                is_complex = (k + k // len(TABLE_ORDERS)) % 2 == 1
                tm = _fresh_custom(rng, order, is_complex, seen)
            tables.append(_table_op(wl, tm))
        wl.rounds.append(_interleave(checks, tables))
    return wl


def _cross_round(wl, m, v, sub, fresh_t):
    ctx = {}
    J = m.order

    def build_table():
        ctx["table"] = stirling.psn_egf(m)
        return ctx["table"]

    def table_check(table):
        _observe_bits(wl, table)
        return table.order == J

    def against_table(j, mm):
        return lambda value: value == ctx["table"].entry(j, mm)

    ops = [Op("cross_table", build_table, table_check, _table_text)]
    for j in range(J + 1):
        for mm in range(j + 1):
            check = against_table(j, mm)
            ops.append(Op("psn_direct", lambda j=j, mm=mm: stirling.psn_direct(m, j, mm),
                          check, _qc_text))
            ops.append(Op("psn_via_classical",
                          lambda j=j, mm=mm: stirling.psn_via_classical(m, j, mm),
                          check, _qc_text))
            p = j - mm * (v + 1)
            if mm == 0 or p < 0 or p + v + 1 <= J:
                ops.append(Op("psn_gr_rep",
                              lambda j=j, mm=mm: stirling.psn_gr_rep(m, v, j, mm),
                              check, _qc_text))

    ops.append(Op(
        "cumulants",
        lambda: (moments.cumulants_from_stirling(m), moments.cumulants_from_sum_moments(m),
                 moments.cumulants_oracle(m)),
        lambda abc: abc[0].kappa == abc[1].kappa == abc[2].kappa,
        lambda abc: ";".join(_qc_text(k) for k in abc[2].kappa),
    ))

    for j in range(1, min(RECURSION_MAX_J, J) + 1):
        tau = j // (v + 1)
        if tau < 1:
            continue
        for n in sorted({tau, 2 * tau + 1, RECURSION_N}):
            ops.append(Op(
                "recursion",
                lambda n=n, j=j: (moments.sum_moment_recursion(m, n, j),
                                  moments.sum_moment(m, n, j)),
                lambda pair: pair[0] == pair[1],
                lambda pair: _qc_text(pair[0]),
            ))

    for j in range(2, J + 1):
        t = fresh_t()

        def run(j=j, t=t):
            return levy.cm_coefficients(sub, j), levy.subordinator_moment_h(sub, j, t)

        def check(out, j=j, t=t):
            coeffs, h = out
            half = j // 2
            from_coeffs = sum(c * t ** (k + 1 - half) for k, c in enumerate(coeffs))
            return (all(c >= 0 for c in coeffs) and h == from_coeffs
                    and h * t ** half == _subordinator_moment_by_cumulants(sub, j, t))

        ops.append(Op("levy", run, check,
                      lambda out: ";".join(str(c) for c in out[0]) + "|" + str(out[1])))
    return ops


# --- float_cli ----------------------------------------------------------------

# One round holds ORACLE_PER_ROUND rounds of Edgeworth points and estimator
# calls, with one round of the six CLI commands spread among them.
ORACLE_PER_ROUND = 3
# Edgeworth grid points per oracle round for each n; uniform_fn_exact costs
# about 0.15, 0.42, 1.9 and 10 ms per point at these n.
EDGEWORTH_POINTS = {8: 3, 16: 2, 32: 1, 64: 1}
# Criterion 11 bounds the K=2 sup error ratio between n and 2n by 0.7 and
# puts K=4 strictly below K=2; the band starts from twice the K=2 sup
# error on [-3, 3] at n=8 (1.3e-4).
EDGEWORTH_BAND_8 = 2.6e-4
DKW_DELTA = 1e-6
MC_SIGMAS = 6.0
CDF_GRID = tuple((2 * i + 1) / 8 for i in range(-8, 8))

# Sample counts put the 16 estimator calls of an oracle round on a ladder
# of costs from 3 to 40 ms on the reference machine, and op_p50_ms lies
# among them.  The machine's speed wanders by up to 1.6x for seconds to
# minutes at a time: the median of ops of one equal cost jumps by that
# whole factor when the slow share of a run crosses one half, while the
# median of a spread of costs wider than the factor moves with the slow
# share as smoothly as wall_s does.
# (spec, n, j, samples) for mc_sum_moment over the samplable catalog
MC_MOMENTS = (
    (randomvars.point_mass(2), 2, 3, 1100),
    (randomvars.point_mass(Fraction(-3, 2)), 2, 2, 1300),
    (randomvars.rademacher(), 2, 4, 2500),
    (randomvars.bernoulli(Fraction(1, 2)), 3, 2, 340),
    (randomvars.uniform_std(), 4, 2, 2400),
    (randomvars.poisson(1), 2, 2, 1900),
    (randomvars.exponential(), 2, 3, 3800),
    (randomvars.gamma_shape(Fraction(5, 2)), 2, 2, 950),
    (randomvars.normal(1), 3, 4, 2100),
)
# (spec, n, samples) for mc_empirical_cdf, each with an exact CDF below
MC_CDFS = (
    (randomvars.uniform_std(), 4, 12000),
    (randomvars.rademacher(), 4, 7900),
    (randomvars.bernoulli(Fraction(1, 2)), 4, 950),
    (randomvars.poisson(1), 4, 3600),
    (randomvars.exponential(), 2, 11400),
    (randomvars.gamma_shape(Fraction(5, 2)), 2, 2600),
    (randomvars.normal(1), 3, 6100),
)

# The six commands of acceptance criterion 13, as run in round 0.
CLI_COMMANDS = (
    ["stirling", "--dist", "uniformstd", "--jmax", "8"],
    ["moments", "--dist", "poisson", "--param", "1", "--n", "7", "--jmax", "8"],
    ["cumulants", "--dist", "rademacher", "--jmax", "8"],
    ["levy", "--dist", "gamma", "--t", "1/2", "--jmax", "8"],
    ["edgeworth", "--dist", "uniformstd", "--n", "16", "--K", "2", "--grid=-2:2:1/2"],
    ["validate", "--suite", "exact"],
)
# --jmax of the stirling command in later rounds, stepping from round to
# round: the command then costs 135 to 225 ms on the reference machine,
# which overlaps validate (about 215 ms), so the commands near op_tail_ms
# are spread in cost rather than one command repeated (see MC_MOMENTS).
STIRLING_JMAX = tuple(range(8, 17))

# Runs cli.main() for each argv read from stdin and prints [code, stdout]
# for each, so the expected outputs come from a process of their own and
# warm no cache of the worker's.
_CAPTURE = """\
import contextlib, io, json, sys
from pstirling import cli
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out.append([code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def _edgeworth_band(n: int) -> float:
    return EDGEWORTH_BAND_8 * 0.7 ** math.log2(n / 8)


def _erlang_cdf(shape: int, x: float) -> float:
    if x <= 0:
        return 0.0
    term, total = 1.0, 1.0
    for k in range(1, shape):
        term *= x / k
        total += term
    return 1.0 - math.exp(-x) * total


def _exact_cdf(spec, n: int, y: float) -> float:
    """P(S_n / sqrt(n mu_2) <= y) from the known law of S_n."""
    if spec.kind == randomvars.UNIFORM_STD:
        return oracle.uniform_fn_exact(n, y)
    if spec.kind == randomvars.NORMAL:
        return 0.5 * math.erfc(-y / math.sqrt(2.0))
    mu2 = float(randomvars.moments_of(spec, 2)[2].re)
    x = y * math.sqrt(n * mu2)
    if spec.kind == randomvars.RADEMACHER:   # S_n = 2B - n, B ~ Binomial(n, 1/2)
        return sum(comb(n, b) for b in range(n + 1) if 2 * b - n <= x) / 2**n
    if spec.kind == randomvars.BERNOULLI:
        p = float(spec.param)
        return sum(comb(n, b) * p**b * (1 - p) ** (n - b) for b in range(n + 1) if b <= x)
    if spec.kind == randomvars.POISSON:
        lam = n * float(spec.param)
        return sum(math.exp(-lam) * lam**k / factorial(k) for k in range(math.floor(x) + 1))
    if spec.kind == randomvars.EXPONENTIAL:
        return _erlang_cdf(n, x)
    if spec.kind == randomvars.GAMMA_SHAPE:
        shape = n * spec.param
        if shape.denominator != 1:
            raise ValueError("exact gamma CDF needs an integer total shape")
        return _erlang_cdf(int(shape), x)
    raise ValueError(f"no exact CDF for {spec.kind!r}")


def _fresh_cli_commands(rng, used, jmax):
    """The same six commands with newly drawn parameters.

    ``validate --suite exact`` takes no input, so it repeats; every command
    runs in a fresh process, so nothing carries over between ops.
    """
    def fresh(tag, draw):
        while True:
            value = draw()
            if (tag, value) not in used:
                used.add((tag, value))
                return str(value)

    def proper():  # a rational in (0, 1)
        q = rng.randint(2, 60)
        return Fraction(rng.randint(1, q - 1), q)

    def positive():
        return Fraction(rng.randint(1, 40), rng.randint(1, 12))

    start = fresh("grid", lambda: Fraction(rng.randint(-192, 192), 64) - 2)
    stop = str(Fraction(start) + 4)
    return (
        ["stirling", "--dist", "bernoulli", "--param", fresh("p", proper), "--jmax", str(jmax)],
        ["moments", "--dist", "poisson", "--param", fresh("lambda", positive),
         "--n", str(rng.randint(2, 12)), "--jmax", "8"],
        ["cumulants", "--dist", "gamma", "--param", fresh("a", positive), "--jmax", "8"],
        ["levy", "--dist", "gamma", "--t", fresh("t", positive), "--jmax", "8"],
        ["edgeworth", "--dist", "uniformstd", "--n", "16", "--K", "2",
         f"--grid={start}:{stop}:1/2"],
        ["validate", "--suite", "exact"],
    )


def cli_env(root: str) -> dict:
    """Environment for a CLI child: the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _capture_cli(argvs, root, env):
    """{argv: (exit code, stdout bytes)} of in-process ``cli.main()``, run in a child."""
    distinct = sorted({tuple(a) for a in argvs})
    done = subprocess.run([sys.executable, "-c", _CAPTURE], cwd=root, env=env,
                          input=json.dumps(distinct).encode("utf-8"),
                          stdout=subprocess.PIPE, timeout=120, check=True)
    outs = json.loads(done.stdout.decode("utf-8"))
    return {argv: (code, text.encode("utf-8")) for argv, (code, text) in zip(distinct, outs)}


def build_float_cli(seed: int, n_rounds: int, root: str) -> Workload:
    """Float consumers and oracles, with CLI commands spread among them.

    One oracle op is one Edgeworth grid point (K=2 and K=4 against the
    exact Irwin-Hall CDF) or one seeded estimator call.  One CLI op runs
    one command as ``python -m pstirling.cli`` in a new process; its stdout
    must be byte-identical to in-process ``main()`` output for the same
    argv, captured during set-up.
    """
    rng = random.Random(seed)
    n_oracle = n_rounds * ORACLE_PER_ROUND
    # every estimator call gets its own stream seed; streams never overlap
    calls = n_oracle * (len(MC_MOMENTS) + len(MC_CDFS))
    stream_seeds = iter(rng.sample(range(1, 10**9, 1000), calls))
    ys = {n: iter(rng.sample(range(-768, 769), n_oracle * k))
          for n, k in EDGEWORTH_POINTS.items()}
    models = {}

    # reference values for the checks, computed once in set-up
    mc_refs = []
    for spec, n, j, _ in MC_MOMENTS:
        mom = randomvars.moments_of(spec, 2 * j)
        mean = moments.sum_moment(mom, n, j).re
        var = moments.sum_moment(mom, n, 2 * j).re - mean * mean
        mc_refs.append((float(mean), math.sqrt(float(var))))
    cdf_refs = [[_exact_cdf(spec, n, y) for y in CDF_GRID] for spec, n, _ in MC_CDFS]

    wl = Workload("float_cli", [], warmup=lambda: oracle.mc_sum_moment(
        randomvars.uniform_std(), 2, 2, 10, 1), spawns_children=True)

    def model_op(K):
        def run():
            models[K] = edgeworth.edgeworth_model(randomvars.uniform_std(), K=K)
            return models[K]

        def check(model):
            _observe_bits(wl, model.hat_table)
            return model.K == K

        return Op("edgeworth_model", run, check, lambda model: _table_text(model.hat_table))

    def point_op(n, y):
        def run():
            return (oracle.uniform_fn_exact(n, y), edgeworth.edgeworth_cdf(models[2], n, y),
                    edgeworth.edgeworth_cdf(models[4], n, y))

        def check(out):
            exact, e2, e4 = out
            band = _edgeworth_band(n)
            return 0.0 <= exact <= 1.0 and abs(e2 - exact) <= band and abs(e4 - exact) <= band

        return Op("edgeworth_point", run, check, lambda out: "|".join(map(repr, out)))

    def moment_op(spec, n, j, samples, ref, stream):
        wl.draws += samples * n
        mean, sd = ref

        def check(est):
            slack = 1e-12 * max(1.0, abs(mean))  # float rounding of an exact mean
            return abs(est.value - mean) <= MC_SIGMAS * sd / math.sqrt(samples) + slack

        return Op("mc_sum_moment",
                  lambda: oracle.mc_sum_moment(spec, n, j, samples, stream),
                  check, lambda est: f"{est.value!r}|{est.stderr!r}")

    def cdf_op(spec, n, samples, exact, stream):
        wl.draws += samples * n

        def check(emp):
            worst = max(abs(f - e) for (_, f), e in zip(emp.points, exact))
            return worst <= emp.dkw_bound

        return Op("mc_empirical_cdf",
                  lambda: oracle.mc_empirical_cdf(spec, n, CDF_GRID, samples, stream,
                                                  delta=DKW_DELTA),
                  check, lambda emp: ";".join(repr(f) for _, f in emp.points))

    env = cli_env(root)
    used = set()
    argvs = [CLI_COMMANDS if r == 0 else
             _fresh_cli_commands(rng, used, STIRLING_JMAX[r % len(STIRLING_JMAX)])
             for r in range(n_rounds)]
    expected = _capture_cli([a for round_argvs in argvs for a in round_argvs], root, env)

    def command_op(argv):
        code, stdout = expected[tuple(argv)]

        def run():
            done = subprocess.run([sys.executable, "-m", "pstirling.cli", *argv], cwd=root,
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=120)
            return done.returncode, done.stdout

        def check(out):
            return code == 0 and out == (0, stdout)

        return Op("cli." + argv[0], run, check, lambda out: out[1].decode("utf-8"))

    for r in range(n_rounds):
        ops = []
        for q in range(r * ORACLE_PER_ROUND, (r + 1) * ORACLE_PER_ROUND):
            # the two Edgeworth models have fixed inputs, so they are built once
            if q == 0:
                ops += [model_op(2), model_op(4)]
            for n, k in EDGEWORTH_POINTS.items():
                for _ in range(k):
                    ops.append(point_op(n, next(ys[n]) / 256))
            for (spec, n, j, samples), ref in zip(MC_MOMENTS, mc_refs):
                ops.append(moment_op(spec, n, j, samples, ref, next(stream_seeds)))
            for (spec, n, samples), exact in zip(MC_CDFS, cdf_refs):
                ops.append(cdf_op(spec, n, samples, exact, next(stream_seeds)))
        wl.rounds.append(_interleave(ops, [command_op(list(a)) for a in argvs[r]]))
    return wl


WORKLOADS = ("exact", "float_cli")


def build(name: str, seed: int, n_rounds: int, root: str) -> Workload:
    if name == "exact":
        return build_exact(seed, n_rounds)
    if name == "float_cli":
        return build_float_cli(seed, n_rounds, root)
    raise ValueError(f"unknown workload {name!r}")
