"""Seeded fuzz of the CLI contract: no traceback, exit 0 or 2 (1 only for validate).

Each case is one ``cli.main`` call in process, with argv and, half the
time, a JSON config of random values for every command.  Flags are
always named in full and given a value, so every bad value reaches the
key checks: a bad rational or grid, a moment list that is too short for
K, an out-of-range count, an exact value beyond float range.  Moment
lists hold at most 64 entries, so a large K or jmax on a custom sequence
fails fast, and jmax stays low where a 20-digit table would be slow.
"""

import json
import random
import time
from fractions import Fraction

from pstirling.cli import MAX_EDGEWORTH_N, MAX_JMAX, MAX_MOMENTS_N, main

SEED = 2026
CASES = 1200
CASE_SECONDS = 5.0  # per case; the slowest take well under 0.5 s on 2 cores

KINDS = {  # catalog name -> its parameter's key, or None
    "pointmass": "c", "rademacher": None, "bernoulli": "p", "uniformstd": None,
    "poisson": "lambda", "exponential": None, "gamma": "a", "normal": "sigma2",
}
MALFORMED = ["abc", "1/0", "1e400", "", "1/2/3", 0.5, True, None, [1], {"re": "1"}]
K_CAP = MAX_JMAX // 3


def rational(rng, digits=3, signed=True):
    p = rng.randint(-(10**digits) + 1 if signed else 1, 10**digits - 1)
    return str(p) if rng.random() < 0.4 else f"{p}/{rng.randint(1, 10**digits - 1)}"


def scalar(rng, style):
    if style == "huge":
        return str(rng.choice((10**20 - 1, rng.randint(10**19, 10**20 - 1))))
    if style == "complex" and rng.random() < 0.6:
        return {"re": rational(rng), "im": rational(rng)}
    return rational(rng, signed=style != "positive")


def moment_list(rng, standardized, styles=("small", "huge", "complex", "positive")):
    """Up to 64 moments of one style, the first ones 1, 0, 1 if ``standardized``; one may be bad."""
    style = rng.choice(styles)
    head = [1, 0, 1] if standardized else [rng.choice((1, 1, 1, "1", 2, 0))]
    size = rng.choice((rng.randint(0, 12), rng.randint(13, 64 - len(head)), 64 - len(head)))
    moments = head + [scalar(rng, style) for _ in range(size)]
    if rng.random() < 0.1:
        moments[rng.randrange(len(moments))] = rng.choice(MALFORMED)
    return moments


def dist(rng, argv, config, standardized=False):
    """Set a distribution by flag or by config: a catalog kind, a custom list or a bad name.

    A ``standardized`` draw favours 20-digit custom lists and the catalog's mean-0,
    variance-1 kinds, which an Edgeworth expansion takes.
    """
    roll = rng.random()
    if roll < (0.6 if standardized else 0.4):
        styles = ("huge", "huge", "small", "complex") if standardized else None
        config["dist"] = {"dist": "custom",
                          "moments": moment_list(rng, standardized, *filter(None, [styles]))}
        return
    if standardized and rng.random() < 0.7:
        argv += ["--dist", rng.choice(("rademacher", "uniformstd", "normal"))]
        return
    name = rng.choice(list(KINDS) + ["custom", "nosuch"])
    key = KINDS.get(name)
    value = rational(rng, signed=False) if rng.random() < 0.9 else rng.choice(MALFORMED)
    if roll < 0.7:
        argv += ["--dist", name]
        if key is not None and rng.random() < 0.9 and isinstance(value, str):
            argv.append(f"--param={value}")
    else:
        config["dist"] = {"dist": name, **({key: value} if key else {})}


def count(rng, value, low, cap):
    """Mostly value; sometimes just below low, or past the cap."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice((low - 1, -1))
    return cap + 1 if roll < 0.1 else value


def int_option(rng, argv, config, name, value):
    """An int as a flag, a config int, or a config string, or a malformed config value."""
    roll = rng.random()
    if roll < 0.6:
        argv.append(f"--{name.replace('_', '-')}={value}")
    elif roll < 0.95:
        config[name] = value if roll < 0.8 else str(value)
    else:
        config[name] = rng.choice((1.5, True, "ten", [value]))


def output(rng, argv):
    if rng.random() < 0.5:
        argv += ["--mode", rng.choice(("exact", "float"))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("csv", "json"))]


def grid(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(("1:2", "a:b:c", "0:1:0", "0:1:-1", "0:1:1/10000000", ""))
    start = Fraction(rng.randint(-40, 40), 10)
    step = Fraction(rng.randint(1, 20), 10)
    return f"{start}:{start + step * rng.randint(0, 3)}:{step}"


def case(rng, command):
    argv, config = [command], {}
    if command in ("stirling", "moments", "cumulants"):
        dist(rng, argv, config)
        if rng.random() < 0.9:
            int_option(rng, argv, config, "jmax", count(rng, rng.randint(0, 24), 0, MAX_JMAX))
        if command == "moments" and rng.random() < 0.95:
            n = rng.choice((rng.randint(0, 9), rng.randint(10, MAX_MOMENTS_N)))
            int_option(rng, argv, config, "n", count(rng, n, 0, MAX_MOMENTS_N))
        output(rng, argv)
    elif command == "levy":
        roll = rng.random()
        if roll < 0.5:
            argv += ["--dist", rng.choice(("poisson", "gamma", "unitjump", "gaussian", "nosuch"))]
        elif roll < 0.75:
            config["process"] = {"tau2": rational(rng, signed=False),
                                 "tstar_moments": moment_list(rng, False)}
        else:
            config["process"] = {"sigma2": rational(rng, signed=False),
                                 "kappa2": rational(rng, signed=False),
                                 "u_moments": moment_list(rng, False)}
        if rng.random() < 0.9:
            int_option(rng, argv, config, "jmax", count(rng, rng.randint(0, 24), 0, MAX_JMAX))
        if rng.random() < 0.7:
            t = rational(rng, signed=rng.random() < 0.2)
            argv.append(f"--t={t if rng.random() < 0.9 else rng.choice(('0', 'abc', '1/0'))}")
        output(rng, argv)
    elif command == "edgeworth":
        dist(rng, argv, config, standardized=rng.random() < 0.8)
        K = rng.choice((rng.randint(0, 8), rng.randint(9, 24), rng.randint(25, K_CAP)))
        moments = config.get("dist", {}).get("moments")
        if isinstance(moments, list) and rng.random() < 0.5:
            # about the most a custom list carries, as K reads 3K moments: a 20-digit
            # list of 52-64 entries reaches coefficients beyond float range there
            K = max(0, (len(moments) - 1) // 3 - rng.randint(0, 1))
        int_option(rng, argv, config, "K", count(rng, K, 0, K_CAP))
        if rng.random() < 0.3:
            jmax = rng.randint(2, 3 * K + 2)
            int_option(rng, argv, config, "jmax", count(rng, jmax, 0, MAX_JMAX))
        n = rng.choice((rng.randint(1, 64), MAX_EDGEWORTH_N))
        int_option(rng, argv, config, "n", count(rng, n, 1, MAX_EDGEWORTH_N))
        argv.append(f"--grid={grid(rng)}")
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(("csv", "json"))]
    else:
        argv += ["--suite", rng.choice(("all", "exact", "mc"))]
        int_option(rng, argv, config, "mc_samples", rng.randint(0, 200))
        if rng.random() < 0.5:
            int_option(rng, argv, config, "seed", rng.randint(-5, 10**6))
    return argv, config


def test_every_outcome_keeps_the_cli_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    commands = ("stirling", "moments", "cumulants", "levy", "edgeworth", "validate")
    path = tmp_path / "case.json"
    seen = set()
    for i in range(CASES):
        argv, config = case(rng, commands[i % len(commands)])
        if config:
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        where = f"case {i}: {argv} {json.dumps(config)[:300]}"
        assert elapsed < CASE_SECONDS, f"{where} took {elapsed:.1f} s"
        assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 2)), f"{where} exit {code}"
        if code == 2:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1, f"{where}: {err[:300]}"
            assert lines[0].startswith("pstirling: error:"), where
        else:
            assert out, where
        seen.add((argv[0], code))
    # the draw reaches both outcomes of every command
    assert {(c, code) for c in commands for code in (0, 2)} <= seen
