"""Command-line front end: tables, sweeps, process moments, expansions, validation.

One binary with subcommands, each taking only the keys it reads, as flags
or JSON config keys; explicit flags win.  This module is the one reader of
outside input: every flag, config key and distribution or process spec is
parsed and bounded here, and the library takes typed values only.
Exact-mode output prints rationals as p/q strings, byte-identical across
runs; float mode prints shortest-roundtrip floats.  Exit codes: 0 success,
1 validation failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import re
import sys
from fractions import Fraction

# only what reading and checking the input need; each _cmd_* imports the
# modules it runs, so a command's process loads no other command's modules
from .powerseries import QC
from .randomvars import UNIFORM_STD, DistSpec, MomentSeq, custom, kind_record

# Input bounds, checked before any work starts; far above every documented use
MAX_JMAX = 200
MAX_MC_SAMPLES = 10**8
MAX_GRID_POINTS = 10**5
MAX_EDGEWORTH_N = 512
# edgeworth's exact Irwin-Hall column (uniformstd) takes about 0.23 s a grid point at
# n = 512 (2 cores, Python 3.11, the host's slower state) and 5.4-6.4x more each time n
# doubles from 64 to 512; a column predicted, at 6x, to take longer than this is refused
MAX_IRWIN_HALL_S = 60
# E S_n^j has up to j log10(n) more digits than E Y^j: 1200 at jmax = MAX_JMAX
MAX_MOMENTS_N = 10**6
# The most digits a rational input may have above and below its bar.  A
# poisson rate of d digits a part makes E Y^j about j*d digits long: at
# jmax 200, d = 20 runs for minutes, and d = 30 outgrows the 4300 digits
# that str(int) will write.
MAX_RATIONAL_DIGITS = 20
_RATIONAL_BOUND = 10**MAX_RATIONAL_DIGITS


def parse_rational(value, what: str) -> Fraction:
    """A rational from JSON or a flag: an int, or a "p/q" or plain decimal string.

    Its numerator and denominator have at most MAX_RATIONAL_DIGITS digits
    each.  A string is checked before Fraction reads it, since Fraction
    builds the whole int of an exponent ("1e10000000") or a long string
    first.  ValueError names ``what``.
    """
    error = ValueError(
        f"{what} must be a rational p/q of at most {MAX_RATIONAL_DIGITS} digits a part, "
        f"not {value!r:.60}"
    )
    # 3x leaves room for both parts, the bar, a sign, a point and spaces
    if isinstance(value, str) and (len(value) > 3 * MAX_RATIONAL_DIGITS or "e" in value.lower()):
        raise error
    if isinstance(value, (bool, float)):  # a JSON true or 0.1 is no p/q
        raise error
    try:
        q = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise error from None
    if abs(q.numerator) >= _RATIONAL_BOUND or q.denominator >= _RATIONAL_BOUND:
        raise error
    return q


def _count(low, high):
    """The check of a count: a JSON int or an integer string, in [low, high] (None: no bound)."""

    def read(value, key: str) -> int:
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                value = int(value)
        # a float or a bool is a type error, not a count
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, not {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{key} must be at least {low}, not {value}")
        if high is not None and value > high:
            raise ValueError(f"{key} must be at most {high}, not {value}")
        return value

    return read


def _choice(*choices):
    def read(value, key: str) -> str:
        if value not in choices:
            raise ValueError(f"{key} must be one of {', '.join(choices)}, not {value!r}")
        return value

    return read


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


# One row per key: its flag's help (None: config only) and its check, which
# returns the value the command reads or raises ValueError naming the key
# (None: the command's spec reader reads it).  A command has the keys its
# row in _COMMANDS names.
_KEYS = {
    "dist": ("catalog distribution or named process", None),
    "param": ("distribution parameter as a rational p/q", None),
    "process": (None, None),
    "jmax": ("maximum order", _count(0, MAX_JMAX)),
    "mode": ("numeric mode: exact (default) or float", _choice("exact", "float")),
    "seed": ("base seed for stochastic paths", _count(None, None)),
    "out": ("output path (default stdout)", _string),
    "format": ("output format: csv (default) or json", _choice("csv", "json")),
    # edgeworth's tighter bound is checked first thing in _cmd_edgeworth
    "n": ("number of summands", _count(None, MAX_MOMENTS_N)),
    "t": ("time point as a rational p/q", parse_rational),
    # an expansion of order K reads 3K moments
    "K": ("truncation order of the expansion", _count(0, MAX_JMAX // 3)),
    "grid": ("evaluation grid start:stop:step", _string),
    "suite": ("which checks to run: all (default), exact or mc", _choice("all", "exact", "mc")),
    "mc_samples": ("Monte Carlo sample count", _count(1, MAX_MC_SAMPLES)),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # every flag takes a value: -3/2 is one

    def error(self, message):
        # one line and exit 2, as every other bad input
        self.exit(2, f"pstirling: error: {message}\n")


@functools.cache
def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command: every command's name and help, only its flags.

    A call parses one command, so the other commands' flags are never
    built; ``command`` None (no command named) gives names and help alone.
    """
    parser = _Parser(
        prog="pstirling",
        description="probabilistic Stirling numbers, exact sum moments, cumulants, "
        "Levy/subordinator moments, and Edgeworth expansions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in keys:
            flag_help = _KEYS[key][0]
            if flag_help is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help)
    return parser


def _load_config(args) -> dict:
    """Each of the command's keys, from its flag, else the --config file, else its default; checked."""
    given = {}
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                given = json.load(fh)
            except RecursionError:
                raise ValueError(f"config {args.config} nests too deeply") from None
        if not isinstance(given, dict):
            raise ValueError("config must be a JSON object")
    defaults = _COMMANDS[args.subcommand][1]
    _refuse_other_keys(given, defaults, f"{args.subcommand} does not take the config key")
    flags = {key: value for key, value in vars(args).items() if key in defaults and value is not None}
    if "dist" in flags:
        # --dist and a config's process both name the levy process: the flag wins
        given.pop("process", None)
    given.update(flags)
    config = {}
    for key, default in defaults.items():
        check = _KEYS[key][1]
        if key in given:
            config[key] = check(given[key], key) if check else given[key]
        elif default is _REQUIRED:
            raise ValueError(f"{args.subcommand} needs --{key}")
        else:
            config[key] = default
    return config


# --- the distribution and process grammars ----------------------------------


def _refuse_other_keys(data: dict, keys, message: str) -> None:
    """Raise ValueError("<message> '<key>'") for the first key of data outside keys."""
    for key in data:
        if key not in keys:
            raise ValueError(f"{message} {key!r}")


def _spec_value(data: dict, key: str, owner: str, default=None):
    """data[key], or default when data has no key; None is an error naming the owner."""
    value = data.get(key, default)
    if value is None:
        raise ValueError(f"{owner} needs {key!r}")
    return value


def _spec_list(data: dict, key: str, owner: str, read) -> tuple:
    """The list data[key], each entry through read."""
    value = _spec_value(data, key, owner)
    if not isinstance(value, list):
        raise ValueError(f"{owner} needs {key!r} as a list, not {value!r}")
    return tuple(map(read, value))


def _moment(value) -> QC:
    """A custom moment: a rational, or a complex one {"re": ..., "im": ...} with its "re"."""
    if not isinstance(value, dict):
        return QC(parse_rational(value, "a moment"))
    if "re" not in value:
        raise ValueError(f"a complex moment needs 're', not {value!r}")
    _refuse_other_keys(value, ("re", "im"), "a complex moment does not take the key")
    return QC(*(parse_rational(value.get(k, 0), f"a moment's {k!r}") for k in ("re", "im")))


def dist_from_json(data: dict) -> DistSpec:
    """A spec {"dist": "<name>", <its kind's key, or "moments">: ...}; the kind's record names the key."""
    name = data.get("dist")
    record = kind_record(name)
    key = "moments" if record.moment_list else record.key
    owner = f"{name} spec"
    _refuse_other_keys(data, ("dist", key), f"a {owner} does not take the key")
    if record.moment_list:
        return custom(_spec_list(data, key, owner, _moment))
    if key is None:
        return DistSpec(name)
    return DistSpec(name, parse_rational(_spec_value(data, key, owner, record.default), repr(key)))


def process_from_json(data: dict, order: int):
    """A Levy process or subordinator spec, its moments kept 0..order as the named builders keep them.

    The key set picks the process family.  Every entry is read and
    checked, those past the order too, before the sequence is cut.
    """
    from .levy import LevySpec, SubordinatorSpec

    if "u_moments" in data:
        family, keys = LevySpec, ("sigma2", "kappa2", "u_moments")
    elif "tstar_moments" in data:
        family, keys = SubordinatorSpec, ("tau2", "tstar_moments")
    else:
        raise ValueError("process spec needs u_moments or tstar_moments")
    *names, moments = keys
    owner = "process spec"
    _refuse_other_keys(data, keys, f"a {owner} does not take the key")
    params = [parse_rational(_spec_value(data, key, owner), repr(key)) for key in names]
    mu = _spec_list(data, moments, owner, lambda v: parse_rational(v, f"a {moments} entry"))
    family(*params, MomentSeq(mu))  # checks the entries past the order too
    return family(*params, MomentSeq(mu[: order + 1]))


def _dist_spec(config) -> DistSpec:
    dist = config["dist"]
    if isinstance(dist, dict):
        if config["param"] is not None:
            raise ValueError("param is not meaningful beside a dist object; give the parameter in the object")
        return dist_from_json(dist)
    if dist is None:
        raise ValueError("a distribution is required: pass --dist or a config with one")
    data = {"dist": dist}
    if config["param"] is not None:
        key = kind_record(dist).key
        if key is None:
            raise ValueError(f"--param is not meaningful for {dist!r}")
        data[key] = config["param"]
    return dist_from_json(data)


def _scalar_str(value, mode: str) -> str:
    if mode == "float":
        try:
            c = complex(value)
        except OverflowError:
            raise ValueError("a value overflows a float in --mode float; use --mode exact") from None
        return repr(c.real) if c.imag == 0 else repr(c)
    if isinstance(value, QC):
        if value.is_real:
            return str(value.re)
        return f"{value.re}{'+' if value.im >= 0 else ''}{value.im}i"
    return str(value)


def _emit(header, rows, config) -> None:
    """Write formatted rows as CSV or JSON to --out or stdout, one row at a time.

    Commands format every row first, so a failing one writes nothing and creates no file.
    JSON is laid out exactly as json.dumps of the list of row objects, indent 2, and a newline.
    """
    out = config.get("out")
    with open(out, "w", encoding="utf-8", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        if config["format"] == "json":
            import json

            for i, row in enumerate(rows):
                text = json.dumps(dict(zip(header, row)), indent=2).replace("\n", "\n  ")
                fh.write(("[\n  " if i == 0 else ",\n  ") + text)
            fh.write("\n]\n" if rows else "[]\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")


def _parse_grid(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (parse_rational(p, "a grid value") for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = (stop - start) // step + 1 if stop >= start else 0
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid has {count} points, more than {MAX_GRID_POINTS}")
    return [start + i * step for i in range(count)]


def _cmd_stirling(config) -> int:
    from .randomvars import moments_of
    from .stirling import psn_egf

    table = psn_egf(moments_of(_dist_spec(config), config["jmax"]))
    mode = config["mode"]
    rows = []
    for j in range(table.order + 1):
        for m in range(j + 1):
            v = table.columns[m][j]
            rows.append((j, m, _scalar_str(v.re, mode), _scalar_str(v.im, mode)))
    _emit(("j", "m", "re", "im"), rows, config)
    return 0


def _cmd_moments(config) -> int:
    from .moments import sum_moments
    from .randomvars import moments_of

    n = config["n"]
    sweep = sum_moments(moments_of(_dist_spec(config), config["jmax"]), n).coeffs
    rows = [(n, j, _scalar_str(v, config["mode"])) for j, v in enumerate(sweep)]
    _emit(("n", "j", "value"), rows, config)
    return 0


def _cmd_cumulants(config) -> int:
    from .moments import cumulants_oracle
    from .randomvars import moments_of

    seq = cumulants_oracle(moments_of(_dist_spec(config), config["jmax"]))
    rows = [(j + 1, _scalar_str(v, config["mode"])) for j, v in enumerate(seq.kappa)]
    _emit(("j", "value"), rows, config)
    return 0


def _process_spec(config, jmax: int):
    from . import levy

    if isinstance(config["process"], dict):
        return process_from_json(config["process"], jmax)
    # --dist of the levy command: each named process and its builder, which takes the order
    named = {"poisson": levy.poisson_subordinator, "gamma": levy.gamma_subordinator,
             "unitjump": levy.compensated_unit_jump, "gaussian": levy.gaussian_part_only}
    dist = config["dist"]
    builder = named.get(dist) if isinstance(dist, str) else None
    if builder is None:
        raise ValueError(f"levy needs --dist {'|'.join(named)} or a config process spec")
    return builder(jmax)


def _cmd_levy(config) -> int:
    from .levy import levy_process_moments

    jmax, t, mode = config["jmax"], config["t"], config["mode"]
    # g_j(t), or a subordinator's h_j(t): E Y(t)^j / t^floor(j/2)
    sweep = levy_process_moments(_process_spec(config, jmax), jmax, t).coeffs
    rows = [(_scalar_str(t, mode), j, _scalar_str(v.as_fraction() / t ** (j // 2), mode))
            for j, v in enumerate(sweep)]
    _emit(("t", "j", "value"), rows, config)
    return 0


def _cmd_edgeworth(config) -> int:
    import warnings

    from .edgeworth import edgeworth_cdf, edgeworth_model, normal_cdf
    from .oracle import uniform_fn_exact

    n = config["n"]
    if n > MAX_EDGEWORTH_N:
        raise ValueError(f"n must be at most {MAX_EDGEWORTH_N}, not {n}")
    if n < 1:
        raise ValueError("edgeworth needs n >= 1")
    spec = _dist_spec(config)
    grid = _parse_grid(config["grid"])
    with_oracle = spec.kind == UNIFORM_STD
    if with_oracle:
        # the cost model beside MAX_IRWIN_HALL_S, checked before any work
        seconds = math.ceil(len(grid) * 0.23 * 6 ** math.log2(n / 512))
        if seconds > MAX_IRWIN_HALL_S:
            raise ValueError(
                f"the exact Irwin-Hall column of {len(grid)} grid points at n = {n} would take "
                f"about {seconds} s, more than {MAX_IRWIN_HALL_S} s"
            )
    model = edgeworth_model(spec, config["K"])
    rows = []
    # the library's warnings, one per call site as Python shows them, printed after the rows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for y in grid:
            yf = float(y)
            g = normal_cdf(yf)
            approx = edgeworth_cdf(model, n, yf)
            if with_oracle:
                exact = uniform_fn_exact(n, y)
                rows.append((yf, repr(g), repr(exact), repr(approx), repr(abs(approx - exact))))
            else:
                rows.append((yf, repr(g), repr(approx)))
    header = ("y", "G", "F_exact", "edgeworth", "abs_err") if with_oracle else ("y", "G", "edgeworth")
    _emit(header, rows, config)
    sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
    return 0


def _cmd_validate(config) -> int:
    from . import oracle

    reports = oracle.run_validation(config["suite"], config["seed"], config["mc_samples"])
    _emit(oracle.ValidationReport._fields, reports, {**config, "format": "json"})
    return 0 if all(r.passed for r in reports) else 1


_REQUIRED = object()  # in place of a default: the command needs the key given
# the keys of the commands that read one distribution, with their defaults
_DIST_KEYS = {"dist": None, "param": None, "jmax": 8, "mode": "exact", "out": None, "format": "csv"}

# each command: its help, every key it reads with its default (None: not given),
# and its runner; a command takes --config and no key outside its row
_COMMANDS = {
    "stirling": ("emit the probabilistic Stirling triangle", _DIST_KEYS, _cmd_stirling),
    "moments": ("emit E S_n^j for j = 0..jmax", {**_DIST_KEYS, "n": _REQUIRED}, _cmd_moments),
    "cumulants": ("emit cumulants kappa_1..kappa_jmax", _DIST_KEYS, _cmd_cumulants),
    "levy": ("emit Levy/subordinator moment functions at t",
             {"dist": None, "process": None, "jmax": 8, "mode": "exact", "out": None, "format": "csv",
              "t": 1}, _cmd_levy),
    "edgeworth": ("emit an Edgeworth CDF curve on a grid",
                  {"dist": None, "param": None, "out": None, "format": "csv",
                   "n": _REQUIRED, "K": 2, "grid": "-3:3:1/2"}, _cmd_edgeworth),
    "validate": ("run the validation suite and emit JSON reports",
                 {"seed": 7, "out": None, "suite": "all", "mc_samples": 10**6}, _cmd_validate),
}


def _run_unlimited(command, config) -> int:
    """command(config) with Python's int/str digit limit lifted, and restored after.

    Every input is bounded before this runs, and only those bounds bound
    the output: jmax, n and the digits of each rational, never their
    product.  An exact value's digits grow with jmax times the digits of
    the moments, and a table has about jmax^2/2 values, so
    ``stirling --config`` on a custom sequence with 19-digit entries
    prints about 24 MB at jmax 100.  The limit would only turn an exact
    value past 4300 digits into an error naming no input.  Python before
    3.10.7 has no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return command(config)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return command(config)
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extra = _build_parser(command).parse_known_args(argv)
    try:
        if extra:
            raise ValueError(f"{args.subcommand} does not take {extra[0]}")
        config = _load_config(args)
        return _run_unlimited(_COMMANDS[args.subcommand][2], config)
    except (ValueError, OSError) as exc:
        print(f"pstirling: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
