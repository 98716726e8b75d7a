"""Command-line front end: tables, sweeps, process moments, expansions, validation.

One binary with subcommands, each taking only the keys it reads, as flags
or JSON config keys; explicit flags win.  Exact-mode output prints
rationals as p/q strings, byte-identical across runs; float mode prints
shortest-roundtrip floats.  Exit codes: 0 success, 1 validation failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

# only what parsing and checking the config need; each _cmd_* imports the
# modules it runs, so a command's process loads no other command's modules
from .powerseries import QC
from .randomvars import UNIFORM_STD, DistSpec, dist_from_json, only_keys, param_key, parse_rational

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

# the values a flag or a config may give these fields
_CHOICES = {"mode": ("exact", "float"), "format": ("csv", "json"), "suite": ("all", "exact", "mc")}

# the help of each flag; a command has the flags its row in _COMMANDS names
_FLAGS = {
    "dist": "catalog distribution or named process",
    "param": "distribution parameter as a rational p/q",
    "jmax": "maximum order",
    "mode": "numeric mode: exact (default) or float",
    "seed": "base seed for stochastic paths",
    "out": "output path (default stdout)",
    "format": "output format: csv (default) or json",
    "n": "number of summands",
    "t": "time point as a rational p/q",
    "K": "truncation order of the expansion",
    "grid": "evaluation grid start:stop:step",
    "suite": "which checks to run: all (default), exact or mc",
    "mc_samples": "Monte Carlo sample count",
}

class _Parser(argparse.ArgumentParser):
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
            if key in _FLAGS:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAGS[key])
    return parser


def _load_config(args) -> dict:
    config = {}
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except RecursionError:
                raise ValueError(f"config {args.config} nests too deeply") from None
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
    keys = _COMMANDS[args.subcommand][1]
    only_keys(config, keys, f"{args.subcommand} does not take the config key")
    flags = {key: value for key, value in vars(args).items() if key in keys and value is not None}
    if "dist" in flags:
        # --dist and a config's process both name the levy process: the flag wins
        config.pop("process", None)
    merged = {**config, **flags}
    merged.setdefault("mode", "exact")
    merged.setdefault("format", "csv")
    merged.setdefault("seed", 7)
    _check_fields(merged, args.subcommand)
    return merged


_INTEGER_FIELDS = ("jmax", "n", "K", "seed", "mc_samples")


def _check_fields(config: dict, subcommand: str) -> None:
    """Reject, or normalize in place, flag or config values of the wrong type or size."""
    for key in _INTEGER_FIELDS:
        if key in config:
            config[key] = _integer(key, config[key])
    _check_range(config, "jmax", 0, MAX_JMAX)
    _check_range(config, "mc_samples", 1, MAX_MC_SAMPLES)
    # an expansion of order K reads 3K moments; K < 0 is edgeworth_model's to reject
    _check_range(config, "K", None, MAX_JMAX // 3)
    # only moments and edgeworth take n; n < 1 is _cmd_edgeworth's to reject
    _check_range(config, "n", None, MAX_EDGEWORTH_N if subcommand == "edgeworth" else MAX_MOMENTS_N)
    for key, choices in _CHOICES.items():
        if key in config and config[key] not in choices:
            raise ValueError(f"{key} must be one of {', '.join(choices)}, not {config[key]!r}")
    if "t" in config:
        config["t"] = parse_rational(config["t"], "t")
    for key in ("out", "grid"):
        if not isinstance(config.get(key, ""), str):
            raise ValueError(f"{key} must be a string, not {config[key]!r}")


def _check_range(config: dict, key: str, low, high: int) -> None:
    value = config.get(key)
    if value is None:
        return
    if low is not None and value < low:
        raise ValueError(f"{key} must be at least {low}, not {value}")
    if value > high:
        raise ValueError(f"{key} must be at most {high}, not {value}")


def _integer(key: str, value) -> int:
    # JSON ints and integer strings; a float or a bool is a type error, not a count
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, not {value!r}")


def _dist_spec(config) -> DistSpec:
    dist = config.get("dist")
    if isinstance(dist, dict):
        return dist_from_json(dist)
    if dist is None:
        raise ValueError("a distribution is required: pass --dist or a config with one")
    data = {"dist": dist}
    param = config.get("param")
    if param is not None:
        key = param_key(dist)
        if key is None:
            raise ValueError(f"--param is not meaningful for {dist!r}")
        data[key] = param
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

    spec = _dist_spec(config)
    jmax = config.get("jmax", 8)
    table = psn_egf(moments_of(spec, jmax))
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

    spec = _dist_spec(config)
    jmax = config.get("jmax", 8)
    if "n" not in config:
        raise ValueError("moments needs --n")
    n = config["n"]
    sweep = sum_moments(moments_of(spec, jmax), n).coeffs
    rows = [(n, j, _scalar_str(v, config["mode"])) for j, v in enumerate(sweep)]
    _emit(("n", "j", "value"), rows, config)
    return 0


def _cmd_cumulants(config) -> int:
    from .moments import cumulants_oracle
    from .randomvars import moments_of

    spec = _dist_spec(config)
    jmax = config.get("jmax", 8)
    seq = cumulants_oracle(moments_of(spec, jmax))
    rows = [(j + 1, _scalar_str(v, config["mode"])) for j, v in enumerate(seq.kappa)]
    _emit(("j", "value"), rows, config)
    return 0


def _process_spec(config, jmax: int):
    from . import levy

    proc = config.get("process")
    if isinstance(proc, dict):
        return levy.process_from_json(proc, jmax)
    dist = config.get("dist")
    builder = levy.NAMED_PROCESSES.get(dist) if isinstance(dist, str) else None
    if builder is None:
        raise ValueError(f"levy needs --dist {'|'.join(levy.NAMED_PROCESSES)} or a config process spec")
    return builder(jmax)


def _cmd_levy(config) -> int:
    from .levy import levy_process_moments

    jmax = config.get("jmax", 8)
    proc = _process_spec(config, jmax)
    t = config.get("t", 1)
    mode = config["mode"]
    # g_j(t), or a subordinator's h_j(t): E Y(t)^j / t^floor(j/2)
    sweep = levy_process_moments(proc, jmax, t).coeffs
    rows = [(_scalar_str(t, mode), j, _scalar_str(v.as_fraction() / t ** (j // 2), mode))
            for j, v in enumerate(sweep)]
    _emit(("t", "j", "value"), rows, config)
    return 0


def _cmd_edgeworth(config) -> int:
    import warnings

    from .edgeworth import edgeworth_cdf, edgeworth_model, normal_cdf
    from .oracle import uniform_fn_exact

    spec = _dist_spec(config)
    if "n" not in config:
        raise ValueError("edgeworth needs --n")
    n = config["n"]
    if n < 1:
        raise ValueError("edgeworth needs n >= 1")
    grid = _parse_grid(config.get("grid", "-3:3:1/2"))
    with_oracle = spec.kind == UNIFORM_STD
    if with_oracle:
        # the cost model beside MAX_IRWIN_HALL_S, checked before any work
        seconds = math.ceil(len(grid) * 0.23 * 6 ** math.log2(n / 512))
        if seconds > MAX_IRWIN_HALL_S:
            raise ValueError(
                f"the exact Irwin-Hall column of {len(grid)} grid points at n = {n} would take "
                f"about {seconds} s, more than {MAX_IRWIN_HALL_S} s"
            )
    K = config.get("K", 2)
    jmax = config.get("jmax")
    model = edgeworth_model(spec, K, order=jmax)
    if model.lattice:
        print(
            "warning: lattice distribution; the expansion's integrability "
            "hypothesis cannot hold",
            file=sys.stderr,
        )
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CLI already printed its own notice
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
    return 0


def _cmd_validate(config) -> int:
    from . import oracle

    reports = oracle.run_validation(config.get("suite", "all"), config["seed"],
                                    config.get("mc_samples", 10**6))
    _emit(oracle.ValidationReport._fields, reports, {**config, "format": "json"})
    return 0 if all(r.passed for r in reports) else 1


# each command: its help, the keys it reads, each a flag but levy's config-only
# process, and its runner; a command takes --config and no key outside its row
_COMMANDS = {
    "stirling": ("emit the probabilistic Stirling triangle",
                 ("dist", "param", "jmax", "mode", "out", "format"), _cmd_stirling),
    "moments": ("emit E S_n^j for j = 0..jmax",
                ("dist", "param", "jmax", "mode", "out", "format", "n"), _cmd_moments),
    "cumulants": ("emit cumulants kappa_1..kappa_jmax",
                  ("dist", "param", "jmax", "mode", "out", "format"), _cmd_cumulants),
    "levy": ("emit Levy/subordinator moment functions at t",
             ("dist", "process", "jmax", "mode", "out", "format", "t"), _cmd_levy),
    "edgeworth": ("emit an Edgeworth CDF curve on a grid",
                  ("dist", "param", "jmax", "out", "format", "n", "K", "grid"), _cmd_edgeworth),
    "validate": ("run the validation suite and emit JSON reports",
                 ("seed", "out", "suite", "mc_samples"), _cmd_validate),
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
