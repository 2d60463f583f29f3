"""Command-line front end; every subcommand emits CSV or JSON on stdout.

Every call takes one path through ``main``: parse the arguments, parse
the walk (``walk.spec_from_params`` decides what each family needs),
run the subcommand's ``cmd_*(args, spec)``, which returns its meta fields
and its columns, then emit them with the walk parameters, ``command``
and ``version`` added to the meta.  No walk is parsed for ``info``.

Conventions shared by all subcommands:

* ``--format csv`` (default) writes a single header row then data rows;
  ``--format json`` writes one object ``{"meta": ..., "columns": ...,
  "rows": ...}``.  Floats are rendered with ``repr`` (shortest
  round-trip) in both formats, so the numeric strings are identical.
* Output streams: rows are rendered column-wise and written in bounded
  chunks, so memory for the text does not grow with the table, and the
  bytes are exactly those of rendering the whole table at once.
* The JSON meta block carries the full walk parameters plus everything
  needed to reproduce the run (seed included); re-running with the same
  parameters and package version reproduces the bytes.  Wall-clock
  timestamps and worker counts are deliberately absent: neither may
  change the output.
* Exit codes: 0 success, 1 resource limits, 2 bad arguments.
  Diagnostics go to stderr.  A reader that closes stdout early ends
  the output quietly, with exit code 0.
* ``LMAX_MAX_TABLE`` caps every tabulation size globally.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .asymptotics import ShapeTarget, estimate_constant, log_shape, resolve_shape
from .classify import classify, series_diagnostic
from .errors import ConfigError, DomainError, RangeError, ResourceError
from .excursion import max_pmf_table
from .first_passage import HittingQuery, TruncationOptions, hit_before, return_prob
from .montecarlo import SimConfig, SimResult, compare, kernel_info, run
from .series import build, table_budget
from .walk import WalkSpec, spec_from_params, spec_params

__all__ = ["main", "build_parser"]


def _add_walk_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("walk selection")
    g.add_argument("--p", type=float, help="constant step-up probability in (0, 1)")
    g.add_argument("--family", choices=("constant", "perturbed"))
    g.add_argument("--sign", choices=("plus", "minus"), help="perturbed drift direction")
    g.add_argument("--K", type=int, dest="k_depth", help="perturbation depth (>= 1)")
    g.add_argument("--B", type=float, dest="b_coef", help="leading perturbation coefficient")


def _add_format_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _walk_from_args(args) -> WalkSpec:
    """The walk the flags name; ``spec_from_params`` checks what its family needs."""
    flags = {"p": args.p, "sign": args.sign, "k": args.k_depth, "b": args.b_coef}
    params = {key: value for key, value in flags.items() if value is not None}
    if not (params or args.family):
        raise ConfigError("no walk given: use --p or --family perturbed --sign ... --K ... --B ...")
    family = args.family or ("constant" if "p" in params else "perturbed")
    return spec_from_params({"family": family, **params})


_CHUNK_ROWS = 65_536
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _cells(values, fmt: str):
    """Render a non-empty chunk of a column: a numpy array, or a sequence of one type.

    Floats are ``repr`` (``json.dumps`` spells the non-finite ones
    Infinity/-Infinity/NaN), ints are decimal, bools ``true``/``false``;
    anything else is ``str`` in CSV and a JSON value in JSON.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    first = values[0]
    if isinstance(first, bool):
        return ["true" if v else "false" for v in values]
    if isinstance(first, int):
        return map(int.__repr__, values)
    if isinstance(first, float):
        cells = map(float.__repr__, values)
        if fmt == "json" and not all(map(math.isfinite, values)):
            return [_JSON_NONFINITE.get(c, c) for c in cells]
        return cells
    return map(json.dumps if fmt == "json" else str, values)


def _emit(fmt: str, meta: dict, columns: dict) -> int:
    """Write ``columns`` (name -> column, all of one length) to stdout.

    The bytes are those of a CSV header plus one line per row, or of
    ``json.dumps({"meta", "columns", "rows"}, indent=2, sort_keys=True)``
    and a newline.  Rows are rendered _CHUNK_ROWS at a time, column by
    column, so the text in memory does not grow with the row count.
    """
    names = list(columns)
    n_rows = len(columns[names[0]])
    out = sys.stdout
    if fmt == "json":
        doc = json.dumps({"meta": meta, "columns": names, "rows": []}, indent=2, sort_keys=True)
        if not n_rows:
            out.write(doc + "\n")
            return 0
        # sort_keys puts "rows" last, so its empty list is the final "[]".
        head, tail = doc[: doc.rindex("[]")] + "[\n", "\n  ]\n}\n"
        row_open, cell_sep, row_close, row_sep = "    [\n      ", ",\n      ", "\n    ]", ",\n"
    else:
        head, tail = ",".join(names) + "\n", ""
        row_open, cell_sep, row_close, row_sep = "", ",", "\n", ""
    out.write(head)
    between = row_close + row_sep + row_open
    for lo in range(0, n_rows, _CHUNK_ROWS):
        cols = [_cells(columns[name][lo : lo + _CHUNK_ROWS], fmt) for name in names]
        rows = between.join(map(cell_sep.join, zip(*cols)))
        out.write((row_sep if lo else "") + row_open + rows + row_close)
    out.write(tail)
    return 0


def cmd_dist(args, spec) -> tuple[dict, dict]:
    series = build(spec, args.n_max)
    table = max_pmf_table(series, args.n_max)
    # Index 0 of the table arrays is a placeholder; rows are n = 1..n_max.
    columns = {
        "n": range(1, args.n_max + 1),
        "pmf": table.pmf[1:],
        "log_pmf": table.log_pmf[1:],
        "cumulative": table.cumulative[1:],
    }
    return {"n_max": args.n_max}, columns


def cmd_classify(args, spec) -> tuple[dict, dict]:
    c = classify(spec)
    diag = series_diagnostic(build(spec, args.n_max))
    fields = {"n_max": args.n_max, "growth_exponent": diag.growth_exponent,
              "log_sum_at_n_max": diag.log_sum_max}
    columns = {
        "label": [c.label.value],
        "justification": [c.justification.value],
        "diagnostic": [diag.verdict],
    }
    return fields, columns


def cmd_asympt(args, spec) -> tuple[dict, dict]:
    target = ShapeTarget(args.target)
    shape = resolve_shape(spec, target)
    n_hi = args.n_hi
    n_lo = args.n_lo if args.n_lo is not None else max(shape.n_min_valid, n_hi // 100)
    series = build(spec, n_hi)
    fit = estimate_constant(series, shape, n_lo, n_hi, samples=args.samples)
    columns = {"n": [], "exact": [], "shape": [], "c_hat": []}
    with np.errstate(over="ignore", under="ignore"):
        for n, lc, c in zip(fit.ns, fit.log_c_hat, fit.c_hat):
            ls = log_shape(shape, int(n))
            columns["n"].append(int(n))
            columns["exact"].append(float(np.exp(lc + ls)))
            columns["shape"].append(float(np.exp(ls)))
            columns["c_hat"].append(float(c))
    fields = {
        "target": target.value,
        "branch": shape.branch,
        "n_min_valid": shape.n_min_valid,
        "n_lo": int(n_lo),
        "n_hi": int(n_hi),
        "samples": args.samples,
        "drift": fit.drift,
        "underflowed": fit.underflowed,
    }
    return fields, columns


def cmd_hit(args, spec) -> tuple[dict, dict]:
    q = HittingQuery(a=args.a, k=args.k, b=args.b)
    p = hit_before(build(spec, max(1, args.b - 1)), q)
    columns = {"a": [args.a], "k": [args.k], "b": [args.b], "probability": [p]}
    return {"a": args.a, "k": args.k, "b": args.b}, columns


def cmd_return(args, spec) -> tuple[dict, dict]:
    opts = TruncationOptions(min_terms=args.min_terms, tolerance=args.tolerance)
    rp = return_prob(build(spec, args.min_terms), opts)
    names = ("value", "lower", "upper", "n_terms", "method", "tolerance_met")
    columns = {name: [getattr(rp, name)] for name in names}
    return {"min_terms": args.min_terms, "tolerance": args.tolerance}, columns


def _sim_config(args, spec: WalkSpec) -> SimConfig:
    # os.urandom, not secrets: secrets imports hashlib, and with it OpenSSL.
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "little")
    return SimConfig(
        spec=spec,
        excursions=args.excursions,
        seed=seed,
        workers=args.workers,
        cap_steps=args.cap_steps,
        cap_height=args.cap_height,
    )


def _simulate(cfg: SimConfig) -> tuple[SimResult, dict]:
    """Run ``cfg``; return the result and the meta fields ``simulate`` and ``compare`` share."""
    res = run(cfg)
    fields = dict(excursions=cfg.excursions, seed=cfg.seed, cap_steps=cfg.cap_steps,
                  cap_height=cfg.cap_height, censored_height=res.censored_height,
                  censored_steps=res.censored_steps, total=res.total)
    return res, fields


def cmd_simulate(args, spec) -> tuple[dict, dict]:
    res, fields = _simulate(_sim_config(args, spec))
    counts = res.counts[1:]
    return fields, {"n": range(1, res.cap_height), "count": counts, "empirical": counts / res.total}


def cmd_compare(args, spec) -> tuple[dict, dict]:
    # The config first: a bad argument exits 2 before the table's budget check can exit 1.
    cfg = _sim_config(args, spec)
    table = max_pmf_table(build(spec, cfg.cap_height - 1), cfg.cap_height - 1)
    res, fields = _simulate(cfg)
    rep = compare(res, table)
    fields.update(
        n_flagged=rep.n_flagged,
        flagged_bins=[int(n) for n in rep.n[rep.flagged]],
        chi_square=rep.chi_square,
        chi_square_dof=rep.chi_square_dof,
        chi_square_pvalue=(rep.chi_square_pvalue if rep.chi_square_dof else None),
        censor_allowance=rep.censor_allowance,
    )
    columns = {name: getattr(rep, name) for name in ("n", "exact", "empirical", "stderr", "z")}
    return fields, columns


def cmd_info(args, spec) -> tuple[dict, dict]:
    budget, source = table_budget()
    kernel = kernel_info()
    reason = kernel.reason or ""
    if args.format == "csv" and any(ch in reason for ch in ',"\r\n'):
        reason = '"' + reason.replace('"', '""') + '"'  # gcc's stderr holds commas and lines
    columns = {
        "kernel": [kernel.name],
        "kernel_reason": [reason],
        "python": [platform.python_version()],
        "numpy": [np.__version__],
        "table_budget": [budget],
        "table_budget_source": [source],
    }
    return {}, columns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmax",
        description="Exact and simulated distribution of the maximum of a random-walk excursion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", help="tabulate the excursion-maximum pmf")
    _add_walk_args(sp)
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("classify", help="transient / null / positive recurrent label")
    _add_walk_args(sp)
    sp.add_argument("--n-max", type=int, default=100_000, dest="n_max",
                    help="series length for the advisory growth diagnostic")
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("asympt", help="decay shape and fitted constant")
    _add_walk_args(sp)
    sp.add_argument("--target", choices=("max-pmf", "product"), default="max-pmf")
    sp.add_argument("--n-lo", type=int, dest="n_lo")
    sp.add_argument("--n-hi", type=int, default=100_000, dest="n_hi")
    sp.add_argument("--samples", type=int, default=33)
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_asympt)

    sp = sub.add_parser("hit", help="probability of reaching a before b from k")
    _add_walk_args(sp)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_hit)

    sp = sub.add_parser("return", help="probability of ever returning to the origin")
    _add_walk_args(sp)
    sp.add_argument("--min-terms", type=int, default=100_000, dest="min_terms")
    sp.add_argument("--tolerance", type=float, default=1e-6)
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_return)

    def add_sim_args(sp):
        sp.add_argument("--excursions", type=int, required=True)
        sp.add_argument("--seed", type=int, help="64-bit seed; generated and reported if absent")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--cap-steps", type=int, default=1_000_000, dest="cap_steps")
        sp.add_argument("--cap-height", type=int, default=1_000, dest="cap_height")

    sp = sub.add_parser("simulate", help="Monte Carlo excursion maxima")
    _add_walk_args(sp)
    add_sim_args(sp)
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="simulate, then score against the exact pmf")
    _add_walk_args(sp)
    add_sim_args(sp)
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("info", help="simulator kernel, library versions and table budget")
    _add_format_arg(sp)
    sp.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _walk_from_args(args) if "family" in args else None
        fields, columns = args.func(args, spec)
        meta = spec_params(spec) if spec is not None else {}
        meta.update(command=args.command, version=__version__, **fields)
        return _emit(args.format, meta, columns)
    except (ConfigError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (``lmax dist ... | head``): stop
        # quietly, and point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
