"""Command-line front end; every subcommand emits CSV or JSON on stdout.

Every call takes one path through ``main``: parse the arguments, parse
the walk (``walk.spec_from_params`` decides what each family needs),
run the subcommand's ``cmd_*(args, spec)``, which returns its meta fields
and its columns, then emit them with the walk parameters, ``command``
and ``version`` added to the meta.  No walk is parsed for ``info``.

Conventions shared by all subcommands:

* ``--format csv`` (default) writes a single header row then data rows,
  quoting string cells per RFC 4180; ``--format json`` writes one object
  ``{"meta": ..., "columns": ..., "rows": ...}``.  Floats are rendered
  with ``repr`` (shortest round-trip) in both formats, so the numeric
  strings are identical.
* Output streams: rows are rendered column-wise and written in bounded
  chunks, so memory for the text does not grow with the table, and the
  bytes are exactly those of rendering the whole table at once.
* The JSON meta block carries the full walk parameters plus everything
  needed to reproduce the run (seed included); re-running with the same
  parameters and package version reproduces the bytes.  Wall-clock
  timestamps and worker counts are deliberately absent: neither may
  change the output.
* Exit codes: 0 success, 1 resource limits, 2 bad arguments.
  Diagnostics go to stderr, one ``error: ...`` or ``warning: ...`` line
  each.  A reader that closes stdout early ends the output quietly,
  with exit code 0.
* ``LMAX_MAX_TABLE`` caps every tabulation size globally.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import warnings

import numpy as np

from . import __version__
from .asymptotics import ShapeTarget, estimate_constant, resolve_shape
from .classify import classify, series_diagnostic
from .errors import ConfigError, ConvergenceWarning, DomainError, RangeError, ResourceError
from .excursion import max_pmf_table
from .first_passage import HittingQuery, hit_before, return_prob
from .montecarlo import SimConfig, SimResult, compare, kernel_info, run
from .series import build, table_budget
from .walk import WalkSpec, spec_from_params, spec_params

__all__ = ["main", "build_parser"]


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
    anything else is ``str`` in CSV (quoted by ``_csv_cell``) and a JSON
    value in JSON.
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
    return map(json.dumps if fmt == "json" else _csv_cell, values)


def _csv_cell(value) -> str:
    """``str(value)``, quoted per RFC 4180 if it holds a comma, a quote, CR or LF."""
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    with np.errstate(over="ignore", under="ignore"):
        columns = {
            "n": fit.ns,
            "exact": np.exp(fit.log_c_hat + fit.log_shape),
            "shape": np.exp(fit.log_shape),
            "c_hat": fit.c_hat,
        }
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
    # hit_*: the walk's own "k" and "b" are in the meta too.
    return {"hit_a": args.a, "hit_k": args.k, "hit_b": args.b}, columns


def cmd_return(args, spec) -> tuple[dict, dict]:
    # The library reports the bracket; judging its width is this command's job.
    if not args.tolerance >= 0:
        raise ConfigError(f"--tolerance must be >= 0, got {args.tolerance}")
    series = build(spec, args.min_terms)
    try:
        rp = return_prob(series)
    except DomainError:
        least = resolve_shape(spec, ShapeTarget.PRODUCT).n_min_valid
        raise ConfigError(f"--min-terms must be >= {least}, got {args.min_terms}") from None
    width = rp.upper - rp.lower
    met = width <= args.tolerance
    if not met:
        warnings.warn(f"return-probability bracket width {width:.3g} exceeds "
                      f"--tolerance {args.tolerance:.3g}; raise --min-terms to tighten it",
                      ConvergenceWarning)
    names = ("value", "lower", "upper", "n_terms", "method")
    columns = {name: [getattr(rp, name)] for name in names}
    columns["tolerance_met"] = [met]
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
    columns = {"n": range(1, res.cap_height), "count": res.counts[1:],
               "empirical": res.frequencies[1:]}
    return fields, columns


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
    columns = {
        "kernel": [kernel.name],
        "kernel_reason": [kernel.reason or ""],
        "python": [platform.python_version()],
        "numpy": [np.__version__],
        "table_budget": [budget],
        "table_budget_source": [source],
    }
    return {}, columns


def build_parser() -> argparse.ArgumentParser:
    # Flags shared by several subcommands, each declared once as a parent parser.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    walk = argparse.ArgumentParser(add_help=False)
    g = walk.add_argument_group("walk selection")
    g.add_argument("--p", type=float, help="constant step-up probability in (0, 1)")
    g.add_argument("--family", choices=("constant", "perturbed"))
    g.add_argument("--sign", choices=("plus", "minus"), help="perturbed drift direction")
    g.add_argument("--K", type=int, dest="k_depth", help="perturbation depth (>= 1)")
    g.add_argument("--B", type=float, dest="b_coef", help="leading perturbation coefficient")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--excursions", type=int, required=True)
    sim.add_argument("--seed", type=int, help="64-bit seed; generated and reported if absent")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--cap-steps", type=int, default=1_000_000, dest="cap_steps")
    sim.add_argument("--cap-height", type=int, default=1_000, dest="cap_height")

    parser = argparse.ArgumentParser(
        prog="lmax",
        description="Exact and simulated distribution of the maximum of a random-walk excursion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=(walk, fmt)):
        sp = sub.add_parser(name, parents=list(parents), help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = command("dist", cmd_dist, "tabulate the excursion-maximum pmf")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")

    sp = command("classify", cmd_classify, "transient / null / positive recurrent label")
    sp.add_argument("--n-max", type=int, default=100_000, dest="n_max",
                    help="series length for the advisory growth diagnostic")

    sp = command("asympt", cmd_asympt, "decay shape and fitted constant")
    sp.add_argument("--target", choices=("max-pmf", "product"), default="max-pmf")
    sp.add_argument("--n-lo", type=int, dest="n_lo")
    sp.add_argument("--n-hi", type=int, default=100_000, dest="n_hi")
    sp.add_argument("--samples", type=int, default=33)

    sp = command("hit", cmd_hit, "probability of reaching a before b from k")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)

    sp = command("return", cmd_return, "probability of ever returning to the origin")
    sp.add_argument("--min-terms", type=int, default=100_000, dest="min_terms")
    sp.add_argument("--tolerance", type=float, default=1e-6)

    command("simulate", cmd_simulate, "Monte Carlo excursion maxima", (walk, sim, fmt))
    command("compare", cmd_compare, "simulate, then score against the exact pmf", (walk, sim, fmt))
    command("info", cmd_info, "simulator kernel, library versions and table budget", (fmt,))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        # Record every warning whatever the interpreter's filters (-W error too).
        warnings.simplefilter("default")
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
        finally:
            # A warning is one stderr line, without Python's source location.
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
