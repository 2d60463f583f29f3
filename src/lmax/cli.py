"""Command-line front end; every subcommand emits CSV or JSON on stdout.

Every call takes one path through ``main``: parse the arguments, parse
the walk (``spec.spec_from_params`` decides what each family needs),
run the subcommand's ``cmd_*(args, spec)``, which returns its meta fields
and its columns, then emit them with the walk parameters, ``command``
and ``version`` added to the meta.  No walk is parsed for ``info``.

Conventions shared by all subcommands:

* ``--format csv`` (default) writes a single header row then data rows,
  quoting string cells per RFC 4180; ``--format json`` writes one object
  ``{"meta": ..., "columns": ..., "rows": ...}``.  Floats are rendered
  as ``repr`` renders them (shortest round-trip) in both formats, so the
  numeric strings are identical.  Table columns (ranges and int64 or
  float64 arrays) go through the compiled renderer in ``_native``, which
  writes ``repr``'s bytes at a small part of its cost and counts a
  ``range`` column such as ``n`` without expanding it; other columns, and
  every column when the library cannot load, go through ``_cells``, the
  reference the renderer is tested against.
* Output streams: rows are rendered in chunks and each chunk's bytes go
  straight to stdout's binary buffer, so memory for the text does not
  grow with the table, and the bytes are exactly those of rendering the
  whole table at once.  ``dist`` computes its rows block by block as it
  writes them (``excursion.max_pmf_blocks``), so it holds a few blocks of
  the table whatever ``--n-max``; the one-row commands read a lazy table.
* The JSON meta block carries the full walk parameters plus everything
  needed to reproduce the run (seed included); re-running with the same
  parameters and package version reproduces the bytes.  Wall-clock
  timestamps and worker counts are deliberately absent: neither may
  change the output.
* Exit codes: 0 success, 1 resource limits (the table budget, or memory
  running out below it), 2 bad arguments, 130 interrupted (Ctrl-C).
  Diagnostics go to stderr, one ``error: ...`` or ``warning: ...`` line
  each.  A reader that closes stdout early ends the output quietly,
  with exit code 0.
* ``LMAX_MAX_TABLE`` caps every tabulation size globally.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import warnings
from typing import TYPE_CHECKING

from . import __version__
from .budget import check_depth
from .errors import ConfigError, ConvergenceWarning, DomainError, RangeError, ResourceError

if TYPE_CHECKING:
    from .montecarlo import SimConfig, SimResult
    from .spec import WalkSpec

__all__ = ["main", "build_parser"]


def _walk_from_args(args) -> WalkSpec:
    """The walk the flags name; ``spec_from_params`` checks what its family needs.

    A flag the family does not use is an error that names it.
    """
    from .spec import spec_from_params, spec_params

    flags = {"p": ("--p", args.p), "sign": ("--sign", args.sign),
             "k": ("--K", args.k_depth), "b": ("--B", args.b_coef)}
    params = {key: value for key, (_, value) in flags.items() if value is not None}
    if not (params or args.family):
        raise ConfigError("no walk given: use --p or --family perturbed --sign ... --K ... --B ...")
    family = args.family or ("constant" if "p" in params else "perturbed")
    spec = spec_from_params({"family": family, **params})
    used = spec_params(spec)
    unused = [flags[key][0] for key in params if key not in used]
    if unused:
        raise ConfigError(f"a {family} walk takes no {', '.join(unused)}")
    return spec


_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)
_CHUNK_ROWS = 65_536
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _cells(values, fmt: str):
    """Render a non-empty chunk of a column: a numpy array, or a sequence of one type.

    Floats are ``repr`` (``json.dumps`` spells the non-finite ones
    Infinity/-Infinity/NaN), ints are decimal, bools ``true``/``false``;
    anything else is ``str`` in CSV (quoted by ``_csv_cell``) and a JSON
    value in JSON.
    """
    np = sys.modules.get("numpy")  # no column is an array before numpy is loaded
    if np is not None and isinstance(values, np.ndarray):
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


def _sliced(columns: dict) -> tuple:
    """``(names, chunks)`` of equal-length columns: lists of their slices, _CHUNK_ROWS rows each."""
    names = list(columns)
    n_rows = len(columns[names[0]])
    return names, ([columns[name][lo : lo + _CHUNK_ROWS] for name in names]
                   for lo in range(0, n_rows, _CHUNK_ROWS))


def _stdout():
    """``write(data)`` for stdout, and the encoding and error handler its text takes.

    ``data`` is bytes or a memoryview of them.  The bytes go to
    ``sys.stdout.buffer`` after a flush of the text layer, so they follow
    whatever it holds; a text stream with no buffer (``io.StringIO``) takes
    them decoded.
    """
    out = sys.stdout
    codec = out.encoding or "utf-8", out.errors or "strict"
    raw = getattr(out, "buffer", None)
    if raw is None:
        return (lambda data: out.write(bytes(data).decode(*codec))), *codec
    out.flush()
    return raw.write, *codec


def _emit(fmt: str, meta: dict, columns) -> int:
    """Write a table to stdout, one chunk of rows at a time.

    ``columns`` maps names to columns of one length, which are sliced into
    chunks of _CHUNK_ROWS rows, or is a ``(names, chunks)`` pair: an
    iterable of lists of columns, one per name, each chunk at least one
    row long.  The bytes are those of a CSV header plus one line per row,
    or of ``json.dumps({"meta", "columns", "rows"}, indent=2, sort_keys=True)``
    and a newline.  Only one chunk's text is in memory at a time.  A chunk
    whose columns are all numeric (``_numeric``) goes through the compiled
    renderer when the library loads, into one buffer that every chunk
    reuses, else column by column through ``_cells``; either way its bytes
    go to stdout's binary buffer.  The first chunk is drawn before anything
    is written, so an error there leaves stdout empty.
    """
    names, chunks = _sliced(columns) if isinstance(columns, dict) else columns
    chunks = iter(chunks)
    first = next(chunks, None)
    write, *codec = _stdout()
    if fmt == "json":
        doc = json.dumps({"meta": meta, "columns": names, "rows": []}, indent=2, sort_keys=True)
        # sort_keys puts "rows" last, so its empty list is the final "[]".
        empty, head, tail = doc + "\n", doc[: doc.rindex("[]")] + "[\n", "\n  ]\n}\n"
        row_open, cell_sep, row_close, row_sep = "    [\n      ", ",\n      ", "\n    ]", ",\n"
    else:
        empty = head = ",".join(names) + "\n"
        tail, row_open, cell_sep, row_close, row_sep = "", "", ",", "\n", ""
    if first is None:
        write(empty.encode(*codec))
        return 0
    write(head.encode(*codec))
    between = row_close + row_sep + row_open
    spellings = tuple(_JSON_NONFINITE.values() if fmt == "json" else _JSON_NONFINITE)
    lead, buf = row_open, bytearray()  # one render buffer for every chunk
    for chunk in itertools.chain([first], chunks):
        lib = None
        if all(map(_numeric, chunk)):
            from . import _native

            lib = _native._kernel()[0]
        if lib is not None:
            words = (lead, between, cell_sep, row_close, *spellings)
            write(_native.render_rows(lib, chunk, words, buf))
        else:
            rows = between.join(map(cell_sep.join, zip(*(_cells(c, fmt) for c in chunk))))
            write((lead + rows + row_close).encode(*codec))
        lead = row_sep + row_open
    write(tail.encode(*codec))
    return 0


def _numeric(column) -> bool:
    """Whether the compiled renderer takes ``column``: a range or a 1-D int64/float64 array."""
    np = sys.modules.get("numpy")  # no column is an array before numpy is loaded
    if np is not None and isinstance(column, np.ndarray):
        return column.ndim == 1 and column.dtype in (np.int64, np.float64)
    return isinstance(column, range)


# Each cmd_* imports the modules it runs once its arguments are checked, so
# that a call loads only what its command needs: no numpy for --version,
# --help, an argument error or a constant walk's hit.


def cmd_dist(args, spec) -> tuple[dict, tuple]:
    n_max = check_depth("--n-max", args.n_max)
    from .excursion import max_pmf_blocks

    # One chunk of rows per block of the table: nothing of its length is held.
    law = max_pmf_blocks(spec, n_max)
    chunks = ([rows, pmf, log_pmf, cumulative] for rows, log_pmf, pmf, cumulative in law)
    return {"n_max": args.n_max}, (["n", "pmf", "log_pmf", "cumulative"], chunks)


def cmd_classify(args, spec) -> tuple[dict, dict]:
    from .classify import classify, series_diagnostic

    c = classify(spec)
    # The diagnostic compares the sums at n_max // 2 and n_max, so n_max >= 2.
    n_max = check_depth("--n-max", args.n_max, least=2)
    from .series import lazy

    diag = series_diagnostic(lazy(spec, n_max))
    fields = {"n_max": args.n_max, "growth_exponent": diag.growth_exponent,
              "log_sum_at_n_max": diag.log_sum_max}
    columns = {
        "label": [c.label.value],
        "justification": [c.justification.value],
        "diagnostic": [diag.verdict],
    }
    return fields, columns


def cmd_asympt(args, spec) -> tuple[dict, dict]:
    import numpy as np

    from .asymptotics import ShapeTarget, estimate_constant, resolve_shape
    from .series import lazy

    target = ShapeTarget(args.target)
    shape = resolve_shape(spec, target)
    n_hi = check_depth("--n-hi", args.n_hi)
    # The drift indicator compares c(n_hi) with c(n_hi // 2): both must be valid.
    if n_hi // 2 < shape.n_min_valid:
        raise ConfigError(f"--n-hi must be >= {2 * shape.n_min_valid} on this walk, got {n_hi}")
    n_lo = args.n_lo if args.n_lo is not None else max(shape.n_min_valid, n_hi // 100)
    if not shape.n_min_valid <= n_lo < n_hi:
        raise ConfigError(f"--n-lo must be >= {shape.n_min_valid} and below --n-hi {n_hi}, "
                          f"got {n_lo}")
    samples = check_depth("--samples", args.samples)  # the length of the sample grid
    fit = estimate_constant(lazy(spec, n_hi), shape, n_lo, n_hi, samples=samples)
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
    from .spec import ConstantWalk, HittingQuery

    q = HittingQuery(a=args.a, k=args.k, b=args.b)
    depth = check_depth(f"--b {args.b}: table depth", max(1, args.b - 1))  # products to b - 1
    if isinstance(spec, ConstantWalk):
        # hit_before's closed form for a constant walk: no table, no numpy.
        from .constant import _hit_constant

        p = _hit_constant(spec.p, q)
    else:
        from .first_passage import hit_before
        from .series import lazy

        p = hit_before(lazy(spec, depth), q)
    columns = {"a": [args.a], "k": [args.k], "b": [args.b], "probability": [p]}
    # hit_*: the walk's own "k" and "b" are in the meta too.
    return {"hit_a": args.a, "hit_k": args.k, "hit_b": args.b}, columns


def cmd_return(args, spec) -> tuple[dict, dict]:
    # The library reports the bracket; judging its width is this command's job.
    if not args.tolerance >= 0:
        raise ConfigError(f"--tolerance must be >= 0, got {args.tolerance}")
    n = check_depth("--min-terms", args.min_terms)
    from .first_passage import return_prob
    from .series import lazy

    rp = return_prob(lazy(spec, n))
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
    from .montecarlo import SimConfig

    # os.urandom, not secrets: secrets imports hashlib, and with it OpenSSL.
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "little")
    given = {name: getattr(args, name) for name in ("workers", "cap_steps", "cap_height")}
    return SimConfig(spec=spec, excursions=args.excursions, seed=seed,
                     **{name: value for name, value in given.items() if value is not None})


def _simulate(cfg: SimConfig) -> tuple[SimResult, dict]:
    """Run ``cfg``; return the result and the meta fields ``simulate`` and ``compare`` share."""
    from .montecarlo import run

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
    from .excursion import max_pmf_table
    from .montecarlo import compare
    from .series import build

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
    import platform

    import numpy as np

    from ._native import kernel_info
    from .budget import table_budget

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


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ``ConfigError``, which ``main`` prints as one ``error:`` line."""

    def error(self, message):
        raise ConfigError(message)


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
    # Left out, these take SimConfig's defaults.
    sim.add_argument("--workers", type=int)
    sim.add_argument("--cap-steps", type=int, dest="cap_steps")
    sim.add_argument("--cap-height", type=int, dest="cap_height")

    parser = _Parser(
        prog="lmax",
        description="Exact and simulated distribution of the maximum of a random-walk excursion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=(walk, fmt)):
        sp = sub.add_parser(name, parents=list(parents), help=summary)
        sp.set_defaults(func=func)
        # argparse's own pattern (3.10, 3.11) reads -1e-3 and -inf as flags, not values.
        sp._negative_number_matcher = _NEGATIVE_NUMBER
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
    command("info", cmd_info, "native kernels, library versions and table budget", (fmt,))

    return parser


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        # Record every warning whatever the interpreter's filters (-W error too).
        warnings.simplefilter("default")
        try:
            args = build_parser().parse_args(argv)
            # Past --version, --help and argparse's errors, which need no walk.
            from .spec import spec_params

            spec = _walk_from_args(args) if "family" in args else None
            fields, columns = args.func(args, spec)
            meta = spec_params(spec) if spec is not None else {}
            meta.update(command=args.command, version=__version__, **fields)
            return _emit(args.format, meta, columns)
        except (ConfigError, DomainError, RangeError, ResourceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, ResourceError) else 2
        except MemoryError as exc:
            # Memory ran out below the table budget: the same resource limit.
            detail = " ".join(str(exc).split())
            print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return 130
        except BrokenPipeError:
            # The reader closed stdout early (``lmax dist ... | head``): stop
            # quietly, and point stdout at devnull so the flush at exit cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        finally:
            # A warning is one stderr line, without Python's source location.
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
