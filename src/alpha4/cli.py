"""Command-line front end.

Every command prints a single JSON document (sorted keys, schema tag 1)
unless jsonl or csv output is selected; exact rationals are rendered as
"num/den" strings so nothing is lost to binary rounding. Exit codes:
0 success, 1 a computation check failed, 2 bad usage (precondition or
budget violations included), 141 the reader closed stdout early (as
with `| head`; 128 + SIGPIPE, what a shell reports for a process that
SIGPIPE killed), which ends the run quietly.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetError, PreconditionError

SCHEMA = 1
MAX_THREADS = 64  # --threads above it is refused; the pool forks every worker at its first task
# rows go out joined into writes of at least this many characters: unbuffered
# (PYTHONUNBUFFERED), one write a row is one system call a row
_WRITE_CHARS = 1 << 16

# numpy's OpenBLAS starts a busy-waiting thread per CPU when numpy loads, which
# importing this module does not do; nothing in the package calls BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# -- serialization -------------------------------------------------------------


def _ratio(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past Python's int-to-str limit
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"an exact rational with a numerator or denominator of more than {limit} digits "
                                "passes Python's int-to-str limit") from None


def to_jsonable(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Fraction):
        return _ratio(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    # an mpf, an mpc or a BigRealWithError exists only once its module has
    # loaded, so a command that never loads mpmath never imports it here
    mp = sys.modules.get("mpmath")
    if mp is not None:
        if isinstance(x, mp.mpf):
            return mp.nstr(x, 25)
        if isinstance(x, mp.mpc):
            # each part rounded to the ambient precision, then printed
            return {"re": mp.nstr(mp.mpf(x.real), 25), "im": mp.nstr(mp.mpf(x.imag), 25)}
        bigreal = sys.modules.get("alpha4.bigreal")
        if bigreal is not None and isinstance(x, bigreal.BigRealWithError):
            return {"value": mp.nstr(x.value, 40), "err": mp.nstr(x.err, 10)}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _csv_lines(rows):
    """csv lines: a header of the first row's keys (an empty line if there
    are no rows), then each row's cells, a list or dict as its JSON text."""
    line = _csv.writer(argparse.Namespace(write=str)).writerow  # write, so writerow, returns the line
    cell = json.JSONEncoder(allow_nan=False).encode
    header = None
    for row in rows:
        if header is None:
            header = row.keys()
            yield line(header)
        if row.keys() != header:
            raise ValueError(f"a csv row has the columns {list(row)}, not {list(header)}")
        yield line([cell(v) if isinstance(v, (dict, list, tuple)) else v for v in map(row.__getitem__, header)])
    if header is None:
        yield line(())


def emit(payload, fmt: str, command: str, rows_key: str | None = None, *, summary=None) -> None:
    """Print the payload as fmt: json, jsonl, or csv.

    Without rows_key the payload is one document, in jsonl too, or one csv
    cell. rows_key names an iterable of JSON-native rows (str keys; str,
    int, float, bool, None, and lists or tuples of these) that one loop
    encodes as they arrive: jsonl and csv write them in blocks of about
    _WRITE_CHARS characters, with csv's columns the first row's keys, and
    json holds each row's text, charged at its measured size, until it
    prints the document. The other fields go through to_jsonable, to a
    trailing summary line in jsonl, and are dropped in csv; summary, if
    given, returns more of them once the rows are consumed. Every encoder
    is strict: a NaN or an infinity raises ValueError, not a token that is
    not JSON.
    """
    if rows_key is None:
        data = to_jsonable(payload)
        if fmt == "csv":
            _csv.writer(sys.stdout).writerows([["result"], [json.dumps(data, sort_keys=True, allow_nan=False)]])
        else:
            print(json.dumps({"schema": SCHEMA, "command": command, "result": data}, sort_keys=True, allow_nan=False))
        return
    from . import arith
    data = to_jsonable({k: v for k, v in payload.items() if k != rows_key})
    # rows are built fresh and hold no cycles, so the encoder skips its check
    encode = json.JSONEncoder(sort_keys=True, check_circular=False, allow_nan=False).encode
    texts = _csv_lines(payload[rows_key]) if fmt == "csv" else map(encode, payload[rows_key])
    sep = {"json": ", ", "jsonl": "\n", "csv": ""}[fmt]  # a csv line ends in its own terminator
    pending, size = [], 0
    held, charged = [], 0  # json's blocks of row texts, and their bytes

    def flush():
        nonlocal pending, size, charged
        block, pending, size = pending, [], 0  # taken first, so a failed flush leaves none to repeat
        if block and fmt != "json":
            sys.stdout.write(sep.join(block) + sep)
        elif block:  # each text at its measured size, with its slot in the block
            held.append(block)
            charged += sum(map(sys.getsizeof, block)) + 8 * len(block)
            arith.require_budget(charged, f"the json output of {command}")

    try:
        for text in texts:
            pending.append(text)
            size += len(text)
            if size >= _WRITE_CHARS:
                flush()
        if summary is not None:
            data.update(to_jsonable(summary()))
        if fmt == "jsonl" and data:
            pending.append(encode({"type": "summary", **data}))
    finally:
        flush()  # a stream prints the rows encoded before a failure; json holds them
    if fmt == "json":
        # the document with an empty list at rows_key, cut after its "[": keys
        # sort, so the cut is where it would end without the later fields, less "]}}"
        doc = encode({"schema": SCHEMA, "command": command, "result": {**data, rows_key: []}})
        cut = len(encode({"command": command, "result": {k: v for k, v in data.items() if k < rows_key} | {rows_key: []}})) - 3
        sys.stdout.write(doc[:cut])
        for i, block in enumerate(held):
            sys.stdout.write((sep if i else "") + sep.join(block))
        sys.stdout.write(doc[cut:] + "\n")


# -- command bodies --------------------------------------------------------------


def cmd_alpha(args) -> int | None:
    import mpmath as mp
    from . import series
    val = series.alpha_k(args.k, target_precision=args.bits)
    payload = {
        "k": args.k,
        "bits": args.bits,
        "value": val,
        "digits7": val.leading_decimal(7),
        "err_upper": mp.nstr(val.err, 8),
    }
    emit(payload, args.fmt, "alpha")


def cmd_prop1(args) -> int | None:
    from . import series
    p = args.p
    payload: dict = {"p": p}
    payload["stat_plain"] = series.prop1_statistic_exact(p)
    if args.r is not None:
        payload["r"] = args.r
        payload["stat_r"] = series.prop1_statistic_exact(p, args.r)
    window = next(series.sigma4_windows([p], max(args.j_max, 3))) if args.expansion and args.residuals else None
    if args.expansion and p >= 11:
        exp = series.tail_expansion(p, sigma4=window)
        payload["expansion_terms"] = list(exp.terms)
        payload["remainder_bound"] = exp.remainder_bound
    if args.residuals:
        rows = series.expansion_residuals(p, r=args.r, j_max=args.j_max, sigma4=window)
        payload["residuals"] = [
            {
                **row,
                "value_float": float(row["value"]),
                "within": None if row["bound"] is None else abs(row["value"]) <= row["bound"],
            }
            for row in rows
        ]
    emit(payload, args.fmt, "prop1")


def cmd_rho(args) -> int | None:
    from . import dickman
    args.tol = dickman.DEFAULT_TOL if args.tol is None else args.tol
    if args.ten_thirds:
        emit(dickman.rho_ten_thirds_quadrature(), args.fmt, "rho")
    elif args.table:
        rows = dickman.rho_solution(args.u if args.u is not None else dickman.U_MAX, args.step, args.tol)
        emit({"grid_step": args.step, "rows": rows}, args.fmt, "rho", rows_key="rows")
    elif args.u is None:
        raise PreconditionError("rho needs --u, --table, or --ten-thirds")
    else:
        emit({"u": args.u, "tol": args.tol, "rho": dickman.rho(args.u, tol=args.tol)}, args.fmt, "rho")


def cmd_psi(args) -> int | None:
    from . import dickman
    sc = dickman.smooth_count(args.x, args.y, with_exact=not args.no_exact)
    payload = dict(vars(sc))
    if sc.exact is not None:
        approx = float(sc.approx.value)
        payload["relative_gap"] = abs(sc.exact / approx - 1) if approx else None
    emit(payload, args.fmt, "psi")


def cmd_sieve_weights(args) -> int | None:
    from . import sieve
    ws = sieve.beta_sieve_weights(args.d, args.z)
    payload: dict = {
        "level_D": ws.level_D,
        "z": ws.z,
        "s": ws.s,
        "upper_support": len(ws.lambda_plus),
        "lower_support": len(ws.lambda_minus),
    }
    rc = 0
    if args.n_limit is not None:
        rep = sieve.verify_sandwich(ws, args.n_limit)
        payload["sandwich"] = rep
        rc = 0 if rep["ok"] else 1
    if args.dump_weights:
        payload["lambda_plus"] = {str(k): v for k, v in sorted(ws.lambda_plus.items())}
        payload["lambda_minus"] = {str(k): v for k, v in sorted(ws.lambda_minus.items())}
    emit(payload, args.fmt, "sieve weights")
    return rc


def cmd_sieve_ff(args) -> int | None:
    import mpmath as mp
    from . import sieve
    s = args.s
    payload = {"s": s, "f": sieve.linear_f(s)}  # refuses s outside [0, 6], NaN included
    if s >= 1:
        payload["F"] = sieve.linear_F(s)
        # exact, so the difference keeps every digit the two values carry
        payload["F_minus_f"] = mp.fsub(payload["F"], payload["f"], exact=True)
    emit(payload, args.fmt, "sieve Ff")


def cmd_sieve_flemma(args) -> int | None:
    from . import sieve
    t = sieve.FundamentalLemmaTruncation(z=args.z, R=args.r, parity=args.parity)
    rep = sieve.fundamental_lemma_check(t, args.n_limit)
    emit(rep, args.fmt, "sieve flemma")
    return 0 if rep["ok"] else 1


def cmd_sieve_vector(args) -> int | None:
    from . import arith, sieve
    if args.tuple:
        vals = [arith.exact_rational(v, "--tuple") for v in args.tuple]
        ok = sieve.vector_sieve_check(*vals)
        emit({"tuple": vals, "holds": ok}, args.fmt, "sieve vector")
        return 0 if ok else 1
    rep = sieve.vector_sieve_random_trials(args.trials, seed=args.seed)
    emit(rep, args.fmt, "sieve vector")
    return 0 if rep["ok"] else 1


def cmd_sieve_mertens(args) -> int | None:
    from . import sieve
    if args.x is not None:
        emit(sieve.mertens_window_report(args.x, args.epsilon), args.fmt, "sieve mertens")
        return
    if args.a is None or args.b is None:
        raise PreconditionError("mertens needs either --x/--epsilon or --a/--b")
    _, product, reciprocal_sum = sieve.mertens_window(args.a, args.b)
    emit({"a": args.a, "b": args.b, "product": product, "reciprocal_sum": reciprocal_sum}, args.fmt, "sieve mertens")


_KIND_FLAGS = {"basic": ("A", "B"), "lemma61": ("h", "m", "r", "v")}


def _spec_from_args(args) -> expsums.PhaseSpec:
    """The phase spec of args.kind from the flags that _add_spec_flags
    declares. A flag of another kind is refused, not ignored."""
    from . import expsums
    other = [f"--{n}" for k, ns in _KIND_FLAGS.items() if k != args.kind for n in ns if getattr(args, n, None) is not None]
    if other:
        raise PreconditionError(f"--kind {args.kind} takes no {', '.join(other)}")
    if args.kind == "basic":
        if args.A is None or args.B is None:
            raise PreconditionError("basic phase needs --A and --B")
        return expsums.make_basic_phase(args.A, args.B, args.lo, args.hi)
    for name in ("h", "m", "r"):
        if getattr(args, name) is None:
            raise PreconditionError(f"lemma61 phase needs --{name}")
    return expsums.make_lemma61_phase(args.h, args.m, args.r, args.lo, args.hi, v=args.v)


def cmd_expsum_basic(args) -> int | None:
    from . import expsums
    spec = _spec_from_args(args)
    res = expsums.eval_phase(spec, threads=args.threads, engine=args.engine)
    emit({"spec": spec, "result": res}, args.fmt, "expsum basic")


def cmd_expsum_lemma61(args) -> int | None:
    from . import expsums
    spec = _spec_from_args(args)
    res = expsums.eval_phase(spec, engine=args.engine)
    payload = {"spec": spec, "result": res}
    if args.check_rewrite:
        payload["change_of_variables"] = expsums.lemma61_change_of_variables(spec)
        payload["progression_oracle_abs"] = expsums.lemma61_ap_oracle(spec)
    emit(payload, args.fmt, "expsum lemma61")


def cmd_expsum_weyl(args) -> int | None:
    from . import expsums
    spec = _spec_from_args(args)
    rep = expsums.weyl_difference_check(spec, K=args.K, L=args.L)
    emit(rep, args.fmt, "expsum weyl")
    ok = rep["first_ok"] and (args.L is None or rep["second_ok"])
    return 0 if ok else 1


def cmd_expsum_scan(args) -> int | None:
    from . import expsums
    rep = expsums.cancellation_scan(args.family, count=args.count, seed=args.seed)
    emit(rep, args.fmt, "expsum scan", rows_key="rows")


def cmd_expsum_window(args) -> int | None:
    from . import expsums
    w = expsums.smoothing_window(args.delta, args.J)
    rep = {
        "delta": w.delta,
        "J": args.J,
        "fourier0": w.fourier0(),
        "value_at_0": w.value(0),
        "value_at_delta": w.value(w.delta),
        "value_at_3delta": w.value(3 * w.delta),
        "decay": w.decay_check(h_max=args.h_max),
    }
    emit(rep, args.fmt, "expsum window")
    return 0 if rep["decay"]["ok"] else 1


def _params_for(args) -> sieve.ScaleParams:
    from . import sieve
    flags = {"z_small": args.z_small, "z_quarter_lo": args.z_lo, "z_quarter_hi": args.z_hi}
    overrides = {field: v for field, v in flags.items() if v is not None}
    return sieve.make_scale_params(args.x, preset=args.preset, overrides=overrides or None)


def _enumerate_row(rec: special.SpecialPrimeRecord) -> dict:
    """One `special enumerate` row, JSON-native as emit requires.

    The statistics are reduced integer pairs: "a/d" and a / d print what
    _ratio and float print for the same Fraction.
    """
    a, d = rec.ratio_plain
    row = {
        "p": rec.p,
        "class": rec.klass,
        "r": rec.r,
        "factors_p1": rec.pairs_p1,
        "factors_p2": rec.pairs_p2,
        "factors_odd_half": rec.pairs_p3,
        "stat_plain": f"{a}/{d}",
        "stat_plain_float": a / d,
        "stat_r": None,
        "stat_r_float": None,
    }
    if rec.ratio_r is not None:
        a, d = rec.ratio_r
        row["stat_r"], row["stat_r_float"] = f"{a}/{d}", a / d
    return row


def cmd_special_enumerate(args) -> int | None:
    from . import special
    # S streams from the walk through the partition check to stdout; jsonl
    # and csv hold one segment of it, json each row's text, charged
    params = _params_for(args)
    part: dict = {}  # the partition report, filled once the stream ends
    records = special.partition_stream(special.iter_S(params), params, part)

    def summary():
        return {"count": part["n_records"], "class_counts": part["class_counts"], "partition_ok": part["ok"]}

    payload = {"rows": map(_enumerate_row, records), "parameters": params}
    emit(payload, args.fmt, "special enumerate", rows_key="rows", summary=summary)
    return 0 if part["ok"] else 1


def cmd_special_sigmas(args) -> int | None:
    from . import special
    counters = special.count_sigmas(_params_for(args), args.delta)
    holds = counters.sigma2 <= counters.sigma3 + counters.sigma4
    payload = {**vars(counters), "witness_gap": counters.witness_gap(), "pair_bound_holds": holds}
    emit(payload, args.fmt, "special sigmas")
    return 0 if holds else 1


def cmd_special_hist(args) -> int | None:
    from . import special
    rep = special.near_integer_histogram(special.iter_S(_params_for(args)), bins=args.bins)
    rows = [
        {
            "bin_lo": rep["edges"][i],
            "bin_hi": rep["edges"][i + 1],
            "plain": rep["plain_counts"][i],
            "with_r": rep["r_counts"][i],
        }
        for i in range(rep["bins"])
    ]
    payload = {
        "rows": rows,
        "n_plain": rep["n_plain"],
        "n_r": rep["n_r"],
        "ks_plain": rep["ks_plain"],
        "ks_r": rep["ks_r"],
    }
    emit(payload, args.fmt, "special hist", rows_key="rows")


def cmd_verify_all(args) -> int | None:
    from . import verify
    if args.list:
        emit({"checks": verify.check_names()}, args.fmt, "verify-all")
        return
    ctx = {"inject_bad_weights": True} if args.inject_bad_weights else {}
    rows = []
    for name in [args.only] if args.only else verify.check_names():
        res = verify.run_check(name, ctx)
        print(res.line(), file=sys.stderr)
        rows.append(to_jsonable(res))
    all_ok = all(row["ok"] for row in rows)
    emit({"results": rows, "all_ok": all_ok}, args.fmt, "verify-all", rows_key="results")
    return 0 if all_ok else 1


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals end like every other bad input.

    A value that starts with a minus sign and reads as a number (-1/3,
    -inf, -.5) is a value, not an option, and a usage error prints one
    `error:` line and exits 2.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        # argparse's own test for a negative number knows only -5 and -.5
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


class _SubParser(_Parser):
    """Subcommand parser that accepts the global flags after the name.

    add_subparsers on a _SubParser instance reuses this class, so nested
    subcommands (sieve weights, expsum scan, ...) inherit the flags too.
    """

    shared_parent = None

    def __init__(self, **kw):
        parents = list(kw.pop("parents", []))
        if _SubParser.shared_parent is not None:
            parents.append(_SubParser.shared_parent)
        super().__init__(parents=parents, **kw)


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    # the same flags live on the root parser, which sets their defaults,
    # and on every subcommand, where they default to SUPPRESS so a
    # subcommand parse cannot clobber a value given before its name
    d = argparse.SUPPRESS
    p.add_argument("--format", choices=("json", "jsonl", "csv"), default=d, dest="fmt")
    p.add_argument("--preset", choices=("desk", "paper"), default=d)
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--threads", type=int, default=d, help=f"worker processes for the exact engine of expsum basic (at most {MAX_THREADS})")
    p.add_argument("--budget-mb", type=int, default=d, help="memory budget in MB of every allocation the command charges (default 512)")


def _add_spec_flags(p: argparse.ArgumentParser, *kinds: str) -> None:
    """The flags that _spec_from_args reads for these phase kinds.

    With one kind its flags are required; with several, --kind picks one
    and _spec_from_args checks that kind's flags.
    """
    one = len(kinds) == 1
    if one:
        p.set_defaults(kind=kinds[0])
    else:
        p.add_argument("--kind", choices=kinds, default=kinds[0])
    for kind in kinds:  # basic's A and B are exact numbers read from str
        for name in _KIND_FLAGS[kind]:
            p.add_argument(f"--{name}", type=int if kind == "lemma61" else None, required=one and name != "v")
    p.add_argument("--lo", type=int, default=0)
    p.add_argument("--hi", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    from . import arith
    ap = _Parser(
        prog="alpha4",
        description="Desk-scale companion computations for the factorial series of sigma_4.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_global_flags(ap)
    ap.set_defaults(fmt="json", preset="desk", seed=0, threads=None, budget_mb=arith.DEFAULT_BUDGET_MB)
    gp = argparse.ArgumentParser(add_help=False)
    _add_global_flags(gp)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubParser)
    _SubParser.shared_parent = gp

    p = sub.add_parser("alpha", help="certified value of the factorial series")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("prop1", help="near-integer statistic and expansion residuals at a prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--expansion", action="store_true")
    p.add_argument("--residuals", action="store_true")
    p.add_argument("--j-max", type=int, default=32)
    p.set_defaults(fn=cmd_prop1)

    p = sub.add_parser("rho", help="the smooth-density function")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)  # cmd_rho reads None as dickman.DEFAULT_TOL
    p.add_argument("--ten-thirds", action="store_true", help="both evaluation routes at u = 10/3")
    p.add_argument("--table", action="store_true")
    p.add_argument("--step", type=float, default=0.25)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("psi", help="smooth counts, exact and approximate")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--no-exact", action="store_true")
    p.set_defaults(fn=cmd_psi)

    ps = sub.add_parser("sieve", help="weights, limit functions, sandwiches")
    ssub = ps.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("weights", help="build beta=2 weights and check the sandwich")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--n-limit", type=int, default=None)
    p.add_argument("--dump-weights", action="store_true")
    p.set_defaults(fn=cmd_sieve_weights)

    p = ssub.add_parser("Ff", help="linear-sieve limit functions")
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(fn=cmd_sieve_ff)

    p = ssub.add_parser("flemma", help="truncated Moebius sandwich check")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--n-limit", type=int, default=10**5)
    p.set_defaults(fn=cmd_sieve_flemma)

    p = ssub.add_parser("vector", help="two-variable sandwich checks")
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--tuple", nargs=6, metavar=("D1M", "D1", "D1P", "D2M", "D2", "D2P"), default=None)
    p.set_defaults(fn=cmd_sieve_vector)

    p = ssub.add_parser("mertens", help="prime reciprocal sums over quarter-power windows")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.02)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.set_defaults(fn=cmd_sieve_mertens)

    pe = sub.add_parser("expsum", help="exponential sums and related checks")
    esub = pe.add_subparsers(dest="subcommand", required=True)

    p = esub.add_parser("basic", help="sum the single-variable phase")
    _add_spec_flags(p, "basic")
    p.add_argument("--engine", choices=("exact", "mpf"), default=None)
    p.set_defaults(fn=cmd_expsum_basic)

    p = esub.add_parser("lemma61", help="sum the progression phase")
    _add_spec_flags(p, "lemma61")
    p.add_argument("--engine", choices=("exact", "mpf"), default=None)
    p.add_argument("--check-rewrite", action="store_true")
    p.set_defaults(fn=cmd_expsum_lemma61)

    p = esub.add_parser("weyl", help="differencing displays for a phase spec")
    _add_spec_flags(p, "basic", "lemma61")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, default=None)
    p.set_defaults(fn=cmd_expsum_weyl)

    p = esub.add_parser("scan", help="cancellation survey across a phase family")
    p.add_argument("--family", choices=("random", "resonant", "lemma61"), default="random")
    p.add_argument("--count", type=int, default=12)
    p.set_defaults(fn=cmd_expsum_scan)

    p = esub.add_parser("window", help="smoothing window values, transform, decay")
    p.add_argument("--delta", type=str, default="1/100")
    p.add_argument("--J", type=int, default=4)
    p.add_argument("--h-max", type=int, default=10**6)
    p.set_defaults(fn=cmd_expsum_window)

    pp = sub.add_parser("special", help="the sifted prime set and its statistics")
    psub = pp.add_subparsers(dest="subcommand", required=True)

    for name, fn in (("enumerate", cmd_special_enumerate), ("sigmas", cmd_special_sigmas), ("hist", cmd_special_hist)):
        p = psub.add_parser(name)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--z-small", type=int, default=None)
        p.add_argument("--z-lo", type=int, default=None)
        p.add_argument("--z-hi", type=int, default=None)
        if name == "sigmas":
            p.add_argument("--delta", type=float, required=True)
        if name == "hist":
            p.add_argument("--bins", type=int, default=20)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify-all", help="run the acceptance checks end to end")
    p.add_argument("--list", action="store_true")
    p.add_argument("--only", type=str, default=None)
    p.add_argument("--inject-bad-weights", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def dispatch(argv: list[str]) -> int:
    from . import arith  # the budget every charge of the command reads
    args = build_parser().parse_args(argv)
    try:
        if args.threads is None:
            args.threads = min(os.cpu_count() or 1, MAX_THREADS)
        elif not 1 <= args.threads <= MAX_THREADS:
            raise PreconditionError(f"--threads must be between 1 and {MAX_THREADS}, got {args.threads}")
        if args.budget_mb < 0:
            raise PreconditionError(f"--budget-mb must be nonnegative, got {args.budget_mb}")
        arith.budget_mb = args.budget_mb  # read by every charge of this command
        return args.fn(args) or 0  # a command returns its exit status, None for 0
    except (PreconditionError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        arith.budget_mb = arith.DEFAULT_BUDGET_MB


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
