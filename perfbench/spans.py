"""Run one alpha4 CLI command in-process with its layer entry points traced.

    PYTHONPATH=src python perfbench/spans.py <alpha4 arguments...>

The command runs through ``alpha4.cli.dispatch`` with the public entry
points of each layer module wrapped from here, so the package itself is
untouched. Every binding of a wrapped function is replaced, including the
copies that ``from ... import`` made in other alpha4 modules (for example
``verify.build_spf_table``). Spans (name, start, end, parent, counters) are
kept in memory and written once, after the command's own output, as the
last line of stderr behind ``MARKER``; stdout is left exactly as the CLI
writes it.

Per-term helpers (``phase_fraction``, ``factorize``, ``sigma_k``, the
bigreal operations) are deliberately not wrapped: they run millions of
times per command and wrapping them would distort the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction

MARKER = "PERFBENCH_SPANS "


class Recorder:
    """Span store for one process; spans are lists [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counters=None):
        """Wrap fn in a span; name is a string or a function of the bound arguments."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or counters is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if needs_args else None
            if bound is not None:
                bound.apply_defaults()
            span = [name(bound.arguments) if callable(name) else name, 0.0, 0.0,
                    self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counters is not None:
                span[4] = counters(bound.arguments, result)
            return result

        return traced


def _is_exact_spec(spec) -> bool:
    # the default-engine rule of expsums.eval_phase
    return spec.kind != "basic" or (isinstance(spec.A, Fraction) and isinstance(spec.B, Fraction))


def _eval_phase_name(a) -> str:
    engine = a["engine"] or ("exact" if _is_exact_spec(a["spec"]) else "mpf")
    return f"expsums.eval_phase.{engine}"


def _weyl_inner_terms(a, _result) -> dict:
    """Terms summed by the differenced inner sums S_k and S_{k,l}."""
    spec, K, L = a["spec"], a["K"], a["L"]
    lo, hi = spec.lo, spec.hi
    terms = sum(max(0, hi - k - lo) for k in range(1, K + 1))
    if L is not None:
        terms += sum(max(0, hi - k - l - lo) for k in range(1, K + 1) for l in range(1, L + 1))
    return {"inner_terms": terms}


def _targets() -> list[tuple[object, str, object, object]]:
    """(module, attribute, span name or namer, counters) for every traced entry point."""
    from alpha4 import arith, cli, dickman, expsums, series, sieve, special

    out = [
        (arith, "build_spf_table", None, lambda a, r: {"mb": r.spf.nbytes / 2**20}),
        (series, "factorial_tail_exact", None, None),
        (series, "tail_partial", None, None),
        (series, "tail_expansion", None, None),
        (series, "alpha_k", None, None),
        (dickman, "rho", None, None),
        (dickman, "psi_exact", None, None),
        (dickman, "rho_ten_thirds_quadrature", None, None),
        (expsums, "weyl_difference_check", None, _weyl_inner_terms),
        (expsums, "eval_phase", _eval_phase_name, lambda a, r: {"terms": a["spec"].n_terms}),
        (expsums, "f_ell_integral", None, None),
        (special, "enumerate_S", None,
         lambda a, r: {"x": a["params"].x, "W": a["params"].W, "S_size": len(r)}),
        (special, "count_sigmas", None, None),
        (special, "partition_check", None, None),
        (cli, "emit", None, None),
    ]
    # every public sieve function is one entry point of the sieve layer
    out += [(sieve, n, None, None) for n in sieve.__all__ if inspect.isfunction(getattr(sieve, n))]
    return out


def install(recorder: Recorder) -> None:
    """Replace every binding of each traced function in the loaded alpha4 modules."""
    wrappers = {}
    for module, attr, name, counters in _targets():
        fn = getattr(module, attr)
        span_name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrappers[id(fn)] = (fn, recorder.wrap(span_name, fn, counters))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "alpha4" and not mod_name.startswith("alpha4."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    import alpha4.cli

    recorder = Recorder()
    install(recorder)
    try:
        return alpha4.cli.dispatch(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(recorder.spans) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
