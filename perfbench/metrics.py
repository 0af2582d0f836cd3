"""Metric definitions of the alpha4 benchmark.

END_TO_END metrics are measured with tracing off, from outside the program;
PER_LAYER metrics come from a traced run. Each per-layer metric records,
before any optimization is measured with it, which end-to-end metric it
should move, on which workload, and on which workloads it should stay flat.
BENCHMARK.json lists the same names, units and directions (a test keeps the
two in step).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    flat_on: str


END_TO_END = [
    Metric("wall_s", "s", "lower", "wall seconds of one repetition of the workload's commands (median over repetitions)"),
    Metric("cpu_s", "s", "lower", "user + sys seconds of those processes and their pool workers (median over repetitions)"),
    Metric("setup_s", "s", "lower", "fresh interpreter to the end of `import alpha4.cli` (median over samples)"),
    Metric("peak_rss_mb", "MB", "lower", "largest max-RSS among the workload's processes and their pool workers"),
]

_EXPSUMS_MOVES = "wall_s and verify.min_headroom on verify_desk; wall_s and cpu_s on long_sums"
_SPECIAL_MOVES = "wall_s on special_1e7"

# The ten verify-all checks the verify_desk workload runs (phase_engines is
# represented by two of its Weyl specs; see workloads.py).
VERIFY_CHECKS = [
    "alpha_digits",
    "rho_two_routes",
    "smooth_counts",
    "sieve_sandwich",
    "fundamental_lemma",
    "limit_functions",
    "vector_sandwich",
    "amplitude_grid",
    "special_set",
    "tail_identity",
]

PER_LAYER = [
    LayerMetric("expsums.weyl_difference_check.s", "s", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.weyl.inner_terms", "count", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.eval_phase.exact.s", "s", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.eval_phase.exact.terms", "count", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.eval_phase.mpf.s", "s", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.eval_phase.mpf.terms", "count", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.ns_per_term.exact", "ns", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.ns_per_term.mpf", "ns", "lower", _EXPSUMS_MOVES, "special_1e7"),
    LayerMetric("expsums.f_ell_integral.s", "s", "lower", "wall_s on verify_desk (amplitude_grid)", "special_1e7, long_sums"),
    LayerMetric("expsums.f_ell_integral.calls", "count", "lower", "wall_s on verify_desk (amplitude_grid)", "special_1e7, long_sums"),
    LayerMetric("special.enumerate_S.s", "s", "lower", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.enumerate_S.calls", "count", "lower", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.count_sigmas.s", "s", "lower", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.partition_check.s", "s", "lower", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.candidates", "count", "lower", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.S_size", "count", "higher", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("special.survival_ratio", "ratio", "higher", _SPECIAL_MOVES, "verify_desk, long_sums"),
    LayerMetric("arith.build_spf_table.s", "s", "lower", "wall_s and peak_rss_mb on special_1e7", "long_sums"),
    LayerMetric("arith.build_spf_table.calls", "count", "lower", "wall_s and peak_rss_mb on special_1e7", "long_sums"),
    LayerMetric("arith.spf_table_mb", "MB", "lower", "peak_rss_mb on special_1e7", "long_sums"),
    LayerMetric("series.factorial_tail_exact.s", "s", "lower", "wall_s on verify_desk (tail_identity)", "special_1e7"),
    LayerMetric("series.tail_partial.s", "s", "lower", "wall_s on verify_desk (tail_identity)", "special_1e7"),
    LayerMetric("series.tail_expansion.s", "s", "lower", "wall_s on verify_desk (tail_identity)", "special_1e7"),
    LayerMetric("series.alpha_k.s", "s", "lower", "wall_s on long_sums", "special_1e7"),
    LayerMetric("dickman.rho.s", "s", "lower", "wall_s on long_sums", "verify_desk, special_1e7"),
    LayerMetric("dickman.rho.calls", "count", "lower", "wall_s on long_sums", "verify_desk, special_1e7"),
    LayerMetric("dickman.psi_exact.s", "s", "lower", "wall_s on long_sums", "verify_desk, special_1e7"),
    LayerMetric("dickman.rho_ten_thirds_quadrature.s", "s", "lower", "wall_s on long_sums", "verify_desk, special_1e7"),
    LayerMetric("sieve.s", "s", "lower", "wall_s on verify_desk", "all workloads (under 0.3 s)"),
    *[
        LayerMetric(f"verify.{name}.s", "s", "lower", "wall_s and verify.min_headroom on verify_desk", "n/a")
        for name in VERIFY_CHECKS
    ],
    LayerMetric("verify.min_headroom", "ratio", "higher", "the budget gate of verify-all on verify_desk", "n/a"),
    LayerMetric("cli.emit.s", "s", "lower", "wall_s on special_1e7 (10 MB of JSONL)", "verify_desk"),
    LayerMetric("cli.bytes_out", "bytes", "lower", "wall_s on special_1e7", "verify_desk"),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", "n/a (traced wall_s / untraced wall_s)", "n/a"),
]
