"""The benchmark's workloads: which alpha4 commands run, and how each output is checked.

An operation is one CLI command. It fails on a nonzero exit or on output that
disagrees with its reference; the check returns the reason, or None.

References come from ``references.json``, frozen from the CLI at the seed
commit. verify-all output carries wall times, so its checks compare verdicts
and headline numbers, never bytes. Outputs that are deterministic byte for
byte (psi, alpha, rho tables, the 10^7 JSONL) are compared by SHA-256. The
seeded long sums have no frozen value; they are checked against an oracle
(the mpf engine against the exact engine, as the phase_engines check does,
and the pooled 200000-term sum against a NumPy evaluation made here).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from metrics import VERIFY_CHECKS

REFERENCES = Path(__file__).with_name("references.json")

WORKLOADS = ("verify_desk", "special_1e7", "long_sums")

# mpf and exact engines must agree this closely on a shared spec (the
# tolerance of the phase_engines check)
ENGINE_GAP = 1e-9
# the NumPy oracle rounds A/n^2 and B/n^3 in double precision; its own
# error is below 1e-9, and a wrong chunk or a dropped term moves the sum by
# far more than this
ORACLE_GAP = 1e-7
# Weyl ratios are frozen floats; allow only rounding-level drift
WEYL_RTOL = 1e-9

DENOM = 2**20


@dataclass(frozen=True)
class Op:
    """One CLI command (argv after ``python -m alpha4.cli``) and its output check."""

    argv: tuple[str, ...]
    check: Callable[["Op", bytes, dict, dict], str | None]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_verify(op: Op, out: bytes, refs: dict, _seen: dict) -> str | None:
    """One verify-all check: its verdict and headline fields against the frozen ones."""
    results = json.loads(out)["result"]["results"]
    if len(results) != 1:
        return f"expected one check result, got {len(results)}"
    res = results[0]
    for field, want in refs[op.key].items():
        got = res["ok"] if field == "ok" else res["details"].get(field)
        if got != want:
            return f"{res['name']}: {field} = {got!r}, reference {want!r}"
    return None


def check_fields(op: Op, out: bytes, refs: dict, _seen: dict) -> str | None:
    result = json.loads(out)["result"]
    for field, want in refs[op.key].items():
        if result.get(field) != want:
            return f"{field} = {result.get(field)!r}, reference {want!r}"
    return None


def check_close(op: Op, out: bytes, refs: dict, _seen: dict) -> str | None:
    result = json.loads(out)["result"]
    for field, want in refs[op.key].items():
        got = result.get(field)
        if isinstance(want, float):
            if not isinstance(got, float) or not math.isclose(got, want, rel_tol=WEYL_RTOL):
                return f"{field} = {got!r}, reference {want!r}"
        elif got != want:
            return f"{field} = {got!r}, reference {want!r}"
    return None


def check_digest(op: Op, out: bytes, refs: dict, _seen: dict) -> str | None:
    got = hashlib.sha256(out).hexdigest()
    want = refs[op.key]
    return None if got == want else f"sha256 {got[:16]}..., reference {want[:16]}..."


def _sum_value(out: bytes) -> tuple[complex, int]:
    res = json.loads(out)["result"]["result"]
    v = res["value"]
    return complex(float(v["re"]), float(v["im"])), res["n_terms"]


def _oracle_sum(a: int, b: int, hi: int) -> complex:
    """sum_{n=1}^{hi} e(A(n^2 + n^-2) + B(n + n^-3)) for A = a/2^20, B = b/2^20.

    The polynomial part is reduced mod 1 in exact integer arithmetic; the
    small inverse-power part is added in double precision.
    """
    n = np.arange(1, hi + 1, dtype=np.int64)
    poly = ((a % DENOM) * (n * n % DENOM) + b * n) % DENOM
    frac = poly / DENOM + (a / DENOM) / (n.astype(float) ** 2) + (b / DENOM) / (n.astype(float) ** 3)
    t = 2 * np.pi * np.mod(frac, 1.0)
    return complex(np.cos(t).sum(), np.sin(t).sum())


def check_oracle(op: Op, out: bytes, _refs: dict, _seen: dict) -> str | None:
    got, n_terms = _sum_value(out)
    a, b, hi = _coefficients(op)
    if n_terms != hi:
        return f"n_terms = {n_terms}, expected {hi}"
    gap = abs(got - _oracle_sum(a, b, hi))
    return None if gap <= ORACLE_GAP else f"|sum - oracle| = {gap:.3g} > {ORACLE_GAP}"


def check_mpf_half(op: Op, out: bytes, _refs: dict, seen: dict) -> str | None:
    """The mpf engine's sum, kept for the exact engine's run of the same spec."""
    value, n_terms = _sum_value(out)
    seen["mpf"] = value
    return None if n_terms == _coefficients(op)[2] else f"n_terms = {n_terms}"


def check_engines_agree(op: Op, out: bytes, _refs: dict, seen: dict) -> str | None:
    value, _ = _sum_value(out)
    if "mpf" not in seen:
        return "no mpf-engine sum of the same spec to compare with"
    gap = abs(value - seen.pop("mpf"))
    return None if gap <= ENGINE_GAP else f"|exact - mpf| = {gap:.3g} > {ENGINE_GAP}"


def _coefficients(op: Op) -> tuple[int, int, int]:
    argv = list(op.argv)
    a = int(argv[argv.index("--A") + 1].split("/")[0])
    b = int(argv[argv.index("--B") + 1].split("/")[0])
    hi = int(argv[argv.index("--hi") + 1])
    return a, b, hi


def _weyl_slice() -> list[tuple[str, ...]]:
    """The first basic and the first lemma61 spec of phase_engines' Weyl suite.

    verify-all draws its 20 Weyl specs from random.Random(77); this replays
    the same draws, so the two commands sum exactly what the check sums.
    """
    wrng = random.Random(77)
    basic = []
    for _ in range(14):
        a = wrng.randrange(1, 2**40)
        b = wrng.randrange(0, 2**20)
        basic.append((a, b))
    r = 101
    m = wrng.randrange(10**4, 10**5)
    while math.gcd(m, r) != 1:
        m += 1
    h = 1 + wrng.randrange(3)
    a, b = basic[0]
    return [
        ("expsum", "weyl", "--A", f"{a}/{DENOM}", "--B", f"{b}/{DENOM}", "--hi", "512", "--K", "8", "--L", "8"),
        ("expsum", "weyl", "--kind", "lemma61", "--h", str(h), "--m", str(m), "--r", str(r),
         "--hi", "256", "--K", "8", "--L", "8"),
    ]


# checks under half a second each; the tiny verify_desk runs only these
_CHEAP_CHECKS = VERIFY_CHECKS[:7]


def ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one repetition of a workload.

    verify_desk and special_1e7 have fixed inputs (verify-all's seeds are
    part of what it certifies); only long_sums draws its coefficients from
    the seed. tiny shrinks every workload for the benchmark's own tests.
    """
    if workload == "verify_desk":
        checks = _CHEAP_CHECKS if tiny else VERIFY_CHECKS
        out = [Op(("verify-all", "--only", name), check_verify) for name in checks]
        if not tiny:
            out += [Op(argv, check_close) for argv in _weyl_slice()]
        return out
    if workload == "special_1e7":
        x = str(10**5 if tiny else 10**7)
        return [
            Op(("special", "sigmas", "--x", x, "--delta", "0.05"), check_fields),
            Op(("special", "enumerate", "--x", x, "--format", "jsonl"), check_digest),
        ]
    if workload == "long_sums":
        rng = random.Random(seed)
        a = rng.randrange(1, 2**40)
        b = rng.randrange(0, 2**20)
        coeffs = ("--A", f"{a}/{DENOM}", "--B", f"{b}/{DENOM}")
        long_hi, short_hi = (20000, 2000) if tiny else (200000, 20000)
        return [
            Op(("expsum", "basic", *coeffs, "--hi", str(long_hi), "--threads", "2"), check_oracle),
            Op(("expsum", "basic", *coeffs, "--hi", str(short_hi), "--engine", "mpf", "--threads", "1"),
               check_mpf_half),
            Op(("expsum", "basic", *coeffs, "--hi", str(short_hi), "--engine", "exact", "--threads", "1"),
               check_engines_agree),
            Op(("psi", "--x", "10000000", "--y", "125.89"), check_digest),
            Op(("alpha", "--bits", "8192"), check_digest),
            Op(("rho", "--table", "--step", "0.01"), check_digest),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
