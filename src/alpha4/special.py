"""Enumeration of the sifted prime set and its class bookkeeping.

A prime p in (x/2, x] belongs to the set S when

  * p = -1 mod W (the small-prime localization),
  * p+2 is squarefree with least prime factor above z_quarter_lo and at
    most one prime factor in the window (z_quarter_lo, z_quarter_hi],
  * (p+3)/2 has least prime factor above z_small.

Members split into two classes by the window factor of p+2: none, or
exactly one (called r). Alongside S, four counting families track how
often the near-integer statistic is small, with and without the
r-correction, and how the smooth/rough split of p+1 interacts; their
exact definitions are in count_sigmas.

iter_S and count_sigmas consume one walk over the base candidates
(_walk): the primes p = -1 mod W in (x/2, x] whose odd half
clears z_small, yielded a segment at a time as columns. p+1 and p+2 are
factored as runs of two, in one FactorBatch; the least and greatest
prime factors, the window pairs of p+2 and membership in S are read off
its columns in numpy. sigma_4(p+1) is summed only for the candidates
whose statistic is read, and each statistic, plain or r-corrected, is
computed once.
iter_S yields S one segment at a time; each record keeps the member's
factorizations as the (prime, exponent) pair tuples sliced from the
batch, factoring the odd halves of the members alone, and its
statistics as reduced integer pairs. enumerate_S is the list of that
stream, and every reader of S (`special enumerate`, `special hist`,
verify-all) reads the same generator.

Before any factoring, the walk drops, in numpy over each segment of
primes, every p for which p+2 has a prime factor <= min(z_lo, z_hi) or
the odd half one <= z_small. No family can count such a p: membership
in S and sigma3, sigma4 need P-(p+2) > z_lo, sigma1 needs
P-(p+2) > z_hi, and sigma2 needs every factor of p+2 to be a window
prime r > z_lo or to exceed z_hi. The min keeps this true when z_lo >=
z_hi (the paper preset allows it). Trial divisors stop at sqrt(x+3),
so a threshold beyond it is never turned into a prime list; the exact
rules then still decide what the prefilter leaves. The survivors of each
segment are factored in one batch, so memory follows the segment, not x.

partition_check stays an independent re-derivation of every condition,
and multiplies each record's pairs back to p+1, p+2 and (p+3)/2. It
reads any stream of records in one pass with constant state (p must
strictly increase, which also catches a repeat), and partition_stream
passes the records on as it checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import PrimeRange, factor_many, primes_upto, require_budget, require_work
from .errors import PreconditionError
from .series import prop1_ratio
from .sieve import ScaleParams

__all__ = [
    "SpecialPrimeRecord",
    "SigmaCounters",
    "iter_S",
    "enumerate_S",
    "count_sigmas",
    "partition_check",
    "partition_stream",
    "near_integer_histogram",
]

CLASS_NO_MID = "no_mid_factor"
CLASS_ONE_MID = "one_mid_factor"
_BIN_BYTES = 320  # a histogram bin's edge, its two counts and its CLI row (tracemalloc)
_VALUE_BYTES = 40  # a statistic in a histogram's sorted list of floats (tracemalloc: 36.5)


@dataclass(frozen=True)
class SpecialPrimeRecord:
    """One member of S with its factor pairs and statistics.

    pairs_p1, pairs_p2 are the (prime, exponent) pairs of p+1 and p+2;
    pairs_p3 those of the odd half (p+3)/2, all sliced from checked
    FactorBatch columns. ratio_plain is the exact distance of
    sigma_4(p+1)/(p(p+1)) + 1/16 from the nearest integer, as a reduced
    (numerator, denominator) pair; ratio_r adds (p+1)/r^4 first (only
    for the one_mid_factor class).
    """

    p: int
    klass: str
    r: int | None
    pairs_p1: tuple[tuple[int, int], ...]
    pairs_p2: tuple[tuple[int, int], ...]
    pairs_p3: tuple[tuple[int, int], ...]
    ratio_plain: tuple[int, int]
    ratio_r: tuple[int, int] | None

    def __post_init__(self):
        if self.klass not in (CLASS_NO_MID, CLASS_ONE_MID):
            raise PreconditionError(f"unknown class {self.klass!r}")
        if (self.r is None) != (self.klass == CLASS_NO_MID):
            raise PreconditionError("class and window factor disagree")
        if self.p % 4 != 3:
            raise PreconditionError("members satisfy p = 3 mod 4, so (p+3)/2 is odd")


class _Segment:
    """The base candidates of one segment of primes, as columns.

    f factors p+1, p+2 as runs of two: candidate i's are rows 2i and 2i+1.
    lpf2 and gpf1 are P-(p+2) and P+(p+1); the window pairs (win_i, win_r,
    win_e) are p+2's prime factors r in (z_lo, z_hi] with the candidate
    row i and exponent e; low2 counts p+2's prime factors <= z_hi. in_S is
    the membership rule of S, the only place it is written outside
    partition_check.
    """

    def __init__(self, p: np.ndarray, params: ScaleParams):
        import numpy as np
        zl, zh = params.z_quarter_lo, params.z_quarter_hi
        n = self.n = p.size
        self.p = p
        f = self.f = factor_many(p + 1, 2)
        self.lpf2, self.gpf1 = f.least[1::2], f.greatest[::2]
        row, on2 = f.index >> 1, (f.index & 1).astype(bool)  # p+2's pairs have odd rows
        win = on2 & (f.primes > zl) & (f.primes <= zh)
        self.win_i, self.win_r, self.win_e = row[win], f.primes[win], f.exps[win]
        self.low2 = np.bincount(row[on2 & (f.primes <= zh)], minlength=n)
        n_win = np.bincount(self.win_i, minlength=n)
        self.in_S = f.squarefree[1::2] & (self.lpf2 > zl) & (n_win <= 1)

    def sigma4_p1(self, rows: np.ndarray) -> dict[int, int]:
        """sigma_4(p+1) for the candidate rows given, keyed by row."""
        return dict(zip(rows.tolist(), self.f.sigma4(2 * rows)))


def _walk(params: ScaleParams):
    """Each segment's base candidates, in increasing p: primes p = -1 mod W
    in (x/2, x] whose odd half (p+3)/2 has no prime factor <= z_small.

    The prefilter drops p when p+2 has a prime factor <= min(z_lo, z_hi)
    or the odd half one <= z_small; no family counts such a p (see the
    module docstring). Trial divisors stop at sqrt(x+3), and an odd half
    left by them is then above z_small or, when z_small lies beyond
    sqrt(x+3), a prime; either way the odd-half rule is half > z_small.
    """
    x, w, zs = params.x, params.W, params.z_small
    require_work(x - x // 2, f"the {x - x // 2} integers of ({x // 2}, {x}]")
    import numpy as np
    top = math.isqrt(x + 3)
    divides_p2 = primes_upto(min(params.z_quarter_lo, params.z_quarter_hi, top)).tolist()
    divides_half = primes_upto(min(zs, top)).tolist()
    for seg in PrimeRange(x // 2, x).segments():
        cand = seg[seg % w == w - 1]
        keep = np.ones(cand.size, dtype=bool)
        for q in divides_p2:
            keep &= (cand + 2) % q != 0
        half = (cand + 3) // 2
        for q in divides_half:
            keep &= half % q != 0
        keep &= half > zs
        if keep.any():
            yield _Segment(cand[keep], params)


def _reduced_stat(p: int, sigma4_p1: int, r: int | None = None) -> tuple[int, int]:
    """The statistic of prop1_ratio in lowest terms, as Fraction would hold it."""
    a, den = prop1_ratio(p, sigma4_p1, r)
    g = math.gcd(a, den)
    return a // g, den // g


def _members(seg: _Segment):
    """The members of S in one segment, in increasing p.

    The records hold pairs sliced from the walk's batch (p+1, p+2) and
    from a batch of the members' odd halves, and integer statistics; no
    Fraction is built.
    """
    import numpy as np
    rows = np.flatnonzero(seg.in_S)
    ps = seg.p[rows]
    halves = factor_many((ps + 3) // 2).pairs(range(rows.size))
    sigma4 = seg.sigma4_p1(rows)
    window = np.zeros(seg.n, dtype=np.int64)
    window[seg.win_i] = seg.win_r  # members have at most one window prime
    rows_l = rows.tolist()
    pairs1 = seg.f.pairs(2 * i for i in rows_l)
    pairs2 = seg.f.pairs(2 * i + 1 for i in rows_l)
    for i, p, r, p1, p2, p3 in zip(rows_l, ps.tolist(), window[rows].tolist(), pairs1, pairs2, halves):
        r = r or None
        yield SpecialPrimeRecord(
            p=p,
            klass=CLASS_NO_MID if r is None else CLASS_ONE_MID,
            r=r,
            pairs_p1=p1,
            pairs_p2=p2,
            pairs_p3=p3,
            ratio_plain=_reduced_stat(p, sigma4[i]),
            ratio_r=None if r is None else _reduced_stat(p, sigma4[i], r),
        )


def iter_S(params: ScaleParams):
    """The members of S at the given scale, in increasing order of p,
    built one segment of the walk at a time.

    A segment's batch and pairs are dropped before the walk builds the
    next segment, so what the stream holds follows the segment, not x.
    """
    for seg in _walk(params):
        yield from _members(seg)
        del seg


def enumerate_S(params: ScaleParams) -> list[SpecialPrimeRecord]:
    """All members of S at the given scale, in increasing order of p."""
    return list(iter_S(params))


@dataclass(frozen=True)
class SigmaCounters:
    """The four counting families at scale x, plus the size of S.

    sigma1 counts primes; sigma2..sigma4 count (p, r) pairs. By
    construction every sigma2 pair lands in sigma3 or sigma4, so
    sigma2 <= sigma3 + sigma4 always; a violation means the conditions
    were implemented wrong. It is data, not an exception: `special
    sigmas` prints it and exits 1, and verify-all's special_set fails.
    """

    sigma1: int
    sigma2: int
    sigma3: int
    sigma4: int
    S_total: int
    parameters: ScaleParams
    delta: float

    def __post_init__(self):
        if min(self.sigma1, self.sigma2, self.sigma3, self.sigma4, self.S_total) < 0:
            raise PreconditionError("counters must be nonnegative")

    def witness_gap(self) -> int:
        """max(0, |S| - sigma1 - sigma2): how much of S the two near-integer
        families fail to cover (diagnostic, not an asserted bound)."""
        return max(0, self.S_total - self.sigma1 - self.sigma2)


def count_sigmas(params: ScaleParams, delta: float) -> SigmaCounters:
    """Count the four families over the base set of candidates.

    Base set: primes p = -1 mod W in (x/2, x] whose odd half (p+3)/2 has
    no prime factor <= z_small. Then, with the window (z_lo, z_hi]:

      sigma1: P-(p+2) > z_hi and the plain statistic is <= delta
              (no squarefreeness asked of p+2);
      sigma2: pairs (p, r), r a window prime dividing p+2 with
              P-((p+2)/r) > z_hi, and the r-corrected statistic <= delta;
      sigma3: pairs (p, r), r a window prime dividing p+2,
              P-(p+2) > z_lo, and p+1 is x^smooth_exp-smooth;
      sigma4: pairs like sigma3 but p+1 not smooth, and the r-corrected
              statistic <= delta.

    S_total counts the members of S on the same walk, by the same rule
    as enumerate_S. The walk's prefilter never drops a p that one of
    these families counts: each asks P-(p+2) > min(z_lo, z_hi), sigma2
    through its window prime r > z_lo and cofactor above z_hi. delta must be finite and nonnegative; it is compared
    exactly, at the binary value of the given float.
    """
    if not math.isfinite(delta) or delta < 0:
        raise PreconditionError(f"delta must be finite and nonnegative, got {delta}")
    import numpy as np
    zl, zh = params.z_quarter_lo, params.z_quarter_hi
    d = Fraction(delta)

    def within(p, sigma4_p1, r=None):
        # the statistic a/den <= delta, decided in integers
        a, den = prop1_ratio(p, sigma4_p1, r)
        return a * d.denominator <= d.numerator * den

    # an integer is <= y exactly when it is <= floor(y)
    y_smooth = math.floor(params.x**params.smooth_exp)
    s1 = s2 = s3 = s4 = S_total = 0
    for seg in _walk(params):
        S_total += int(np.count_nonzero(seg.in_S))
        i = seg.win_i
        # (p+2)/r has every prime factor above z_hi iff r is p+2's only
        # prime factor <= z_hi and divides it once
        cof_rough = (seg.low2[i] == 1) & (seg.win_e == 1)
        rough = seg.lpf2[i] > zl
        smooth = seg.gpf1[i] <= y_smooth
        s3 += int(np.count_nonzero(rough & smooth))
        late = rough & ~smooth
        # only the pairs that read their r-statistic, each computed once
        need = cof_rough | late
        plain = np.flatnonzero(seg.lpf2 > zh)
        sigma4 = seg.sigma4_p1(np.union1d(plain, i[need]))
        ps = seg.p.tolist()
        for k in plain.tolist():
            s1 += within(ps[k], sigma4[k])
        for k, r, c2, c4 in zip(
            i[need].tolist(), seg.win_r[need].tolist(), cof_rough[need].tolist(), late[need].tolist()
        ):
            if within(ps[k], sigma4[k], r):
                s2 += c2
                s4 += c4
        del seg  # so the walk does not build the next segment beside this one
    return SigmaCounters(
        sigma1=s1,
        sigma2=s2,
        sigma3=s3,
        sigma4=s4,
        S_total=S_total,
        parameters=params,
        delta=float(delta),
    )


def partition_stream(records, params: ScaleParams, report: dict):
    """Yield each record of the stream once it is checked; when the stream
    ends, fill report with what partition_check returns.

    The state is constant: a counter per condition and class, and the
    previous p, since members come in strictly increasing p (a repeat or
    a swapped pair fails `range`).
    """
    zs, zl, zh = params.z_small, params.z_quarter_lo, params.z_quarter_hi
    fails: dict[str, int] = {
        "range": 0,
        "residue": 0,
        "squarefree": 0,
        "least_factor": 0,
        "window_count": 0,
        "odd_half": 0,
        "class_label": 0,
        "stat_fields": 0,
        "pair_products": 0,
    }
    first_bad = None
    counts = {CLASS_NO_MID: 0, CLASS_ONE_MID: 0}
    n_records = 0
    prev = None
    for rec in records:
        n_records += 1
        bad = []
        p = rec.p
        if not params.x // 2 < p <= params.x:
            bad.append("range")
        if p % params.W != params.W - 1:
            bad.append("residue")
        for n, pairs in ((p + 1, rec.pairs_p1), (p + 2, rec.pairs_p2), ((p + 3) // 2, rec.pairs_p3)):
            # a plain loop: math.prod over a list of powers took about twice as long
            m = 1
            for q, e in pairs:
                m *= q**e
            if m != n:
                bad.append("pair_products")
                break
        f2 = rec.pairs_p2
        if any(e != 1 for _, e in f2):
            bad.append("squarefree")
        # p+2 >= 3 has a least prime factor; forged empty pairs fail as 1
        lpf2 = f2[0][0] if f2 else 1
        if lpf2 <= zl:
            bad.append("least_factor")
        mids = [q for q, _ in f2 if zl < q <= zh]
        if len(mids) > 1:
            bad.append("window_count")
        if rec.pairs_p3 and rec.pairs_p3[0][0] <= zs:
            bad.append("odd_half")
        if rec.klass == CLASS_NO_MID:
            # no window factor means every factor of p+2 clears z_hi
            if mids or lpf2 <= zh:
                bad.append("class_label")
            if rec.ratio_r is not None:
                bad.append("stat_fields")
        else:
            if len(mids) != 1 or rec.r != mids[0]:
                bad.append("class_label")
            if rec.ratio_r is None:
                bad.append("stat_fields")
        counts[rec.klass] += 1
        if prev is not None and p <= prev:
            bad.append("range")
        prev = p
        for b in bad:
            fails[b] += 1
        if bad and first_bad is None:
            first_bad = {"p": p, "failed": bad}
        yield rec
    total_fail = sum(fails.values())
    classes_sum = counts[CLASS_NO_MID] + counts[CLASS_ONE_MID] == n_records
    report.update(
        n_records=n_records,
        class_counts=counts,
        classes_sum_to_total=classes_sum,
        condition_failures=fails,
        first_failure=first_bad,
        ok=total_fail == 0 and classes_sum,
    )


def partition_check(records, params: ScaleParams) -> dict:
    """Re-derive every membership condition and the two-class split of a
    stream of records, in one pass.

    Returns per-condition failure counts (all zero for a correct
    enumeration) and the class tallies. pair_products counts the records
    whose pairs do not multiply back to p+1, p+2 and (p+3)/2, so the
    conditions read off the pairs are about this p.
    """
    report: dict = {}
    for _ in partition_stream(records, params, report):
        pass
    return report


def near_integer_histogram(records, bins: int = 20) -> dict:
    """Distribution of the statistics over [0, 1/2], with a uniformity score.

    If the underlying angles were uniform mod 1, the distance statistic
    would have CDF 2t on [0, 1/2]; the report includes the empirical
    sup-deviation from that line (a Kolmogorov-Smirnov-style statistic,
    purely diagnostic). records is read in one pass; only the statistics
    are kept, as two lists of floats charged with the bins as they grow.
    """
    if bins < 1:
        raise PreconditionError("bins must be >= 1")
    bin_bytes = _BIN_BYTES * bins
    require_budget(bin_bytes, f"histogram of {bins} bins")
    what = f"histogram of {bins} bins and its statistics"
    plain, withr = [], []
    for rec in records:
        # float(Fraction(a, den)) is this same correctly rounded a / den
        a, den = rec.ratio_plain
        plain.append(a / den)
        if rec.ratio_r is not None:
            a, den = rec.ratio_r
            withr.append(a / den)
        require_budget(bin_bytes + _VALUE_BYTES * (len(plain) + len(withr)), what)
    plain.sort()
    withr.sort()

    def hist(vals):
        counts = [0] * bins
        for v in vals:
            i = min(int(v * 2 * bins), bins - 1)
            counts[i] += 1
        return counts

    def ks(vals):
        n = len(vals)
        if n == 0:
            return None
        worst = 0.0
        for i, t in enumerate(vals):
            cdf = min(1.0, 2 * t)
            worst = max(worst, abs((i + 1) / n - cdf), abs(i / n - cdf))
        return worst

    edges = [i / (2 * bins) for i in range(bins + 1)]
    return {
        "bins": bins,
        "edges": edges,
        "plain_counts": hist(plain),
        "r_counts": hist(withr),
        "n_plain": len(plain),
        "n_r": len(withr),
        "ks_plain": ks(plain),
        "ks_r": ks(withr),
    }
