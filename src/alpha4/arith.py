"""Exact integer arithmetic: primality, factoring, multiplicative functions,
and libmp's round-to-nearest on the (mantissa, exponent) pairs of raw mpf
tuples.

Everything in this module is deterministic. Primality uses fixed
strong-pseudoprime base sets that are proven classifiers below 2^64 and
refuses larger inputs rather than degrade to "probably". A factorization
is one form throughout: the tuple of (prime, exponent) pairs in
increasing prime order. A single n is factored by trial division to
2^16, in pure Python (factorize). A batch, runs of width consecutive
integers (width 1 takes any values), is factored by one numpy loop,
sieve_runs, which strips each small prime from a column of remainders at
the runs' multiples of it. factor_many collects its pairs into a
FactorBatch: checked numpy columns, from which sigma_4, the least and
greatest prime factors, squarefreeness and each value's pair tuple are
read; series.sigma4_windows multiplies them into sigma_4 columns. Both
loops finish cofactors above 2^32 with a Brent-cycle splitter, so
factorize answers every n below 2^64 and sieve_runs, on int64 columns,
every n below 2^63. Both refuse a cofactor (n without its primes below
2^16) of 2^64 or more, prime or not, and check that the pairs multiply
back to n. Primes come from one segmented sieve, PrimeRange.segments;
primes_upto is its concatenation. numpy is imported inside the functions
that use it, so importing this module does not load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

from .errors import BudgetError, PreconditionError

__all__ = [
    "MR_DETERMINISTIC_LIMIT",
    "SpfTable",
    "FactorBatch",
    "PrimeRange",
    "primes_upto",
    "is_prime",
    "build_spf_table",
    "factorize",
    "sieve_runs",
    "factor_many",
    "sigma_k",
    "int_pair",
    "round_nearest_int",
    "add_nearest_int",
]

# The least strong pseudoprime to the bases 2..17 is 341,550,071,728,321
# (Jaeschke, Math. Comp. 61, 1993); the twelve prime bases 2..37 admit no
# composite below 3.18e23 > 2^64 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)
_MR_BASES_LARGE = (*_MR_BASES, 19, 23, 29, 31, 37)
_MR_SMALL_LIMIT = 341_550_071_728_321
MR_DETERMINISTIC_LIMIT = 2**64

DEFAULT_BUDGET_MB = 512
budget_mb = DEFAULT_BUDGET_MB  # the running command's memory budget, set by cli.dispatch
WORK_BUDGET = 10**9  # the most terms, trials or integers one command may walk

_SMALL_LIMIT = 1 << 16


def require_budget(need: int, what: str) -> None:
    """Refuse an allocation of `need` bytes past the memory budget
    (budget_mb) rather than swap."""
    budget = budget_mb * 2**20
    if need > budget:
        mb = -(-need // 2**20)  # rounded up, so a refusal never reads as if it fitted
        shown = mb if mb < 10**12 else f"more than 10^{len(str(mb - 1)) - 1}"  # a power of ten below it
        raise BudgetError(f"{what} needs {shown} MB, budget is {budget // 2**20} MB")


def require_work(steps: int, what: str) -> None:
    """Refuse a walk of more than WORK_BUDGET steps rather than run without end."""
    if steps > WORK_BUDGET:
        raise BudgetError(f"{what} exceed the work budget {WORK_BUDGET}")


def int_pair(t) -> tuple[int, int]:
    """A finite raw mpf tuple as a signed (mantissa, exponent) pair."""
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def round_nearest_int(m: int, e: int, prec: int) -> tuple[int, int]:
    """m 2^e rounded to prec bits, half to even: libmp's round_nearest on a
    signed mantissa (it is symmetric, so the floor shift serves), without
    stripping trailing zeros (a carry may leave 2^prec)."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    t = m >> (n - 1)
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        t += 1
    return t >> 1, e + n


def add_nearest_int(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """mpf_add on (mantissa, exponent) pairs: the exact sum rounded once.
    libmp's shortcut for operands far apart rounds the same when the larger
    has at most prec bits or its last bit outweighs the smaller."""
    (a, e), (b, f) = x, y
    if e < f:
        return round_nearest_int(a + (b << (f - e)), e, prec)
    return round_nearest_int((a << (e - f)) + b, f, prec)


def exact_rational(x, name: str) -> Fraction:
    """x exactly: a rational as it is, a float at its binary value, a str
    such as "-1/3" or "0.05" as the rational it spells. Only finite
    numbers pass."""
    if not isinstance(x, (str, Rational, float)):
        raise PreconditionError(f"{name} must be a rational, float or str, got {type(x).__name__}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise PreconditionError(f"{name} must be a finite number, got {x!r}") from None


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, as an int64 array (empty for n < 2).

    The segments of PrimeRange(0, n), joined; their base sieve only goes
    to isqrt(n), so the recursion ends.
    """
    import numpy as np
    segments = PrimeRange(0, n).segments() if n >= 2 else ()
    return np.concatenate([np.zeros(0, dtype=np.int64), *segments])


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (errors above)."""
    if n < 0 or n >= MR_DETERMINISTIC_LIMIT:
        raise PreconditionError(
            f"is_prime is certified only below {MR_DETERMINISTIC_LIMIT}, got {n}"
        )
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES if n < _MR_SMALL_LIMIT else _MR_BASES_LARGE:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- least-prime-factor tables ------------------------------------------

@dataclass
class SpfTable:
    """Least-prime-factor table for 0..limit (uint32; entries 0 and 1 are 0)."""

    limit: int
    spf: np.ndarray

    def least_prime_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise PreconditionError(f"n={n} outside table range 2..{self.limit}")
        return int(self.spf[n])


def build_spf_table(limit: int) -> SpfTable:
    """Sieve least prime factors up to `limit` (4 bytes per entry).

    Refuses to allocate past the memory budget rather than swap.
    """
    if limit < 2:
        raise PreconditionError("table limit must be at least 2")
    if limit >= 2**32:
        raise PreconditionError("table entries are uint32; limit must be < 2^32")
    require_budget(4 * (limit + 1), f"least-factor table for limit={limit}")
    import numpy as np
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # whatever is still unmarked (above index 1) is prime
    unmarked = np.nonzero(spf[2:] == 0)[0] + 2
    spf[unmarked] = unmarked
    return SpfTable(limit=limit, spf=spf)


# -- factorization -------------------------------------------------------


def _brent_factor(n: int, seed: int = 1) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle method)."""
    if n % 2 == 0:
        return 2
    c = seed
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with a different polynomial


def _split_cofactor(n: int, out: list[int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out.append(n)
        return
    d = _brent_factor(n)
    _split_cofactor(d, out)
    _split_cofactor(n // d, out)


def _cofactor_pairs(n: int) -> list[tuple[int, int]]:
    """The sorted (prime, exponent) pairs of a cofactor n > 1, as the splitter finds them."""
    primes: list[int] = []
    _split_cofactor(n, primes)
    return sorted(Counter(primes).items())


def _strip(rem: int, p: int, pairs: list[tuple[int, int]]) -> int:
    """Divide every factor p out of rem, recording (p, e); returns the rest."""
    e = 0
    while rem % p == 0:
        rem //= p
        e += 1
    pairs.append((p, e))
    return rem


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, in increasing prime order.

    Trial division by 2, 3 and then the numbers 6k +- 1 below 2^16, in
    pure Python (a composite divisor never divides what its prime factors
    left). The cofactor rem this leaves has no prime factor <= 2^16, or
    none <= its square root, so below 2^32 it is 1 or prime; above,
    certified primality or the splitter decides. So every n < 2^64 is
    answered; a cofactor of 2^64 or more is refused, prime or not,
    rather than guessed at.
    """
    n = int(n)
    if n < 1:
        raise PreconditionError(f"factorize needs n >= 1, got {n}")
    pairs: list[tuple[int, int]] = []
    rem = n
    for p in (2, 3):
        if rem % p == 0:
            rem = _strip(rem, p, pairs)
    p, step = 5, 2
    while p < _SMALL_LIMIT and p * p <= rem:
        if rem % p == 0:
            rem = _strip(rem, p, pairs)
        p, step = p + step, 6 - step
    if rem > 1:
        if rem < _SMALL_LIMIT * _SMALL_LIMIT or is_prime(rem):
            pairs.append((rem, 1))
        else:
            pairs.extend(_cofactor_pairs(rem))
    # the same multiply-back guard FactorBatch runs on its columns
    if math.prod(q**e for q, e in pairs) != n:
        raise PreconditionError(f"factor pairs do not multiply back to {n}")
    return tuple(pairs)


def strip_exponents(rem: np.ndarray, hit: np.ndarray, q: int) -> np.ndarray:
    """Divide every factor q out of rem[hit] (int64, each divisible by q) in
    place and return the exponents: the one numpy stripping loop, trusted
    only as far as the caller's multiply-back (require_products)."""
    import numpy as np
    sub = rem[hit] // q
    e = np.ones(hit.size, dtype=np.int64)
    more = np.flatnonzero(sub // q * q == sub)
    while more.size:
        sub[more] //= q
        e[more] += 1
        more = more[sub[more] // q * q == sub[more]]
    rem[hit] = sub
    return e


def require_products(m: np.ndarray, mag: np.ndarray, n: np.ndarray) -> None:
    """Refuse pairs whose product of q^e is not each value n < 2^63, given as
    m (int64, exact mod 2^64) and mag (float64). A wrong m equal to n mod 2^64
    is >= 2^64, above mag's bound; a true one is <= n < 2^63, below it."""
    import numpy as np
    bad = np.flatnonzero((mag >= 2**63.5) | (m != n))
    if bad.size:
        i = int(bad[0])
        if mag[i] >= 2**63.5:
            raise PreconditionError("factor pairs multiply past their value")
        raise PreconditionError(f"pairs multiply to {int(m[i])}, not {int(n[i])}")


class FactorBatch:
    """The factorizations of a batch of integers, held as checked numpy columns.

    values[i] = prod q^e over the pairs of value i. The pairs are three
    int64 columns (index, primes, exps), sorted by value index and then by
    prime; offsets[i]:offsets[i+1] are value i's pairs. The constructor
    checks every value (primes strictly increase, every e >= 1, the pairs
    multiply back to n) in one numpy pass, and the columns are read-only
    afterwards.

    Readers: sigma4(rows) as exact ints; the least, greatest and squarefree
    columns (least = greatest = 1 for n = 1, which has no prime factor);
    pairs(rows), each value's pair tuple as factorize returns it.
    """

    def __init__(self, values, index, primes, exps):
        import numpy as np
        self.values, self.index, self.primes, self.exps = (
            np.array(a, dtype=np.int64) for a in (values, index, primes, exps)
        )
        n = self.values.size
        if not self.index.size == self.primes.size == self.exps.size:
            raise PreconditionError("pair columns must have one length")
        if n and self.values.min() < 1:
            raise PreconditionError("batch values must be >= 1")
        if self.index.size and (self.index.min() < 0 or self.index.max() >= n):
            raise PreconditionError("pair index outside the batch")
        self.offsets = np.searchsorted(self.index, np.arange(n + 1))
        self._check()
        for a in (self.values, self.index, self.primes, self.exps, self.offsets):
            a.setflags(write=False)

    def _check(self) -> None:
        import numpy as np
        idx, q, e = self.index, self.primes, self.exps
        same = idx[1:] == idx[:-1]
        if (
            np.any(idx[1:] < idx[:-1])
            or np.any(same & (q[1:] <= q[:-1]))
            or np.any(q < 2)
            or np.any(e < 1)
        ):
            raise PreconditionError("factor pairs must have increasing primes and e >= 1")
        n = self.values
        # one reduceat per dtype over each value's pairs; n = 1, with none, keeps the product 1
        m = np.ones_like(n)
        mag = np.zeros(n.size)
        starts = self.offsets[:-1]
        has = np.flatnonzero(starts < self.offsets[1:])
        if has.size:
            with np.errstate(over="ignore"):
                m[has] = np.multiply.reduceat(q**e, starts[has])
                mag[has] = np.multiply.reduceat(q.astype(np.float64) ** e, starts[has])
        require_products(m, mag, n)

    def __len__(self) -> int:
        return self.values.size

    @cached_property
    def _lists(self) -> tuple[list[int], list[tuple[int, int]]]:
        # read once as Python ints, so each row slices lists, not arrays;
        # equal (prime, exponent) pairs share one tuple
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        pairs = [shared.setdefault(t, t) for t in zip(self.primes.tolist(), self.exps.tolist())]
        return self.offsets.tolist(), pairs

    def pairs(self, rows) -> list[tuple[tuple[int, int], ...]]:
        """The (prime, exponent) pairs of values[i] for each i in rows, in
        the form factorize returns, without checking them again."""
        offsets, pairs = self._lists
        return [tuple(pairs[offsets[i] : offsets[i + 1]]) for i in rows]

    def sigma4(self, rows) -> list[int]:
        """sigma_4 of values[rows], for distinct rows, as exact ints."""
        import numpy as np
        rows = np.asarray(rows, dtype=np.int64)
        sel = np.zeros(len(self), dtype=bool)
        sel[rows] = True
        keep = sel[self.index]
        # renumber the kept pairs by their position in rows
        pos = np.zeros(len(self), dtype=np.int64)
        pos[rows] = np.arange(rows.size)
        out = [1] * rows.size
        # one Python step per pair: a memo dict, an object array and int64
        # terms with math.prod each took as long or longer
        for i, q, e in zip(pos[self.index[keep]].tolist(), self.primes[keep].tolist(), self.exps[keep].tolist()):
            q4 = q**4
            out[i] *= q4 + 1 if e == 1 else (q4 ** (e + 1) - 1) // (q4 - 1)
        return out

    @cached_property
    def least(self) -> np.ndarray:
        import numpy as np
        out = np.ones(len(self), dtype=np.int64)
        has = self.offsets[:-1] < self.offsets[1:]
        out[has] = self.primes[self.offsets[:-1][has]]
        return out

    @cached_property
    def greatest(self) -> np.ndarray:
        import numpy as np
        out = np.ones(len(self), dtype=np.int64)
        has = self.offsets[:-1] < self.offsets[1:]
        out[has] = self.primes[self.offsets[1:][has] - 1]
        return out

    @cached_property
    def squarefree(self) -> np.ndarray:
        import numpy as np
        out = np.ones(len(self), dtype=bool)
        out[self.index[self.exps > 1]] = False
        return out


def sieve_runs(values: np.ndarray, width: int):
    """The one batch factoring loop: (rows, q, e) for each prime power q^e
    exactly dividing values[rows], where values (int64, 1 <= v < 2^63) is
    runs n, n+1, ..., n+width-1, one after another. Each prime q <=
    min(isqrt(max), 2^16) hits a run at its last multiple (n + width - 1)
    // q * q and, for q < width, below it. Remainders of 2^32 or more yield
    the splitter's pairs, one row each; the primes left come last, with q
    an int64 column. The caller multiplies the pairs back.
    """
    import numpy as np
    # contiguous, for numpy's fast floor division
    starts, ends = np.ascontiguousarray(values[::width]), np.ascontiguousarray(values[width - 1 :: width])
    rem = values.copy()
    top = int(values.max(initial=1))
    for q in primes_upto(min(math.isqrt(top), _SMALL_LIMIT)).tolist():
        # floor division by a scalar is numpy's fast path; % is not
        last = ends // q * q  # each run's last multiple of q, below its start if it has none
        if q < width:
            off = (last - starts)[:, None] - np.arange(0, width, q)
            rows = (np.arange(0, values.size, width)[:, None] + off)[off >= 0]
        else:
            hit = np.flatnonzero(last >= starts)
            rows = hit if width == 1 else hit * width + (last[hit] - starts[hit])
        if rows.size:
            yield rows, q, strip_exponents(rem, rows, q)
    # below 2^32 a remainder with no prime factor <= min(2^16, isqrt(max)) is 1 or prime
    left = np.flatnonzero(rem > 1)
    big = rem[left] >= _SMALL_LIMIT * _SMALL_LIMIT
    for i in left[big].tolist():
        for q, e in _cofactor_pairs(int(rem[i])):
            yield np.array([i]), q, np.array([e])
    left = left[~big]
    yield left, rem[left], np.ones(left.size, dtype=np.int64)


def factor_many(starts, width: int = 1) -> FactorBatch:
    """Full factorizations of the runs n, n+1, ..., n+width-1, n in starts,
    n + width - 1 < 2^63: value i*width + j is starts[i] + j. sieve_runs'
    pairs, checked by FactorBatch; memory is O(batch), whatever the values.
    """
    import numpy as np
    ints = starts.tolist() if isinstance(starts, np.ndarray) else [int(v) for v in starts]
    lo, hi = min(ints, default=1), max(ints, default=1) + width - 1
    if lo < 1 or width < 1 or hi >= 2**63:
        raise PreconditionError(f"factor_many needs width >= 1, 1 <= n and n + width - 1 < 2^63; got {lo}..{hi}")
    vals = (np.array(ints, dtype=np.int64)[:, None] + np.arange(width)).ravel()
    idx, qs, es = [], [], []
    for rows, q, e in sieve_runs(vals, width):
        idx.append(rows)
        qs.append(np.full(rows.size, q, dtype=np.int64) if isinstance(q, int) else q)  # the last q is a column
        es.append(e)
    idx_all = np.concatenate(idx)
    # stable: within a value, primes were yielded in increasing order
    order = np.argsort(idx_all, kind="stable")
    return FactorBatch(vals, idx_all[order], np.concatenate(qs)[order], np.concatenate(es)[order])


# -- multiplicative functions ---------------------------------------------


def sigma_k(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n >= 1; k = 0 counts them."""
    if k < 0:
        raise PreconditionError("divisor-power exponent must be nonnegative")
    out = 1
    for p, e in factorize(n):
        if k == 0:
            out *= e + 1
        else:
            pk = p**k
            out *= (pk ** (e + 1) - 1) // (pk - 1)
    return out


# -- prime ranges ---------------------------------------------------------


@dataclass
class PrimeRange:
    """Primes in the half-open interval (lo, hi], generated in segments."""

    lo: int
    hi: int
    segment: int = 1 << 20

    def __post_init__(self):
        # float endpoints keep (lo, hi] semantics: p > lo iff p > floor(lo),
        # p <= hi iff p <= floor(hi), since p is an integer
        self.lo = math.floor(self.lo)
        self.hi = math.floor(self.hi)
        if self.lo < 0 or self.hi < self.lo:
            raise PreconditionError(f"bad prime range ({self.lo}, {self.hi}]")

    def segments(self):
        """The primes of each segment of (lo, hi] in turn, as increasing
        int64 arrays; the one sieve loop behind every prime range."""
        import numpy as np
        lo, hi = self.lo, self.hi
        if hi < 2:
            return
        base = primes_upto(math.isqrt(hi)).tolist()
        start = max(lo + 1, 2)
        while start <= hi:
            end = min(start + self.segment - 1, hi)
            mask = np.ones(end - start + 1, dtype=bool)
            for p in base:
                if p * p > end:
                    break
                first = max(p * p, ((start + p - 1) // p) * p)
                mask[first - start :: p] = False
            yield np.nonzero(mask)[0].astype(np.int64) + start
            start = end + 1

    def __iter__(self):
        for seg in self.segments():
            yield from seg.tolist()

