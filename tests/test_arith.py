"""Integer utilities: factorization, divisor sums, tables, prime ranges."""

import math
import random

import pytest

import oracles
from alpha4 import arith
from alpha4.errors import PreconditionError


def test_sigma4_small_values():
    assert arith.sigma_k(1, 4) == 1
    assert arith.sigma_k(2, 4) == 17
    assert arith.sigma_k(6, 4) == 1394  # 1 + 16 + 81 + 1296


def test_sigma_k_matches_brute_force():
    for n in range(1, 400):
        assert arith.sigma_k(n, 4) == oracles.sigma_k(n, 4), n
        assert arith.sigma_k(n, 1) == oracles.sigma_k(n, 1), n


def test_sigma_k_counts_divisors_at_zero():
    for n in range(1, 2001):
        assert arith.sigma_k(n, 0) == len(oracles.divisors(n)), n
    with pytest.raises(PreconditionError):
        arith.sigma_k(6, -1)


def test_sigma_is_multiplicative_on_coprime_parts():
    # sigma_4(14) factors through the prime powers 2 and 7
    assert arith.sigma_k(14, 4) == arith.sigma_k(2, 4) * arith.sigma_k(7, 4)
    assert arith.sigma_k(14, 4) == 40834


def test_least_prime_factor():
    assert arith.factorize(91)[0][0] == 7
    assert arith.factorize(2)[0][0] == 2
    for n in range(2, 500):
        assert arith.factorize(n)[0][0] == oracles.least_prime_factor(n), n


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert arith.is_prime(n) == oracles.is_prime(n), n


def test_is_prime_large_strong_pseudoprime_candidates():
    # Carmichael numbers and near-prime composites
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 825265):
        assert not arith.is_prime(n), n
    assert arith.is_prime(2**31 - 1)
    assert not arith.is_prime((2**31 - 1) * (2**13 - 1))


def test_spf_table_values():
    spf = arith.build_spf_table(100)
    assert spf.least_prime_factor(9) == 3
    assert spf.least_prime_factor(7) == 7
    assert spf.least_prime_factor(91) == 7
    with pytest.raises(PreconditionError):
        spf.least_prime_factor(1)  # table starts at 2
    with pytest.raises(PreconditionError):
        spf.least_prime_factor(101)


def test_spf_table_needs_an_explicit_limit():
    with pytest.raises(TypeError):
        arith.build_spf_table()
    assert not hasattr(arith, "DEFAULT_TABLE_LIMIT")


def test_spf_table_full_agreement(spf_million):
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        assert spf_million.least_prime_factor(n) == oracles.least_prime_factor(n)


def test_factorize_small_and_against_oracle():
    assert arith.factorize(360) == ((2, 3), (3, 2), (5, 1))
    ns = range(1, 600)
    assert [arith.factorize(n) for n in ns] == _oracle_pairs(ns)


def test_factorize_semiprime_beyond_trial_division():
    # both factors exceed the 2^16 trial bound, so the cycle splitter runs
    p, q = 1000003, 1000033
    assert arith.factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_rejects_uncertifiable_cofactor():
    # beyond the deterministic primality limit 2^64 the split is refused
    p = 2**61 - 1
    assert arith.factorize(p) == ((p, 1),)
    with pytest.raises(PreconditionError, match=f"is_prime is certified only below {2**64}"):
        arith.factorize(p * p)


@pytest.mark.parametrize("n, pairs", [
    (1000000000000037, ((1000000000000037, 1),)),
    ((10**9 + 7) * (10**9 + 9), ((10**9 + 7, 1), (10**9 + 9, 1))),
    ((2**31 - 1) ** 2, ((2**31 - 1, 2),)),
], ids=["prime", "semiprime", "square"])
def test_factoring_answers_a_cofactor_past_the_old_limit(n, pairs):
    # cofactors of 3.3e14 and more were refused; below 2^63 every n is answered
    assert arith.factorize(n) == pairs
    assert arith.factor_many([n]).pairs([0]) == [pairs]


@pytest.mark.parametrize("n, primes", [
    (341_550_071_728_321, (10670053, 32010157)),
    (3_825_123_056_546_413_051, (149491, 747451, 34233211)),
], ids=["bases_2_to_19", "bases_2_to_31"])
def test_is_prime_rejects_the_strong_pseudoprimes_of_the_small_bases(n, primes):
    # the least strong pseudoprimes to the bases 2..19 and 2..31 (Jaeschke)
    assert math.prod(primes) == n and all(oracles.is_prime(q) for q in primes)
    assert not arith.is_prime(n)
    assert arith.factorize(n) == tuple((q, 1) for q in primes)


def test_is_prime_answers_up_to_2_64():
    assert arith.is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not arith.is_prime(2**64 - 1)
    with pytest.raises(PreconditionError, match="certified only below"):
        arith.is_prime(2**64)


def test_factorize_refuses_pairs_that_do_not_multiply_back(monkeypatch):
    # a wrong split of the cofactor must not pass as n's factorization
    p, q = 1000003, 1000033
    monkeypatch.setattr(arith, "_cofactor_pairs", lambda n: [(p, 1), (q + 4, 1)])
    with pytest.raises(PreconditionError, match="multiply back"):
        arith.factorize(p * q)


def _oracle_pairs(ns):
    return [tuple(sorted(oracles.factor(n).items())) for n in ns]


def test_factor_many_matches_oracle():
    ns = list(range(1, 5001))
    b = arith.factor_many(ns)
    assert b.values.tolist() == ns
    assert b.pairs(range(len(b))) == _oracle_pairs(ns)


def test_factor_many_reaches_the_boundary_prime():
    # 997 is the largest prime <= isqrt(10^6); 65521 the largest <= 2^16,
    # so each square needs the last prime of the sieve to be factored
    ns = [997**2, 991 * 997, 10**6]
    assert arith.factor_many(ns).pairs(range(len(ns))) == _oracle_pairs(ns)
    for q in (2, 3, 7, 997, 65521):
        # the batch maximum is the prime square itself
        ns = list(range(max(1, q * q - 40), q * q + 1))
        assert arith.factor_many(ns).pairs(range(len(ns))) == _oracle_pairs(ns), q


def test_factor_many_splits_cofactors_beyond_2_32():
    # both factors exceed 2^16, so after the sieve the cycle splitter runs
    p, q = 1000003, 1000033
    assert arith.factor_many([p * q, 12 * p * q, p * p, 6]).pairs(range(4)) == [
        ((p, 1), (q, 1)), ((2, 2), (3, 1), (p, 1), (q, 1)), ((p, 2),), ((2, 1), (3, 1)),
    ]


# run starts: at 1 and 2; runs from 100, 119 and 124 straddle 11^2 = 121 and
# 5^3 = 125, with q below the width (41) and above it (1, 2, 3); those from
# 2190 and 148860 straddle 47^2 = 2209 and 53^3 = 148877 for q above it at
# every width; the last two pass 2^32, where the splitter takes the prime
# and the semiprime 65537 * 65539 that start them
RUN_STARTS = [1, 2, 100, 119, 121, 124, 2190, 2208, 148860, 148876, 4294967311, 65537 * 65539]


@pytest.mark.parametrize("width", [1, 2, 3, 41])
def test_factor_many_factors_runs(width, monkeypatch):
    split = []
    real = arith._cofactor_pairs
    monkeypatch.setattr(arith, "_cofactor_pairs", lambda n: split.append(n) or real(n))
    b = arith.factor_many(RUN_STARTS, width)
    values = [n + j for n in RUN_STARTS for j in range(width)]
    assert b.values.tolist() == values
    assert b.pairs(range(len(b))) == _oracle_pairs(values)
    assert 4294967311 in split and 65537 * 65539 in split


def test_factor_many_refuses_exponents_that_do_not_multiply_back(monkeypatch):
    # the stripping is right, the exponent collected into the batch is not
    real = arith.strip_exponents

    def one_too_many(rem, hit, q):
        e = real(rem, hit, q)
        if q == 3:
            e[0] += 1
        return e

    monkeypatch.setattr(arith, "strip_exponents", one_too_many)
    with pytest.raises(PreconditionError, match="multiply"):
        arith.factor_many([101], 41)


def test_factor_many_edges():
    assert len(arith.factor_many([])) == 0
    assert arith.factor_many([1]).pairs([0]) == [()]
    for bad in ([0], [5, -6]):
        with pytest.raises(PreconditionError):
            arith.factor_many(bad)


def _sigma_from(factors: dict, k: int) -> int:
    out = 1
    for q, e in factors.items():
        out *= sum(q ** (i * k) for i in range(e + 1))
    return out


def test_factor_batch_columns_match_oracle():
    # 1, the squares of the last sieve prime below isqrt(10^6) and 2^16,
    # and cofactors beyond 2^32 that the splitter or is_prime finishes
    p, q = 1000003, 1000033
    small = list(range(1, 5001)) + [997**2, 991 * 997, 65521**2]
    big = [p * q, 12 * p * q, p * p, 65537 * p]
    b = arith.factor_many(small + big)
    factors = [oracles.factor(n) for n in small + big]
    assert b.values.tolist() == small + big
    want = [oracles.sigma_k(n, 4) for n in small] + [_sigma_from(f, 4) for f in factors[len(small):]]
    assert b.sigma4(range(len(b))) == want
    assert b.least.tolist() == [min(f, default=1) for f in factors]
    assert b.greatest.tolist() == [max(f, default=1) for f in factors]
    assert b.squarefree.tolist() == [all(e == 1 for e in f.values()) for f in factors]
    rows = [4999, 0, len(small) + 1]
    assert b.sigma4(rows) == [want[i] for i in rows]


def test_factor_batch_check_refuses_corrupt_pairs():
    b = arith.factor_many([360, 97, 2 * 1000003 * 1000033])
    cols = {"values": b.values, "index": b.index, "primes": b.primes, "exps": b.exps}
    # the multiply-back check runs on construction, whatever is built later
    assert arith.FactorBatch(**cols).sigma4([2, 0]) == [_sigma_from(oracles.factor(2 * 1000003 * 1000033), 4),
                                                        oracles.sigma_k(360, 4)]
    last = int(b.offsets[-1]) - 1  # the second cofactor prime of the last value
    forged = [
        ("exps", 0, 4),  # 2^4 * 3^2 * 5 = 720, not 360
        ("exps", 1, 0),  # an exponent below 1
        ("primes", last, 1000037),  # a wrong cofactor
        ("primes", 1, 2),  # primes not increasing within 360
        ("values", 1, 97 * 2),  # a value its pairs do not multiply to
    ]
    for name, at, value in forged:
        bad = dict(cols, **{name: cols[name].copy()})
        bad[name][at] = value
        with pytest.raises(PreconditionError):
            arith.FactorBatch(**bad)
    with pytest.raises(ValueError):
        b.exps[0] = 4  # the checked columns are read-only


def test_factor_batch_check_refuses_a_product_that_wraps():
    # 5^28 > 2^64, and the pair's int64 product wraps to exactly this
    # value below 2^63: only the float magnitude of the product refuses it
    wrapped = 5**28 % 2**64
    assert wrapped < 2**63
    with pytest.raises(PreconditionError, match="past their value"):
        arith.FactorBatch([wrapped], [0], [5], [28])


def test_factor_batch_check_takes_one_beside_other_values():
    # n = 1 has no pairs, so its product is the empty one, not a reduceat slice
    b = arith.FactorBatch([12, 1, 7, 1], [0, 0, 2], [2, 3, 7], [2, 1, 1])
    assert b.sigma4(range(4)) == [oracles.sigma_k(n, 4) for n in (12, 1, 7, 1)]
    assert b.pairs(range(4)) == [((2, 2), (3, 1)), (), ((7, 1),), ()]
    with pytest.raises(PreconditionError):
        arith.FactorBatch([12, 2, 7], [0, 0, 2], [2, 3, 7], [2, 1, 1])


def test_factorization_accessors():
    assert arith.sigma_k(360, 1) == oracles.sigma_k(360, 1)


def test_factorize_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        arith.factorize(0)
    with pytest.raises(PreconditionError):
        arith.factorize(-6)


def test_primes_upto_counts():
    ps = list(arith.primes_upto(100))
    assert len(ps) == 25
    assert ps[0] == 2 and ps[-1] == 97
    assert len(arith.primes_upto(10**4)) == 1229


def test_primes_upto_is_the_prime_range():
    # every small n, and the counts at 2^16, 10^6 and both sides of the
    # default segment edge 2^20
    for n in range(601):
        got = arith.primes_upto(n)
        assert got.dtype == "int64"
        assert got.tolist() == [m for m in range(n + 1) if oracles.is_prime(m)], n
    for n, count in ((2**16, 6542), (10**6, 78498), (2**20, 82025), (2**20 + 1, 82025)):
        got = arith.primes_upto(n)
        assert got.dtype == "int64" and got.size == count, n


def test_primes_in_half_open_window():
    assert list(arith.PrimeRange(10, 20)) == [11, 13, 17, 19]
    assert list(arith.PrimeRange(10, 11)) == [11]  # hi inclusive
    assert list(arith.PrimeRange(11, 20)) == [13, 17, 19]  # lo exclusive
    assert list(arith.PrimeRange(24, 28)) == []


def test_primes_in_accepts_float_bounds():
    # fractional bounds floor to the same integer window
    assert list(arith.PrimeRange(10.7, 20.3)) == list(arith.PrimeRange(10, 20))


def test_prime_range_segments_concatenate_to_the_range():
    # segments of 1000 numbers: primes on both sides of every edge, and a
    # range starting below 2
    for lo, hi in ((0, 5000), (2500, 7001), (4998, 5003)):
        pr = arith.PrimeRange(lo, hi, segment=1000)
        segs = list(pr.segments())
        joined = [int(p) for seg in segs for p in seg]
        assert list(pr) == joined
        assert joined == [n for n in range(lo + 1, hi + 1) if oracles.is_prime(n)]
        assert all(seg.dtype == "int64" for seg in segs)


def test_prime_range_rejects_disorder():
    with pytest.raises(PreconditionError):
        arith.PrimeRange(20, 10)
