"""Midpoint-radius arithmetic: enclosures must stay honest."""

import random
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_add, normalize, round_nearest

from alpha4.arith import add_nearest_int, int_pair, round_nearest_int
from alpha4.bigreal import BigRealWithError, _exact_fraction


def enclosure(x: BigRealWithError) -> tuple[Fraction, Fraction]:
    v = _exact_fraction(x.value)
    e = _exact_fraction(x.err)
    return v - e, v + e


def test_exact_fraction_roundtrip_is_contained():
    x = BigRealWithError.exact(Fraction(1, 3))
    lo, hi = enclosure(x)
    assert lo <= Fraction(1, 3) <= hi
    assert hi - lo < Fraction(1, 2**45)  # a few ulps at the ambient 53 bits


def test_exact_tracks_working_precision():
    with mp.workprec(200):
        x = BigRealWithError.exact(Fraction(1, 3))
    lo, hi = enclosure(x)
    assert lo <= Fraction(1, 3) <= hi
    assert hi - lo < Fraction(1, 2**190)


def test_exact_int_has_zero_error():
    x = BigRealWithError.exact(42)
    assert x.err == 0
    assert _exact_fraction(x.value) == 42


def test_products_keep_the_truth_inside():
    a = BigRealWithError.exact(Fraction(1, 3))
    b = BigRealWithError.exact(Fraction(1, 7))
    for got, truth in [
        (a * b, Fraction(1, 21)),
        (a * Fraction(1, 2), Fraction(1, 6)),
        (3 * b, Fraction(3, 7)),
    ]:
        lo, hi = enclosure(got)
        assert lo <= truth <= hi


def test_widen_only_grows():
    a = BigRealWithError.exact(Fraction(1, 3))
    w = a.widen(Fraction(1, 100))
    assert float(w.err) >= float(a.err) + 0.01 - 1e-15


def test_leading_decimal_truncates_not_rounds():
    # value 1.2999995 +- tiny: the 7-digit truncation is 1.299999,
    # even though rounding would give 1.3
    x = BigRealWithError.exact(Fraction(12999995, 10**7))
    assert x.leading_decimal(7) == "1.299999"


def test_leading_decimal_integer_part_only():
    # digits beyond the cut keep both endpoints inside one digit cell
    x = BigRealWithError.exact(Fraction(4230104321, 10**8))
    assert x.leading_decimal(2) == "42"
    assert x.leading_decimal(7) == "42.30104"


def test_leading_decimal_exact_boundary_is_refused():
    # 42.30104 with a nonzero radius sits on a decimal boundary: the
    # 7th digit is genuinely undecidable and must raise, not guess
    x = BigRealWithError.exact(Fraction(4230104, 10**5))
    assert x.err > 0
    with pytest.raises(ValueError, match="ambiguous"):
        x.leading_decimal(7)


def test_leading_decimal_rejects_ambiguity():
    # radius straddles the 4th digit
    x = BigRealWithError(mp.mpf("1.2345"), mp.mpf("0.001"))
    with pytest.raises(ValueError, match="ambiguous"):
        x.leading_decimal(4)
    assert x.leading_decimal(2) == "1.2"


def test_leading_decimal_rejects_power_of_ten_straddle():
    x = BigRealWithError(mp.mpf("9.9999"), mp.mpf("0.001"))
    with pytest.raises(ValueError, match="straddles"):
        x.leading_decimal(3)


def test_leading_decimal_requires_value_at_least_one():
    x = BigRealWithError.exact(Fraction(1, 2))
    with pytest.raises(ValueError):
        x.leading_decimal(3)


def test_leading_decimal_depth_beyond_certification_raises():
    x = BigRealWithError(mp.mpf("1.5"), mp.mpf("1e-12"))
    with pytest.raises(ValueError, match="ambiguous"):
        x.leading_decimal(30)


def test_wide_mpf_values_are_not_rerounded():
    # a 200-bit value must keep its low bits through the exact accessors
    with mp.workprec(200):
        v = mp.mpf(1) / 3
    x = BigRealWithError(v, mp.mpf(0))
    f = _exact_fraction(x.value)
    assert abs(f - Fraction(1, 3)) < Fraction(1, 2**195)


# -- the integer rounding kernel against libmp ---------------------------------


def libmp_round(m: int, e: int, prec: int):
    """libmp's normalize at prec bits, round-nearest, on a signed mantissa."""
    if m == 0:
        return from_man_exp(0, e)
    return normalize(int(m < 0), abs(m), e, abs(m).bit_length(), prec, round_nearest)


def kernel_round(m: int, e: int, prec: int):
    return from_man_exp(*round_nearest_int(m, e, prec))


@pytest.mark.parametrize("prec", [1, 2, 53, 136, 320])
def test_round_nearest_int_matches_libmp_normalize(prec):
    rng = random.Random(prec)
    cases = []
    for kept in (2**prec - 2, 2**prec - 1, 2 ** (prec - 1), 2 ** (prec - 1) + 1):  # even, odd kept bits
        for below in (1, 2, 5, 70):
            tie = (2 * kept + 1) << (below - 1)  # exactly half an ulp past kept
            cases += [tie, tie - 1, tie + 1]
    cases += [(2 ** (prec + 1) - 1) << 3, 2 ** (prec + 1) - 1]  # round up carries out to 2^prec
    cases += [2**prec - 1, 2 ** (prec - 1), 1, 3, 0]  # bit_length <= prec: no rounding
    cases += [rng.getrandbits(rng.randrange(1, 3 * prec + 80)) for _ in range(300)]
    for m in cases:
        for signed in (m, -m):
            e = rng.randrange(-400, 400)
            assert kernel_round(signed, e, prec) == libmp_round(signed, e, prec), (signed, e)
    # the carry is kept as 2^prec, one bit more than prec, with the same value
    assert round_nearest_int(2 ** (prec + 1) - 1, 0, prec) == (2**prec, 1)
    assert round_nearest_int(-(2**prec) + 1, 5, prec) == (-(2**prec) + 1, 5)


@pytest.mark.parametrize("prec", [1, 2, 53, 136, 320])
def test_add_chains_match_mpf_add_across_wide_gaps(prec):
    # gaps above 100 bits send mpf_add through its perturbation shortcut,
    # which must round as the exact sum does
    rng = random.Random(1000 + prec)
    for _ in range(40):
        s = from_man_exp(rng.getrandbits(prec) - 2 ** (prec - 1), rng.randrange(-50, 50), prec, round_nearest)
        pair = int_pair(s)
        for _ in range(25):
            gap = rng.choice([0, 3, 99, 101, 150, prec + 5, prec + 120])
            t = from_man_exp(rng.getrandbits(prec) - 2 ** (prec - 1), s[2] + rng.choice([gap, -gap]), prec,
                             round_nearest)
            s = mpf_add(s, t, prec, round_nearest)
            pair = add_nearest_int(pair, int_pair(t), prec)
            assert from_man_exp(*pair) == s
