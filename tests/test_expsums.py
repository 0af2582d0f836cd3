"""Phase sums: coefficients, engines, differencing, amplitudes, the window."""

import cmath
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, mpf_mul_int, mpf_neg, mpf_pow_int, mpf_rdiv_int, round_nearest

import oracles
import peaks
from alpha4 import expsums, verify
from alpha4.arith import round_nearest_int
from alpha4.errors import BudgetError, PreconditionError


# -- specs and coefficients --------------------------------------------------


def test_phase_spec_validation():
    with pytest.raises(PreconditionError):
        expsums.PhaseSpec(kind="cubic", lo=0, hi=10)
    with pytest.raises(PreconditionError):
        expsums.make_basic_phase(1, 1, 10, 5)  # empty-ordered range
    spec = expsums.make_basic_phase(Fraction(1, 3), 0, 0, 25)
    assert spec.n_terms == 25


@pytest.mark.parametrize("bad", ["1/0", "nan", "-inf", "abc", math.nan, math.inf, mp.mpf("inf")], ids=repr)
def test_basic_phase_refuses_a_coefficient_that_is_not_a_finite_number(bad):
    # an mpf is refused for its type before its value is read
    message = "A must be a rational, float or str, got mpf" if isinstance(bad, mp.mpf) else "A must be a finite number"
    with pytest.raises(PreconditionError, match=message):
        expsums.make_basic_phase(bad, 0, 0, 25)


def test_basic_phase_refuses_an_mpf_coefficient():
    # coefficients are exact rationals: an mpf A or B is refused like any
    # value that is not one, with the error the CLI turns into status 2
    for A, B in ((mp.mpf("0.5"), 0), (Fraction(1, 2), mp.mpf("0.25"))):
        with pytest.raises(PreconditionError, match="must be a rational, float or str, got mpf"):
            expsums.make_basic_phase(A, B, 0, 10)


def test_minus_inverse_residue():
    for m, r in ((7, 3), (5, 12), (11, 8), (1, 5)):
        v = expsums.minus_inverse_residue(m, r)
        assert (m * (-v)) % r == 1, (m, r)
        assert abs(v) < r
    with pytest.raises(PreconditionError):
        expsums.minus_inverse_residue(6, 3)  # shared factor


def test_lemma61_coefficients():
    spec = expsums.make_lemma61_phase(h=3, m=7, r=11, lo=0, hi=50)
    s4 = 2 * 7**4 + 2  # sigma_4(7) with the 1 and 7^4 terms, via 1+7^4+...
    assert spec.sigma4_m == 2402
    assert spec.coefficients.A == Fraction(3 * 2402, 7**2)
    assert spec.coefficients.B == Fraction(3 * 2402, 7**3)
    # lemma62_inner has a single linear coefficient
    assert expsums.make_lemma62_inner_phase(1, 3, 5, 1, 1, 2, 0, 10).coefficients.B is None


def test_basic_phase_fraction_matches_formula():
    spec = expsums.make_basic_phase(Fraction(1, 7), Fraction(2, 5), 2, 40)
    for n in (3, 10, 40):
        manual = Fraction(1, 7) * (Fraction(n**2) + Fraction(1, n**2)) + Fraction(2, 5) * (
            n + Fraction(1, n**3)
        )
        assert expsums.phase_fraction(spec, n) == manual, n


# -- the integer phase core ---------------------------------------------------


def _oracle_phase(spec, n):
    """The phase from the spec's raw parameters by the brute-force formulas."""
    if spec.kind == "basic":
        return oracles.phase_basic(spec.A, spec.B, n)
    if spec.kind == "lemma61":
        return oracles.phase_lemma61(spec.h, spec.m, spec.r, spec.v, n)
    return oracles.phase_lemma62_inner(spec.h, spec.m, spec.r, spec.j, spec.l1, spec.l2, n)


CORE_SPECS = [
    expsums.make_basic_phase(Fraction(7, 12), Fraction(5, 18), 0, 40),
    expsums.make_basic_phase(Fraction(-623347347958, 2**20), Fraction(13, 9), 1000, 1040),
    expsums.make_basic_phase(Fraction(12345671, 2**23), 0, 0, 40),
    expsums.make_basic_phase(3, Fraction(1, 10**7), 0, 40),
    expsums.make_lemma61_phase(h=2, m=97, r=13, lo=0, hi=40),
    expsums.make_lemma61_phase(h=3, m=83413, r=101, lo=0, hi=40),
    expsums.make_lemma61_phase(h=1, m=5, r=12, lo=0, hi=40),
    expsums.make_lemma62_inner_phase(3, 7, 11, 2, 1, 5, -20, 20),
    expsums.make_lemma62_inner_phase(1, 31, 7, 2, 4, 1, 0, 40),
]


@pytest.mark.parametrize("spec", CORE_SPECS, ids=[f"{s.kind}-{i}" for i, s in enumerate(CORE_SPECS)])
def test_phase_ratio_matches_oracle(spec):
    ratio = expsums._phase_ratio(spec)
    ns = range(spec.lo + 1, spec.hi + 1)
    oracle = [_oracle_phase(spec, n) for n in ns]
    R = []
    for n, want in zip(ns, oracle):
        N, D = ratio(n)
        assert D > 0, n
        assert Fraction(N, D) == want == expsums.phase_fraction(spec, n), n
        assert (N % D / D).hex() == float(want % 1).hex(), n
        R.append((N % D, D))
    # Weyl terms from the integer pairs, against the oracle's Fraction differences
    for k in (1, 2, 5):
        Rk = list(expsums._diff_mod1(R, k))
        assert len(Rk) == len(R) - k
        for i, (a, d) in enumerate(Rk):
            assert 0 <= a < d
            assert (a / d).hex() == float((oracle[i + k] - oracle[i]) % 1).hex(), (k, i)
        for l in (1, 3, 4):
            Rkl = list(expsums._diff_mod1(Rk, l))
            assert len(Rkl) == len(R) - k - l
            for i, (a, d) in enumerate(Rkl):
                want = (oracle[i + k + l] - oracle[i + k] - oracle[i + l] + oracle[i]) % 1
                assert (a / d).hex() == float(want).hex(), (k, l, i)


def test_phase_ratio_preconditions():
    with pytest.raises(PreconditionError):
        expsums._phase_ratio(expsums.make_basic_phase(1, 1, 0, 10))(0)


def _seeded_pairs(seed: int, n: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(d), d) for d in (rng.randrange(1, 2**40 + 1) for _ in range(n))]


@pytest.mark.parametrize(
    # the cosines 1 + cos(pi/2) - 1 add to 0.0 left to right; rounded once,
    # to cos(pi/2) = 6.123233995736766e-17
    "pairs", [[(0, 1), (1, 4), (1, 2)], *(_seeded_pairs(seed, 500) for seed in range(4))],
    ids=["cancelling", *(f"seed{seed}" for seed in range(4))],
)
def test_sum_e_rounds_each_part_once(pairs):
    # each part is the exact sum of the same math.cos and math.sin values,
    # rounded once
    ts = [expsums.TAU * (a / d) for a, d in pairs]
    got = expsums._sum_e(pairs)
    assert got.real == float(sum(map(Fraction, map(math.cos, ts))))
    assert got.imag == float(sum(map(Fraction, map(math.sin, ts))))


# -- engines ------------------------------------------------------------------


def test_eval_phase_zero_coefficients_is_exact_count():
    r = expsums.eval_phase(expsums.make_basic_phase(0, 0, 1, 37))
    assert r.value == complex(36, 0)
    assert r.n_terms == 36
    assert r.normalized_modulus == 1.0


def test_eval_phase_against_direct_unit_vector_sum():
    spec = expsums.make_basic_phase(Fraction(1, 7), Fraction(1, 3), 3, 60)
    direct = 0j
    for n in range(4, 61):
        ph = expsums.phase_fraction(spec, n) % 1
        direct += cmath.exp(2j * math.pi * float(ph))
    got = expsums.eval_phase(spec)
    assert abs(got.value - direct) < 1e-10


def test_engines_agree_on_the_same_phase():
    # the same exact coefficients, the exact engine vs the mpf engine
    spec = expsums.make_basic_phase(Fraction(1, 2), 0, 1000, 3000)
    exact = expsums.eval_phase(spec)
    with_mpf = expsums.eval_phase(spec, engine="mpf")
    assert abs(complex(with_mpf.value) - exact.value) < 1e-9


def test_eval_phase_threads_bitwise_deterministic():
    # past the pool's start at 2^18 terms, so threads=2 forks it
    spec = expsums.make_basic_phase(Fraction(3, 17), Fraction(1, 5), 0, 270_000)
    one = expsums.eval_phase(spec, threads=1)
    two = expsums.eval_phase(spec, threads=2)
    assert one.value == two.value  # chunk layout is thread-count independent


def test_eval_phase_budget():
    # refused before a term is summed
    spec = expsums.make_basic_phase(1, 1, 0, 10**9 + 1)
    with pytest.raises(BudgetError, match="terms exceed the work budget"):
        expsums.eval_phase(spec)


def test_eval_phase_rejects_engine_mismatch():
    # an engine that is neither "exact" nor "mpf" is refused before a term is summed
    spec = expsums.make_basic_phase(Fraction(1, 4), 0, 0, 100)
    for engine in ("float", "EXACT", ""):
        with pytest.raises(PreconditionError, match="engine must be 'exact' or 'mpf'"):
            expsums.eval_phase(spec, engine=engine)


def _double_prec_bits(spec) -> int:
    """required_prec_bits as it was summed in floats, which overflowed past 2^1024."""
    hi = max(abs(spec.lo) + 1, abs(spec.hi), 1)
    if spec.kind == "basic":
        mag = (abs(float(spec.A)) + 1) * hi * hi + (abs(float(spec.B)) + 1) * hi
    elif spec.kind == "lemma61":
        a1 = abs(float(spec.coefficients.A))
        mag = (a1 + 1) * (spec.r * hi + abs(spec.v)) ** 2 + abs(spec.h) * spec.m * hi
    else:
        mag = (abs(float(spec.coefficients.C)) + 1) * hi
    return max(64, int(math.log2(mag + 2))) + 64


def _seeded_spec_sweep(rng):
    """Specs of all three kinds, wide coefficients (dyadic ones of 30 to 300 bits too) and wide ranges."""
    lo = rng.randrange(10 ** rng.randrange(1, 12))
    hi = lo + rng.randrange(1000)
    kind = rng.randrange(3)
    if kind == 0:
        A, B = (Fraction(rng.randrange(-(2 ** rng.randrange(1, 300)), 2 ** rng.randrange(1, 300)),
                         rng.randrange(1, 2 ** rng.randrange(1, 200))) for _ in range(2))
        if rng.random() < 0.3:
            with mp.workprec(rng.choice([30, 53, 100, 300])):
                man, exp = (mp.mpf(A.numerator) / A.denominator).man_exp
            A = man * Fraction(2) ** exp
        return expsums.make_basic_phase(A, B, lo, hi)
    if kind == 1:
        r = rng.choice([3, 5, 7, 101, 1009])
        m = rng.randrange(1, 10 ** rng.randrange(1, 15))
        while math.gcd(m, r) != 1:
            m += 1
        return expsums.make_lemma61_phase(rng.randrange(-(10**6), 10**6), m, r, lo, hi)
    return expsums.make_lemma62_inner_phase(rng.randrange(1, 10**6), rng.randrange(1, 10**8), rng.randrange(1, 200),
                                            rng.randrange(1, 5), rng.randrange(1, 10**6), rng.randrange(1, 10**6), lo, hi)


def test_default_precision_is_the_double_formula_wherever_that_was_finite():
    specs = verify._seeded_specs(random.Random(20260819), 100)  # phase_engines' specs
    for seed in range(10):  # the mpf sums of perfbench's long_sums workload at seeds 0..9
        rng = random.Random(seed)
        A, B = Fraction(rng.randrange(1, 2**40), 2**20), Fraction(rng.randrange(0, 2**20), 2**20)
        specs.append(expsums.make_basic_phase(A, B, 0, 20000))
    rng = random.Random(24)
    specs += [_seeded_spec_sweep(rng) for _ in range(1500)]
    # a float sum that rounds up to a power of two, and log2 that rounds up to one
    specs += [expsums.make_basic_phase(2**e - t, 0, 0, hi)
              for e in range(62, 140) for t in (3, 5, 2 ** (e - 47), 2 ** (e - 45)) for hi in (1, 2)]
    for spec in specs:
        assert expsums.required_prec_bits(spec) == _double_prec_bits(spec), spec


def test_default_precision_past_the_float_range():
    # the float formula overflowed here; the mpf engine now runs, and its cap holds
    spec = expsums.make_basic_phase(Fraction(10**3000), 0, 0, 3)
    with pytest.raises(OverflowError):
        _double_prec_bits(spec)
    assert expsums.required_prec_bits(spec) == (9 * 10**3000).bit_length() - 1 + 64  # (A + 1) hi^2 + hi
    assert expsums.eval_phase(spec, engine="mpf").n_terms == 3
    with pytest.raises(PreconditionError, match="prec_bits must be between 1 and 65536, got 99725 \\(the default"):
        expsums.eval_phase(expsums.make_basic_phase(Fraction(10**30000), 0, 0, 3), engine="mpf")


@pytest.mark.parametrize("prec_bits", [0, -5])
def test_eval_phase_refuses_a_precision_below_one_bit(prec_bits):
    # libmp's division spun forever at prec 0 and below
    spec = expsums.make_basic_phase(Fraction(1, 7), Fraction(1, 3), 0, 5)
    with pytest.raises(PreconditionError, match="prec_bits"):
        expsums.eval_phase(spec, engine="mpf", prec_bits=prec_bits)


@pytest.mark.parametrize("prec_bits", [expsums.MAX_PREC_BITS + 1, 2**20, 2**63])
def test_eval_phase_refuses_a_precision_past_its_cap_before_allocating(prec_bits):
    # at 2^63 bits the first coefficient's division raised MemoryError
    setup = """
from fractions import Fraction
from alpha4 import expsums
from alpha4.errors import PreconditionError
spec = expsums.make_basic_phase(Fraction(1, 7), Fraction(1, 3), 0, 5)
"""
    case = f"""
try:
    expsums.eval_phase(spec, engine="mpf", prec_bits={prec_bits})
except PreconditionError as e:
    assert "prec_bits" in str(e), e
else:
    raise AssertionError("not refused")
"""
    (((peak, _),),) = peaks.traced(setup, [case])
    assert peak < 2**20 // 8  # one integer of 2^20 bits would not fit


def test_eval_phase_takes_the_cap_itself():
    spec = expsums.make_basic_phase(Fraction(1, 7), Fraction(1, 3), 0, 2)
    assert expsums.eval_phase(spec, engine="mpf", prec_bits=expsums.MAX_PREC_BITS).n_terms == 2


# -- progression rewrite -------------------------------------------------------


def test_lemma61_change_of_variables_exact():
    spec = expsums.make_lemma61_phase(h=2, m=97, r=13, lo=0, hi=60)
    rep = expsums.lemma61_change_of_variables(spec)
    assert rep["ok"]
    assert rep["checked_terms"] == 60
    assert rep["max_dropped_term"] < Fraction(1, 10)
    assert spec.v == expsums.minus_inverse_residue(97, 13)


def _wrong_phase(spec, n):
    """The exact phase with the lemma61 linear completion and the lemma62 slope mis-stated."""
    c = spec.coefficients
    if spec.kind == "lemma61":
        inner = spec.v + spec.r * n
        return c.A * (2 * spec.v * spec.r * n + spec.r**2 * n**2 + Fraction(1, inner**2)) + c.B * spec.r * n
    return (c.C + Fraction(1, 3)) * n


@pytest.mark.parametrize(
    "spec",
    [
        expsums.make_lemma61_phase(h=2, m=97, r=13, lo=0, hi=64),
        expsums.make_lemma62_inner_phase(1, 31, 7, 2, 1, 4, 0, 64),
    ],
    ids=["lemma61", "lemma62_inner"],
)
def test_mpf_engine_catches_a_wrong_exact_phase(spec, monkeypatch):
    def gap():
        exact = expsums.eval_phase(spec, engine="exact", threads=1).value
        with_mpf = expsums.eval_phase(spec, engine="mpf", prec_bits=160).value
        return float(abs(exact - with_mpf))

    assert gap() < 1e-9

    def wrong_ratio(spec):
        def ratio(n):
            f = _wrong_phase(spec, n)
            return f.numerator, f.denominator

        return ratio

    monkeypatch.setattr(expsums, "_phase_ratio", wrong_ratio)
    assert gap() > 1e-9


def _kernel_specs():
    """Seeded specs of all three kinds, including the dyadic 0.3 and a
    lemma61 progression with negative l and v beyond 10^5.

    The negative basic phases (the fourth spec) matter: mpf_cos_sin_pi
    reduces a positive argument exactly, so dropping the floor from
    2 (ph - floor ph) changes no bit there, while on negative phases it
    changes about one cos or sin in a thousand."""
    rng = random.Random(4242)
    specs = [
        expsums.make_basic_phase(Fraction(rng.randrange(1, 2**40), 2**20), Fraction(rng.randrange(2**20), 2**20),
                                 rng.randrange(40), 160)
        for _ in range(3)
    ]
    specs.append(expsums.make_basic_phase(Fraction(-rng.randrange(1, 2**40), 2**20),
                                          Fraction(-rng.randrange(2**20), 2**20), 0, 1500))
    specs.append(expsums.make_basic_phase(Fraction(5404319552844595, 2**54), "0.7", 0, 120))  # mpf("0.3")
    for _ in range(2):
        m = rng.randrange(10**4, 10**5)
        while math.gcd(m, 101) != 1:
            m += 1
        specs.append(expsums.make_lemma61_phase(1 + rng.randrange(3), m, 101, 0, 80))
    m, r = 98765, 1_000_003
    v = expsums.minus_inverse_residue(m, r)
    assert abs(v) > 10**5
    specs.append(expsums.PhaseSpec(kind="lemma61", lo=-40, hi=40, h=3, m=m, r=r, v=v,
                                   sigma4_m=oracles.sigma_k(m, 4)))
    specs.append(expsums.make_lemma62_inner_phase(2, 12345, 101, 3, 5, 9, 0, 100))
    specs.append(expsums.make_lemma62_inner_phase(1, 977, 13, 1, 2, 1, 10, 90))
    return specs


@pytest.mark.parametrize("prec", [53, 160, 320])
def test_mpf_kernel_is_bit_identical_to_mpf_operators(prec):
    # the raw libmp engine against the same formula on mpf objects:
    # equal tuples, not nearby values
    specs = _kernel_specs()
    for spec in specs:
        got = expsums.eval_phase(spec, engine="mpf", prec_bits=prec).value
        assert got._mpc_ == oracles.mpf_phase_sum(spec, prec)._mpc_, spec
        with mp.workprec(prec):
            coefficients = tuple(map(oracles.mpf_coefficient, spec.coefficients))
            for n in (spec.lo + 1, spec.hi):
                want = oracles.phase_mpf(spec, n, coefficients)
                assert from_man_exp(*expsums._phase_raw(spec, prec)(n)) == want._mpf_, (spec, n)
    # one-term sums are each term's cos and sin, which a long sum's
    # rounding can absorb
    negative = specs[3]
    for n in range(1, negative.hi + 1):
        one = dataclasses.replace(negative, lo=n - 1, hi=n)
        got = expsums.eval_phase(one, engine="mpf", prec_bits=prec).value
        assert got._mpc_ == oracles.mpf_phase_sum(one, prec)._mpc_, n


def test_mpf_kernel_matches_mpf_operators_past_the_exact_cube():
    # at n >= 2^340 and 400 bits, n's mantissa has bc >= 334 bits, so
    # bc * 3 >= 1000 and mpf_pow_int cubes by truncated squaring
    rng = random.Random(340)
    specs = [
        expsums.make_basic_phase(Fraction(rng.randrange(2**39, 2**40), 2**381), Fraction(rng.randrange(2**40), 2**380),
                                 lo, lo + 50)
        for lo in (2**340 + 1, 2**340 + rng.getrandbits(339), 2**345 - rng.getrandbits(300) * 2 - 1)
    ]
    # mpf("0.3") / 2^342 and mpf("0.7") / 2^340
    specs.append(expsums.make_basic_phase(Fraction(5404319552844595, 2**396), Fraction(3152519739159347, 2**392),
                                          2**341 + 7, 2**341 + 57))
    for spec in specs:
        got = expsums.eval_phase(spec, engine="mpf", prec_bits=400).value
        assert got._mpc_ == oracles.mpf_phase_sum(spec, 400)._mpc_, spec
        assert abs(got) < 40  # the phases spread over the circle
        with mp.workprec(400):
            coefficients = tuple(map(oracles.mpf_coefficient, spec.coefficients))
            for n in range(spec.lo + 1, spec.hi + 1, 7):
                assert from_man_exp(*expsums._phase_raw(spec, 400)(n)) == oracles.phase_mpf(spec, n, coefficients)._mpf_, n


def test_mpf_kernel_rounds_a_coefficient_once():
    # 10^100 has 333 bits: rounding it to the working precision before the
    # division moves the last bit of A at the default 128 bits
    A = Fraction(10**100, 10**100 + 1)
    spec = expsums.make_basic_phase(A, 0, 0, 3)
    assert expsums.required_prec_bits(spec) == 128
    with mp.workprec(128):
        # the phase at n = 1 is A (1 + 1), an exact doubling
        want = mpf_mul_int(from_rational(A.numerator, A.denominator, 128, round_nearest), 2, 128, round_nearest)
        assert from_man_exp(*expsums._phase_raw(spec, 128)(1)) == want


@pytest.mark.parametrize("prec", [53, 160])
def test_mpf_kernel_rounds_the_fraction_of_a_phase_in_minus_one_to_zero(prec):
    # ph - floor(ph) = 1 + ph needs more than prec bits there, so mpf_sub rounds it
    spec = expsums.make_basic_phase(Fraction(-1, 2**13), Fraction(-3, 2**11), 0, 60)
    assert all(-1 < expsums.phase_fraction(spec, n) < 0 for n in range(1, 61))
    for n in range(1, 61):
        one = dataclasses.replace(spec, lo=n - 1, hi=n)
        got = expsums.eval_phase(one, engine="mpf", prec_bits=prec).value
        assert got._mpc_ == oracles.mpf_phase_sum(one, prec)._mpc_, n


@pytest.mark.parametrize("m", [
    # mantissas whose cube libmp rounds away from the correctly rounded cube
    4505477777010006567156597609490429153031917369406270343086960898463974120554243939958904291289046582947,
    8877298374780324524432489230005949533128709915163447312758510340962282575680149528495710033465364786882528821753,
], ids=["342 bits", "372 bits"])
def test_cube_follows_mpf_pow_int_where_it_truncates(m):
    want = mpf_pow_int(from_man_exp(m, -3), 3, 400, round_nearest)
    assert from_man_exp(*expsums._cube((m, -3), 400)) == want
    assert from_man_exp(*expsums._cube((-m, -3), 400)) == mpf_neg(want)
    assert from_man_exp(*round_nearest_int(m**3, -9, 400)) != want


@pytest.mark.parametrize("prec", [1, 2, 53, 136, 320, 400])
def test_division_and_cube_follow_libmp(prec):
    # the phase adds 1/n^2 and 1/n^3 to far larger terms, which hides most
    # of their last bits, so the two kernels are checked on their own
    rng = random.Random(prec)
    xs = [(1, 0), (-1, 5), (2**prec - 1, -7), (-(2**prec) + 1, 3), (3, 0), (2 ** (prec - 1) + 1, 0)]
    xs += [(rng.getrandbits(rng.randrange(1, prec + 1)) | 1, rng.randrange(-60, 60)) for _ in range(400)]
    for m, e in xs:
        for x in ((m, e), (-m, e), (m << 3, e - 3)):
            t = from_man_exp(*x)
            assert from_man_exp(*expsums._inv(x, prec)) == mpf_rdiv_int(1, t, prec, round_nearest), x
            assert from_man_exp(*expsums._cube(x, prec)) == mpf_pow_int(t, 3, prec, round_nearest), x


def test_lemma61_ap_oracle_matches_phase_sum():
    spec = expsums.make_lemma61_phase(h=1, m=31, r=7, lo=0, hi=45)
    direct = abs(expsums.eval_phase(spec).value)
    assert expsums.lemma61_ap_oracle(spec) == pytest.approx(direct, abs=1e-9)


# -- double differencing -------------------------------------------------------


def test_inner62_coefficient_antisymmetry():
    def slope(l1, l2):
        return expsums.make_lemma62_inner_phase(3, 7, 11, 2, l1, l2, 1, 40).coefficients.C

    c15 = slope(1, 5)
    c51 = slope(5, 1)
    assert c15 == -c51
    assert slope(4, 4) == 0
    assert c15 == Fraction(-6203602125568, 21789075)


# -- differencing inequalities --------------------------------------------------


def test_weyl_first_display_on_cancelling_phase():
    spec = expsums.make_basic_phase(Fraction(12345671, 2**23), Fraction(1, 2**10), 2000, 4000)
    rep = expsums.weyl_difference_check(spec, K=25)
    assert rep["first_is_theorem"]
    assert rep["first_ok"]
    assert rep["first_ratio"] <= 1
    assert rep["n_terms"] == 2000


def test_weyl_adversarial_constant_phase():
    # A = B = 0: |S| = N, the worst case the theorem still covers
    spec = expsums.make_basic_phase(0, 0, 0, 300)
    rep = expsums.weyl_difference_check(spec, K=10)
    assert rep["abs_sum"] == pytest.approx(300.0, abs=1e-9)
    assert rep["first_ok"]
    assert 0.1 < rep["first_ratio"] <= 1


def test_weyl_second_display_reported():
    spec = expsums.make_basic_phase(Fraction(12345671, 2**23), 0, 500, 1000)
    rep = expsums.weyl_difference_check(spec, K=8, L=8)
    assert rep["second_is_theorem"] is False
    assert rep["second_ok"]
    assert rep["second_lhs"] <= rep["second_rhs"]
    assert rep["max_inner_abs"] >= 0


def test_weyl_domain():
    spec = expsums.make_basic_phase(1, 1, 0, 50)
    with pytest.raises(PreconditionError):
        expsums.weyl_difference_check(spec, K=51)
    with pytest.raises(PreconditionError):
        expsums.weyl_difference_check(spec, K=0)
    rep = expsums.weyl_difference_check(spec, K=1)
    assert rep["first_ok"]


# abs_sum, first_rhs, first_ratio, max_inner_abs, second_ratio frozen from
# the per-term phase evaluation that preceded the shared residue table
WEYL_FROZEN = [
    (
        expsums.make_basic_phase(Fraction(1, 7), 0, 0, 300), 10, None,
        (113.74333053978474, 82016.21446296622, 0.15774375014741232, None, None),
    ),
    (
        expsums.make_basic_phase(Fraction(278310081342, 2**20), Fraction(683474, 2**20), 0, 512), 8, 8,
        (7.51865847356422, 125379.80673111169, 0.00045087184863295583, 451.6282174607502, 1.5156790655556174e-08),
    ),
    (
        expsums.make_lemma61_phase(2, 83413, 101, 0, 256), 8, 8,
        (11.477980132825618, 39692.82102088532, 0.0033190895618182273, 170.29655287350928, 1.6715861070393592e-06),
    ),
]


@pytest.mark.parametrize("spec, K, L, frozen", WEYL_FROZEN, ids=["tour", "basic512", "lemma61"])
def test_weyl_matches_frozen_values(spec, K, L, frozen):
    rep = expsums.weyl_difference_check(spec, K=K, L=L)
    abs_sum, first_rhs, first_ratio, max_inner, second_ratio = frozen
    assert (rep["abs_sum"], rep["first_rhs"], rep["first_ratio"]) == (abs_sum, first_rhs, first_ratio)
    if L is not None:
        # frozen from the per-term evaluation, whose rounding of each phase
        # may move the last bit of max |S_{k,l}|
        assert rep["max_inner_abs"] == pytest.approx(max_inner, rel=1e-12)
        assert rep["second_ratio"] == pytest.approx(second_ratio, rel=1e-12)


def test_weyl_evaluates_each_phase_at_most_twice(monkeypatch):
    # N for the eval_phase sum, N for the residue table shared by every S_k, S_{k,l},
    spec, K, L, _ = WEYL_FROZEN[1]
    calls = []
    real = expsums._phase_ratio

    def counted(s):
        ratio = real(s)
        return lambda n: calls.append(n) or ratio(n)

    monkeypatch.setattr(expsums, "_phase_ratio", counted)
    expsums.weyl_difference_check(spec, K=K, L=L)
    # and the two ends, whose denominators size the table's charge
    assert sorted(calls) == sorted([*range(spec.lo + 1, spec.hi + 1)] * 2 + [spec.lo + 1, spec.hi])


def test_weyl_tables_stay_under_their_charge():
    # the charge, from the bit sizes of the table's pairs, one float and one
    # slice slot a term and a fixed part, covers the traced peak without
    # overstating it by half: with S_k alone, with S_{k,l} streamed, and on
    # a short run, where the fixed part counts
    setup = """
from fractions import Fraction
from alpha4 import expsums
weyl = lambda A, B, n, K, L: expsums.weyl_difference_check(expsums.make_basic_phase(A, B, 0, n), K, L)
weyl(Fraction(1, 7), 0, 100, 1, 1)  # no first-use import
long_sums = (Fraction(278310081342, 2**20), Fraction(683474, 2**20))  # WEYL_FROZEN's basic512
"""
    (rows,) = peaks.traced(setup, [
        "weyl(Fraction(1, 7), 0, 5000, 1, None)", "weyl(Fraction(1, 7), 0, 20000, 1, None)",
        "weyl(*long_sums, 5000, 2, 2)", "weyl(*long_sums, 20000, 2, 2)",
        "weyl(Fraction(1, 3), Fraction(1, 5), 1000, 1, 1)",
    ])
    peaks.charges_cover_peaks(rows)


# -- the amplitude function f_l ---------------------------------------------


@pytest.mark.parametrize(
    "A, B, k, l, n",
    [
        (Fraction(2), Fraction(1), 20, 30, 500),  # k < l
        (Fraction(2), Fraction(1), 30, 20, 500),  # k > l
        (Fraction(2), Fraction(1), 25, 25, 700),  # k = l: the kernel is a triangle
        (Fraction(3), Fraction(-7, 5), 1, 64, 1024),  # B != 0, thin rectangle
        (Fraction(1, 977), Fraction(1, 10**7), 3, 11, Fraction(5001, 2)),  # rational n
        (Fraction(1, 977), Fraction(1, 10**7), 3, 11, 2500),  # the same at an integer n
        (Fraction(1, 977), Fraction(0), 5, 17, 3000),  # B = 0, k < l
        (Fraction(-1, 3), Fraction(5, 7), 7, 19, 1234),  # A < 0, k < l
        (Fraction(1, 3), Fraction(0), 19, 7, 999),  # B = 0, k > l
        (Fraction(-7, 11), Fraction(-2, 3), 13, 13, Fraction(5001, 2)),  # k = l, both negative, rational n
    ],
    ids=["k<l", "k>l", "k=l", "B<0", "fraction_n", "integer_n", "B=0,k<l", "k<l,A<0", "k>l,B=0", "k=l,fraction_n"],
)
def test_f_ell_wedge_integral_matches_closed_form(A, B, k, l, n):
    # two derivations of one rational: the wedge integral of g and the second difference of G
    assert expsums.f_ell_integral(A, B, k, l, n) == expsums.f_ell_closed(A, B, k, l, n)


def test_f_ell_integral_is_within_the_oracle_quadrature_on_the_amplitude_grid():
    A, B = Fraction(2), Fraction(1)
    for n in (500 + (500 * i) // 49 for i in range(50)):  # check_amplitude_grid's points
        exact = expsums.f_ell_integral(A, B, 30, 20, n)
        with mp.workdps(30):
            quad = oracles.f_ell_integral(A, B, 30, 20, n)
            assert abs(quad - mp.mpf(exact.numerator) / exact.denominator) <= mp.mpf("1e-25") * abs(quad), n


@pytest.mark.parametrize("k, l, n", [(3, 4, 0), (3, 4, -1), (-5, 3, 5), (3, -3, 2)])
def test_f_ell_refuses_a_non_positive_argument(k, l, n):
    for f in (expsums.f_ell_closed, expsums.f_ell_integral):
        with pytest.raises(PreconditionError, match="arguments must stay positive"):
            f(Fraction(2), Fraction(1), k, l, n)


def test_amplitude_grid_fails_on_an_integral_off_by_a_hair(monkeypatch):
    # 10^-40 is far inside any float tolerance; only exact equality sees it
    exact = expsums.f_ell_integral
    monkeypatch.setattr(expsums, "f_ell_integral", lambda *a: exact(*a) + Fraction(1, 10**40))
    res = verify.run_check("amplitude_grid")
    assert not res.ok
    assert res.details["points_equal"] == 0
    assert res.details["first_unequal_n"] == 500


def test_f_ell_derivative_profile_brackets():
    prof = expsums.f_ell_derivative_profile(
        Fraction(1, 977), Fraction(1, 10**8), 5, 17, 10**4, j_max=3, samples=5
    )
    assert prof["all_in_bracket"]
    assert prof["sign_matches_A"]
    assert [row["j"] for row in prof["orders"]] == [0, 1, 2, 3]
    for row in prof["orders"]:
        assert row["c1"] <= row["min_ratio"] <= row["max_ratio"] <= row["c2"], row


def test_f_ell_preconditions():
    with pytest.raises(PreconditionError):
        expsums.f_ell_derivative_profile(Fraction(1, 977), 0, 5, 17, 100)  # Q too small
    with pytest.raises(PreconditionError):
        expsums.f_ell_derivative_profile(Fraction(1, 977), 0, 5000, 17, 10**4)  # k > Q/4
    with pytest.raises(PreconditionError):
        # |B| > |A|/Q breaks the bracket hypotheses
        expsums.f_ell_derivative_profile(Fraction(1, 977), Fraction(1, 2), 5, 17, 10**4)


# -- survey ---------------------------------------------------------------------


def test_cancellation_scan_random_family():
    rep = expsums.cancellation_scan("random", count=4, qs=(1024, 2048), seed=3)
    assert rep["family"] == "random"
    assert set(rep["median_ratio_by_scale"]) == {1024, 2048}
    assert rep["flag_count"] == 0
    for row in rep["rows"]:
        assert row["ratio_vs_sqrt"] < 3  # square-root cancellation, loosely
    again = expsums.cancellation_scan("random", count=4, qs=(1024, 2048), seed=3)
    assert again == rep


def test_cancellation_scan_resonant_family_flags():
    rep = expsums.cancellation_scan("resonant", count=3, qs=(512,), seed=1)
    assert rep["flag_count"] >= 1  # rational lock-in must be visible


def test_cancellation_scan_lemma61_family_runs():
    rep = expsums.cancellation_scan("lemma61", count=2, qs=(512,), seed=1)
    assert len(rep["rows"]) == 2
    for row in rep["rows"]:
        assert row["normalized_modulus"] <= 1


def test_scan_rows_stay_under_their_charge():
    # one constant per family covers the traced peak of its rows without
    # overstating it by half
    families = ("random", "resonant", "lemma61")
    setup = f"""
from alpha4 import expsums
scan = lambda family, count: expsums.cancellation_scan(family, count=count, qs=(16,))
for family in {families}:
    scan(family, 2)  # no first-use import
"""
    (rows,) = peaks.traced(setup, [f"scan({family!r}, {count})" for family in families for count in (100, 400)])
    peaks.charges_cover_peaks(rows)


def test_cancellation_scan_rejects_unknown_family():
    with pytest.raises(PreconditionError):
        expsums.cancellation_scan("adversarial")


# -- smoothing window -------------------------------------------------------------


def test_window_exact_plateau_and_support():
    w = expsums.smoothing_window(Fraction(1, 1000), 4)
    assert w.value(0) == 1
    assert w.value(Fraction(1, 1000)) == 1
    assert w.value(Fraction(2, 1000)) == Fraction(1, 2)  # ramp midpoint
    assert w.value(Fraction(3, 1000)) == 0
    assert w.value(Fraction(-3, 1000)) == 0
    assert w.value(Fraction(-1, 1000)) == 1


def test_window_zeroth_coefficient():
    w = expsums.smoothing_window(Fraction(1, 1000), 4)
    assert w.fourier0() == Fraction(4, 1000)
    assert w.fourier0() <= Fraction(8, 1000)


def test_window_decay_bound_pointwise():
    w = expsums.smoothing_window(Fraction(1, 1000), 4)
    for h in (1, 17, 997, 5000):
        assert abs(w.fourier(h)) <= w.decay_bound(h) * (1 + mp.mpf("1e-20")), h


def test_window_decay_check_grid():
    w = expsums.smoothing_window(Fraction(1, 1000), 4)
    rep = w.decay_check(h_max=10**4)
    assert rep["ok"]
    assert rep["max_ratio"] <= 1


def test_window_fourier_against_direct_integral():
    # Riemann sum of w(y) e(-2 pi i h y) over the support, h = 2
    delta, jj, h = Fraction(1, 12), 2, 2
    w = expsums.smoothing_window(delta, jj)
    n = 3000
    step = Fraction(6 * delta.numerator, delta.denominator * n)  # span/n
    total = 0j
    y = -3 * delta + step / 2
    for _ in range(n):
        wy = float(w.value(y))
        total += wy * cmath.exp(-2j * math.pi * h * float(y))
        y += step
    total *= float(step)
    assert abs(total.imag) < 1e-6  # even window
    assert abs(total.real - float(w.fourier(h))) < 1e-5


def test_window_domain():
    with pytest.raises(PreconditionError):
        expsums.smoothing_window(Fraction(1, 4), 4)  # support would leave the period
    with pytest.raises(PreconditionError):
        expsums.smoothing_window(Fraction(1, 1000), 0)
    with pytest.raises(PreconditionError):
        expsums.smoothing_window(Fraction(1, 1000), 9)

