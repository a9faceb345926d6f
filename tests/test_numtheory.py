import hashlib
import random
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from orbita import numtheory
from orbita.maps import parse_map
from orbita.numtheory import (
    DEFAULT_FACTOR_BITS,
    NOT_S_INTEGER,
    S_INTEGER_NOT_UNIT,
    S_UNIT,
    ZERO,
    RHO_WORK,
    BudgetError,
    FactorizationBudgetError,
    PlaceSet,
    factor,
    is_prime,
    _omega,
    _perfect_power,
    _sieve,
    _split,
    s_membership,
    vp,
)
from orbita.orbits import OrbitCertificate
from orbita.projective import ProjectivePoint

# psi_12: the smallest strong pseudoprime to all prime bases up to 37
PSI_12 = 318665857834031151167461
# psi_13: the smallest strong pseudoprime to all 13 bases, where the
# Miller-Rabin tiers stop being a proof and the strong Lucas step begins
PSI_13 = 3317044064679887385961981
PSI_13_FACTORS = (1287836182261, 2575672364521)


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (97, True),
        (561, False),  # Carmichael
        (1000003, True),
        (2**61 - 1, True),  # Mersenne
        (2**61 + 1, False),
        (-7, False),
        # psi_1 .. psi_12 (psi_7 = psi_8, psi_9 = psi_10 = psi_11): the
        # smallest strong pseudoprimes to the first k prime bases, which
        # straddle every base-count switch
        (2047, False),
        (1373653, False),
        (25326001, False),
        (3215031751, False),
        (2152302898747, False),
        (3474749660383, False),
        (341550071728321, False),
        (3825123056546413051, False),
        (PSI_12, False),
        # psi_13 and its factors, and Mersenne primes above it
        (PSI_13, False),
        (PSI_13_FACTORS[0], True),
        (PSI_13_FACTORS[1], True),
        (2**89 - 1, True),
        (2**107 - 1, True),
        (2**127 - 1, True),
        # at the 4096-bit input budget, and a negative number past it
        (2**4096 - 1, False),
        (-(2**5000), False),
    ],
)
def test_is_prime(n, expected):
    assert is_prime(n) == expected


def test_is_prime_refuses_a_candidate_over_the_input_budget():
    # 13 rounds on a 4253-bit candidate take about 2 s, on 9689 bits a minute
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        is_prime(2**4097 - 1)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "prime bits 4097 exceeds budget 4096"


def test_is_prime_matches_sieve_below_a_million():
    primes = set(_sieve(10**6))
    assert [n for n in range(10**6) if is_prime(n) != (n in primes)] == []


def test_factor_splits_psi_12():
    assert factor(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_strong_lucas_disagrees_with_a_sieve_only_on_its_pseudoprimes():
    # the strong Lucas pseudoprimes below 10^5 for Selfridge's parameters
    # (Baillie & Wagstaff, Math. Comp. 1980); none is a strong pseudoprime
    # to base 2, so the tests together tell them apart
    primes = set(_sieve(10**5))
    wrong = [n for n in range(3, 10**5, 2) if numtheory._strong_lucas(n) != (n in primes)]
    assert wrong == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439
    ]


def test_strong_lucas_calls_a_perfect_square_composite():
    # no D has Jacobi (D/n) = -1 for a square n, so the D search must not run
    assert numtheory._strong_lucas((2**61 - 1) ** 2) is False
    assert numtheory._strong_lucas(PSI_13**2) is False


def test_is_prime_takes_no_lucas_step_below_psi_13(monkeypatch):
    def refuse(n):
        raise AssertionError(f"strong Lucas test on {n}")

    monkeypatch.setattr(numtheory, "_strong_lucas", refuse)
    # the largest prime below psi_13 passes all 13 rounds and stops there
    assert is_prime(PSI_13 - 168) is True
    assert is_prime(PSI_13 - 2) is False
    assert is_prime(PSI_12) is False
    with pytest.raises(AssertionError, match="strong Lucas test"):
        is_prime(PSI_13)


def test_factor_refuses_psi_13_within_its_rho_budget():
    assert numtheory._PSI_13 == PSI_13 == PSI_13_FACTORS[0] * PSI_13_FACTORS[1]
    with pytest.raises(FactorizationBudgetError) as info:
        factor(PSI_13)
    assert str(info.value) == "factorization work 4194300 exceeds budget 2097152"
    assert (info.value.cofactor, info.value.partial) == (PSI_13, {})


def test_certificate_refuses_psi_13_as_a_bad_prime():
    m = parse_map(f"{PSI_13}/z")
    points = (ProjectivePoint(1, 1), ProjectivePoint(PSI_13, 1))
    with pytest.raises(ValueError, match=f"bad prime {PSI_13} is not prime"):
        OrbitCertificate(m, 0, points, (PSI_13,))
    assert OrbitCertificate(m, 0, points, PSI_13_FACTORS).s == 3


def test_factor_small_values():
    assert factor(65536) == {2: 16}
    assert factor(-84) == {2: 2, 3: 1, 7: 1}
    assert factor(1) == {}
    assert factor(-1) == {}
    assert factor(9973) == {9973: 1}


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def _check_factorization(n, f):
    # primes strictly increasing, exponents positive, every key prime, product |n|
    assert type(f) is dict
    assert list(f) == sorted(set(f))
    assert all(e >= 1 and is_prime(p) for p, e in f.items())
    assert prod(p**e for p, e in f.items()) == abs(n)


def _check_refusal_partial(n, partial):
    assert type(partial) is dict
    assert list(partial) == sorted(set(partial))
    assert all(n % p**e == 0 and is_prime(p) for p, e in partial.items())


def test_factor_value_roundtrip():
    for n in (2, -2, 360, -360, 2**40 + 1, 10**12 + 39):
        _check_factorization(n, factor(n))


def _recorded_suite_inputs():
    path = Path(__file__).parent / "data" / "factor_sample.txt"
    text = path.read_text(encoding="utf-8")
    return [int(line) for line in text.splitlines() if not line.startswith("#")]


def test_factor_invariants_on_recorded_suite_inputs():
    inputs = _recorded_suite_inputs()
    assert len(inputs) == 2140
    for n in inputs:
        f = factor(n)
        _check_factorization(n, f)
        assert factor(-n) == f


def test_factor_semiprime_beyond_trial_division():
    p, q = 1000003, 1000033
    assert factor(p * q) == {p: 1, q: 1}


def test_factor_large_prime_power():
    assert factor(1000003**3) == {1000003: 3}


def test_factor_bit_budget():
    with pytest.raises(FactorizationBudgetError) as info:
        factor(1 << 5000, max_bits=4096)
    assert info.value.n == 1 << 5000
    assert (info.value.observed, info.value.limit) == (5001, 4096)


def test_bit_refusal_message():
    # an integer past Python's 4300-digit print limit is named by its size alone
    with pytest.raises(BudgetError) as info:
        factor(-(2**16000))
    assert str(info.value) == "factor input bits 16001 exceeds budget 4096"
    assert (info.value.n, info.value.cofactor, info.value.partial) == (-(2**16000), 2**16000, {})


def test_factorization_refusal_is_a_budget_error():
    assert issubclass(FactorizationBudgetError, BudgetError)


# two Mersenne primes: a 196-bit semiprime of 4 limbs that rho cannot split
HARD = (2**89 - 1) * (2**107 - 1)


def _work_refusal(n):
    with pytest.raises(FactorizationBudgetError) as info:
        factor(n)
    exc = info.value
    return exc.observed, exc.limit, str(exc), exc.n, exc.cofactor, exc.partial


def test_work_refusal_carries_observed_limit_and_what():
    observed, limit, message, n, cofactor, partial = _work_refusal(12 * HARD)
    assert limit == RHO_WORK == 2**21
    assert observed > limit
    assert message == f"factorization work {observed} exceeds budget {limit}"
    assert (n, cofactor, partial) == (12 * HARD, HARD, {2: 2, 3: 1})
    _check_refusal_partial(n, partial)


def test_work_refusal_does_not_read_the_clock(monkeypatch):
    first = _work_refusal(HARD)
    ticks = iter(range(0, 10**12, 1000))
    for name in ("time", "monotonic", "perf_counter", "process_time"):
        monkeypatch.setattr(time, name, lambda: float(next(ticks)))
        monkeypatch.setattr(time, name + "_ns", lambda: next(ticks) * 10**9)
    assert _work_refusal(HARD) == first


def test_work_budget_is_shared_by_every_cofactor(monkeypatch):
    # rho splits one ~2^20 prime off, then the 40-bit cofactor on what is left
    allowances = []
    real = numtheory._brent_rho

    def spy(n, c, max_iter):
        allowances.append(max_iter)
        return real(n, c, max_iter)

    monkeypatch.setattr(numtheory, "_brent_rho", spy)
    assert list(factor(1000003 * 1000033 * 1000037)) == [1000003, 1000033, 1000037]
    assert allowances[0] == RHO_WORK
    assert len(allowances) == 2 and allowances[1] < RHO_WORK


def test_factor_keys_are_the_primes():
    assert list(factor(360)) == [2, 3, 5]


def test_factor_pinned_on_recorded_suite_inputs():
    # 2140 arguments factor received in run_suite('all', seed=7). The digest
    # pins each result, at the default budget and at 40 bits where wider
    # inputs raise, as the trial-division loop over the whole table gave it.
    # Each line spells a result as the sign of n and the (p, e) pairs in order.
    lines = []
    for n in _recorded_suite_inputs():
        for max_bits in (DEFAULT_FACTOR_BITS, 40):
            try:
                f = factor(n, max_bits)
                lines.append(f"{n} {max_bits} {1 if n > 0 else -1} {tuple(f.items())}")
            except FactorizationBudgetError as exc:
                _check_refusal_partial(n, exc.partial)
                partial = tuple(exc.partial.items())
                lines.append(f"{n} {max_bits} E {exc.n} {exc.cofactor} {partial}")
    assert len(lines) == 4280
    assert sum(" E " in line for line in lines) == 1532
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5ab4bcea0c44d1277532b79db95230ae2fb7d9134d7466eb7b7e6a1589e7d219"


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _prev_prime(n):
    while not is_prime(n):
        n -= 1
    return n


def test_perfect_power_finds_a_prime_exponent():
    p, q = 1000003, 1000033
    assert _perfect_power((p * q) ** 2) == (p * q, 2)
    assert _perfect_power(p**3) == (p, 3)
    # a sixth power is a square first; its root is then a cube
    assert _perfect_power(p**6) == (p**3, 2)
    assert _perfect_power(3001**11) == (3001, 11)
    for m in (p * q, p**2 * q, (p * q) ** 2 + 2, p**3 - 2):
        assert _perfect_power(m) == (m, 1)


def test_perfect_power_root_is_factored_once(monkeypatch):
    # rho splits the root p*q once, whatever the exponent
    calls = []
    real = numtheory._brent_rho

    def spy(n, c, max_iter):
        calls.append(n)
        return real(n, c, max_iter)

    monkeypatch.setattr(numtheory, "_brent_rho", spy)
    p, q = 1000003, 1000033
    for k in (1, 2, 3, 5, 6, 7):
        calls.clear()
        assert factor(12 * (p * q) ** k) == {2: 2, 3: 1, p: k, q: k}
        assert calls and set(calls) == {p * q}


def _omega_cases():
    """Integers where _omega's cube-root argument is close to failing."""
    cases = [1, 2, 12, 3001, 3001**2, 2999 * 3001, 8999999, 9000011]
    for k in range(8, 18):
        edge = 1 << 3 * k
        cases += [edge + j for j in (-3, -1, 1, 3)]
        # a prime at 2^k is in the gcd; the next one up must be left over
        below, above = _prev_prime(1 << k), _next_prime((1 << k) + 1)
        cases += [below**2, above**2, below * above, below**3, below**2 * above]
        cases += [above * _next_prime((1 << 3 * k) // above // 2)]
        cases += [below * _next_prime(below + 2) * _next_prime(below + 100)]
        if k >= 12:
            # p^2 and pq left by the gcd, both primes just above the cube root of the whole
            q = _next_prime(above + 2)
            cases += [_prev_prime(edge // above**2) * above**2]
            cases += [_prev_prime(edge // (above * q)) * above * q]
    # p^2 and pq alone and behind table primes or a prime the gcd finds
    for bits in (36, 42, 48, 51):
        p = _next_prime(1 << bits // 3)
        q = _next_prime(p + 2)
        cases += [p * p, p * q, 6 * p * q, 3001 * p * q, 5 * p * p, 3001 * p * p]
    # p*q*r with all three near the cube root, the largest such rest at 2^51
    r = _prev_prime(1 << 17)
    cases += [r * _prev_prime(r - 2) * _prev_prime(r - 200), 3 * _prev_prime(1 << 48)]
    # above 2^51: factor decides
    cases += [(1 << 52) + 1, _next_prime(1 << 30) * _next_prime(1 << 31), _next_prime(1 << 60)]
    # the pseudoprimes where is_prime takes more bases, and the primes next to them
    for psi in (3215031751, 341550071728321):
        cases += [psi, 7 * psi, 3001 * psi, 3001**2 * psi]
    for psi in (3215031751, 341550071728321, PSI_12, PSI_13):
        cases += [_prev_prime(psi), _next_prime(psi), 7 * _next_prime(psi)]
    return cases


def test_omega_counts_the_distinct_primes_of_built_cases():
    for n in _omega_cases():
        assert _omega(n) == _omega(-n) == len(factor(n)), n


def test_omega_counts_the_distinct_primes_of_random_integers():
    rng = random.Random("omega")
    for _ in range(20000):
        n = rng.getrandbits(rng.randint(1, 64)) or 1
        assert _omega(n) == len(factor(n)), n


def test_omega_builds_each_prime_product_once():
    numtheory._PRIME_PRODUCTS.pop(17, None)
    n = _next_prime(1 << 24) * _next_prime(1 << 26)  # 51 bits: k = 17
    assert _omega(n) == 2
    built = numtheory._PRIME_PRODUCTS[17]
    assert built == prod(p for p in _sieve(1 << 17) if p > 3000)
    assert _omega(n + 2) == len(factor(n + 2))
    assert numtheory._PRIME_PRODUCTS[17] is built


def test_omega_refusal_propagates():
    # a rest above 2^51 is factored, and a refusal is factor's
    with pytest.raises(FactorizationBudgetError) as info:
        _omega(12 * HARD)
    assert str(info.value).startswith("factorization work ")


def _split_case(rng: random.Random, primes: list[int]) -> int:
    """A nonzero n of either sign, up to 256 bits, built from random prime powers."""
    if rng.random() < 0.1:
        return rng.choice((1, -1))
    n = rng.choice((1, -1))
    for _ in range(rng.randint(1, 6)):
        p = rng.choice(primes)
        # one factor in four is a high power: as many bits as the budget left
        room = (256 - n.bit_length()) // p.bit_length()
        e = room if rng.random() < 0.25 else rng.randint(1, 3)
        if 1 <= e <= room:
            n *= p**e
    return n


def test_split_reads_the_factor_exponents_of_the_listed_primes():
    # primes below 200 and of 12 to 24 bits, so that factor, the oracle, stays fast
    rng = random.Random("split")
    primes = list(_sieve(200))
    primes += [_next_prime(rng.getrandbits(rng.randint(12, 24))) for _ in range(40)]
    for _ in range(2000):
        n = _split_case(rng, primes)
        whole = factor(n) if abs(n) > 1 else {}
        # primes of n and primes that do not divide it, in any order, or none
        listed = rng.sample(primes, rng.randint(0, 8))
        listed += rng.sample(list(whole), rng.randint(0, len(whole)))
        listed = list(dict.fromkeys(rng.sample(listed, len(listed))))
        found, rest = _split(n, listed)
        expected = {p: whole[p] for p in listed if p in whole}
        assert list(found.items()) == list(expected.items()), (n, listed)
        assert rest == abs(n) // prod(p**e for p, e in expected.items()), (n, listed)


def test_split_refuses_zero():
    for listed in ([], [2], (3, 5)):
        with pytest.raises(ValueError, match="cannot split 0"):
            _split(0, listed)


@pytest.mark.parametrize(
    "x,p,v",
    [
        (12, 2, 2),
        (12, 3, 1),
        (7, 5, 0),
        (Fraction(5, 8), 2, -3),
        (Fraction(-5, 8), 2, -3),
        (Fraction(9, 14), 3, 2),
        (Fraction(1), 997, 0),
    ],
)
def test_vp(x, p, v):
    assert vp(x, p) == v


def test_vp_rejects_zero_and_composite_modulus():
    with pytest.raises(ValueError):
        vp(0, 2)
    with pytest.raises(ValueError):
        vp(12, 4)


class TestPlaceSet:
    def test_of_sorts_and_dedups(self):
        S = PlaceSet.of(5, 2, 2)
        assert S.finite_primes == (2, 5)
        assert S.s == 3

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PlaceSet.of(6)

    def test_rejects_unsorted_primes(self):
        # PlaceSet.of sorts; the constructor takes the primes as given
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            PlaceSet((3, 2))
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            PlaceSet((2, 2))

    def test_contains(self):
        S = PlaceSet.of(2, 3)
        assert 2 in S and 3 in S and 5 not in S

    def test_str(self):
        assert str(PlaceSet.of(3, 2)) == "{inf,2,3}"
        assert str(PlaceSet.of()) == "{inf}"


@pytest.mark.parametrize(
    "x,primes,expected",
    [
        (0, (2,), ZERO),
        (Fraction(1, 2), (2,), S_UNIT),
        (Fraction(-8), (2,), S_UNIT),
        (6, (2,), S_INTEGER_NOT_UNIT),
        (Fraction(3, 2), (2,), S_INTEGER_NOT_UNIT),
        (Fraction(1, 3), (2,), NOT_S_INTEGER),
        (Fraction(5, 6), (2, 3), S_INTEGER_NOT_UNIT),
        (Fraction(6, 5), (2, 3), NOT_S_INTEGER),
        (1, (), S_UNIT),
        (-1, (), S_UNIT),
        (2, (), S_INTEGER_NOT_UNIT),
    ],
)
def test_s_membership(x, primes, expected):
    assert s_membership(x, PlaceSet.of(*primes)) == expected


def test_s_membership_avoids_factoring():
    # classification must work even when the S-free part is far too big to factor
    huge = Fraction(2**60 * ((1 << 4200) + 1))
    assert s_membership(huge, PlaceSet.of(2)) == S_INTEGER_NOT_UNIT
