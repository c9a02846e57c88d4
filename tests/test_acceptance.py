"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each test prints one PASS line on success; all agreements demanded here are
exact (zero mismatches), since every route computes in exact arithmetic.
"""

from __future__ import annotations

import random
from itertools import product

from conftest import (
    count_monomials,
    hilbert_series_identity,
    power_times_monomial_is_zero,
    syzygy_profile_scan,
)
from lefschetz import (
    PrimeField,
    RegionTag,
    classify,
    han_delta,
    is_slp_oracle,
    kernel_witness,
    manhattan_check,
    max_rank_in_every_degree,
    region,
    slp_via_delta,
    step_violations,
    syzygy_profile,
)

FIELDS_4 = tuple(PrimeField(p) for p in (2, 3, 5, 7))
FIELDS_3 = tuple(PrimeField(p) for p in (2, 3, 5))


def pairs(lo, hi):
    for a in range(lo, hi + 1):
        for b in range(a, hi + 1):
            yield a, b


def admissible_triples(total_bound):
    # 1 <= d1 <= d2 <= d3 < d1 + d2, component sum bounded
    for d1 in range(1, total_bound):
        for d2 in range(d1, total_bound):
            if d1 + 2 * d2 > total_bound:
                break
            for d3 in range(d2, d1 + d2):
                if d1 + d2 + d3 > total_bound:
                    break
                yield d1, d2, d3


def test_c1_two_variable_four_way_equivalence():
    mismatches = []
    for field in FIELDS_4:
        for a, b in pairs(2, 40):
            oracle, delta = is_slp_oracle(field, (a, b)), slp_via_delta(field, (a, b))
            votes = (
                oracle.holds,
                not any(step_violations(field, a, b)),
                manhattan_check(field, (a, b)).holds,
                delta.holds,
                classify(field, (a, b)).holds,
            )
            # the two routes that give a failing power give the same one
            if len(set(votes)) != 1 or oracle.failing_exponent != delta.failing_exponent:
                mismatches.append((field.p, a, b, votes, oracle.failing_exponent,
                                   delta.failing_exponent))
    assert not mismatches, f"route disagreement: {mismatches[:10]}"
    print("ACCEPTANCE C1 (n=2 oracle, steps, manhattan, delta and classify agree, "
          "oracle and delta on the failing power, p in 2,3,5,7, a<=b<=40): PASS")


def test_c2_delta_criterion_equivalence():
    # Han's closed form against the matrix gap, value for value
    mismatches = []
    count = 0
    for field in FIELDS_3:
        for d in admissible_triples(60):
            count += 1
            gap, closed = syzygy_profile(field, *d).delta, han_delta(field, *d)
            if gap != closed:
                mismatches.append((field.p, d, gap, closed))
    assert count > 0
    assert not mismatches, f"closed form disagrees with the matrix gap: {mismatches[:10]}"
    print(f"ACCEPTANCE C2 (Han's closed form equals the matrix gap, {count} checks): PASS")


def test_c3_gap_bounds_maximal_rank():
    mismatches = []
    count = 0
    for field in FIELDS_3:
        for d1, d2, d3 in admissible_triples(60):
            count += 1
            small_gap = syzygy_profile(field, d1, d2, d3).delta <= 1
            maximal = max_rank_in_every_degree(field, (d1, d2), d3)
            if small_gap != maximal:
                mismatches.append((field.p, d1, d2, d3, small_gap, maximal))
    assert not mismatches, f"rank link disagreement: {mismatches[:10]}"
    print(f"ACCEPTANCE C3 (gap <= 1 iff maximal rank, {count} checks): PASS")


def test_c4_syzygy_gap_invariant_suite():
    violations = []
    rng = random.Random(424242)
    grid = [
        (d1, d2, d3)
        for d1 in range(1, 25)
        for d2 in range(1, 25)
        for d3 in range(1, 25)
    ]
    for field in FIELDS_3:
        p = field.p
        # one profile per triple of the grid and its unit-step neighbours
        profiles = {d: syzygy_profile(field, *d) for d in product(range(1, 26), repeat=3)}
        violations += [("han", p, d) for d, profile in profiles.items()
                       if han_delta(field, *d) != profile.delta]
        for d in grid:
            total = sum(d)
            profile = profiles[d]
            if profile.alpha + profile.beta != total or profile.alpha > profile.beta:
                violations.append(("degree-relation", p, d))
            if profile.delta % 2 != total % 2:
                violations.append(("parity", p, d))
            if region(*d) is RegionTag.L_EQUAL and profile.delta != 0:
                violations.append(("balanced-boundary", p, d))
            for j in range(3):
                bumped = tuple(x + (i == j) for i, x in enumerate(d))
                if abs(profiles[bumped].delta - profile.delta) != 1:
                    violations.append(("unit-step", p, d, j))
        # independent double search on a 10% subsample
        for d in rng.sample(grid, len(grid) // 10):
            if syzygy_profile_scan(field, *d) != profiles[d]:
                violations.append(("double-search", p, d))
        # index-raising scaling on the small cube
        for d1 in range(1, 9):
            for d2 in range(1, 9):
                for d3 in range(1, 9):
                    scaled = syzygy_profile(field, p * d1, p * d2, p * d3).delta
                    if scaled != p * profiles[d1, d2, d3].delta:
                        violations.append(("scaling", p, (d1, d2, d3)))
    assert not violations, f"invariant violations: {violations[:10]}"
    print(f"ACCEPTANCE C4 (syzygy-gap invariant suite on {len(grid)} triples x 3 primes): PASS")


def test_c5_hilbert_series_identity_random():
    rng = random.Random(77)
    checked = 0
    failures = []
    while checked < 200:
        field = PrimeField(rng.choice((2, 3, 5)))
        d1 = rng.randint(1, 13)
        d2 = rng.randint(d1, 13)
        d3 = rng.randint(d2, d1 + d2 - 1)
        if d1 + d2 + d3 > 40:
            continue
        checked += 1
        if not hilbert_series_identity(field, d1, d2, d3):
            failures.append((field.p, d1, d2, d3))
    assert not failures, f"series identity failures: {failures[:10]}"
    print("ACCEPTANCE C5 (resolution series identity on 200 random triples): PASS")


def test_c6_three_variable_classification():
    mismatches = []
    count = 0
    for field in FIELDS_3:
        for d1 in range(2, 7):
            for d2 in range(2, 7):
                for d3 in range(2, 7):
                    count += 1
                    closed = classify(field, (d1, d2, d3)).holds
                    oracle = is_slp_oracle(field, (d1, d2, d3)).holds
                    if closed != oracle:
                        mismatches.append((field.p, d1, d2, d3, closed, oracle))
    assert count == 3 * 125
    assert not mismatches, f"classification disagreement: {mismatches[:10]}"
    print("ACCEPTANCE C6 (n=3 classification vs oracle, 125 tuples per prime): PASS")


def test_c7_kernel_witnesses_all_verify():
    bad = []
    produced = 0
    for field in FIELDS_4:
        for a, b in pairs(2, 25):
            if not any(step_violations(field, a, b)):
                continue
            witness = kernel_witness(field, a, b)
            produced += 1
            e1, e2 = witness.monomial
            if not (e1 < a and e2 < b):
                bad.append(("zero-monomial", field.p, a, b))
            if not power_times_monomial_is_zero(field.p, a, b, e1, e2, witness.power):
                bad.append(("not-annihilated", field.p, a, b))
            if count_monomials((a, b), witness.degree) > count_monomials(
                (a, b), witness.target_degree
            ):
                bad.append(("piece-sizes", field.p, a, b))
    assert produced > 0
    assert not bad, f"witness failures: {bad[:10]}"
    print(f"ACCEPTANCE C7 ({produced} kernel witnesses verified): PASS")


def _primes_up_to(bound):
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_c8_large_characteristic_sanity():
    primes = _primes_up_to(97)
    rng = random.Random(1234)
    failures = []
    for _ in range(50):
        n = rng.choice((2, 3))
        ds = tuple(rng.randint(2, 8) for _ in range(n))
        t = sum(d - 1 for d in ds)
        p = rng.choice([q for q in primes if q > t])
        if not is_slp_oracle(PrimeField(p), ds).holds:
            failures.append((p, ds))
    assert not failures, f"large characteristic failures: {failures}"
    print("ACCEPTANCE C8 (50 random tuples with p above the top degree): PASS")


def test_c9_spot_classifications():
    f2 = PrimeField(2)
    for b in range(2, 65):
        assert classify(f2, (2, b)).holds == (b % 2 == 1), b
    for b in range(3, 65):
        assert classify(f2, (3, b)).holds == (b % 4 == 2), b
    for p in (3, 5, 7):
        field = PrimeField(p)
        for a in range(2, p):
            for b in range(2, p):
                assert classify(field, (a, b)).holds == (a + b <= p + 1), (p, a, b)
    print("ACCEPTANCE C9 (spot classifications across exhaustive ranges): PASS")
