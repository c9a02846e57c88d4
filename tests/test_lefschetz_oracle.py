"""Rank oracle: reduced power sets, verdicts, and kernel witnesses."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import (
    RECORD_BUILDS,
    check_record,
    count_monomials,
    max_rank_by_definition,
    power_times_monomial_is_zero,
    slp_oracle_over_every_degree,
)
from lefschetz import (
    KernelWitness,
    PrimeField,
    Verdict,
    is_slp_oracle,
    is_wlp_oracle,
    kernel_witness,
    lefschetz_oracle,
    max_rank_in_every_degree,
    rank,
    step_violations,
)
from lefschetz.graded_quotient import top_degree
from lefschetz.lefschetz_oracle import _candidate_powers
from lefschetz.prime_field import MAX_CHARACTERISTIC

F2 = PrimeField(2)
F3 = PrimeField(3)


def full_slp_check(field, exponents) -> bool:
    """Unreduced oracle: test every power from 1 to the top degree in every degree."""
    return all(max_rank_by_definition(field, exponents, m)
               for m in range(1, top_degree(exponents) + 1))


class TestMaxRank:
    def test_examples(self):
        assert max_rank_in_every_degree(F3, (2, 2), 2)
        assert not max_rank_in_every_degree(F2, (2, 2), 2)

    def test_power_above_top_degree_is_vacuous(self):
        assert max_rank_in_every_degree(F2, (2, 2), top_degree((2, 2)) + 1)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            max_rank_in_every_degree(F2, (2, 2), 0)

    def test_central_degree_decides_every_degree(self):
        exponent_tuples = [
            ds
            for n, top in ((1, 7), (2, 8), (3, 4), (4, 3))
            for ds in combinations_with_replacement(range(1, top + 1), n)
        ]
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            for ds in exponent_tuples:
                for power in range(1, top_degree(ds) + 2):
                    assert max_rank_in_every_degree(field, ds, power) == max_rank_by_definition(
                        field, ds, power
                    ), (p, ds, power)


class TestSlpOracle:
    def test_examples(self):
        assert is_slp_oracle(F3, (2, 2)).holds
        v = is_slp_oracle(F2, (2, 2))
        assert not v.holds and v.failing_exponent == 2
        assert is_slp_oracle(PrimeField(7), (2, 2, 2)).holds

    def test_positive_verdict_carries_no_failing_power(self):
        with pytest.raises(ValueError, match="failure evidence"):
            Verdict(True, failing_exponent=3)

    @pytest.mark.parametrize("build", RECORD_BUILDS)
    def test_record_contract(self, build):
        check_record(build, Verdict, (False, 3, None), (True, 3, None), "failure evidence")
        assert Verdict(False) == (False, None, None)

    def test_first_failing_power_is_reported(self):
        # candidate powers descend from a+b-2; for (4,5) over GF(2) the top
        # power still has maximal rank and the failure first shows at 5
        v = is_slp_oracle(F2, (4, 5))
        assert not v.holds and v.failing_exponent == 5

    def test_single_variable_is_trivial(self):
        for d in (1, 2, 5, 9):
            assert is_slp_oracle(F2, (d,)).holds

    def test_exponent_one_reduces_to_fewer_variables(self):
        assert is_slp_oracle(F2, (1, 4)).holds

    def test_reduced_checks_match_full_sweep_two_variables(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for a in range(2, 13):
                for b in range(a, 13):
                    assert is_slp_oracle(field, (a, b)).holds == full_slp_check(
                        field, (a, b)
                    ), (p, a, b)

    def test_reduced_checks_match_full_sweep_three_variables(self):
        for p in (2, 3):
            field = PrimeField(p)
            for ds in [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3), (2, 2, 5)]:
                assert is_slp_oracle(field, ds).holds == full_slp_check(field, ds), (p, ds)

    @pytest.mark.parametrize(
        "primes, exponent_tuples",
        [
            pytest.param(
                (2, 3, 5, 7),
                [(a, b) for a in range(1, 17) for b in range(a, 17)],
                id="pairs",
            ),
            pytest.param((2, 3, 5), list(product(range(1, 7), repeat=3)), id="triples"),
            pytest.param((2, 3, 5), list(product(range(1, 4), repeat=4)), id="quadruples"),
        ],
    )
    def test_central_degree_matches_every_degree(self, primes, exponent_tuples):
        for p in primes:
            field = PrimeField(p)
            for ds in exponent_tuples:
                v = is_slp_oracle(field, ds)
                assert (v.holds, v.failing_exponent) == slp_oracle_over_every_degree(
                    field, ds
                ), (p, ds)

    def test_one_rank_per_tested_power(self, monkeypatch):
        calls = []

        def counting_rank(matrix, field):
            calls.append((matrix.rows, matrix.cols))
            return rank(matrix, field)

        monkeypatch.setattr(lefschetz_oracle, "rank", counting_rank)
        f31, ds = PrimeField(31), (5, 6, 7)
        assert is_slp_oracle(f31, ds).holds
        assert len(calls) == len(_candidate_powers(ds)) == 8
        # every tested map is square: A_i -> A_(t-i)
        assert all(rows == cols for rows, cols in calls)

        calls.clear()
        v = is_slp_oracle(F2, (4, 5))
        assert v.failing_exponent == 5 and len(calls) == 2

        # the WLP is the first power alone, on its central degree
        calls.clear()
        assert is_wlp_oracle(f31, ds).holds
        assert len(calls) == 1

    def test_large_characteristic_always_works(self):
        rng = random.Random(11)
        for _ in range(12):
            n = rng.choice((2, 3))
            ds = tuple(rng.randint(2, 6) for _ in range(n))
            t = sum(d - 1 for d in ds)
            p = next(q for q in (17, 19, 23, 29, 31) if q > t)
            assert is_slp_oracle(PrimeField(p), ds).holds
            assert is_wlp_oracle(PrimeField(p), ds).holds

    @pytest.mark.parametrize("ds", [(40, 41), (5, 6, 7), (3, 3, 3, 3)])
    def test_maximal_characteristic_always_works(self, ds):
        # t < p, so the property holds; the entries are binomials reduced mod p
        field = PrimeField(MAX_CHARACTERISTIC)
        assert is_slp_oracle(field, ds).holds
        assert is_wlp_oracle(field, ds).holds


class TestWlpOracle:
    def test_examples(self):
        assert is_wlp_oracle(F2, (2, 3)) == Verdict(True)
        assert is_wlp_oracle(F2, (2, 2)).holds

    def test_wlp_can_fail(self):
        # three squares in characteristic two: x+y+z squares to zero,
        # and already the first power misses maximal rank
        assert is_wlp_oracle(F2, (2, 2, 2)) == Verdict(False, failing_exponent=1)

    def test_every_two_variable_algebra_has_the_wlp(self):
        # A/(x + y)A = K[x]/(x^min(a, b)) has Hilbert function
        # max(h_i - h_(i-1), 0), which is maximal rank of x + y in every
        # degree, over every field
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            for a in range(2, 30):
                for b in range(a, 30):
                    assert is_wlp_oracle(field, (a, b)).holds, (p, a, b)


class TestKernelWitness:
    def test_char_two_square(self):
        w = kernel_witness(F2, 2, 2)
        assert w.monomial == (0, 0) and w.power == 2 and w.target_degree == 2

    def test_unbalanced_pair(self):
        w = kernel_witness(F3, 2, 9)
        assert w.monomial == (0, 0) and w.power == 9

    def test_slp_algebra_has_no_witness(self):
        with pytest.raises(RuntimeError, match="no witness"):
            kernel_witness(PrimeField(5), 7, 7)

    @pytest.mark.parametrize("build", RECORD_BUILDS)
    def test_record_contract(self, build):
        check_record(build, KernelWitness, ((0, 0), 2))

    def test_tie_break_takes_lowest_condition(self):
        # a=5, b=7 over GF(5) violates conditions 1 and 3 at level one;
        # the fixed order picks condition 1: monomial x^0, power (1+1)*5
        violations = tuple(step_violations(PrimeField(5), 5, 7))
        assert violations[0] == (1, 1) and (1, 3) in violations
        w = kernel_witness(PrimeField(5), 5, 7)
        assert w.monomial == (0, 0) and w.power == 10

    def test_witness_power_fails_the_oracle(self):
        for p, pair in [(2, (2, 2)), (2, (4, 5)), (3, (2, 9)), (5, (5, 5))]:
            w = kernel_witness(PrimeField(p), *pair)
            assert not max_rank_in_every_degree(PrimeField(p), pair, w.power)


class TestVerifyWitness:
    """Forged witnesses must be refused before they reach a report."""

    @pytest.mark.parametrize(
        "p, d, monomial, power, message",
        [
            pytest.param(2, (2, 2), (2, 0), 1, "zero monomial", id="zero-monomial"),
            # (x + y) * y in K[x,y]/(x^2, y^2): only j = 1 (x y) survives,
            # the lowest j the range admits
            pytest.param(3, (2, 2), (0, 1), 1, "surviving term", id="low-end-term"),
            # (x + y) * x: only j = 0 (x y) survives, the highest j admitted
            pytest.param(3, (2, 2), (1, 0), 1, "surviving term", id="high-end-term"),
            # (x + y) * x y vanishes, but A_2 has dimension 1 and A_3 none
            pytest.param(2, (2, 2), (1, 1), 1, "smaller than the source", id="source-too-big"),
        ],
    )
    def test_forged_witness_is_rejected(self, p, d, monomial, power, message):
        with pytest.raises(RuntimeError, match=message):
            lefschetz_oracle._verify_witness(PrimeField(p), *d, monomial, power)

    def test_surviving_term_error_matches_direct_expansion(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for d1, d2 in product(range(1, 6), repeat=2):
                for e1, e2 in product(range(d1), range(d2)):
                    for power in range(1, d1 + d2 + 1):
                        # every outcome: a surviving term first, then the
                        # piece sizes by direct count, else no error
                        source = count_monomials((d1, d2), e1 + e2)
                        target = count_monomials((d1, d2), e1 + e2 + power)
                        if not power_times_monomial_is_zero(p, d1, d2, e1, e2, power):
                            expected = "surviving term"
                        elif source > target:
                            expected = "smaller than the source"
                        else:
                            expected = None
                        try:
                            lefschetz_oracle._verify_witness(field, d1, d2, (e1, e2), power)
                            error = ""
                        except RuntimeError as exc:
                            error = str(exc)
                        assert expected in error if expected else not error, (
                            p, d1, d2, e1, e2, power, error
                        )
