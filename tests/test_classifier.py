"""Digit machinery, per-level conditions, odd-sum lattice distances, classifications."""

from __future__ import annotations

import random
import re
from itertools import permutations, product

import pytest

from conftest import (
    SMALL_PRIMES,
    manhattan_by_search,
    odd_sum_distance_by_search,
)
from lefschetz import (
    PrimeField,
    Verdict,
    base_p_digits,
    classify,
    han_delta,
    kernel_witness,
    manhattan_check,
    step_violations,
    syzygy_profile,
)
from lefschetz.classifier import _odd_sum_distance
from lefschetz.prime_field import MAX_CHARACTERISTIC
from lefschetz.syzygy_gap import region

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


class TestDigits:
    def test_examples(self):
        assert base_p_digits(9, F3) == (0, 0, 1)
        assert base_p_digits(7, F5) == (2, 1)
        assert base_p_digits(1, F7) == (1,)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            base_p_digits(0, F3)

    def test_reconstruction(self):
        rng = random.Random(9)
        for p in (2, 3, 5, 7):
            for n in (1, 10**9, *(rng.randint(1, 10**9) for _ in range(25))):
                digits = base_p_digits(n, PrimeField(p))
                assert digits[-1] != 0
                assert sum(d * p**i for i, d in enumerate(digits)) == n
                assert all(0 <= d < p for d in digits)


class TestStepCheck:
    def test_satisfied_example(self):
        assert not any(step_violations(F3, 4, 4))

    def test_violation_on_unbalanced_pair(self):
        violations = tuple(step_violations(F3, 2, 9))
        assert violations and violations[0] == (1, 2)

    def test_violation_at_p2(self):
        assert tuple(step_violations(F2, 2, 2)) == ((1, 3),)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            next(step_violations(F3, 1, 4))
        with pytest.raises(ValueError):
            next(step_violations(F3, 4, 1))
        # manhattan_check shares the exponent check and takes exactly two
        for ds in ((1, 4), (4, 1)):
            with pytest.raises(ValueError):
                manhattan_check(F3, ds)
        for ds in ((2,), (2, 2, 2)):
            with pytest.raises(ValueError, match=rf"^manhattan_check takes two exponents, "
                                                 rf"got {re.escape(str(ds))}$"):
                manhattan_check(F3, ds)

    def test_violations_come_in_level_then_condition_order(self):
        # kernel_witness takes the first one yielded
        for p in (2, 3, 5):
            field = PrimeField(p)
            for a in range(2, 30):
                for b in range(2, 30):
                    found = list(step_violations(field, a, b))
                    assert found == sorted(set(found))


class TestOddSumDistance:
    def test_matches_box_search(self):
        rng = random.Random(20170323)
        for p in SMALL_PRIMES:
            for step in (1, p, p * p):
                for dim in (1, 2, 3):
                    for _ in range(150):
                        point = tuple(rng.randint(0, 4 * step + 3) for _ in range(dim))
                        assert _odd_sum_distance(point, step) == odd_sum_distance_by_search(
                            point, step
                        ), (point, step)


class TestManhattan:
    def test_examples(self):
        assert manhattan_check(F3, (2, 2)).holds
        assert manhattan_check(F2, (2, 2)) == Verdict(False)
        assert manhattan_check(F5, (3, 3)) == Verdict(True)

    def test_closed_form_matches_box_search(self):
        # both orders: the closed form reads |a - b|
        for p in (2, 3, 5, 7, 11):
            field = PrimeField(p)
            for a in range(2, 21):
                for b in range(2, 21):
                    got = manhattan_check(field, (a, b)).holds
                    assert got == manhattan_by_search(p, a, b), (p, a, b)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 257])
    def test_last_level_boundaries(self, p):
        # a + b - 1 equal to p^k or p^k +- 1: the last level is p^k or p^(k+1)
        field = PrimeField(p)
        for k in (1, 2, 3):
            for total in (p**k - 1, p**k, p**k + 1):
                s = total + 1  # a + b
                for a in sorted({2, 3, s // 2, s // 2 + 1, s - 3, s - 2}):
                    b = s - a
                    if a < 2 or b < 2:
                        continue
                    expected = not any(step_violations(field, a, b))
                    assert manhattan_check(field, (a, b)).holds == expected, (p, a, b)
                    assert manhattan_check(field, (b, a)).holds == expected, (p, b, a)

    def test_maximal_characteristic_near_p(self):
        p = MAX_CHARACTERISTIC
        field = PrimeField(p)
        near = [2, 3, 4, p // 2, p // 2 + 1, p // 2 + 2, p - 2, p - 1, p, p + 1, p + 2,
                2 * p - 1, 2 * p + 1]
        for a in near:
            for b in near:
                expected = not any(step_violations(field, a, b))
                assert manhattan_check(field, (a, b)).holds == expected, (a, b)


class TestTwoVariableClassification:
    def test_odd_p_examples(self):
        v = classify(F5, (3, 3))
        assert v.holds and v.condition == "condition 4: case 1"
        v = classify(F3, (2, 9))
        assert not v.holds and v.condition == "no condition satisfied (case 2)"
        v = classify(F3, (4, 4))
        assert v.holds and v.condition == "condition 3: case 3"

    def test_odd_p_case3_subconditions(self):
        # 6 ends in digit 1; 42 has middle digit 3; leading digits 4 + 4 > 4
        assert classify(F5, (6, 7)).condition == "no condition satisfied (case 3(a))"
        assert classify(F5, (42, 27)).condition == "no condition satisfied (case 3(b))"
        assert classify(F5, (22, 23)).condition == "no condition satisfied (case 3(c))"

    def test_odd_p_argument_order_is_irrelevant(self):
        for field in (F3, F5, F7):
            for a in range(2, 30):
                for b in range(2, 30):
                    assert classify(field, (a, b)) == classify(field, (b, a)), (field.p, a, b)

    def test_p2_examples(self):
        assert classify(F2, (2, 5)).condition == "condition 2: smaller exponent 2, other odd"
        assert classify(F2, (3, 6)).condition == (
            "condition 2: smaller exponent 3, other = 2 mod 4"
        )
        for ds in ((3, 4), (2, 2)):
            v = classify(F2, ds)
            assert not v.holds and v.condition == "no condition satisfied (no p=2 case applies)"


class TestManyVariableClassification:
    def test_examples(self):
        assert classify(F7, (2, 2, 2)).condition == "condition 4: top degree below p"
        v = classify(F3, (3, 2, 2))
        assert not v.holds and v.condition == "no condition satisfied (no condition applies)"
        assert classify(F5, (7, 2, 2)).condition == "condition 5: single dominant exponent"

    def test_largest_exponent_equal_to_p_never_works(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for rest in [(2, 2), (2, 3), (3, 3)]:
                ds = (p,) + rest
                if max(ds) == p:
                    v = classify(field, ds)
                    assert not v.holds, ds
                    assert v.condition == "no condition satisfied (no condition applies)", ds


class TestClassify:
    def test_examples(self):
        v = classify(F2, (5,))
        assert v.holds and v.condition.startswith("condition 1")
        v = classify(F2, (2, 3))
        assert v.holds and v.condition.startswith("condition 2")
        v = classify(F5, (2, 2, 2))
        assert v.holds and v.condition.startswith("condition 4")

    def test_condition_numbers(self):
        assert classify(F3, (4, 4)).condition.startswith("condition 3")
        assert classify(F5, (2, 3)).condition.startswith("condition 4")
        assert classify(F3, (2, 4)).condition.startswith("condition 5")
        assert classify(F5, (7, 2, 2)).condition.startswith("condition 5")

    def test_negative_verdicts_have_no_failure_payload(self):
        v = classify(F2, (2, 2))
        assert not v.holds and v.failing_exponent is None

    def test_invariant_under_permutation(self):
        rng = random.Random(8)
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            drawn = [
                tuple(rng.randint(2, 30) for _ in range(rng.randint(1, 4))) for _ in range(20)
            ]
            for ds in [(2,), (30,), (2, 30, 2, 30), *drawn]:
                base = classify(field, ds).holds
                for perm in permutations(ds):
                    assert classify(field, perm).holds == base, (p, ds, perm)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            classify(F3, (1, 4))
        with pytest.raises(ValueError):
            classify(F3, ())


class TestHanDelta:
    def test_examples(self):
        assert han_delta(F3, 2, 2, 2) == 0
        assert han_delta(F2, 2, 2, 2) == 2
        assert han_delta(F2, 1, 1, 1) == 1
        for p in (2, 3, 5, MAX_CHARACTERISTIC):  # outside the balanced region
            assert han_delta(PrimeField(p), 1, 1, 100) == 98

    def test_invariant_under_permutation(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for d in product(range(1, 10), repeat=3):
                gaps = {han_delta(field, *perm) for perm in permutations(d)}
                assert gaps == {han_delta(field, *d)}, (p, d)

    def test_matches_matrix_gap_at_maximal_characteristic(self):
        field = PrimeField(MAX_CHARACTERISTIC)
        for d in product(range(1, 9), repeat=3):
            assert han_delta(field, *d) == syzygy_profile(field, *d).delta, d

    def test_degree_below_one_rejected(self):
        for d in ((0, 1, 1), (1, -2, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                han_delta(F3, *d)


class _Exponent(int):
    """An int subclass, read as the int it is."""


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda d: classify(F3, (d, 4)), id="classify"),
        pytest.param(lambda d: tuple(step_violations(F3, 2, d)), id="step_violations"),
        pytest.param(lambda d: kernel_witness(F3, 2, d), id="kernel_witness"),
        pytest.param(lambda d: han_delta(F3, d, 3, 3), id="han_delta"),
        pytest.param(lambda d: region(d, 3, 3), id="region"),
    ],
)
def test_exponents_are_read_as_integers(call):
    # a float or a string is refused: classify read 6.5 and "6" as 6, and
    # the others computed with a float; an int subclass is the int it is
    for bad in (6.5, 6.0, "6"):
        with pytest.raises(TypeError):
            call(bad)
    assert call(_Exponent(6)) == call(6)
