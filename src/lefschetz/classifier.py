"""Closed-form strong-Lefschetz criteria driven by base-p digits.

Three equivalent formulations are implemented for two variables:

* a per-level check of four inequalities on the quotient/remainder
  decompositions ``a = m*p^i + r``, ``b = n*p^i + s``, whose violations
  :func:`step_violations` yields level by level;
* a Manhattan-distance criterion: no point ``(a, b, a + b - 2c)`` lies
  closer in L1 than ``p^i`` to a multiple ``p^i * (u, v, w)`` with odd
  ``u + v + w``, decided for all c at once by a closed form per level
  (:func:`manhattan_check`);
* explicit digit classifications, split by characteristic and by the
  number of variables, behind :func:`classify`, which reports which of the
  five numbered conditions of the combined classification fired.

:func:`han_delta` gives the syzygy gap of a degree triple itself, by Han's
closed form: outside the balanced region from the degrees alone, inside it
from the triple's odd-sum lattice distance (``_odd_sum_distance``) at each
level p^k. It is the only caller of that distance.

All functions are pure; everything is exact integer arithmetic.
"""

from collections.abc import Iterator

from .prime_field import PrimeField
from .verdict import Verdict

_HAS_SLP, _NO_SLP = Verdict(True), Verdict(False)  # manhattan_check's, built once


def base_p_digits(n: int, field: PrimeField) -> tuple[int, ...]:
    """Base-p digits of a positive integer, least significant first."""
    if n <= 0:
        raise ValueError("digit expansion requires a positive integer")
    p = field.p
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    return tuple(digits)


def _check_two_exponents(a: int, b: int) -> None:
    if a < 2 or b < 2:
        raise ValueError("exponents must be at least 2")


def step_violations(field: PrimeField, a: int, b: int) -> Iterator[tuple[int, int]]:
    """The violated (level, condition) pairs of the per-level check, in order.

    With step = p**level, a = m*step + r and b = n*step + s, the four
    conditions in their fixed order are

      1. m > 0 implies r >= s - 1
      2. n > 0 implies s >= r - 1
      3. m > 0 and n > 0 imply r + s >= step - 1
      4. r + s <= step + 1

    Levels run from 1 while p**level < a + b - 1. At any step >= a + b - 1
    both quotients are 0 and r + s = a + b <= step + 1, so no condition fails
    there. The algebra has the strong Lefschetz property exactly when no
    pair is yielded. The pairs are yielded as each level is checked, so a
    caller that needs only the first checks no further level.
    """
    _check_two_exponents(a, b)
    p = field.p
    level, step = 1, p
    while step < a + b - 1:
        m, r = divmod(a, step)
        n, s = divmod(b, step)
        if m > 0 and r < s - 1:
            yield level, 1
        if n > 0 and s < r - 1:
            yield level, 2
        if m > 0 and n > 0 and r + s < step - 1:
            yield level, 3
        if r + s > step + 1:
            yield level, 4
        level, step = level + 1, step * p


def _odd_sum_distance(point: tuple[int, ...], step: int) -> int:
    # min ||point - step*u||_1 over integer vectors u with odd coordinate sum.
    # Coordinatewise the nearest multiple of step is best, and it fixes the
    # parity of that coordinate of u. If those parities sum to even, exactly
    # one coordinate moves to its other bracketing multiple, at extra cost
    # |step - 2r|; the cheapest such move wins.
    total = 0
    parity = 0
    flip = step
    for x in point:
        q, r = divmod(x, step)
        if 2 * r > step:
            q += 1
            total += step - r
        else:
            total += r
        parity += q
        flip = min(flip, abs(step - 2 * r))
    return total if parity % 2 else total + flip


def manhattan_check(field: PrimeField, exponents: tuple[int, int]) -> Verdict:
    """Decide the strong Lefschetz property of K[x,y]/(x^a, y^b) by distances.

    Tests, for every level i >= 1 and every 1 <= c < min(a, b), whether

        |a - u*p^i| + |b - v*p^i| + |a + b - 2c - w*p^i| >= p^i

    holds for all integers u, v, w with odd sum. Level 0 never fails: with
    step 1 an odd-sum triple cannot hit the point (a, b, a + b - 2c), whose
    coordinate sum is even. Levels run while p^i < a + b - 1: at
    p^i >= a + b - 1, a, b < p^i and every pair (u, v) below has a budget
    that its third coordinate's least distance meets or exceeds, so no
    level there fails.

    Each level is decided for all c at once, with step s = p^i:

    * As c runs, the third coordinate x = a + b - 2c runs over the
      progression X = {lo, lo + 2, ..., hi}, lo = |a - b| + 2 and
      hi = a + b - 2. X is empty only when min(a, b) < 2, which the
      exponent check excludes.
    * A lattice point at total distance < s takes u from the two multiples
      of s that bracket a, at costs a mod s and s - a mod s; any other u
      already costs >= s. The same holds for v and b. That leaves at most
      four pairs (u, v), each with the budget s - cost_u - cost_v for the
      third coordinate. A pair with budget <= 0 cannot fail.
    * w must have the parity of u + v + 1. The distance from y to X is
      lo - y below X, y - hi above it and (y - lo) mod 2 inside it. Over all
      w of one parity, the least distance from w*s to X is reached at the
      largest such w with w*s <= hi or at the smallest with w*s >= lo: the
      multiples w*s of one parity are 2s apart, so those inside X all have
      the same distance, and outside X the distance grows away from it.

    The level fails iff, for some pair (u, v), that least distance is below
    the pair's budget.
    """
    if len(exponents) != 2:
        raise ValueError(f"manhattan_check takes two exponents, got {exponents}")
    a, b = exponents
    _check_two_exponents(a, b)
    p = field.p
    lo, hi = abs(a - b) + 2, a + b - 2
    step = p
    while step < a + b - 1:
        qa, ra = divmod(a, step)
        qb, rb = divmod(b, step)
        top = hi // step
        bottom = -(-lo // step)
        # least distance from w*step to X over the w of each parity
        reach = []
        for parity in (0, 1):
            y = (top - ((top - parity) & 1)) * step
            below = lo - y if y < lo else (y - lo) & 1
            y = (bottom + ((bottom - parity) & 1)) * step
            above = y - hi if y > hi else (y - lo) & 1
            reach.append(min(below, above))
        for u, cost_u in ((qa, ra), (qa + 1, step - ra)):
            for v, cost_v in ((qb, rb), (qb + 1, step - rb)):
                if reach[(u + v + 1) & 1] < step - cost_u - cost_v:
                    return _NO_SLP
        step *= p
    return _HAS_SLP


def _two_odd_case(field: PrimeField, a: int, b: int) -> tuple[int | None, str]:
    # Classification for two variables in odd characteristic:
    #   case 1 (both exponents below p): a + b <= p + 1;
    #   case 2 (one below p, one not): the small exponent is at most
    #     min(b0, p - b0) + 1, b0 the units digit of the large one;
    #   case 3 (both at least p): (a) both units digits equal (p +- 1)/2,
    #     (b) the middle digits of both equal (p - 1)/2 through the shorter
    #     length, (c) the digits at the shorter number's leading position sum
    #     to at most p - 1, the longer number's digit there being at least
    #     the shorter's leading digit when the lengths differ.
    # The tag names the case, plus the first failed subcondition of case 3.
    # The pair is normalized so the first exponent has at most as many
    # digits as the second; the algebra is symmetric in its variables so
    # this loses nothing.
    p = field.p
    da = base_p_digits(a, field)
    db = base_p_digits(b, field)
    if len(da) > len(db):
        a, b, da, db = b, a, db, da
    lo = (p - 1) // 2
    hi = (p + 1) // 2
    if len(db) == 1:
        return (4 if a + b <= p + 1 else None), "case 1"
    if len(da) == 1:
        b0 = db[0]
        return (5 if a <= min(b0, p - b0) + 1 else None), "case 2"
    k = len(da) - 1
    if da[0] not in (lo, hi) or db[0] not in (lo, hi):
        return None, "case 3(a)"
    if any(da[i] != lo or db[i] != lo for i in range(1, k)):
        return None, "case 3(b)"
    if da[k] + db[k] > p - 1 or (len(db) - 1 > k and db[k] < da[k]):
        return None, "case 3(c)"
    return 3, "case 3"


def _two_p2_case(a: int, b: int) -> tuple[int | None, str]:
    lo, hi = sorted((a, b))
    if lo == 2 and hi % 2 == 1:
        return 2, "smaller exponent 2, other odd"
    if lo == 3 and hi % 4 == 2:
        return 2, "smaller exponent 3, other = 2 mod 4"
    return None, "no p=2 case applies"


def _n_ge_3_case(field: PrimeField, ds: tuple[int, ...]) -> tuple[int | None, str]:
    # With the largest exponent written as N*p + r (0 <= r < p): the top
    # degree is below p, or the largest exponent is at least p, every other
    # exponent is below p, and the other (exponent - 1) terms sum to at most
    # min(r, p - r).
    p = field.p
    t = sum(d - 1 for d in ds)
    if t < p:
        return 4, "top degree below p"
    ordered = sorted(ds, reverse=True)
    biggest = ordered[0]
    rest = ordered[1:]
    r = biggest % p
    if biggest >= p and all(d < p for d in rest) and sum(d - 1 for d in rest) <= min(r, p - r):
        return 5, "single dominant exponent"
    return None, "no condition applies"


def classify(field: PrimeField, ds) -> Verdict:
    """Full classification for any number of variables.

    Dispatches on the number of variables and, for two, on the
    characteristic, and reports which numbered condition of the combined
    classification fired:

      1. one variable (always has the property);
      2. two variables in characteristic two: the smaller exponent is 2
         with the other odd, or 3 with the other congruent to 2 mod 4;
      3. two variables, odd characteristic, both exponents at least p, with
         the digit conditions 3(a) to 3(c) all met;
      4. top degree below p (any number of variables, p odd);
      5. a single exponent at least p dominating all others (p odd).

    A negative verdict carries the reason no condition applies, for two
    variables in odd characteristic the case and the first failed
    subcondition, e.g. ``no condition satisfied (case 3(b))``.
    """
    ds = tuple(int(d) for d in ds)
    if not ds:
        raise ValueError("need at least one exponent")
    if any(d < 2 for d in ds):
        raise ValueError("exponents must be at least 2")
    if len(ds) == 1:
        number, tag = 1, "one variable"
    elif len(ds) == 2:
        number, tag = _two_p2_case(*ds) if field.p == 2 else _two_odd_case(field, *ds)
    else:
        number, tag = _n_ge_3_case(field, ds)
    if number is None:
        return Verdict(False, condition=f"no condition satisfied ({tag})")
    return Verdict(True, condition=f"condition {number}: {tag}")


def han_delta(field: PrimeField, d1: int, d2: int, d3: int) -> int:
    """The syzygy gap of x^d1, y^d2, (x+y)^d3 over GF(p), by Han's theorem.

    The degrees are positive, in any order. With t the largest and s their
    sum: outside the balanced region (2t >= s) the gap is 2t - s. Inside it
    the gap is the largest p^k - D_k that is positive, or 0 if none is,
    where D_k = min |d1 - u*p^k| + |d2 - v*p^k| + |d3 - w*p^k| over
    integers u, v, w with odd sum (``_odd_sum_distance``). Levels run from
    k = 0 while p^k < s: at p^k >= s every degree rounds to 0, so
    p^k - D_k = 2t - s < 0 there. Level 0 counts: an odd s gives D_0 = 0
    and a gap of at least 1.
    """
    if min(d1, d2, d3) < 1:
        raise ValueError("degrees must be positive")
    top = max(d1, d2, d3)
    total = d1 + d2 + d3
    if 2 * top >= total:
        return 2 * top - total
    gap, step = 0, 1
    while step < total:
        gap = max(gap, step - _odd_sum_distance((d1, d2, d3), step))
        step *= field.p
    return gap
