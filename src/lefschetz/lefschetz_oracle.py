"""Ground-truth Lefschetz decisions by exact rank computation.

The oracle multiplies out powers of the sum of the variables on monomial
bases and checks ranks over GF(p). Every power, for the SLP, the WLP and
:func:`max_rank_in_every_degree`, is decided by one square or central map.
Three reductions keep the work that small, all exact:

* a power has maximal rank in every degree as soon as the maps from the
  low degrees (source degree at most (t - m)/2) are injective, by the
  symmetry of the Hilbert function (Gorenstein duality turns surjectivity
  above the centre into injectivity below it);
* in two variables only the powers a + b - 2c for 1 <= c < min(a, b) need
  testing, and in general only powers m with t - m even, since maximal rank
  at such an m forces it at m + 1;
* of the low degrees, the central one i = (t - m)//2 alone decides: the
  socle of A is A_t, so a nonzero f in A_j with j < t and L^m f = 0 has
  some x_k f != 0, and L^m (x_k f) = 0 is a kernel element one degree up.
  A kernel in any degree below i thus lifts to degree i.

For two-variable failures, :func:`kernel_witness` produces a concrete
monomial annihilated by an explicit power, re-verified by direct expansion
before it is returned.
"""

from __future__ import annotations

from .classifier import step_violations
from .graded_quotient import mult_matrix, top_degree
from .prime_field import PrimeField, binomial_mod_p, rank
from .verdict import KernelWitness, SlpVerdict


def max_rank_in_every_degree(field: PrimeField, exponents: tuple[int, ...], power: int) -> bool:
    """Whether multiplication by (x1 + ... + xn)^power has maximal rank
    in every degree of K[x1..xn]/(x1^d1, ..., xn^dn), decided by
    injectivity on the central degree (t - power)//2."""
    t = top_degree(exponents)
    if power < 1:
        raise ValueError("power must be at least 1")
    if power > t:
        return True
    matrix = mult_matrix(field, exponents, power, (t - power) // 2)
    return rank(matrix, field) == matrix.cols


def _candidate_powers(exponents: tuple[int, ...]) -> list[int]:
    t = top_degree(exponents)
    if len(exponents) == 2:
        a, b = exponents
        return [a + b - 2 * c for c in range(1, min(a, b))]
    return list(range(t, 0, -2))


def is_slp_oracle(field: PrimeField, exponents: tuple[int, ...]) -> SlpVerdict:
    """Decide the strong Lefschetz property by rank computations.

    Powers m are checked in descending order over the reduced candidate set,
    each on the one square map A_i -> A_(t-i) with i = (t - m)/2; the first
    failure is recorded on the verdict.
    """
    for power in _candidate_powers(exponents):
        if not max_rank_in_every_degree(field, exponents, power):
            return SlpVerdict(False, failing_exponent=power)
    return SlpVerdict(True)


def is_wlp_oracle(field: PrimeField, exponents: tuple[int, ...]) -> bool:
    """Decide the weak Lefschetz property: maximal rank for the first power."""
    return max_rank_in_every_degree(field, exponents, 1)


def _verify_witness(
    field: PrimeField, d1: int, d2: int, monomial: tuple[int, int], power: int
) -> None:
    # Defense in depth: a construction bug must surface as an error here,
    # never as a wrong report.
    e1, e2 = monomial
    if e1 >= d1 or e2 >= d2:
        raise RuntimeError("witness construction produced a zero monomial")
    # Only the terms x^(e1 + j) y^(e2 + power - j) that survive in the
    # quotient (e1 + j < d1 and e2 + power - j < d2) are expanded; each
    # must have a binomial coefficient divisible by p.
    for j in range(max(0, e2 + power - d2 + 1), min(power, d1 - 1 - e1) + 1):
        if binomial_mod_p(power, j, field):
            raise RuntimeError("witness construction produced a surviving term")
    # Degree j has the basis x^i y^(j - i) for max(0, j - d2 + 1) <= i <=
    # min(j, d1 - 1), the window arithmetic of the loop above; the range is
    # empty above the top degree.
    source, target = (
        len(range(max(0, j - d2 + 1), min(j, d1 - 1) + 1)) for j in (e1 + e2, e1 + e2 + power)
    )
    if source > target:
        raise RuntimeError("witness target piece is smaller than the source piece")


def kernel_witness(field: PrimeField, a: int, b: int) -> KernelWitness:
    """Monomial kernel witness for K[x,y]/(x^a, y^b) without the SLP.

    Scans levels upward for the first violated condition of the per-level
    check (ties broken in condition order 1, 2, 3, 4) and emits the matching
    monomial: with a = m*p^i + r and b = n*p^i + s,

      condition 1 -> x^r,   power (m + n) * p^i
      condition 2 -> y^s,   power (m + n) * p^i
      condition 3 -> x^r y^s, power (m + n - 1) * p^i
      condition 4 -> 1,     power (m + n + 1) * p^i

    The witness is re-verified by direct expansion before being returned.
    Raises ValueError if the algebra has the property or an exponent is
    below 2.
    """
    first = next(step_violations(field, a, b), None)
    if first is None:
        raise ValueError("algebra has the strong Lefschetz property; no witness exists")
    level, cond = first
    step = field.p**level
    mq, r = divmod(a, step)
    nq, s = divmod(b, step)
    if cond == 1:
        monomial, power = (r, 0), (mq + nq) * step
    elif cond == 2:
        monomial, power = (0, s), (mq + nq) * step
    elif cond == 3:
        monomial, power = (r, s), (mq + nq - 1) * step
    else:
        monomial, power = (0, 0), (mq + nq + 1) * step
    _verify_witness(field, a, b, monomial, power)
    return KernelWitness(monomial=monomial, power=power, target_degree=sum(monomial) + power)
