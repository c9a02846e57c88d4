"""Syzygy gap of the triple x^d1, y^d2, (x+y)^d3 over GF(p).

The relation module of the three forms is free of rank two, generated in
degrees alpha <= beta with alpha + beta = d1 + d2 + d3. The gap is
beta - alpha. Degreewise, relations of degree tau are the kernel of the
linear map sending a coefficient triple (g1, g2, g3), with deg gj = tau - dj,
to g1*x^d1 + g2*y^d2 + g3*(x+y)^d3 inside the degree-tau forms, so kernel
dimensions determine both generator degrees exactly.

:func:`syzygy_profile` reads alpha off a single kernel dimension just below
the midpoint of the generator degrees and derives beta from the degree
relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .prime_field import MatrixGFp, PrimeField, binomial_row, rank


class RegionTag(enum.Enum):
    """Position of a degree triple relative to the balanced region L,
    the lattice triples whose doubled maximum is at most their sum."""

    L_EQUAL = "L_equal"
    L_STRICT = "L_strict"
    OUTSIDE_L = "outside_L"


@dataclass(frozen=True)
class SyzygyProfile:
    """Generator degrees of the relation module, smaller one first."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha > self.beta:
            raise ValueError("alpha must not exceed beta")

    @property
    def delta(self) -> int:
        return self.beta - self.alpha


def _check_degrees(*degrees: int) -> None:
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")


def presentation_matrix(field: PrimeField, d1: int, d2: int, d3: int, tau: int) -> MatrixGFp:
    """Degree-tau matrix of (g1, g2, g3) -> g1*x^d1 + g2*y^d2 + g3*(x+y)^d3.

    Rows are the degree-tau monomials x^r y^(tau-r) for r = 0..tau; columns
    run over the monomial bases of the three coefficient spaces (skipping
    any generator of degree above tau).
    """
    _check_degrees(d1, d2, d3)
    if tau < 0:
        raise ValueError("degree must be non-negative")
    columns = []
    # g1 * x^d1: monomial x^k y^(tau-d1-k) lands on the single row k + d1.
    columns += [((k + d1, 1),) for k in range(tau - d1 + 1)]
    # g2 * y^d2: x^k y^(tau-d2-k) lands on row k.
    columns += [((k, 1),) for k in range(tau - d2 + 1)]
    # g3 * (x+y)^d3: binomial expansion spreads over rows k..k+d3.
    if tau >= d3:
        coeffs = binomial_row(d3, field)
        columns += [tuple((k + j, c) for j, c in coeffs) for k in range(tau - d3 + 1)]
    return MatrixGFp(tau + 1, tuple(columns))


def kernel_dimension(field: PrimeField, d1: int, d2: int, d3: int, tau: int) -> int:
    """Dimension of the space of degree-tau relations on the triple."""
    matrix = presentation_matrix(field, d1, d2, d3, tau)
    return matrix.cols - rank(matrix, field)


def _least_relation_degree(d1: int, d2: int, d3: int) -> int:
    # A relation of degree tau either involves all three generators
    # (tau >= max) or exactly the two others, forced by coprimality to be a
    # multiple of their Koszul relation (tau >= total - max).
    biggest = max(d1, d2, d3)
    return min(biggest, d1 + d2 + d3 - biggest)


def syzygy_profile(field: PrimeField, d1: int, d2: int, d3: int) -> SyzygyProfile:
    """Generator degrees of the relation module of x^d1, y^d2, (x+y)^d3.

    alpha is the least degree with a nonzero relation; beta follows from
    alpha + beta = d1 + d2 + d3. A kernel of dimension k just below the
    midpoint degree pins alpha = tau + 1 - k directly, because relation
    space dimensions grow by one per degree per generator.
    """
    _check_degrees(d1, d2, d3)
    total = d1 + d2 + d3
    tau = (total - 1) // 2
    kdim = kernel_dimension(field, d1, d2, d3, tau)
    alpha = tau + 1 - kdim
    beta = total - alpha
    if alpha < _least_relation_degree(d1, d2, d3) or alpha > beta:
        raise RuntimeError(
            f"inconsistent syzygy degrees for ({d1}, {d2}, {d3}) over GF({field.p}): "
            f"alpha={alpha}, beta={beta}"
        )
    return SyzygyProfile(alpha, beta)


def delta_value(field: PrimeField, d1: int, d2: int, d3: int) -> int:
    """The syzygy gap beta - alpha of the triple."""
    return syzygy_profile(field, d1, d2, d3).delta


def region(d1: int, d2: int, d3: int) -> RegionTag:
    """Classify a positive triple against the balanced region."""
    _check_degrees(d1, d2, d3)
    doubled = 2 * max(d1, d2, d3)
    total = d1 + d2 + d3
    if doubled == total:
        return RegionTag.L_EQUAL
    if doubled < total:
        return RegionTag.L_STRICT
    return RegionTag.OUTSIDE_L


def slp_via_delta(field: PrimeField, d1: int, d2: int) -> bool:
    """Strong Lefschetz property of K[x,y]/(x^d1, y^d2) through syzygy gaps.

    Holds iff the gap of (d1, d2, d1 + d2 - 2c) vanishes for every
    1 <= c < min(d1, d2).
    """
    if d1 < 2 or d2 < 2:
        raise ValueError("exponents must be at least 2")
    return all(
        delta_value(field, d1, d2, d1 + d2 - 2 * c) == 0 for c in range(1, min(d1, d2))
    )
