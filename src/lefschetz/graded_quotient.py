"""Monomial complete intersection algebras A = K[x1..xn]/(x1^d1, ..., xn^dn).

Provides the graded monomial bases, the Hilbert function, and the matrices
of multiplication by powers of the sum of the variables, all over GF(p).
The sum of the variables is the only linear form this package ever tests:
for monomial ideals it is a strong (weak) Lefschetz element whenever one
exists, so nothing is lost.

Monomials are exponent tuples ``(e1, ..., en)`` with ``0 <= ej < dj``.
Bases are ordered by descending lexicographic order on exponents, fixed
globally so matrices are reproducible bit for bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prime_field import MatrixGFp, PrimeField, binomial_mod_p

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class MonomialCI:
    """Presentation (p; d1, ..., dn) of K[x1..xn]/(x1^d1, ..., xn^dn).

    Exponents must be at least 1 (dj = 1 kills the variable outright, which
    is needed when pairing rank checks with syzygy-gap sweeps).
    """

    field: PrimeField
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(d) for d in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if not exps:
            raise ValueError("need at least one variable")
        if any(d < 1 for d in exps):
            raise ValueError("exponents must be at least 1")

    @property
    def num_variables(self) -> int:
        return len(self.exponents)

    @property
    def top_degree(self) -> int:
        """Largest degree with a nonzero graded piece: sum of (dj - 1)."""
        return sum(d - 1 for d in self.exponents)


@dataclass(frozen=True)
class GradedMap:
    """Matrix of multiplication by (x1 + ... + xn)^m from degree i to i + m."""

    source_degree: int
    exponent: int
    matrix: MatrixGFp


def graded_basis(algebra: MonomialCI, degree: int) -> tuple[ExponentVector, ...]:
    """Monomial basis of the graded piece in the given degree.

    Exponent tuples of the given total degree with every component below its
    bound, in descending lexicographic order. Empty above the top degree.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    exps = algebra.exponents
    last = len(exps) - 1
    out: list[ExponentVector] = []

    def fill(pos: int, remaining: int, prefix: ExponentVector) -> None:
        if pos == last:
            if remaining < exps[pos]:
                out.append(prefix + (remaining,))
            return
        for e in range(min(remaining, exps[pos] - 1), -1, -1):
            fill(pos + 1, remaining - e, prefix + (e,))

    fill(0, degree, ())
    return tuple(out)


def _hilbert_vector(algebra: MonomialCI) -> tuple[int, ...]:
    # Coefficients of prod_j (1 + x + ... + x^(dj - 1)). Multiplying by one
    # factor replaces each coefficient by the sum of the last dj ones, kept
    # as a running window sum: O(n * t) in all.
    coeffs = [1]
    for d in algebra.exponents:
        padded = coeffs + [0] * (d - 1)
        coeffs = []
        window = 0
        for k, c in enumerate(padded):
            window += c
            if k >= d:
                window -= padded[k - d]
            coeffs.append(window)
    return tuple(coeffs)


def hilbert_function(algebra: MonomialCI, degree: int) -> int:
    """Dimension of the graded piece in the given degree."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    vec = _hilbert_vector(algebra)
    return vec[degree] if degree < len(vec) else 0


def _column_terms(algebra, mono, power):
    # Expansion of (x1 + ... + xn)^power * mono inside the quotient: pairs
    # (target exponent tuple, coefficient mod p). Multinomial coefficients
    # come from chained Lucas binomials; branches that would push an
    # exponent to its bound are pruned.
    field = algebra.field
    exps = algebra.exponents
    last = len(exps) - 1
    p = field.p
    out = []

    def walk(pos: int, remaining: int, coeff: int, prefix: ExponentVector) -> None:
        if pos == last:
            e = mono[pos] + remaining
            if e < exps[pos]:
                out.append((prefix + (e,), coeff))
            return
        cap = min(remaining, exps[pos] - 1 - mono[pos])
        for k in range(cap + 1):
            c = binomial_mod_p(remaining, k, field)
            if c:
                walk(pos + 1, remaining - k, coeff * c % p, prefix + (mono[pos] + k,))

    walk(0, power, 1, ())
    return out


def mult_matrix(algebra: MonomialCI, power: int, degree: int) -> GradedMap:
    """Matrix of multiplication by (x1 + ... + xn)^power on the degree piece.

    Columns are indexed by the basis of the source degree, rows by the basis
    of the target degree; degenerate (zero-row or zero-column) shapes are
    allowed and simply have rank 0.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    src = graded_basis(algebra, degree)
    dst = graded_basis(algebra, degree + power)
    row_of = {mono: i for i, mono in enumerate(dst)}
    # _column_terms yields targets in ascending lexicographic order, which is
    # descending row order on the descending-lexicographic basis.
    columns = tuple(
        tuple(
            (row_of[target], coeff)
            for target, coeff in reversed(_column_terms(algebra, mono, power))
        )
        for mono in src
    )
    return GradedMap(degree, power, MatrixGFp(len(dst), len(src), columns))
