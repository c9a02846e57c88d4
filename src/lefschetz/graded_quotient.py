"""Monomial complete intersection algebras A = K[x1..xn]/(x1^d1, ..., xn^dn).

Provides the graded monomial bases, the Hilbert function, and the matrices
of multiplication by powers of the sum of the variables, all over GF(p).
The sum of the variables is the only linear form this package ever tests:
for monomial ideals it is a strong (weak) Lefschetz element whenever one
exists, so nothing is lost.

Monomials are exponent tuples ``(e1, ..., en)`` with ``0 <= ej < dj``.
Bases are ordered by descending lexicographic order on exponents, fixed
globally so matrices are reproducible bit for bit across runs. In that
order a degree piece falls into row blocks, one per prefix
``(e1, ..., e(n-2))``: the monomials of a block sit on consecutive rows,
the exponent of x(n-1) falling by one per row. Multiplication matrices are
filled block by block, so the last two variables cost one window of
binomials per block and no basis lookup per entry.
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


def hilbert_function(algebra: MonomialCI, degree: int) -> int:
    """Dimension of the graded piece in the given degree."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
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
    return coeffs[degree] if degree < len(coeffs) else 0


def mult_matrix(algebra: MonomialCI, power: int, degree: int) -> MatrixGFp:
    """Matrix of multiplication by (x1 + ... + xn)^power on the degree piece.

    Columns are indexed by the basis of the source degree, rows by the basis
    of the target degree; degenerate (zero-row or zero-column) shapes are
    allowed and simply have rank 0.

    A column x^e is expanded over the first n - 2 variables only, as the
    chained binomials of the multinomial coefficients. Each resulting
    prefix names one row block of the target basis, and with r of the power
    left, the block receives C(r, k) x(n-1)^(e(n-1) + k) x(n)^(e(n) + r - k)
    for the window of k that keeps both exponents below their bounds, on
    consecutive rows. The binomial rows C(r, .) mod p come from
    :func:`binomial_mod_p`, each r at most once per call.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    src = graded_basis(algebra, degree)
    dst = graded_basis(algebra, degree + power)
    if algebra.num_variables == 1:
        # x^power * x^degree: one target row at most, coefficient 1.
        return MatrixGFp(len(dst), len(src), tuple(((0, 1),) if dst else () for _ in src))
    field = algebra.field
    p = field.p
    exps = algebra.exponents
    split = len(exps) - 2
    da, db = exps[split], exps[split + 1]
    # prefix (e1 .. e(n-2)) -> first row of its block + e(n-1) on that row,
    # so x(n-1)^e x(n)^(...) with that prefix sits on row block[prefix] - e.
    block: dict[ExponentVector, int] = {}
    for row, mono in enumerate(dst):
        block.setdefault(mono[:split], row + mono[split])
    # Row r of binomials holds C(r, k) mod p for the steps k that can reach a
    # target: no variable but the last steps by more than `head`, and the
    # variables after x1 take at most `tail` of the r. Other entries stay 0.
    head = max(exps[:-1]) - 1
    tail = algebra.top_degree - (exps[0] - 1)
    binomials: dict[int, list[int]] = {}

    def binomial_row(r: int) -> list[int]:
        binom = binomials.get(r)
        if binom is None:
            lo = max(0, r - tail)
            binom = [0] * lo + [binomial_mod_p(r, k, field) for k in range(lo, min(r, head) + 1)]
            binomials[r] = binom
        return binom

    def walk(mono, pos, r, coeff, prefix, out) -> None:
        # Appends the terms of coeff * (x(pos+1) + ... + xn)^r * mono with
        # the given prefix, in increasing row order: larger steps in earlier
        # variables come first in descending lexicographic order.
        if pos == split:
            ea = mono[pos]
            lo = max(0, r - (db - 1 - mono[pos + 1]))
            hi = min(r, da - 1 - ea)
            if lo > hi:
                return  # the prefix may have no target monomial at all
            base = block[prefix] - ea
            binom = binomial_row(r)
            out.extend((base - k, coeff * c % p) for k in range(hi, lo - 1, -1) if (c := binom[k]))
            return
        e = mono[pos]
        binom = binomial_row(r)
        for k in range(min(r, exps[pos] - 1 - e), -1, -1):
            if c := binom[k]:
                walk(mono, pos + 1, r - k, coeff * c % p, prefix + (e + k,), out)

    columns = []
    for mono in src:
        out: list[tuple[int, int]] = []
        walk(mono, 0, power, 1, (), out)
        columns.append(tuple(out))
    return MatrixGFp(len(dst), len(src), tuple(columns))
