"""Shared helpers: small independent oracles the tests check the library against."""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

from lefschetz import (
    MatrixGFp,
    SyzygyProfile,
    binomial_mod_p,
    kernel_dimension,
    mult_matrix,
    presentation_matrix,
    rank,
    syzygy_profile,
)
from lefschetz.graded_quotient import top_degree
from lefschetz.lefschetz_oracle import _candidate_powers

SMALL_PRIMES = (2, 3, 5, 7)


def matrix_from_rows(rows, cols: int | None = None) -> MatrixGFp:
    """Matrix with the given dense rows; ``cols`` sizes a matrix without rows."""
    rows = [tuple(r) for r in rows]
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
    elif cols is None:
        cols = 0
    columns = tuple(tuple((i, r[j]) for i, r in enumerate(rows) if r[j]) for j in range(cols))
    return MatrixGFp(len(rows), columns)


def dense_row(matrix: MatrixGFp, i: int) -> tuple[int, ...]:
    """Row ``i`` of ``matrix`` as a dense tuple."""
    return tuple(dict(column).get(i, 0) for column in matrix.columns)


def _permutation_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def det_mod(rows, p: int) -> int:
    """Determinant mod p by permutation expansion (tiny matrices only)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = _permutation_sign(perm)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total += prod
    return total % p


def rank_by_minors(matrix: MatrixGFp, p: int) -> int:
    """Rank as the largest size of a nonsingular square submatrix."""
    rows = [dense_row(matrix, i) for i in range(matrix.rows)]
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for rsel in combinations(range(matrix.rows), k):
            for csel in combinations(range(matrix.cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_mod(sub, p) != 0:
                    return k
    return 0


def rank_by_dense_walk(matrix: MatrixGFp, field) -> int:
    """Rank by elimination on columns, each walked densely down to the last row.

    The same elimination as ``rank`` with neither its new-pivot shortcut nor
    its band bound: every column is copied into a dense vector and walked
    from its first row to ``nrows``, and every new pivot's tail is scanned to
    ``nrows``. Entries are not checked; ``rank`` does that.
    """
    p = field.p
    nrows = matrix.rows
    pivots: dict[int, list[tuple[int, int]]] = {}
    for column in matrix.columns:
        v = [0] * nrows
        for i, e in column:
            v[i] = e
        if not column or len(pivots) == nrows:
            continue
        for i in range(column[0][0], nrows):
            f = v[i] % p
            if f:
                pivot = pivots.get(i)
                if pivot is None:
                    inv = pow(f, -1, p)
                    pivots[i] = [(j, x * inv % p) for j in range(i + 1, nrows) if (x := v[j] % p)]
                    break
                for j, e in pivot:
                    v[j] -= f * e
    return len(pivots)


def presentation_matrix_by_lookup(field, d1: int, d2: int, d3: int, tau: int) -> MatrixGFp:
    """The degree-tau presentation matrix, each binomial from ``binomial_mod_p``."""
    columns = [((k + d1, 1),) for k in range(tau - d1 + 1)]
    columns += [((k, 1),) for k in range(tau - d2 + 1)]
    if tau >= d3:
        coeffs = [(j, c) for j in range(d3 + 1) if (c := binomial_mod_p(d3, j, field))]
        columns += [tuple((k + j, c) for j, c in coeffs) for k in range(tau - d3 + 1)]
    return MatrixGFp(tau + 1, tuple(columns))


def odd_sum_distance_by_search(point, step: int) -> int:
    """Smallest ||point - step*u||_1 over integer u with odd sum, by box search.

    Moving a coordinate of u two multiples towards the point keeps the
    parity of the sum and lowers the distance, so a minimizer has every
    u_i within quotient - 1 .. quotient + 2; the box searched is one wider
    on each side.
    """
    boxes = [range(x // step - 2, x // step + 4) for x in point]
    return min(
        sum(abs(x - step * u) for x, u in zip(point, us))
        for us in product(*boxes)
        if sum(us) % 2
    )


def manhattan_by_search(p: int, a: int, b: int) -> bool:
    """Manhattan criterion for K[x,y]/(x^a, y^b), each distance by box search."""
    level = 1
    while True:
        step = p**level
        for c in range(1, min(a, b)):
            if odd_sum_distance_by_search((a, b, a + b - 2 * c), step) < step:
                return False
        if step >= a + b - 1:
            return True
        level += 1


def delta_zero_by_search(p: int, d1: int, d2: int, d3: int) -> bool:
    """Vanishing syzygy gap of (d1, d2, d3), each distance by box search."""
    s = 0
    while True:
        step = p**s
        if odd_sum_distance_by_search((d1, d2, d3), step) < step:
            return False
        if step >= d1 + d2 + d3:
            return True
        s += 1


def syzygy_profile_scan(field, d1: int, d2: int, d3: int) -> SyzygyProfile:
    """Locate both generator degrees by ascending kernel searches.

    Independent of ``syzygy_profile``: alpha is the first degree with a
    nonzero kernel (no relation can exist below both the largest generator
    degree and the Koszul degree of the other two), and beta the first
    degree where the kernel outgrows the multiples of the alpha generator.
    """
    total = d1 + d2 + d3
    biggest = max(d1, d2, d3)
    alpha = None
    for tau in range(min(biggest, total - biggest), total + 1):
        kdim = kernel_dimension(field, d1, d2, d3, tau)
        if alpha is None:
            if kdim > 0:
                alpha = tau
                if kdim >= 2:
                    return SyzygyProfile(alpha, tau)
            elif tau > (total + 1) // 2:
                raise RuntimeError(
                    f"no relation found through the midpoint degree for "
                    f"({d1}, {d2}, {d3}) over GF({field.p})"
                )
        elif kdim > tau - alpha + 1:
            return SyzygyProfile(alpha, tau)
    raise RuntimeError(
        f"second generator not found for ({d1}, {d2}, {d3}) over GF({field.p})"
    )


def max_rank_by_definition(field, exponents, power: int) -> bool:
    """Maximal rank of (x1 + ... + xn)^power, checked in every degree 0..t.

    No symmetry or socle argument: each degree's map must have rank equal
    to the smaller of its source and target dimensions.
    """
    for degree in range(top_degree(exponents) + 1):
        matrix = mult_matrix(field, exponents, power, degree)
        if rank(matrix, field) != min(matrix.rows, matrix.cols):
            return False
    return True


def slp_oracle_over_every_degree(field, exponents) -> tuple[bool, int | None]:
    """The oracle with every degree checked for each candidate power.

    Returns ``(has_slp, failing_exponent)``: the candidate powers in
    descending order, each tested by ``max_rank_by_definition``.
    """
    for power in _candidate_powers(exponents):
        if not max_rank_by_definition(field, exponents, power):
            return False, power
    return True, None


def transpose(matrix: MatrixGFp) -> MatrixGFp:
    rows = [dense_row(matrix, i) for i in range(matrix.rows)]
    flipped = [tuple(r[j] for r in rows) for j in range(matrix.cols)]
    return matrix_from_rows(flipped, cols=matrix.rows)


def matmul_mod(a: MatrixGFp, b: MatrixGFp, p: int) -> MatrixGFp:
    assert a.cols == b.rows
    arows = [dense_row(a, i) for i in range(a.rows)]
    brows = [dense_row(b, i) for i in range(b.rows)]
    out = []
    for i in range(a.rows):
        out.append(
            tuple(
                sum(arows[i][k] * brows[k][j] for k in range(a.cols)) % p
                for j in range(b.cols)
            )
        )
    return matrix_from_rows(out, cols=b.cols)


def hilbert_series_identity(field, d1: int, d2: int, d3: int) -> bool:
    """Check the graded-resolution identity for R/(x^d1, y^d2, (x+y)^d3).

    Computes the dimension of every graded piece directly as
    (tau + 1) - rank of the degree-tau presentation map, and tests whether

        (1 - t)^2 * HS(t)  ==  1 - t^d1 - t^d2 - t^d3 + t^alpha + t^beta

    as exact integer polynomials, alpha and beta from ``syzygy_profile``.
    """
    profile = syzygy_profile(field, d1, d2, d3)
    top = d1 + d2 - 2
    dims = []
    for tau in range(top + 1):
        matrix = presentation_matrix(field, d1, d2, d3, tau)
        dims.append(tau + 1 - rank(matrix, field))
    size = max(top + 3, d3 + 1, profile.beta + 1)
    lhs = [0] * size
    for i, c in enumerate([1, -2, 1]):
        for j, h in enumerate(dims):
            lhs[i + j] += c * h
    rhs = [0] * size
    rhs[0] += 1
    for d in (d1, d2, d3):
        rhs[d] -= 1
    rhs[profile.alpha] += 1
    rhs[profile.beta] += 1
    return lhs == rhs


def count_monomials(exponents, degree: int) -> int:
    """Brute-force Hilbert function: count exponent tuples directly."""

    def count(pos: int, remaining: int) -> int:
        if pos == len(exponents):
            return 1 if remaining == 0 else 0
        return sum(
            count(pos + 1, remaining - e)
            for e in range(min(remaining, exponents[pos] - 1) + 1)
        )

    return count(0, degree)


def basis(exponents, degree: int) -> list[tuple[int, ...]]:
    """Monomial basis of a degree piece: every exponent tuple below the
    bounds with that sum, by filtering, in descending lexicographic order."""
    return sorted(
        (e for e in product(*map(range, exponents)) if sum(e) == degree), reverse=True
    )


def mult_matrix_by_expansion(field, exps, power: int, degree: int) -> MatrixGFp:
    """Dense matrix of multiplication by (x1 + ... + xn)^power on a degree piece.

    Independent of the library's build: bases from ``basis``, entries as
    integer multinomial coefficients from ``math.comb`` reduced mod p.
    """

    def multinomial(steps):
        out, total = 1, 0
        for k in steps:
            total += k
            out *= math.comb(total, k)
        return out

    src, dst = basis(exps, degree), basis(exps, degree + power)
    rows = []
    for target in dst:
        row = []
        for mono in src:
            steps = [t - e for t, e in zip(target, mono)]
            row.append(multinomial(steps) % field.p if min(steps) >= 0 else 0)
        rows.append(row)
    return matrix_from_rows(rows, cols=len(src))


def power_times_monomial_is_zero(p: int, d1: int, d2: int, e1: int, e2: int, power: int) -> bool:
    """Whether (x+y)^power * x^e1 y^e2 vanishes in K[x,y]/(x^d1, y^d2).

    Independent of the library: integer binomials reduced mod p.
    """
    for j in range(power + 1):
        if math.comb(power, j) % p and e1 + j < d1 and e2 + power - j < d2:
            return False
    return True
