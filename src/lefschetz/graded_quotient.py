"""Monomial complete intersection algebras A = K[x1..xn]/(x1^d1, ..., xn^dn).

An algebra is given by its prime field and its exponents (d1, ..., dn).
Provides its top degree and the matrices of multiplication by powers of
the sum of the variables over GF(p). The sum of the variables is
the only linear form this package ever tests: for monomial ideals it is a
strong (weak) Lefschetz element whenever one exists, so nothing is lost.

Monomials are exponent tuples ``(e1, ..., en)`` with ``0 <= ej < dj``. The
rows and columns of a matrix follow the monomial basis of their degree in
descending lexicographic order on exponents, fixed globally so matrices are
reproducible bit for bit across runs. In that order a degree piece falls
into row blocks, one per prefix ``(e1, ..., e(n-2))``: the monomials of a
block sit on consecutive rows, the exponent of x(n-1) falling by one per
row. The basis itself is never listed: a matrix is built from the prefixes
alone, and the last two variables cost one window of binomials per block.
"""

from operator import add, itemgetter

from .prime_field import MatrixGFp, PrimeField, binomial_mod_p

ExponentVector = tuple[int, ...]


def top_degree(exponents: ExponentVector) -> int:
    """Largest degree with a nonzero graded piece: the sum of (dj - 1).

    Raises ValueError for no exponents or an exponent below 1. An exponent
    of 1 is allowed: it kills its variable outright, which is needed when
    pairing rank checks with syzygy-gap sweeps.
    """
    if not exponents:
        raise ValueError("need at least one variable")
    if min(exponents) < 1:
        raise ValueError("exponents must be at least 1")
    return sum(exponents) - len(exponents)


def _prefixes(bounds: tuple[int, ...], total: int, width: int) -> list[tuple[ExponentVector, int]]:
    # (prefix, rest) for every prefix (e1, ..., em) with 0 <= ej < bounds[j]
    # and rest = total - sum(prefix) in 0..width, in descending lexicographic
    # order. Each ej leaves no more than the later variables and the last
    # two (`width`) can take, so every partial prefix extends to a full one.
    reach = [width]
    for d in reversed(bounds[1:]):
        reach.append(reach[-1] + d - 1)
    out: list[tuple[ExponentVector, int]] = [((), total)]
    for d, most in zip(bounds, reversed(reach)):
        out = [
            (prefix + (e,), rest - e)
            for prefix, rest in out
            for e in range(min(rest, d - 1), max(0, rest - most) - 1, -1)
        ]
    return [(prefix, rest) for prefix, rest in out if rest <= width]


def mult_matrix(
    field: PrimeField, exponents: ExponentVector, power: int, degree: int
) -> MatrixGFp:
    """Matrix of multiplication by (x1 + ... + xn)^power on the degree piece
    of K[x1..xn]/(x1^d1, ..., xn^dn) over ``field``, ``exponents`` = (d1, ..., dn).

    Columns are indexed by the basis of the source degree, rows by the basis
    of the target degree; degenerate (zero-row or zero-column) shapes are
    allowed and simply have rank 0.

    No basis is listed and nothing is walked per column. Only the prefixes
    (e1, ..., e(n-2)) of the two degrees are enumerated; the first row of
    each target block and the columns of each source block follow from the
    degree left to the last two variables. The steps k' of the power over
    the first n - 2 variables are enumerated once per call, each with its
    chained binomial c and the r of the power it leaves, and each stores
    the row c * C(r, k) mod p, reversed, over the k that the last two
    variables can take at all: max(0, r - d(n) + 1) <= k <= min(r, d(n-1) - 1).
    Each source prefix gets one plan, the (block, r, row) of every step
    whose target prefix has a block, shared by all its columns. Column
    x^e clips each row to the k with e(n-1) + k < d(n-1) and
    e(n) + r - k < d(n), which land on consecutive rows, and drops the
    zeros. Binomials come from :func:`binomial_mod_p`.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    top_degree(exponents)  # refuses what no algebra has
    if len(exponents) == 1:
        # built as (d, 1): a variable with exponent 1 changes no graded piece
        exponents = (*exponents, 1)
    head, (da, db) = exponents[:-2], exponents[-2:]
    p = field.p
    width = da + db - 2  # the top degree of the last two variables
    # target prefix -> first row of its block + the largest e(n-1) in it, so
    # x(n-1)^e x(n)^(rest - e) with that prefix sits on row block[prefix] - e.
    block: dict[ExponentVector, int] = {}
    rows = 0
    for prefix, rest in _prefixes(head, degree + power, width):
        top = min(rest, da - 1)
        block[prefix] = rows + top
        rows += top - max(0, rest - db + 1) + 1
    # Steps come in descending lexicographic order, so each column meets its
    # target blocks in increasing row order.
    steps = []
    for step, r in _prefixes(head, power, width):
        c, left = 1, power
        for k in step:
            c = c * binomial_mod_p(left, k, field) % p
            left -= k
        if c:
            top = min(r, da - 1)
            low = max(0, r - db + 1)
            steps.append((step, r, top, [c * binomial_mod_p(r, k, field) % p
                                         for k in range(top, low - 1, -1)]))
    nonzero = itemgetter(1)
    columns = []
    for prefix, rest in _prefixes(head, degree, width):
        plan = [
            (base, r, top, row)
            for step, r, top, row in steps
            if (base := block.get(tuple(map(add, prefix, step)))) is not None
        ]
        for ea in range(min(rest, da - 1), max(0, rest - db + 1) - 1, -1):
            # How far x(n-1) and x(n) can still step. A block has
            # rest + r <= width, so lo <= hi below.
            room_a, room_b = da - 1 - ea, db - 1 - rest + ea
            out: list[tuple[int, int]] = []
            for base, r, top, row in plan:
                hi = r if r < room_a else room_a
                lo = r - room_b if r > room_b else 0
                first = base - ea - hi
                out.extend(filter(nonzero, zip(range(first, first + hi - lo + 1),
                                               row[top - hi:top - lo + 1])))
            columns.append(tuple(out))
    return MatrixGFp(rows, tuple(columns))
