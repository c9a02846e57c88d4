"""Exact arithmetic in GF(p): sparse matrices, their rank, and binomials.

All values are plain Python integers reduced into ``[0, p)``; there is no
floating point anywhere in this package. Matrices are immutable and stored
by columns, each column holding only its nonzero entries. Rank is computed
by Gaussian elimination on the columns in Python integers, so it is exact
for every characteristic.
"""

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from math import comb, isqrt

# Bounds the trial division in the primality check at construction.
MAX_CHARACTERISTIC = 2**31 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    """The prime field GF(p). Primality is verified at construction.

    Instances are immutable and safe to share between threads or processes.
    """

    __slots__ = ()

    def __new__(cls, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("characteristic must be an integer")
        if p > MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {p} exceeds {MAX_CHARACTERISTIC}; "
                "primality is checked by trial division"
            )
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


Column = tuple[tuple[int, int], ...]


class MatrixGFp(namedtuple("MatrixGFp", "rows columns")):
    """Sparse matrix over GF(p), stored by columns, immutable.

    Each column is a tuple of ``(row, entry)`` pairs holding the nonzero
    entries in increasing row order, so equal matrices compare equal.
    The number of columns is ``len(columns)``. Entries and row indices are
    checked against the field and the shape where a field is available (see
    :func:`rank`); the constructor checks the number of rows only.
    """

    __slots__ = ()

    def __new__(cls, rows: int, columns: tuple[Column, ...]):
        if rows < 0:
            raise ValueError("the number of rows must be non-negative")
        return super().__new__(cls, rows, columns)

    @property
    def cols(self) -> int:
        return len(self.columns)


def rank(matrix: MatrixGFp, field: PrimeField) -> int:
    """Exact rank of ``matrix`` over GF(p) by Gaussian elimination on columns.

    Each column is checked first: an entry outside ``1..p-1`` and a row
    index that is out of range or not above the previous one are rejected.
    A column whose leading row leads no pivot yet becomes a new pivot as it
    stands, scaled to lead with 1, with no working vector and no walk; the
    first column to reach each row takes this path, and so does every unit
    column of a presentation matrix, whose unit columns lead distinct rows
    until the rank is full. Any other column is copied into a dense working
    vector and walked from its
    first row down: a nonzero entry in a row that leads a pivot column is
    cleared by subtracting that pivot, and the first nonzero entry in any
    other row makes the vector a new pivot. The walk, and the scan for the
    new pivot's tail, stop at the band's end: one past the last row the
    vector can be nonzero in, which starts at the column's last entry and
    grows when a subtracted pivot reaches further. Entries are reduced mod p
    when read, so the arithmetic stays exact in Python integers for every
    characteristic. Degenerate shapes (zero rows or columns) have rank 0.
    """
    p = field.p
    nrows = matrix.rows
    # leading row -> the pivot's entries below it, as (row, entry) pairs
    pivots: dict[int, Sequence[tuple[int, int]]] = {}
    for column in matrix.columns:
        last = -1
        for i, e in column:
            if not 0 < e < p:
                raise ValueError(f"matrix entry {e} out of range for GF({p})")
            if not last < i < nrows:
                raise ValueError(f"row index {i} out of order or out of range for {nrows} rows")
            last = i
        if not column or len(pivots) == nrows:
            continue
        lead, f = column[0]
        pivot = pivots.get(lead)
        if pivot is None:
            if len(column) == 1:
                pivots[lead] = ()
            else:
                inv = pow(f, -1, p)
                pivots[lead] = [(j, e * inv % p) for j, e in column[1:]]
            continue
        v = [0] * nrows
        for i, e in column:
            v[i] = e
        end = last + 1
        i = lead
        while i < end:
            f = v[i] % p
            if f:
                pivot = pivots.get(i)
                if pivot is None:
                    inv = pow(f, -1, p)
                    pivots[i] = [(j, x * inv % p) for j in range(i + 1, end) if (x := v[j] % p)]
                    break
                for j, e in pivot:
                    v[j] -= f * e
                if pivot and pivot[-1][0] >= end:
                    end = pivot[-1][0] + 1
            i += 1
    return len(pivots)


def binomial_row(n: int, field: PrimeField) -> list[tuple[int, int]]:
    """The nonzero entries of row ``n`` of Pascal's triangle mod p.

    Returns the pairs ``(k, C(n, k) mod p)`` with a nonzero value, in
    increasing k. By Lucas' theorem the row is the product of the rows of
    the base-p digits of n, each a row of ``comb`` values below p, so it is
    built digit by digit from the lowest, with no lookups and no cache.
    """
    if n < 0:
        raise ValueError("binomial arguments must be non-negative")
    p = field.p
    row = [(0, 1)]
    weight = 1
    while n:
        n, digit = divmod(n, p)
        digit_row = [comb(digit, j) % p for j in range(digit + 1)]
        row = [(k + j * weight, c * d % p) for j, d in enumerate(digit_row) for k, c in row]
        weight *= p
    return row


@lru_cache(maxsize=2**16)
def binomial_mod_p(n: int, k: int, field: PrimeField) -> int:
    """C(n, k) mod p, computed digit by digit via Lucas' theorem.

    Returns 0 when ``k > n``; requires non-negative arguments. The cache
    holds at most 2**16 = 65,536 values, the least recently used going
    first, so a long-running process does not grow without bound (about
    200 bytes an entry for arguments below 2**40, 13 MB when full);
    ``binomial_mod_p.cache_info()`` reports its use.
    """
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be non-negative")
    if k > n:
        return 0
    p = field.p
    out = 1
    while k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        out = out * comb(nd, kd) % p
    return out
