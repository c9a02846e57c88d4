"""Field arithmetic, Lucas binomials, and exact rank computation."""

from __future__ import annotations

import math
import random

import pytest

from conftest import (
    SMALL_PRIMES,
    matrix_from_rows,
    rank_by_dense_walk,
    rank_by_minors,
    transpose,
)
from lefschetz import MatrixGFp, PrimeField, binomial_mod_p, presentation_matrix, rank
from lefschetz.prime_field import MAX_CHARACTERISTIC, binomial_row


def dense(rows: int, cols: int, entries) -> MatrixGFp:
    """Matrix from its entries listed row by row."""
    entries = tuple(entries)
    return matrix_from_rows(
        [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols
    )


class TestPrimeField:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 11, 97, 2**31 - 1):
            assert PrimeField(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 91, -3])
    def test_composites_rejected(self, bad):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(bad)

    def test_oversized_characteristic_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            PrimeField(MAX_CHARACTERISTIC + 12)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            PrimeField(3.0)


class TestBinomial:
    def test_examples(self):
        assert binomial_mod_p(4, 2, PrimeField(3)) == 0
        assert binomial_mod_p(5, 2, PrimeField(2)) == 0
        assert binomial_mod_p(0, 0, PrimeField(5)) == 1

    def test_k_above_n_is_zero(self):
        assert binomial_mod_p(3, 5, PrimeField(7)) == 0

    def test_prime_row_vanishes(self):
        for p in SMALL_PRIMES:
            f = PrimeField(p)
            assert all(binomial_mod_p(p, k, f) == 0 for k in range(1, p))

    def test_negative_arguments_error(self):
        with pytest.raises(ValueError):
            binomial_mod_p(-1, 0, PrimeField(3))

    @pytest.mark.parametrize("p", SMALL_PRIMES + (31, MAX_CHARACTERISTIC))
    def test_row_matches_factorials_up_to_200(self, p):
        f = PrimeField(p)
        for n in range(201):
            pairs = binomial_row(n, f)
            ks = [k for k, _ in pairs]
            assert ks == sorted(set(ks)) and all(c for _, c in pairs), (p, n)
            row = dict(pairs)
            assert [row.get(k, 0) for k in range(n + 1)] == [
                math.comb(n, k) % p for k in range(n + 1)
            ], (p, n)

    def test_row_of_negative_n_errors(self):
        with pytest.raises(ValueError):
            binomial_row(-1, PrimeField(3))

    def test_cache_is_bounded(self):
        # more distinct lookups than the documented 2**16 keep the cache at
        # its bound, and the evicted first values come back correct
        assert binomial_mod_p.cache_info().maxsize == 2**16
        f = PrimeField(7)
        pairs = [(n, k) for n in range(370) for k in range(n + 1)]
        assert len(pairs) > 2**16
        wrong = [nk for nk in pairs + pairs[:1000] if binomial_mod_p(*nk, f) != math.comb(*nk) % 7]
        assert wrong == []
        assert binomial_mod_p.cache_info().currsize == 2**16

    def test_lucas_matches_factorials_up_to_200(self):
        for p in SMALL_PRIMES:
            f = PrimeField(p)
            for n in range(201):
                for k in range(n + 1):
                    assert binomial_mod_p(n, k, f) == math.comb(n, k) % p, (p, n, k)


class TestRank:
    def test_identity(self):
        f = PrimeField(5)
        eye = matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(eye, f) == 3

    def test_zero_matrix(self):
        assert rank(dense(4, 2, (0,) * 8), PrimeField(3)) == 0

    def test_repeated_rows_gf2(self):
        m = matrix_from_rows([[1, 1], [1, 1]])
        assert rank(m, PrimeField(2)) == 1

    def test_degenerate_shapes(self):
        f = PrimeField(3)
        assert rank(dense(0, 5, ()), f) == 0
        assert rank(dense(5, 0, ()), f) == 0

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            rank(dense(1, 1, (3,)), PrimeField(3))

    def test_row_index_out_of_range_rejected(self):
        f = PrimeField(3)
        for column in (((2, 1),), ((-1, 1),), ((1, 1), (0, 1)), ((0, 1), (0, 2))):
            with pytest.raises(ValueError, match="row index"):
                rank(MatrixGFp(2, (column,)), f)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            MatrixGFp(-1, ())
        with pytest.raises(ValueError):
            matrix_from_rows([(1, 2), (3,)])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            rank(dense(1, 2, (0, -1)), PrimeField(3))

    def test_matches_minor_expansion(self):
        rng = random.Random(20240901)
        for _ in range(150):
            p = rng.choice(SMALL_PRIMES + (31, MAX_CHARACTERISTIC))
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = dense(rows, cols, (rng.randrange(p) for _ in range(rows * cols)))
            assert rank(m, PrimeField(p)) == rank_by_minors(m, p), m

    def test_rank_at_maximal_characteristic(self):
        # exact at the largest characteristic PrimeField accepts
        p = MAX_CHARACTERISTIC
        f = PrimeField(p)
        big = p - 1
        assert rank(matrix_from_rows([[big, 1], [1, 1]]), f) == 2
        # second row is (p-1) times the first: (p-1)*(p-1, 1) = (1, p-1)
        assert rank(matrix_from_rows([[big, 1], [1, big]]), f) == 1

    def test_rank_equals_rank_of_transpose(self):
        rng = random.Random(5)
        for _ in range(120):
            p = rng.choice(SMALL_PRIMES)
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = dense(rows, cols, (rng.randrange(p) for _ in range(rows * cols)))
            f = PrimeField(p)
            assert rank(m, f) == rank(transpose(m), f)

    def test_rank_bounded_by_dimensions(self):
        rng = random.Random(6)
        for p in SMALL_PRIMES:
            for rows in range(7):
                for cols in range(7):
                    m = dense(rows, cols, (rng.randrange(p) for _ in range(rows * cols)))
                    assert 0 <= rank(m, PrimeField(p)) <= min(rows, cols), m


def band_growing_matrices(count: int, seed: int):
    """Sparse matrices whose second column's walk must go past its last entry.

    The first column leads row ``lead`` and reaches down to row ``reach``;
    the second leads the same row and stops above ``reach``, so clearing
    its leading entry with the first column's pivot writes below its own
    last entry. Short random columns follow. The prime and the row count
    cycle through their ranges; the rest is drawn from ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    primes = SMALL_PRIMES + (31, MAX_CHARACTERISTIC)

    def column(p, rows):
        # a nonzero entry, 1, p - 1 or any, in each of the given rows, in order
        return tuple((i, rng.choice((1, p - 1, rng.randint(1, p - 1)))) for i in sorted(set(rows)))

    def some(low, high, most):
        # up to ``most`` rows drawn from low..high, none if that range is empty
        return [rng.randint(low, high) for _ in range(rng.randint(0, most))] if low <= high else []

    for k in range(count):
        p = primes[k % len(primes)]
        nrows = 2 + k % 11
        lead = rng.randint(0, nrows - 2)
        reach = rng.randint(lead + 1, nrows - 1)
        stop = rng.randint(lead, reach - 1)
        columns = [
            column(p, [lead, reach, *some(lead + 1, reach - 1, 3)]),
            column(p, [lead, stop, *some(lead, stop, 3)]),
        ]
        for _ in range(rng.randint(0, 10)):
            top = rng.randint(0, nrows - 1)
            columns.append(column(p, some(top, min(top + 3, nrows - 1), 4)))
        yield MatrixGFp(nrows, tuple(columns)), PrimeField(p)


class TestRankKernel:
    """``rank`` against the elimination that walks every column to the last row."""

    def test_presentation_matrices_of_every_gap(self):
        # the matrices slp_via_delta builds, for every c rather than up to
        # the first nonzero gap
        for p in SMALL_PRIMES:
            f = PrimeField(p)
            for a in range(2, 17):
                for b in range(a, 17):
                    for c in range(1, a):
                        d3 = a + b - 2 * c
                        tau = (a + b + d3 - 1) // 2
                        m = presentation_matrix(f, a, b, d3, tau)
                        assert rank(m, f) == rank_by_dense_walk(m, f), (p, a, b, c)

    def test_walk_past_the_last_entry(self):
        for m, f in band_growing_matrices(150, seed=1):
            assert rank(m, f) == rank_by_dense_walk(m, f), m

    def test_largest_characteristic(self):
        # columns that combine earlier ones cancel exactly only in exact arithmetic
        p = MAX_CHARACTERISTIC
        f = PrimeField(p)
        rng = random.Random(2147483647)
        entries = (1, 2, p - 1, p - 2)
        for _ in range(150):
            nrows = rng.randint(1, 10)
            vectors = []
            for _ in range(rng.randint(1, 10)):
                if vectors and rng.random() < 0.4:
                    weights = [rng.randrange(p) for _ in vectors]
                    vectors.append(
                        [sum(w * v[i] for w, v in zip(weights, vectors)) % p for i in range(nrows)]
                    )
                else:
                    vectors.append(
                        [rng.choice(entries) if rng.random() < 0.3 else rng.randrange(p)
                         if rng.random() < 0.2 else 0 for _ in range(nrows)]
                    )
            columns = tuple(tuple((i, e) for i, e in enumerate(v) if e) for v in vectors)
            m = MatrixGFp(nrows, columns)
            assert rank(m, f) == rank_by_dense_walk(m, f), m

    @pytest.mark.parametrize(
        "columns, expected",
        [
            # a unit pivot on row 0, then multiples of it: reduced to zero
            pytest.param([((0, 1),), ((0, 2),), ((0, 1),)], 1, id="on-a-unit-pivot"),
            # row 0 leads a pivot with a tail, so (0, 1) leaves (1, -1): a new pivot
            pytest.param([((0, 1), (1, 1)), ((0, 1),), ((1, 2),)], 2, id="on-a-pivot-with-a-tail"),
            # the unit pivot of row 1 does not clear the tail of row 0's pivot
            pytest.param([((1, 1),), ((0, 1), (1, 1)), ((0, 2),)], 2, id="unit-pivot-below"),
            pytest.param([((2, 1),), ((0, 1), (2, 1)), ((0, 1),), ((1, 1),)], 3, id="mixed"),
        ],
    )
    @pytest.mark.parametrize("p", [3, MAX_CHARACTERISTIC])
    def test_one_entry_columns(self, columns, expected, p):
        m = MatrixGFp(3, tuple(columns))
        f = PrimeField(p)
        assert rank(m, f) == rank_by_dense_walk(m, f) == expected

    @pytest.mark.parametrize("p", [2, 5, MAX_CHARACTERISTIC])
    def test_one_entry_columns_against_the_dense_walk(self, p):
        # Mostly one-entry columns, so that many land on rows led by a pivot
        # with no tail and many on rows led by a pivot with one.
        f = PrimeField(p)
        rng = random.Random(p)
        entries = (1, 2 % p or 1, p - 1)
        for _ in range(300):
            nrows = rng.randint(1, 6)
            columns = []
            for _ in range(rng.randint(1, 10)):
                size = 1 if rng.random() < 0.6 else rng.randint(2, nrows) if nrows > 1 else 1
                rows = sorted(rng.sample(range(nrows), size))
                columns.append(tuple((i, rng.choice(entries)) for i in rows))
            m = MatrixGFp(nrows, tuple(columns))
            assert rank(m, f) == rank_by_dense_walk(m, f), m

    BAD_COLUMNS = [
        pytest.param(((0, 0),), id="zero-lead"),
        pytest.param(((0, 3),), id="p-lead"),
        pytest.param(((0, 1), (1, 0)), id="zero-entry"),
        pytest.param(((0, 1), (1, 3)), id="p-entry"),
        pytest.param(((1, 1), (0, 1)), id="rows-out-of-order"),
        pytest.param(((0, 1), (0, 2)), id="repeated-row"),
        pytest.param(((0, 1), (3, 1)), id="row-past-the-end"),
        pytest.param(((3, 1),), id="lead-past-the-end"),
        pytest.param(((-1, 1),), id="negative-row"),
    ]

    @pytest.mark.parametrize("column", BAD_COLUMNS)
    @pytest.mark.parametrize(
        "before",
        [
            pytest.param((), id="first-column"),
            pytest.param((((2, 1),),), id="new-pivot"),
            pytest.param((((0, 1),),), id="unit-pivot"),
            pytest.param((((0, 1), (2, 1)),), id="walk"),
        ],
    )
    def test_copy_checks_on_every_path(self, before, column):
        # "new-pivot": row 0 leads no pivot yet, so the bad column is taken
        # as it stands; "unit-pivot": row 0 leads a pivot with no tail, so a
        # one-entry column there is skipped; "walk": it is cleared against
        # the pivot of row 0.
        matrix = MatrixGFp(3, (*before, column))
        with pytest.raises(ValueError, match="out of"):
            rank(matrix, PrimeField(3))
