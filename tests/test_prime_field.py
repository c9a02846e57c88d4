"""Field arithmetic, Lucas binomials, and exact rank computation."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, rank_by_minors, transpose
from lefschetz import MatrixGFp, PrimeField, binomial_mod_p, rank
from lefschetz.prime_field import MAX_CHARACTERISTIC


def dense(rows: int, cols: int, entries) -> MatrixGFp:
    """Matrix from its entries listed row by row."""
    entries = tuple(entries)
    return MatrixGFp.from_rows(
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

    def test_lucas_matches_factorials_up_to_200(self):
        for p in SMALL_PRIMES:
            f = PrimeField(p)
            for n in range(201):
                for k in range(n + 1):
                    assert binomial_mod_p(n, k, f) == math.comb(n, k) % p, (p, n, k)


class TestRank:
    def test_identity(self):
        f = PrimeField(5)
        eye = MatrixGFp.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(eye, f) == 3

    def test_zero_matrix(self):
        assert rank(dense(4, 2, (0,) * 8), PrimeField(3)) == 0

    def test_repeated_rows_gf2(self):
        m = MatrixGFp.from_rows([[1, 1], [1, 1]])
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
                rank(MatrixGFp(2, 1, (column,)), f)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MatrixGFp(2, 2, ((), (), ()))
        with pytest.raises(ValueError):
            MatrixGFp.from_rows([(1, 2), (3,)])

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
        assert rank(MatrixGFp.from_rows([[big, 1], [1, 1]]), f) == 2
        # second row is (p-1) times the first: (p-1)*(p-1, 1) = (1, p-1)
        assert rank(MatrixGFp.from_rows([[big, 1], [1, big]]), f) == 1

    def test_rank_equals_rank_of_transpose(self):
        rng = random.Random(5)
        for _ in range(120):
            p = rng.choice(SMALL_PRIMES)
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = dense(rows, cols, (rng.randrange(p) for _ in range(rows * cols)))
            f = PrimeField(p)
            assert rank(m, f) == rank(transpose(m), f)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rank_bounded_by_dimensions(self, data):
        p = data.draw(st.sampled_from(SMALL_PRIMES))
        rows = data.draw(st.integers(0, 6))
        cols = data.draw(st.integers(0, 6))
        entries = data.draw(
            st.tuples(*[st.integers(0, p - 1) for _ in range(rows * cols)])
        )
        r = rank(dense(rows, cols, entries), PrimeField(p))
        assert 0 <= r <= min(rows, cols)
