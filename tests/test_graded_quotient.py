"""Top degree, graded bases, and multiplication matrices."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest

from conftest import (
    basis,
    count_monomials,
    dense_row,
    matmul_mod,
    mult_matrix_by_expansion,
)
from lefschetz import (
    PrimeField,
    is_slp_oracle,
    is_wlp_oracle,
    max_rank_in_every_degree,
    mult_matrix,
    rank,
)
from lefschetz.graded_quotient import top_degree

F2 = PrimeField(2)
F3 = PrimeField(3)
F31 = PrimeField(31)


def test_top_degree():
    assert top_degree((2, 2)) == 2
    assert top_degree((3, 4, 5)) == 9
    assert top_degree((5,)) == 4
    # an exponent of 1 kills its variable; needed when rank checks meet
    # syzygy sweeps
    assert top_degree((1, 4)) == 3


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda ds: mult_matrix(F2, ds, 1, 0), id="mult_matrix"),
        pytest.param(lambda ds: max_rank_in_every_degree(F2, ds, 1),
                     id="max_rank_in_every_degree"),
        pytest.param(lambda ds: is_slp_oracle(F2, ds), id="is_slp_oracle"),
        pytest.param(lambda ds: is_wlp_oracle(F2, ds), id="is_wlp_oracle"),
    ],
)
def test_oracle_entry_checks_exponents(entry):
    # no variable, or an exponent below 1, describes no algebra
    for ds in [(), (2, 0)]:
        with pytest.raises(ValueError, match="variable|at least 1"):
            entry(ds)
    # one variable and an exponent of 1 are algebras
    for ds in [(1,), (5,), (1, 4), (2, 1, 3)]:
        entry(ds)


class TestGradedBasis:
    """The monomial basis of each degree, as the order of the columns and
    rows of ``mult_matrix``: descending lexicographic, empty above the top
    degree."""

    def test_two_variables_degree_one(self):
        # K[x,y]/(x^2, y^2): degree 1 has the two rows x, y
        m = mult_matrix(F3, (2, 2), 1, 0)
        assert (m.rows, m.cols) == (2, 1)
        # K[x,y]/(x^2, y^3): columns x, y; x -> xy, y -> xy + y^2
        m = mult_matrix(F3, (2, 3), 1, 1)
        assert m.columns == (((0, 1),), ((0, 1), (1, 1)))

    def test_above_top_degree_empty(self):
        # as a source: no columns, and nothing above it to land on
        m = mult_matrix(F3, (2, 2), 1, 3)
        assert (m.rows, m.cols, m.columns) == (0, 0, ())
        # as a target: no rows
        m = mult_matrix(F3, (2, 2), 3, 0)
        assert (m.rows, m.cols, m.columns) == (0, 1, ((),))

    def test_enumeration_order(self):
        # x + y from degree 1 of K[x,y]/(x^3, y^3): columns x, y; rows
        # x^2, xy, y^2
        m = mult_matrix(F3, (3, 3), 1, 1)
        assert (m.rows, m.cols) == (3, 2)
        assert m.columns == (((0, 1), (1, 1)), ((1, 1), (2, 1)))
        # K[x,y]/(x^3, y^4) is not symmetric in x and y, so only this order
        # gives these columns: x^2, xy, y^2 to rows x^2y, xy^2, y^3
        m = mult_matrix(F3, (3, 4), 1, 2)
        assert m.columns == (((0, 1),), ((0, 1), (1, 1)), ((1, 1), (2, 1)))

    def test_descending_lexicographic(self):
        # x + y + z from degree 1 of K[x,y,z]/(x^3, y^3, z^2): columns x, y,
        # z; rows x^2, xy, xz, y^2, yz (z^2 is zero)
        m = mult_matrix(F3, (3, 3, 2), 1, 1)
        assert (m.rows, m.cols) == (5, 3)
        assert m.columns == (
            ((0, 1), (1, 1), (2, 1)), ((1, 1), (3, 1), (4, 1)), ((2, 1), (4, 1)),
        )
        # degree 5 as source and as target, against the dense build on
        # bases sorted in descending lexicographic order
        for exps in [(4, 4, 4), (2, 4, 5)]:
            for power in (1, 2, 3):
                for degree in (5, 5 - power):
                    expected = mult_matrix_by_expansion(F31, exps, power, degree)
                    assert mult_matrix(F31, exps, power, degree) == expected, (
                        exps, power, degree,
                    )


class TestMultMatrix:
    def test_square_of_sum_p3(self):
        m = mult_matrix(F3, (2, 2), 2, 0)
        assert (m.rows, m.cols) == (1, 1)
        assert dense_row(m, 0) == (2,)
        assert rank(m, F3) == 1

    def test_square_of_sum_p2(self):
        m = mult_matrix(F2, (2, 2), 2, 0)
        assert dense_row(m, 0) == (0,)
        assert rank(m, F2) == 0

    def test_above_top_degree_has_no_rows(self):
        m = mult_matrix(F3, (2, 2), top_degree((2, 2)) + 1, 0)
        assert m.rows == 0
        assert m.cols == 1

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            mult_matrix(F3, (2, 2), 0, 0)

    def test_negative_degree_rejected(self):
        for exps in [(3,), (2, 2), (2, 3, 4)]:
            with pytest.raises(ValueError) as excinfo:
                mult_matrix(F3, exps, 1, -1)
            # raised by the build itself, not by a helper it calls
            assert excinfo.traceback[-1].name == "mult_matrix"

    def test_first_power_on_two_variables(self):
        # multiplication by x+y from degree 1 of K[x,y]/(x^2, y^3)
        m = mult_matrix(F2, (2, 3), 1, 1)
        assert m.rows == 2 and m.cols == 2
        # basis degree 1: x, y; degree 2: xy, y^2
        assert dense_row(m, 0) == (1, 1)
        assert dense_row(m, 1) == (0, 1)

    def test_composition_of_powers(self):
        for field, exps in [(F3, (3, 4)), (F2, (2, 3, 2)), (PrimeField(5), (4, 4))]:
            t = top_degree(exps)
            for i in range(t):
                for m1 in range(1, t - i + 1):
                    for m2 in range(1, t - i - m1 + 1):
                        whole = mult_matrix(field, exps, m1 + m2, i)
                        second = mult_matrix(field, exps, m2, i + m1)
                        first = mult_matrix(field, exps, m1, i)
                        assert whole == matmul_mod(second, first, field.p), (exps, i, m1, m2)

    def test_entries_are_integer_multinomials_for_large_p(self):
        # with p far above every coefficient there is no modular collapse
        big = PrimeField(1009)
        exps = (3, 3, 3)
        for power, degree in [(2, 1), (3, 0), (4, 2)]:
            m = mult_matrix(big, exps, power, degree)
            src = basis(exps, degree)
            dst = basis(exps, degree + power)
            for col, mono in enumerate(src):
                for row, target in enumerate(dst):
                    diff = tuple(t - m for t, m in zip(target, mono))
                    if any(x < 0 for x in diff) or sum(diff) != power:
                        expected = 0
                    else:
                        expected = math.factorial(power)
                        for x in diff:
                            expected //= math.factorial(x)
                    got = dense_row(m, row)[col]
                    assert got == expected, (power, degree, mono, target)

    def test_matches_dense_expansion_on_small_grids(self):
        # every power 1..t+1 and degree 0..t+1: empty target and source
        # pieces, exponents equal to 1, and collapse mod 2 and 3
        grids = [(1, 6), (2, 6), (3, 4), (4, 3), (5, 2)]
        algebras = [exps for n, largest in grids
                    for exps in product(range(1, largest + 1), repeat=n)]
        # exponents of 1 among the prefix variables, with room in the
        # others: a source prefix then has target prefixes without a block
        algebras += [(1, 3, 1, 3), (1, 4, 1, 4), (4, 1, 1, 3), (1, 1, 4, 2),
                     (2, 1, 3, 1, 3), (1, 3, 1, 2, 2)]
        for p in (2, 3, 31, 2**31 - 1):
            field = PrimeField(p)
            for exps in algebras:
                t = top_degree(exps)
                for power in range(1, t + 2):
                    for degree in range(t + 2):
                        expected = mult_matrix_by_expansion(field, exps, power, degree)
                        assert mult_matrix(field, exps, power, degree) == expected, (
                            p, exps, power, degree,
                        )


def test_column_count_matches_source_dimension():
    rng = random.Random(4)
    drawn = [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3))) for _ in range(12)]
    for p in (2, 3, 5):
        for exps in [(1,), (5, 5, 5), *drawn]:
            t = top_degree(exps)
            for degree, power in ((0, 1), (t + 1, t + 2),
                                  (rng.randint(0, t + 1), rng.randint(1, t + 2))):
                m = mult_matrix(PrimeField(p), exps, power, degree)
                assert m.cols == count_monomials(exps, degree), (p, exps, power, degree)
                assert m.rows == count_monomials(exps, degree + power), (p, exps, power, degree)
