"""Syzygy gap values, region tags, resolution identities, and gap invariants.

The gap's links to other routes (C2, C3) and its degree relation, parity,
balanced-boundary, unit-step and scaling invariants (C4) are swept once, in
test_acceptance.py. This module keeps examples, edge cases, sweeps against
a conftest reference, and the invariants C4 does not check.
"""

from __future__ import annotations

import random
import re
from itertools import combinations_with_replacement, product

import pytest

from conftest import (
    RECORD_BUILDS,
    SMALL_PRIMES,
    check_record,
    hilbert_series_identity,
    presentation_matrix_by_lookup,
    syzygy_profile_scan,
)
from lefschetz import (
    PrimeField,
    RegionTag,
    SyzygyProfile,
    Verdict,
    kernel_dimension,
    presentation_matrix,
    region,
    slp_via_delta,
    syzygy_profile,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestProfile:
    def test_balanced_boundary_examples(self):
        for field in (F2, F3, F5):
            profile = syzygy_profile(field, 1, 1, 2)
            assert (profile.alpha, profile.beta, profile.delta) == (2, 2, 0)

    def test_smallest_triple(self):
        profile = syzygy_profile(F2, 1, 1, 1)
        assert (profile.alpha, profile.beta, profile.delta) == (1, 2, 1)

    def test_characteristic_dependence(self):
        assert syzygy_profile(F2, 2, 2, 2).delta == 2
        assert syzygy_profile(F3, 2, 2, 2).delta == 0

    def test_more_values(self):
        assert syzygy_profile(F3, 4, 4, 6).delta == 0
        assert syzygy_profile(F2, 3, 3, 3).delta == 1
        for field in (F2, F3, F5):
            for d in range(1, 7):
                assert syzygy_profile(field, d, d, 2 * d).delta == 0

    def test_degenerate_generator_set(self):
        # the largest power lies in the ideal of the other two; the gap
        # grows linearly past the balanced region
        assert syzygy_profile(F2, 1, 1, 5).delta == 3
        assert syzygy_profile(F3, 2, 3, 9).delta == 4

    def test_positive_degrees_required(self):
        with pytest.raises(ValueError, match="positive"):
            syzygy_profile(F2, 0, 1, 1)

    def test_alpha_above_beta_rejected(self):
        with pytest.raises(ValueError, match="alpha must not exceed beta"):
            SyzygyProfile(3, 2)

    @pytest.mark.parametrize("build", RECORD_BUILDS)
    def test_record_contract(self, build):
        check_record(build, SyzygyProfile, (2, 3), (3, 2), "alpha must not exceed beta")

    def test_scan_agrees_everywhere_small(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            # every sorted triple with entries up to 8
            for d in combinations_with_replacement(range(1, 9), 3):
                assert syzygy_profile_scan(field, *d) == syzygy_profile(field, *d), (p, d)

    def test_kernel_dimension_profile_shape(self):
        # kernel dimensions must match a free rank-two relation module
        for field, d in [(F2, (2, 2, 2)), (F3, (3, 4, 5)), (F5, (2, 5, 5))]:
            profile = syzygy_profile(field, *d)
            for tau in range(sum(d) + 1):
                expected = max(0, tau - profile.alpha + 1) + max(0, tau - profile.beta + 1)
                assert kernel_dimension(field, *d, tau) == expected, (field.p, d, tau)


class TestPresentationMatrix:
    def test_matches_binomial_lookups(self):
        # the Lucas row gives the same matrix as one binomial_mod_p per
        # entry; the prime cycles with the triple to keep the test short
        fields = [PrimeField(p) for p in SMALL_PRIMES]
        for d1, d2, d3 in product(range(1, 13), repeat=3):
            f = fields[(d1 + d2 + d3) % len(fields)]
            for tau in range(d1 + d2 + d3 + 1):
                assert presentation_matrix(f, d1, d2, d3, tau) == (
                    presentation_matrix_by_lookup(f, d1, d2, d3, tau)
                ), (f.p, d1, d2, d3, tau)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            presentation_matrix(F3, 1, 1, 1, -1)


class TestGapInvariants:
    def test_local_maxima_are_small(self):
        # wherever the gap strictly drops in all six unit directions and a
        # coordinate avoids divisibility by p, its value is at most 1
        for p in (2, 3):
            field = PrimeField(p)
            for d1 in range(2, 11):
                for d2 in range(2, 11):
                    for d3 in range(2, 11):
                        d = (d1, d2, d3)
                        if all(x % p == 0 for x in d):
                            continue
                        value = syzygy_profile(field, *d).delta
                        drops = all(
                            syzygy_profile(
                                field, *(x + s * (i == j) for i, x in enumerate(d))
                            ).delta < value
                            for j in range(3)
                            for s in (1, -1)
                        )
                        if drops:
                            assert value <= 1, (p, d, value)


class TestRegion:
    def test_examples(self):
        assert region(1, 1, 2) is RegionTag.L_EQUAL
        assert region(2, 2, 3) is RegionTag.L_STRICT
        assert region(1, 1, 5) is RegionTag.OUTSIDE_L

    def test_permutation_invariance(self):
        assert region(5, 1, 1) is RegionTag.OUTSIDE_L
        assert region(2, 3, 2) is RegionTag.L_STRICT

    def test_positivity(self):
        with pytest.raises(ValueError):
            region(0, 1, 1)


class TestHilbertSeriesIdentity:
    def test_examples(self):
        assert hilbert_series_identity(F3, 2, 2, 2)
        assert hilbert_series_identity(F2, 1, 1, 1)
        for field in (F2, F3, F5):
            assert hilbert_series_identity(field, 1, 1, 2)

    def test_random_triples(self):
        rng = random.Random(3)
        for _ in range(60):
            field = PrimeField(rng.choice((2, 3, 5)))
            d = tuple(sorted(rng.randint(1, 12) for _ in range(3)))
            assert hilbert_series_identity(field, *d), (field.p, d)


class TestSlpViaDelta:
    def test_examples(self):
        assert slp_via_delta(F3, (2, 2)) == Verdict(True)
        assert slp_via_delta(F2, (2, 2)) == Verdict(False, failing_exponent=2)
        assert slp_via_delta(F5, (3, 3)).holds
        # the first failing power, as the oracle reports it
        assert slp_via_delta(F2, (4, 5)) == Verdict(False, failing_exponent=5)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            slp_via_delta(F3, (1, 4))
        for ds in ((2,), (2, 2, 2)):
            with pytest.raises(ValueError, match=rf"^slp_via_delta takes two exponents, "
                                                 rf"got {re.escape(str(ds))}$"):
                slp_via_delta(F3, ds)

