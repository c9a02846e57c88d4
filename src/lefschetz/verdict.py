"""Result records of the decision routes and of the kernel witness."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelWitness:
    """A monomial annihilated by a power of the sum of the variables.

    The monomial is nonzero in the algebra, the graded piece it lives in is
    no larger than the target piece, and multiplying by the given power of
    x + y sends it to zero. Together these certify a rank-deficient
    multiplication map, hence failure of the strong Lefschetz property.
    """

    monomial: tuple[int, ...]
    power: int

    @property
    def degree(self) -> int:
        return sum(self.monomial)

    @property
    def target_degree(self) -> int:
        return self.degree + self.power


@dataclass(frozen=True)
class SlpVerdict:
    """Outcome of a strong-Lefschetz decision: every route returns one.

    A failing verdict of the rank oracle or of the syzygy gap route carries
    the first power, largest first, whose map misses maximal rank; those of
    ``classify`` carry a condition tag instead, and ``manhattan_check``'s
    carry neither. A positive verdict never carries failure evidence.
    """

    has_slp: bool
    failing_exponent: int | None = None
    condition: str | None = None

    def __post_init__(self) -> None:
        if self.has_slp and self.failing_exponent is not None:
            raise ValueError("a positive verdict cannot carry failure evidence")
