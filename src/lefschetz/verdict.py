"""Result records of the decision routes and of the kernel witness."""

from collections import namedtuple


class KernelWitness(namedtuple("KernelWitness", "monomial power")):
    """A monomial annihilated by a power of the sum of the variables.

    The monomial is nonzero in the algebra, the graded piece it lives in is
    no larger than the target piece, and multiplying by the given power of
    x + y sends it to zero. Together these certify a rank-deficient
    multiplication map, hence failure of the strong Lefschetz property.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self.monomial)

    @property
    def target_degree(self) -> int:
        return self.degree + self.power


class Verdict(namedtuple("Verdict", "holds failing_exponent condition")):
    """Outcome of a Lefschetz decision, strong or weak: every route returns one.

    A failing verdict of the rank oracle or of the syzygy gap route carries
    the first power, largest first, whose map misses maximal rank (for the
    weak property that power is 1); those of ``classify`` carry a condition
    tag instead, and ``manhattan_check``'s carry neither. A positive verdict
    never carries failure evidence.
    """

    __slots__ = ()

    def __new__(cls, holds: bool, failing_exponent: int | None = None,
                condition: str | None = None):
        if holds and failing_exponent is not None:
            raise ValueError("a positive verdict cannot carry failure evidence")
        return super().__new__(cls, holds, failing_exponent, condition)
