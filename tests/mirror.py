"""The bar involution u -> u^(-1) (hence q -> q^(-1)), the oracle of the
tests' mirror relations: the mirror image of a link or a homology sphere
has the barred invariant."""

from uwrt.laurent import LaurentU, q_pow
from uwrt.qhat import HabiroElem


def bar(x):
    """The bar image of a LaurentU or a HabiroElem, the latter term by
    term through bar((q)_n) = (-1)^n q^(-n(n+1)/2) (q)_n."""
    if isinstance(x, HabiroElem):
        return HabiroElem(x.depth, [
            bar(c) * q_pow(-n * (n + 1) // 2, (-1) ** n)
            for n, c in enumerate(x.terms)])
    return LaurentU(1 - x.min - len(x.coeffs), reversed(x.coeffs))
