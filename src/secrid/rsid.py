"""Error accounting of the two-layer Reed-Solomon identification baseline.

The comparison scheme concatenates two univariate evaluations: an outer
polynomial with k_out coefficients over the extension GF(q^k_in) is
evaluated at r1, the resulting symbol is split into its k_in base-field
coordinates, and those become the coefficients of an inner polynomial
evaluated at r2 in GF(q).  The tag is the inner value.  A union bound gives
a false-accept fraction of at most (k_out-1)/q^k_in + (k_in-1)/q.

Only that error quote is needed here: epsilon_2rs searches this family for
the smallest error at (essentially) the same identity size as a given
polynomial-tag code, which is the budget a multi-challenge round has to
beat.  The tag itself is never computed by the library; the tests carry it
as the oracle that checks the union bound exhaustively.
"""

from __future__ import annotations

from fractions import Fraction

from .ff import Field
from .rmid import IdCodeParams, Record

# the widest inner code the comparison searches
K_IN_MAX = 8


class RsIdParams(Record):
    def __init__(self, field: Field, k_in: int, k_out: int) -> None:
        self.__dict__.update(field=field, k_in=k_in, k_out=k_out)
        if not 1 <= k_in < field.q:
            raise ValueError(f"inner coefficient count k_in={k_in} must be in [1, q)")
        if not 1 <= k_out < field.q ** k_in:
            raise ValueError(
                f"outer coefficient count k_out={k_out} must be in [1, q^k_in)"
            )


class RsErrorQuote(Record):
    def __init__(self, params: RsIdParams, error: Fraction) -> None:
        self.__dict__.update(params=params, error=error)

    @classmethod
    def quote(cls, params: RsIdParams) -> "RsErrorQuote":
        q = params.field.q
        error = Fraction(params.k_out - 1, q ** params.k_in) + Fraction(
            params.k_in - 1, q
        )
        if error > 1:
            error = Fraction(1)
        return cls(params, error)


# ---------------------------------------------------------------------------
# the comparison budget

def rs_candidates(target: IdCodeParams) -> list[RsErrorQuote]:
    """All layered quotes that fit the target's size: for each inner width
    k_in, the outer length is pushed as high as k_in*k_out <= C(ell+k, ell)
    allows (symbol counts compare exactly; the log2 q factor cancels)."""
    q = target.field.q
    budget = target.coeff_count
    quotes = []
    for k_in in range(1, min(K_IN_MAX, q - 1) + 1):
        k_out = min(budget // k_in, q ** k_in - 1)
        if k_out < 1:
            continue
        quotes.append(RsErrorQuote.quote(RsIdParams(target.field, k_in, k_out)))
    return quotes


def epsilon_2rs(target: IdCodeParams) -> RsErrorQuote:
    """Smallest union-bound error among size-maximal layered quotes; ties go
    to the smaller (k_in, k_out).  Shrinking k_out below the size budget is
    not allowed, otherwise the degenerate one-symbol code with zero error
    would win every comparison.  k_in = 1 always fits, with k_out =
    min(C(ell + k, ell), q - 1) >= 1, so there is always a quote."""
    quotes = rs_candidates(target)
    return min(quotes, key=lambda rq: (rq.error, rq.params.k_in, rq.params.k_out))


def min_challenges_for(ratio: Fraction, eps: Fraction) -> int:
    """Smallest n >= 1 with ratio^n <= eps, exact rational arithmetic.  A
    zero ratio (degree bound k = 0) meets every eps >= 0 with n = 1."""
    if not 0 <= ratio < 1:
        raise ValueError(f"per-challenge error ratio must be in [0, 1), got {ratio}")
    if eps <= 0 < ratio:
        raise ValueError(f"target error must be positive, got {eps}")
    n = 1
    power = ratio
    while power > eps:
        n += 1
        power *= ratio
        if n > 10_000:
            raise ValueError("challenge count diverged; target error too small")
    return n
