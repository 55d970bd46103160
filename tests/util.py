"""Deterministic stand-ins for random.Random used by the sampling tests,
the tag of the two-layer Reed-Solomon baseline, whose error quote is all
the library needs, and a per-point sweep for the identification error."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from secrid.ff import Field, field_for
from secrid.rmid import Identity, evaluate_tag
from secrid.rsid import RsIdParams


class ScriptedSource:
    """Replays a fixed list of draws.

    randrange(n) pops the next value and checks it is in range; getrandbits(m)
    does the same against 2**m.  Running past the script is an error, as is
    leaving draws unconsumed when the caller asserts exhaustion.
    """

    def __init__(self, draws):
        self._draws = list(draws)
        self._next = 0

    def _pop(self, bound: int) -> int:
        if self._next >= len(self._draws):
            raise AssertionError("scripted source ran out of draws")
        value = self._draws[self._next]
        self._next += 1
        if not 0 <= value < bound:
            raise AssertionError(f"scripted draw {value} outside [0, {bound})")
        return value

    def randrange(self, bound: int) -> int:
        return self._pop(bound)

    def getrandbits(self, bits: int) -> int:
        return self._pop(1 << bits)

    @property
    def exhausted(self) -> bool:
        return self._next == len(self._draws)


class CountingSource:
    """Cycles 0, 1, 2, ... reduced into whatever range is requested.

    With a single randrange(q) call per sample this visits every residue
    exactly once per q consecutive samples, which makes 'each element hit
    once' assertions trivial.
    """

    def __init__(self, start: int = 0):
        self._counter = start

    def _next(self) -> int:
        value = self._counter
        self._counter += 1
        return value

    def randrange(self, bound: int) -> int:
        return self._next() % bound

    def getrandbits(self, bits: int) -> int:
        return self._next() % (1 << bits)


# ---------------------------------------------------------------------------
# two-layer Reed-Solomon tag (oracle for the union bound in secrid.rsid)


def rs_outer_field(params: RsIdParams) -> Field:
    """GF(q^k_in), realized as GF(p^(m*k_in))."""
    return field_for(params.field.p, params.field.m * params.k_in)


def split_outer_symbol(params: RsIdParams, y: int) -> tuple[int, ...]:
    """GF(q^k_in) -> GF(q)^k_in: the base-p digits of y in k_in groups of m,
    low group first, i.e. the base-q digits of the canonical integer."""
    q = params.field.q
    out = []
    for _ in range(params.k_in):
        y, c = divmod(y, q)
        out.append(c)
    return tuple(out)


def horner(field: Field, coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def rs_tag(params: RsIdParams, outer_coeffs: Sequence[int], r1: int, r2: int) -> int:
    """The outer polynomial at r1 in GF(q^k_in), split into k_in inner
    coefficients, evaluated at r2 in GF(q)."""
    if len(outer_coeffs) != params.k_out:
        raise ValueError(f"expected {params.k_out} outer coefficients")
    y = horner(rs_outer_field(params), outer_coeffs, r1)
    return horner(params.field, split_outer_symbol(params, y), r2)


# ---------------------------------------------------------------------------
# identification error by evaluating the difference tag at every point
# (oracle for secrid.analysis.exact_id_error)


def id_error_by_sweep(id_i: Identity, id_j: Identity) -> Fraction:
    params = id_i.params
    field = params.field
    q = field.q
    diff = Identity(
        params, tuple(field.sub(a, b) for a, b in zip(id_i.coeffs, id_j.coeffs))
    )
    hits = sum(
        1 for r in product(range(q), repeat=params.ell) if evaluate_tag(diff, r) == 0
    )
    return Fraction(hits, q ** params.ell)
