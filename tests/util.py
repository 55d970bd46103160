"""Deterministic stand-ins for random.Random used by the sampling tests,
table-free and table-built fields, a checked dot product, the tag of the
two-layer Reed-Solomon baseline, whose error quote is all the library needs,
a per-monomial tag, the Horner plan by dict lookup, a per-point sweep for
the identification error, the rows of the named observation channels,
exact leakage by a depth-first walk, the seed pivot by a running sum of
direction blocks, Rabin's irreducibility test, and the closed forms and
the byte inverse that only the tests call."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

from secrid.analysis import ChannelModel
from secrid.ff import Field, _int_digits, _poly_gcd, _powmod, _trim, factorize, field_for
from secrid.rmid import IdCodeParams, Identity, monomial_exponents
from secrid.rsid import RsIdParams, epsilon_2rs, min_challenges_for
from secrid.wiretap import SecrecyParams


def table_free(p: int, m: int) -> Field:
    """A GF(p^m) fixed on its digit pair, so it never builds tables."""
    field = Field(p, m)
    field._ops = field._digits
    return field


def table_built(p: int, m: int) -> Field:
    """A fresh GF(p^m) with its tables built."""
    field = Field(p, m)
    field.fast_ops()
    return field


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

    The field sampler draws each base-p digit as getrandbits(p.bit_length())
    and draws again while the value is >= p.  The counter reduced mod 2^k,
    with the values >= p skipped, still runs through the digits 0 .. p-1 in
    order, so on a prime field q consecutive samples hit every element
    exactly once, which makes 'each element hit once' assertions trivial.
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


def dot(field: Field, u: Sequence[int], v: Sequence[int]) -> int:
    """sum u_i v_i with checked field ops."""
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


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
# Reed-Muller tag term by term, the Horner plan by lookup, and the
# identification error by evaluating the difference tag at every point
# (oracles for secrid.rmid.evaluate_tag, secrid.rmid.substitution_plan and
# secrid.analysis.exact_id_error; the first and last are independent of the
# plan that both functions share)


def tag_by_monomials(identity: Identity, r: Sequence[int]) -> int:
    """sum over the layout of c * prod r_j^e_j, with checked field ops."""
    params = identity.params
    field = params.field
    acc = 0
    for c, exps in zip(identity.coeffs, monomial_exponents(params.ell, params.k)):
        term = c
        for rj, e in zip(r, exps):
            term = field.mul(term, field.pow(rj, e))
        acc = field.add(acc, term)
    return acc


def substitution_plan_by_lookup(ell: int, k: int) -> tuple:
    """secrid.rmid.substitution_plan found by looking every monomial up in a
    dict of its level's layout, instead of counting where it sits."""
    plan = []
    for nvars in range(ell, 0, -1):
        index = {e: i for i, e in enumerate(monomial_exponents(nvars, k))}
        tails = monomial_exponents(nvars - 1, k) if nvars > 1 else [()]
        groups = []
        for tail in tails:
            group = [index[(e,) + tail] for e in range(k - sum(tail), -1, -1)]
            groups.append((group[0], tuple(group[1:])))
        plan.append(tuple(groups))
    return tuple(plan)


def id_error_by_sweep(id_i: Identity, id_j: Identity) -> Fraction:
    params = id_i.params
    field = params.field
    q = field.q
    diff = Identity(
        params, tuple(field.sub(a, b) for a, b in zip(id_i.coeffs, id_j.coeffs))
    )
    points = product(range(q), repeat=params.ell)
    hits = sum(1 for r in points if tag_by_monomials(diff, r) == 0)
    return Fraction(hits, q ** params.ell)


# ---------------------------------------------------------------------------
# the rows of a named channel (the reference for the closed forms a named
# ChannelModel takes from its kind, q and delta, and what the walk oracles
# read through from_matrix)


def channel_rows(channel: ChannelModel) -> tuple[tuple[Fraction, ...], ...]:
    """channel's Fraction rows: its matrix, or a named channel's built from
    (kind, q, delta): 1 - d at x and d / (q - 1) elsewhere in the symmetric
    family (d = 0 for identity, (q - 1)/q for uniform), and 1 - d at x and
    d at the erasure mark q for erasure."""
    if channel.matrix is not None:
        return channel.matrix
    q, d = channel.q, channel.delta
    if channel.kind == "erasure":
        zero = Fraction(0)
        return tuple(tuple(1 - d if z == x else zero for z in range(q)) + (d,) for x in range(q))
    d = {"identity": Fraction(0), "uniform": Fraction(q - 1, q)}.get(channel.kind, d)
    off = d / (q - 1)
    return tuple(tuple(1 - d if z == x else off for z in range(q)) for x in range(q))


def with_rows(channel: ChannelModel) -> ChannelModel:
    """channel as from_matrix of its rows, the form the walk reads."""
    if channel.matrix is not None:
        return channel
    return ChannelModel.from_matrix(channel.kind, channel_rows(channel))


# ---------------------------------------------------------------------------
# exact leakage by a depth-first walk over every ordered sequence of steps
# (oracle for secrid.analysis.exact_leakage, which merges equal steps and
# walks each distinct f vector once)


def leakage_by_walk(params: SecrecyParams, channel: ChannelModel) -> tuple[Fraction, Fraction]:
    """(max TV, pairwise TV) of the hyperplane cipher: f(t) -> sum_x W(z | x)
    f(t - a x) for every multiplier a and output z, in every order, from the
    pivot's step, with the pair sum taken for every d."""
    field = params.field
    q = field.q
    lp = params.ell_prime
    n_out = channel.n_outputs
    mul = field.fast_ops()[1]
    rows = channel_rows(channel)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    w = [[int(v * scale) for v in row] for row in rows]
    back = [[field.sub(t, u) for t in range(q)] for u in range(q)]
    steps = [
        terms
        for a in range(1, q)
        for z in range(n_out)
        if (terms := [(back[mul(a, x)], w[x][z]) for x in range(q) if w[x][z]])
    ]
    max_sums = [0] * (lp + 1)
    pair_sums = [[0] * q for _ in range(lp + 1)]

    def visit(f: list[int], k: int) -> None:
        total = sum(f)
        max_sums[k] += sum(abs(q * v - total) for v in f)
        pair = pair_sums[k]
        for d in range(1, q):
            pair[d] += sum(abs(v - f[i]) for v, i in zip(f, back[d]))
        if k < lp:
            for (idx, wz), *rest in steps:
                g = [wz * f[i] for i in idx]
                for idx, wz in rest:
                    g = [v + wz * f[i] for v, i in zip(g, idx)]
                visit(g, k + 1)

    for z in range(n_out):
        visit([w[x][z] for x in range(q)], 1)

    def weighted(sums: list[int]) -> int:
        return sum(math.comb(lp, k) * (q * scale) ** (lp - k) * v for k, v in enumerate(sums))

    norm = params.seed_space_size * q ** (lp - 1) * scale ** lp
    return (
        Fraction(weighted(max_sums), q * norm),
        Fraction(max(weighted(col) for col in zip(*pair_sums)), norm),
    )


def pivot_by_running_sum(q: int, u: int) -> int:
    """The 0-based seed pivot for the draw u: the j with
    (q^j - 1)/(q - 1) <= u < (q^(j+1) - 1)/(q - 1), found by adding the
    q^j direction blocks one at a time."""
    pivot = 0
    cumulative = 1  # (q^1 - 1)/(q - 1)
    block = 1
    while cumulative <= u:
        block *= q
        cumulative += block
        pivot += 1
    return pivot


# ---------------------------------------------------------------------------
# Rabin's irreducibility test (oracle for secrid.ff.find_irreducible, whose
# distinct-degree search must pick the first candidate this test passes)


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's criterion: x^(p^m) == x mod f and gcd(x^(p^(m/r)) - x, f) = 1
    for every prime r dividing m, for a monic f.  The canonical integer of
    x is p."""
    f = _trim(list(f))
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if _powmod(p, p ** m, f, p) != p:
        return False
    for r in factorize(m):
        g_minus_x = list(_int_digits(_powmod(p, p ** (m // r), f, p), p, m))
        g_minus_x[1] = (g_minus_x[1] - 1) % p
        if len(_poly_gcd(_trim(g_minus_x), f, p)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms and the byte inverse that no program path calls


def identity_to_bytes(identity: Identity) -> bytes:
    """Inverse of secrid.rmid.identity_from_bytes: the minimal big-endian
    encoding of the base-q value.  Round-trips exactly on admissible
    inputs: byte strings without a leading zero byte (the empty string
    encodes the all-zero identity)."""
    q = identity.params.field.q
    value = 0
    for d in identity.coeffs:
        value = value * q + d
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def error_bound(params: IdCodeParams) -> Fraction:
    """Exact false-accept bound (k/q)^n for distinct identities: two distinct
    degree-<=k polynomials agree on at most a k/q fraction of points, and
    challenges are independent."""
    return Fraction(params.k, params.field.q) ** params.n_challenges


def required_rm_challenges(target: IdCodeParams) -> int:
    """Smallest n with (k/q)^n at or below the layered baseline's error."""
    eps = epsilon_2rs(target).error
    return min_challenges_for(Fraction(target.k, target.field.q), eps)
