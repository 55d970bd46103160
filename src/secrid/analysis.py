"""Exact information-theoretic oracles.

Everything here exists to check the closed-form accounting exactly at toy
scale: exact total variation between conditional seed-observation laws for
a given per-symbol observation channel (an integer dynamic program over the
seed directions), exact collision-entropy budgets, and exact identification
error fractions (a depth-first zero count of the difference polynomial, one
variable substituted at a time through rmid.substitution_plan, the Horner
plan evaluate_tag folds by, ~sum_j q^j C(ell - j + 1 + k, k) lookups in a
q x q multiply-add table instead of C(ell + k, k) at each of q^ell points).
Distributions are kept as exact integers or rationals end to end; floats
appear only in reported logarithms.

Conventions: total variation is the unhalved sum of absolute differences
(maximum 2), and the collision divergence D2(P||Q) = log2 sum P^2/Q of a
channel is taken at uniform input, where Q covers every output a row of
the channel reaches, so it is always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ff import TABLE_LIMIT
from .rmid import Identity, substitution_plan
from .wiretap import SecrecyParams, leakage_bound, leakage_bound_squared

# cost guard of exact_leakage: directions * |Z|^ell' * ell' * q^2 steps
STATE_SPACE_LIMIT = 100_000_000


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact probability")


# ---------------------------------------------------------------------------
# channels

@dataclass(frozen=True)
class ChannelModel:
    """Per-symbol observation channel: rows are inputs 0..q-1, columns are
    outputs (an erasure channel has one extra output, the erasure mark)."""

    kind: str
    q: int
    matrix: tuple[tuple[Fraction, ...], ...]
    delta: Fraction | None = None

    def __post_init__(self) -> None:
        if len(self.matrix) != self.q:
            raise ValueError(f"need {self.q} rows, got {len(self.matrix)}")
        width = len(self.matrix[0])
        for row in self.matrix:
            if len(row) != width:
                raise ValueError("ragged transition matrix")
            if any(v < 0 for v in row):
                raise ValueError("negative transition probability")
            if sum(row) != 1:
                raise ValueError(f"row of {self.kind} channel sums to {sum(row)}")

    @property
    def n_outputs(self) -> int:
        return len(self.matrix[0])

    @classmethod
    def identity(cls, q: int) -> "ChannelModel":
        one, zero = Fraction(1), Fraction(0)
        rows = tuple(
            tuple(one if z == x else zero for z in range(q)) for x in range(q)
        )
        return cls("identity", q, rows)

    @classmethod
    def uniform(cls, q: int) -> "ChannelModel":
        u = Fraction(1, q)
        return cls("uniform", q, tuple(tuple(u for _ in range(q)) for _ in range(q)))

    @classmethod
    def symmetric(cls, q: int, delta) -> "ChannelModel":
        """Stays put with probability 1 - delta, otherwise uniform over the
        q - 1 other symbols; delta = (q-1)/q is the uniform channel."""
        d = _as_fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"flip probability must be in [0, 1], got {delta}")
        if q < 2:
            raise ValueError("symmetric channel needs q >= 2")
        off = d / (q - 1)
        rows = tuple(
            tuple(1 - d if z == x else off for z in range(q)) for x in range(q)
        )
        return cls("symmetric", q, rows, delta=d)

    @classmethod
    def erasure(cls, q: int, delta) -> "ChannelModel":
        """Output q is the erasure mark, hit with probability delta."""
        d = _as_fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"erasure probability must be in [0, 1], got {delta}")
        rows = tuple(
            tuple((1 - d if z == x else Fraction(0)) for z in range(q)) + (d,)
            for x in range(q)
        )
        return cls("erasure", q, rows, delta=d)

    @classmethod
    def from_matrix(cls, kind: str, matrix: Sequence[Sequence]) -> "ChannelModel":
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in matrix)
        return cls(kind, len(rows), rows)


def conditional_d2_pow(channel: ChannelModel) -> Fraction:
    """2^(D2(W || P_X W | P_X)) exactly at uniform input P_X: with output
    law py(z) = sum_x W(z | x) / q, it is sum_(x,z) W(z | x)^2 / (q py(z))."""
    py = [sum(col) for col in zip(*channel.matrix)]  # q times the output law
    return sum(
        (w * w / py[z] for row in channel.matrix for z, w in enumerate(row) if w),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# exact leakage of the hyperplane cipher

@dataclass(frozen=True)
class LeakageReport:
    q: int
    ell_prime: int
    channel_kind: str
    delta: Fraction | None
    exact_max_tv: Fraction
    exact_pairwise_tv: Fraction
    d2_pow: Fraction
    d2_bits: float
    kappa_true: float
    bound_tight: float
    bound_simplified: float

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "ell_prime": self.ell_prime,
            "channel": self.channel_kind,
            "delta": None if self.delta is None else float(self.delta),
            "exact_max_tv": float(self.exact_max_tv),
            "exact_max_tv_exact": str(self.exact_max_tv),
            "exact_pairwise_tv": float(self.exact_pairwise_tv),
            "exact_pairwise_tv_exact": str(self.exact_pairwise_tv),
            "d2_bits": self.d2_bits,
            "kappa_true": self.kappa_true,
            "bound_tight": self.bound_tight,
            "bound_simplified": self.bound_simplified,
        }

    def to_csv_row(self) -> list:
        row = self.to_json_dict()  # csv writes a None delta as an empty cell
        return [row[key] for key in LEAKAGE_CSV_HEADER]


LEAKAGE_CSV_HEADER = [
    "q",
    "ell_prime",
    "delta",
    "kappa_true",
    "exact_max_tv",
    "bound_tight",
    "bound_simplified",
]


def exact_leakage(params: SecrecyParams, channel: ChannelModel) -> LeakageReport:
    """Measure both leakage statistics of the hyperplane cipher exactly, then
    cross-check them against the closed-form bounds at the channel's true
    collision budget.

    With f(t) = sum over x with s.x = t of prod_i W(z_i | x_i), seed (s, s0)
    and message m give P(s, s0, z | m) = f(m - s0) / (|S| q^(ell'-1)).  Over
    s0 each message sees every value of f once, so the max TV is
    sum_(s,z,t) |q f(t) - sum f| / q for every message, and messages d apart
    differ by sum_(s,z,t) |f(t) - f(t + d)|, both over |S| q^(ell'-1).
    f is a convolution over GF(q), one step per coordinate with s_i != 0; a
    coordinate with s_i = 0 only scales f, by weights that sum to q over its
    z_i.  The order of the steps does not matter, so a depth-first walk over
    the pivot's 1 followed by k - 1 nonzero entries, and their observations,
    covers every (s, z), each walk of k steps standing for C(ell', k)
    directions.  Channel rows are scaled to ints by a common denominator."""
    field = params.field
    q = field.q
    if channel.q != q:
        raise ValueError(f"channel alphabet {channel.q} does not match q={q}")
    lp = params.ell_prime
    n_out = channel.n_outputs
    cost = params.direction_count * n_out ** lp * lp * q * q
    if cost > STATE_SPACE_LIMIT:
        raise ValueError(
            f"directions * |Z|^ell' * ell' * q^2 = {cost} too large for exact leakage"
        )

    mul = field.fast_ops()[1]
    scale = math.lcm(*(v.denominator for row in channel.matrix for v in row))
    w = [[int(v * scale) for v in row] for row in channel.matrix]
    back = [[field.sub(t, u) for t in range(q)] for u in range(q)]
    # a step for multiplier a and output z: f(t) -> sum_x W(z | x) f(t - a x)
    steps = [
        terms
        for a in range(1, q)
        for z in range(n_out)
        if (terms := [(back[mul(a, x)], w[x][z]) for x in range(q) if w[x][z]])
    ]
    # sums by walk length k; pair_sums[k][d] for messages d apart
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
        visit([w[x][z] for x in range(q)], 1)  # the pivot's step from t = 0

    def weighted(sums: list[int]) -> int:
        return sum(math.comb(lp, k) * (q * scale) ** (lp - k) * v for k, v in enumerate(sums))

    norm = params.seed_space_size * q ** (lp - 1) * scale ** lp
    exact_max_tv = Fraction(weighted(max_sums), q * norm)
    exact_pairwise_tv = Fraction(max(weighted(col) for col in zip(*pair_sums)), norm)

    # collision budget of the vector channel at uniform input; products
    # factorize, so the per-symbol budget is raised to ell'
    d2_pow = conditional_d2_pow(channel) ** lp
    d2_bits = math.log2(d2_pow)
    kappa_true = d2_bits / (lp * field.log2_q)

    tight_sq, _ = leakage_bound_squared(q, lp, d2_pow)
    effective_sq = min(tight_sq, Fraction(4))  # the bound is clamped at TV <= 2
    for name, stat in (("max", exact_max_tv), ("pairwise", exact_pairwise_tv)):
        if stat < 0 or stat > 2:
            raise AssertionError(f"exact {name} TV {stat} outside [0, 2]")
        if stat * stat > effective_sq:
            raise AssertionError(
                f"exact {name} TV {float(stat)} exceeds the tight bound; "
                "the closed form or the enumeration is wrong"
            )
    bounds = leakage_bound(params, d2_bits)
    return LeakageReport(
        q=q,
        ell_prime=lp,
        channel_kind=channel.kind,
        delta=channel.delta,
        exact_max_tv=exact_max_tv,
        exact_pairwise_tv=exact_pairwise_tv,
        d2_pow=d2_pow,
        d2_bits=d2_bits,
        kappa_true=kappa_true,
        bound_tight=bounds.tight,
        bound_simplified=bounds.simplified,
    )


# ---------------------------------------------------------------------------
# exact identification error

def exact_id_error(id_i: Identity, id_j: Identity) -> Fraction:
    """Exact per-challenge acceptance fraction: how many points of GF(q)^ell
    make id_j's tag match id_i's.  exact_id_error(x, x) = 1.

    The tag is linear in the coefficients, so the tags agree exactly where
    the difference polynomial vanishes.  Its zeros are counted depth-first,
    one variable at a time: for each value a of the first remaining
    variable, Horner in a folds the coefficients into a polynomial of total
    degree <= k in the variables left, and the count recurses on that.  A
    polynomial that vanishes identically holds q^(variables left) zeros
    without descending.  That is at most sum over j = 1..ell of
    q^j * C(ell - j + 1 + k, k) Horner steps instead of C(ell + k, k)
    multiply-adds per point, e.g. 25k instead of 302k at q = 7, ell = 4,
    k = 5, in memory of ell coefficient vectors.  Each step is one lookup,
    steps[a][acc][c] = a * acc + c, in tables of q^2 entries built once per
    call, so q is limited to 1024 (q^2 <= ff.TABLE_LIMIT)."""
    if id_i.params != id_j.params:
        raise ValueError("identities use different code parameters")
    params = id_i.params
    field = params.field
    q = field.q
    if q ** params.ell > 10_000_000:
        raise ValueError(f"q^ell = {q ** params.ell} too large to enumerate")
    if q * q > TABLE_LIMIT:
        raise ValueError(f"q^2 = {q * q} too large for the Horner step tables")
    add, mul = field.fast_ops()
    plan = substitution_plan(params.ell, params.k)
    last = len(plan) - 1
    sums = [[add(y, c) for c in range(q)] for y in range(q)]
    # steps[a][x] = sums[a * x]: rows shared, not copied
    steps = [[sums[mul(a, x)] for x in range(q)] for a in range(q)]

    def zeros(poly: list[int], depth: int) -> int:
        vanished = q ** (last - depth)  # points left below this variable
        hits = 0
        for step in steps:  # one value a of this variable
            folded = []
            for top, rest in plan[depth]:
                acc = poly[top]
                for i in rest:
                    acc = step[acc][poly[i]]
                folded.append(acc)
            if not any(folded):
                hits += vanished
            elif depth < last:
                hits += zeros(folded, depth + 1)
        return hits

    diff = [field.sub(a, b) for a, b in zip(id_i.coeffs, id_j.coeffs)]
    return Fraction(zeros(diff, 0), q ** params.ell)
