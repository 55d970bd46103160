"""Exact information-theoretic oracles.

Everything here exists to check the closed-form accounting exactly at toy
scale: exact total variation between conditional seed-observation laws for
a given per-symbol observation channel (an integer dynamic program over the
seed directions, level by level, each distinct convolved f once with its
count), exact collision-entropy budgets, and exact identification error
fractions (a zero count of the difference polynomial, one variable
substituted at a time through rmid.substitution_plan, the Horner plan
evaluate_tag folds by, with lookups in a q x q multiply-add table built
once per field: for q <= 16 every level below the first runs for all
prefixes at once on byte vectors, one bytes.translate per Horner step;
above 16 a depth-first walk takes ~sum_j q^j C(ell - j + 1 + k, k)
lookups instead of C(ell + k, k) at each of q^ell points).
Distributions are kept as exact integers or rationals end to end; floats
appear only in reported logarithms.

Conventions: total variation is the unhalved sum of absolute differences
(maximum 2), and the collision divergence D2(P||Q) = log2 sum P^2/Q of a
channel is taken at uniform input, where Q covers every output a row of
the channel reaches, so it is always finite.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Sequence

from .ff import TABLE_LIMIT, Field
from .rmid import Identity, Record, substitution_plan
from .wiretap import SecrecyParams, leakage_bound, leakage_bound_squared

# cost guard of exact_leakage: the most steps leakage_steps allows
STATE_SPACE_LIMIT = 100_000_000


# ---------------------------------------------------------------------------
# channels

class ChannelModel(Record):
    """Per-symbol observation channel: rows are inputs 0..q-1, columns are
    outputs (an erasure channel has one extra output, the erasure mark)."""

    def __init__(
        self, kind: str, q: int, matrix: tuple[tuple[Fraction, ...], ...],
        delta: Fraction | None = None,
    ) -> None:
        self.__dict__.update(kind=kind, q=q, matrix=matrix, delta=delta)
        if len(matrix) != q:
            raise ValueError(f"need {q} rows, got {len(matrix)}")
        if not matrix:
            raise ValueError("the channel needs at least one input")
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise ValueError("ragged transition matrix")
            if any(v < 0 for v in row):
                raise ValueError("negative transition probability")
            if sum(row) != 1:
                raise ValueError(f"row of {kind} channel sums to {sum(row)}")

    @property
    def n_outputs(self) -> int:
        return len(self.matrix[0])

    @classmethod
    def identity(cls, q: int) -> "ChannelModel":
        return cls("identity", q, cls.symmetric(q, 0).matrix)

    @classmethod
    def uniform(cls, q: int) -> "ChannelModel":
        return cls("uniform", q, cls.symmetric(q, Fraction(q - 1, q)).matrix)

    @classmethod
    def symmetric(cls, q: int, delta) -> "ChannelModel":
        """Stays put with probability 1 - delta, otherwise uniform over the
        q - 1 other symbols; delta = (q-1)/q is the uniform channel."""
        d = Fraction(delta)
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
        d = Fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"erasure probability must be in [0, 1], got {delta}")
        rows = tuple(
            tuple((1 - d if z == x else Fraction(0)) for z in range(q)) + (d,)
            for x in range(q)
        )
        return cls("erasure", q, rows, delta=d)

    @classmethod
    def from_matrix(cls, kind: str, matrix: Sequence[Sequence]) -> "ChannelModel":
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        return cls(kind, len(rows), rows)


def _scaled(channel: ChannelModel) -> tuple[int, list[list[int]]]:
    """The channel's rows scaled to ints by the common denominator."""
    scale = math.lcm(*(v.denominator for row in channel.matrix for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in channel.matrix]


def conditional_d2_pow(channel: ChannelModel) -> Fraction:
    """2^(D2(W || P_X W | P_X)) exactly at uniform input P_X: with output
    law py(z) = sum_x W(z | x) / q, it is sum_(x,z) W(z | x)^2 / (q py(z)),
    summed over the integer-scaled columns into one Fraction."""
    return _d2_pow(*_scaled(channel))


def _d2_pow(scale: int, w: list[list[int]]) -> Fraction:
    """conditional_d2_pow of the channel _scaled gives (scale, w)."""
    cols = [(sum(col), sum(v * v for v in col)) for col in zip(*w) if any(col)]
    common = math.lcm(*(py for py, _ in cols))
    return Fraction(sum(sq * (common // py) for py, sq in cols), scale * common)


# ---------------------------------------------------------------------------
# exact leakage of the hyperplane cipher

class LeakageReport(Record):
    def __init__(
        self, q: int, ell_prime: int, channel_kind: str, delta: Fraction | None,
        exact_max_tv: Fraction, exact_pairwise_tv: Fraction, d2_pow: Fraction,
        d2_bits: float, kappa_true: float, bound_tight: float, bound_simplified: float,
    ) -> None:
        self.__dict__.update(
            q=q, ell_prime=ell_prime, channel_kind=channel_kind, delta=delta,
            exact_max_tv=exact_max_tv, exact_pairwise_tv=exact_pairwise_tv,
            d2_pow=d2_pow, d2_bits=d2_bits, kappa_true=kappa_true,
            bound_tight=bound_tight, bound_simplified=bound_simplified,
        )

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


def leakage_steps(params: SecrecyParams, n_outputs: int) -> int:
    """Integer steps exact_leakage takes at most through a channel of
    n_outputs outputs, directions * |Z|^ell' * ell' * q^2; more than
    STATE_SPACE_LIMIT are refused, by bit length first, so a huge ell' is
    refused without forming its power."""
    q = params.field.q
    lp = params.ell_prime
    # directions >= q^(ell' - 1), so steps >= 2^bits
    bits = (lp + 1) * (q.bit_length() - 1) + lp * (n_outputs.bit_length() - 1)
    if bits < STATE_SPACE_LIMIT.bit_length():
        steps = params.direction_count * n_outputs ** lp * lp * q * q
        if steps <= STATE_SPACE_LIMIT:
            return steps
        bits = steps.bit_length() - 1
    raise ValueError(
        f"directions * |Z|^ell' * ell' * q^2 >= 2^{bits} too large for exact leakage"
    )


def exact_leakage(params: SecrecyParams, channel: ChannelModel) -> LeakageReport:
    """Measure both leakage statistics of the hyperplane cipher exactly, then
    cross-check them against the closed-form bounds at the channel's true
    collision budget.

    With f(t) = sum over x with s.x = t of prod_i W(z_i | x_i), seed (s, s0)
    and message m give P(s, s0, z | m) = f(m - s0) / (|S| q^(ell'-1)).  Over
    s0 each message sees every value of f once, so the max TV is
    sum_(s,z,t) |q f(t) - sum f| / q for every message, and messages d apart
    differ by sum_(s,z,t) |f(t) - f(t + d)|, both over |S| q^(ell'-1); d and
    -d give the same sum.  f is a convolution over GF(q), one step per
    coordinate with s_i != 0; a coordinate with s_i = 0 only scales f, by
    weights that sum to q over its z_i.  The step of multiplier a and output
    z convolves with the kernel h(a x) = W(z | x); equal kernels merge, with
    a count.  Steps commute, so f after the pivot's 1 and k - 1 nonzero
    entries (C(ell', k) directions each) depends only on the multiset of
    steps: the walk goes level by level in k, each distinct f once with how
    many walks reach it.  A constant added to f adds a constant to every f
    below it and changes no sum, so each step drops low = min h:
    g(t) = sum_u (h(u) - low) f(t - u), one term on a symmetric channel,
    whose steps merge to q kernels.  Rows are scaled to ints by a common
    denominator; each sum over t is one map pipeline (_leakage_tables)."""
    field = params.field
    q = field.q
    if channel.q != q:
        raise ValueError(f"channel alphabet {channel.q} does not match q={q}")
    lp = params.ell_prime
    n_out = channel.n_outputs
    leakage_steps(params, n_out)

    scale, w = _scaled(channel)
    shifts, half, solve = _leakage_tables(field)
    # kernels h(u) = W(z | x) at u = a x, by the x that solve a x = u
    kernels = Counter(tuple(col[x] for x in xs) for xs in solve for col in zip(*w))
    steps = []  # (terms (f -> f(. - u), h(u) - low), how many (a, z) share h)
    for h, count in kernels.items():
        low = min(h)
        if terms := [(shifts[u], v - low) for u, v in enumerate(h) if v > low]:
            steps.append((terms, count))  # a constant h leaves nothing to sum
    # sums by walk length k; pair_sums[k][d] for messages d apart
    max_sums = [0] * (lp + 1)
    pair_sums = [[0] * q for _ in range(lp + 1)]

    level = Counter(zip(*w))  # the pivot's step from t = 0: f = W(z | .)
    for k in range(1, lp + 1):
        pair = pair_sums[k]
        below = defaultdict(int)
        for f, walks in level.items():
            total = sum(f)
            max_sums[k] += walks * sum(map(abs, map(sub, map(q.__mul__, f), repeat(total, q))))
            for d, shift in half:
                pair[d] += walks * sum(map(abs, map(sub, f, shift(f))))
            if k == lp:
                continue
            for ((shift, wt), *rest), count in steps:
                g = map(wt.__mul__, shift(f))
                for shift, wt in rest:
                    g = map(add, g, map(wt.__mul__, shift(f)))
                below[tuple(g)] += walks * count
        level = below

    def weighted(sums: list[int]) -> int:
        return sum(math.comb(lp, k) * (q * scale) ** (lp - k) * v for k, v in enumerate(sums))

    norm = params.seed_space_size * q ** (lp - 1) * scale ** lp
    exact_max_tv = Fraction(weighted(max_sums), q * norm)
    exact_pairwise_tv = Fraction(max(weighted(col) for col in zip(*pair_sums)), norm)

    # collision budget of the vector channel at uniform input; products
    # factorize, so the per-symbol budget is raised to ell'
    d2_pow = _d2_pow(scale, w) ** lp
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


@lru_cache(maxsize=None)
def _leakage_tables(field: Field) -> tuple[list[itemgetter], list[tuple], list[list[int]]]:
    """exact_leakage's tables, once per field: shifts[u] = itemgetter(*back[u])
    with back[u][t] = t - u, so shifts[u](f) is f(. - u) in one C call; half,
    the (d, shifts[d]) with d <= -d; solve[a - 1], the x sorted by a x."""
    plus, times = field.fast_ops()
    q = field.q
    back = [[plus(t, times(field.p - 1, u)) for t in range(q)] for u in range(q)]
    shifts = [itemgetter(*row) for row in back]
    half = [(d, shifts[d]) for d in range(1, q) if d <= back[d][0]]
    solve = [sorted(range(q), key=lambda x, a=a: times(a, x)) for a in range(1, q)]
    return shifts, half, solve


# ---------------------------------------------------------------------------
# exact identification error

def exact_id_error(id_i: Identity, id_j: Identity) -> Fraction:
    """Exact per-challenge acceptance fraction: how many points of GF(q)^ell
    make id_j's tag match id_i's.  exact_id_error(x, x) = 1, returned before
    any table is built.

    The tag is linear in the coefficients, so the tags agree exactly where
    the difference polynomial vanishes.  Its zeros are counted one variable
    at a time: for each value a of the first variable, Horner in a (_fold)
    folds the coefficients into a polynomial of total degree <= k in the
    variables left.  Each Horner step is one lookup,
    steps[a][acc][c] = a * acc + c, in tables of q^2 entries built once per
    field, so q is limited to 1024 (q^2 <= ff.TABLE_LIMIT); the difference
    a - b is steps[-1][b][a] from the same tables.  q alone picks the
    counter below the first variable: for q <= 16 a pair (acc, c) fits one
    byte, and _byte_zeros counts every deeper level for all q folds at once
    on byte vectors; above 16, _walk_zeros counts depth-first."""
    params = id_i.params
    if id_j.params != params:
        raise ValueError("identities use different code parameters")
    field = params.field
    q, ell = field.q, params.ell
    bits = ell * (q.bit_length() - 1)  # q^ell >= 2^bits; past 2^64 it is not formed
    if bits >= 64:
        raise ValueError(f"q^ell = {q}^{ell} >= 2^{bits} too large to enumerate")
    if q ** ell > 10_000_000:
        raise ValueError(f"q^ell = {q ** ell} too large to enumerate")
    if q * q > TABLE_LIMIT:
        raise ValueError(f"q^2 = {q * q} too large for the Horner step tables")
    if id_i.coeffs == id_j.coeffs:  # canonical, so the difference is 0
        return Fraction(1)
    plan = substitution_plan(ell, params.k)
    steps, tables = _step_tables(field)
    minus = steps[field.p - 1]  # minus[b][a] = -b + a; p - 1 is -1
    diff = [minus[b][a] for a, b in zip(id_i.coeffs, id_j.coeffs)]
    if tables is None:
        hits = _walk_zeros(diff, plan, steps)
    else:
        hits = _byte_zeros([_fold(diff, plan[0], step) for step in steps], plan[1:], tables)
    return Fraction(hits, q ** ell)


@lru_cache(maxsize=None)
def _step_tables(field: Field) -> tuple[list[list[list[int]]], list[bytes] | None]:
    """exact_id_error's tables, once per field: steps[a][x] = sums[a * x],
    sums[y][c] = y + c, sharing rows and ints (17 MiB at q = 1024, not 41),
    and for q <= 16 _byte_zeros' tables[a][x * q + c] = a * x + c."""
    plus, times = field.fast_ops()
    ints = list(range(field.q))
    sums = [[ints[plus(y, c)] for c in ints] for y in ints]
    steps = [[sums[times(a, x)] for x in ints] for a in ints]
    if field.q > 16:
        return steps, None
    return steps, [b"".join(map(bytes, step)).ljust(256, b"\0") for step in steps]


def _fold(poly: list[int], groups: tuple, step: list) -> list[int]:
    """poly at one value a of its first variable, step[acc][c] = a * acc + c:
    Horner over each group (top, rest) of substitution_plan, one coefficient
    per group in the variables left."""
    folded = []
    for top, rest in groups:
        acc = poly[top]
        for i in rest:
            acc = step[acc][poly[i]]
        folded.append(acc)
    return folded


def _walk_zeros(poly: list[int], plan: tuple, steps: list) -> int:
    """Zeros of poly in the len(plan) variables plan folds, depth-first: at
    each value of the first variable, a fold that vanishes identically holds
    q^(variables left) zeros without descending, and a nonzero constant
    holds none.  At most sum over j = 1..ell of q^j * C(ell - j + 1 + k, k)
    Horner steps instead of C(ell + k, k) multiply-adds per point, e.g. 25k
    instead of 302k at q = 7, ell = 4, k = 5, in memory of ell coefficient
    vectors."""
    if not plan:
        return 0
    vanished = len(steps) ** (len(plan) - 1)
    hits = 0
    for step in steps:  # one value a of this variable
        folded = _fold(poly, plan[0], step)
        hits += _walk_zeros(folded, plan[1:], steps) if any(folded) else vanished
    return hits


def _byte_zeros(folds: list[list[int]], plan: tuple, tables: list[bytes]) -> int:
    """Zeros below the q folds of the first variable, q <= 16: each
    coefficient becomes a bytes vector over the values of the variables
    folded so far, and one Horner step for all of them at a = a value of
    the next variable is
        (int(acc) * q + int(c)).to_bytes(n).translate(tables[a]),
    with tables[a][acc * q + c] = a * acc + c.  acc * q + c < q^2 <= 256
    carries into no other byte.  Each level joins its q folds into vectors
    q times longer; the last holds one element per point, in memory of up
    to about 4 q^ell bytes.  With no level left (ell = 1) the count is of
    the zeros among the q constants."""
    q = len(folds)
    from_bytes = int.from_bytes
    vectors = [bytes(column) for column in zip(*folds)]
    for groups in plan:
        n = len(vectors[0])
        ints = [from_bytes(v, "big") for v in vectors]
        folds = []
        for table in tables:  # one value a of this variable
            fold = []
            for top, rest in groups:
                acc = vectors[top]
                for i in rest:
                    acc = (from_bytes(acc, "big") * q + ints[i]).to_bytes(n, "big").translate(table)
                fold.append(acc)
            folds.append(fold)
        vectors = [b"".join(column) for column in zip(*folds)]
    return vectors[0].count(0)
