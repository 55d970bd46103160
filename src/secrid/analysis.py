"""Exact information-theoretic oracles.

Everything here exists to check the closed-form accounting exactly at toy
scale: exact total variation between conditional seed-observation laws for
a given per-symbol observation channel (a closed form in O(1) powers on a
spike channel, each column a constant plus one spike, as the four named
channels, which keep no matrix, are; on every other channel an integer
dynamic program over the seed directions, level by level, one convolved f
per class of translates, which share every sum, with its count; each is
charged by leakage_work for what it runs), exact collision-entropy
budgets, and exact identification error fractions (a zero count of the
difference polynomial, one variable substituted at a time through
rmid.substitution_plan, the Horner plan evaluate_tag folds by, with
lookups in a q x q multiply-add table built once per field: for q <= 16
on byte vectors, the first two variables at all their values at once in
byte lanes, one or two bytes.translate per Horner step; above 16 a
depth-first walk takes ~sum_j q^j C(ell - j + 1 + k, k) lookups instead
of C(ell + k, k) at each of q^ell points).
Distributions are kept as exact integers or rationals end to end; floats
appear only in reported logarithms.

Conventions: total variation is the unhalved sum of absolute differences
(maximum 2), and the collision divergence D2(P||Q) = log2 sum P^2/Q of a
channel is taken at uniform input, where Q covers every output a row of
the channel reaches, so it is always finite.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter, mul, sub
from typing import Iterator, Sequence

from .ff import TABLE_LIMIT, Field
from .rmid import Identity, Record, substitution_plan
from .wiretap import SecrecyParams, _log2_ratio, leakage_bound, leakage_bound_squared

# cost guard of exact_leakage: the most work units leakage_work allows, ~5 s
WORK_LIMIT = 40_000_000


# ---------------------------------------------------------------------------
# channels

class ChannelModel(Record):
    """Per-symbol observation channel: rows are inputs 0..q-1, columns are
    outputs (an erasure channel has one extra output, the erasure mark).

    Each keeps scale, the lcm of the entries' denominators; n_outputs;
    d2_pow, 2^(D2(W || P_X W | P_X)) exactly at uniform input P_X: with
    py(z) = sum_x W(z | x) / q, sum_(x,z) W(z | x)^2 / (q py(z)); and
    spike_sum, sum_z |b_z| when every scaled column is a constant plus one
    spike, c_z + b_z [x = x_z] (b_z = 0 for a constant column), else None.
    A named channel is its (kind, q, delta), matrix None, and takes them in
    closed form, O(1) in q, so leakage_work charges it the closed form's
    powers alone.  A from_matrix channel's constructor scans its rows once
    for them and keeps scaled, the rows times scale as ints, for the walk it
    is charged for."""

    def __init__(
        self, kind: str, q: int, matrix: tuple[tuple[Fraction, ...], ...] | None,
        delta: Fraction | None = None,
    ) -> None:
        self.__dict__.update(kind=kind, q=q, matrix=matrix, delta=delta)
        if matrix is None:  # named: 1 - d at x, off elsewhere, erasure's d at q
            erasure = kind == "erasure"
            if q < (1 if erasure else 2):
                raise ValueError("the channel needs at least one input" if erasure
                                 else "symmetric channel needs q >= 2")
            d = {"identity": Fraction(0), "uniform": Fraction(q - 1, q)}.get(kind, delta)
            keep, off = 1 - d, Fraction(0) if erasure else d / (q - 1)
            scale = math.lcm(keep.denominator, off.denominator)
            self.__dict__.update(
                scale=scale, n_outputs=q + erasure, spike_sum=int(q * scale * abs(keep - off)),
                d2_pow=q * keep + d if erasure else q * (keep * keep + d * off),
            )
            return
        if len(matrix) != q:
            raise ValueError(f"need {q} rows, got {len(matrix)}")
        if not matrix:
            raise ValueError("the channel needs at least one input")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ValueError("ragged transition matrix")
        scale = math.lcm(*{v.denominator for row in matrix for v in row})
        scaled = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in matrix)
        for row in scaled:
            if any(v < 0 for v in row):
                raise ValueError("negative transition probability")
            if sum(row) != scale:
                raise ValueError(f"row of {kind} channel sums to {Fraction(sum(row), scale)}")
        cols, spike_sum = [], 0
        for col in zip(*scaled):
            if spike_sum is not None:  # c + b [x = x_z]: all but one entry equal, |b| = hi - lo
                lo, hi = min(col), max(col)
                spiked = col.count(lo) >= q - 1 or col.count(hi) >= q - 1
                spike_sum = spike_sum + hi - lo if spiked else None
            if any(col):
                cols.append((sum(col), sum(v * v for v in col)))
        common = math.lcm(*(py for py, _ in cols))
        d2_pow = Fraction(sum(sq * (common // py) for py, sq in cols), scale * common)
        self.__dict__.update(
            scale=scale, scaled=scaled, n_outputs=width, d2_pow=d2_pow, spike_sum=spike_sum,
        )

    @classmethod
    def identity(cls, q: int) -> "ChannelModel":
        return cls("identity", q, None)

    @classmethod
    def uniform(cls, q: int) -> "ChannelModel":
        return cls("uniform", q, None)

    @classmethod
    def symmetric(cls, q: int, delta) -> "ChannelModel":
        """Stays put with probability 1 - delta, otherwise uniform over the
        q - 1 other symbols; delta = (q-1)/q is the uniform channel."""
        d = Fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"flip probability must be in [0, 1], got {delta}")
        return cls("symmetric", q, None, d)

    @classmethod
    def erasure(cls, q: int, delta) -> "ChannelModel":
        """Output q is the erasure mark, hit with probability delta."""
        d = Fraction(delta)
        if not 0 <= d <= 1:
            raise ValueError(f"erasure probability must be in [0, 1], got {delta}")
        return cls("erasure", q, None, d)

    @classmethod
    def from_matrix(cls, kind: str, matrix: Sequence[Sequence]) -> "ChannelModel":
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        return cls(kind, len(rows), rows)


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

    def to_csv_row(self) -> list:  # csv writes a None delta as an empty cell
        delta = None if self.delta is None else float(self.delta)
        return [self.q, self.ell_prime, delta, self.kappa_true, float(self.exact_max_tv),
                self.bound_tight, self.bound_simplified]

    def to_json_dict(self) -> dict:
        return {
            **dict(zip(LEAKAGE_CSV_HEADER, self.to_csv_row())),
            "channel": self.channel_kind,
            "exact_max_tv_exact": str(self.exact_max_tv),
            "exact_pairwise_tv": float(self.exact_pairwise_tv),
            "exact_pairwise_tv_exact": str(self.exact_pairwise_tv),
            "d2_bits": self.d2_bits,
        }


LEAKAGE_CSV_HEADER = [
    "q", "ell_prime", "delta", "kappa_true", "exact_max_tv", "bound_tight", "bound_simplified",
]


def leakage_work(
    params: SecrecyParams, channel: ChannelModel, pivots: int = 1, steps: Sequence | None = None,
) -> int:
    """Work units (~0.1 us) exact_leakage takes at most on params through
    channel, for what runs.  A spike channel without steps: the closed
    form, ell' + w^2 for the w 64-bit words of its ell'-th powers of ints
    below q^2 scale and the Fractions over them.  The walk, on any other
    channel or any given the walk's pivots (pivot classes) and steps
    ((terms, count) pairs; without, pivots 1 and no steps bound it from
    below): the q^2 |Z| kernel pass; ell' + 1 weights of ~ell' bits(2 q
    scale) bits; its classes, at most pivots C(S + k - 2, k - 1) at level
    k, each q per sum and, below ell', per term and key of a step, x (1 +
    ell' b^1.5 / 4096) for scale's b bits as ints grow.  Past WORK_LIMIT, or
    a report integer past the int-to-str limit: ValueError, before any
    power of q is formed."""
    q, lp, scale = params.field.q, params.ell_prime, channel.scale
    if steps is None and channel.spike_sum is not None:
        words = lp * (q * q * scale).bit_length() // 64 + 1
        work = lp + words * words  # gcds quadratic in the words dominate
    else:
        b, steps = scale.bit_length(), steps or ()
        half = q - 1 if params.field.p == 2 else (q - 1) // 2  # pair sums: d and -d give the same
        words = lp * (q * scale).bit_length() // 64 + lp // 64 + 1  # C(ell', k) < 2^ell'
        work = q * channel.n_outputs * (q + 64) + lp + (half + 2) * (lp + 1) * words * words // 32
        if work <= WORK_LIMIT:  # ell' is small enough to form the binomials
            # C(S + ell' - 1, ell' - 1) classes on all levels sum, those below ell' step
            n, taken = len(steps) + lp - 2, sum(len(terms) + 4 for terms, _ in steps)
            walk = math.comb(n + 1, lp - 1) * (q + q * half + 16) + math.comb(n, lp - 2) * q * taken
            work += pivots * walk * (1 + lp * b * math.isqrt(b) // 4096)
    if work > WORK_LIMIT:
        raise ValueError(
            f"a work bound >= 2^{work.bit_length() - 1} units, past {WORK_LIMIT}, "
            "is too large for exact leakage"
        )
    # the report's TVs are below 2 over denominators dividing q * norm
    written = 2 * q * params.seed_space_size * q ** (lp - 1) * scale ** lp
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and written.bit_length() * 30103 // 100000 + 1 > limit:  # 0.30103 > log10 2
        raise ValueError(f"the exact report would write an integer past {limit} digits")
    return work


def exact_leakage(params: SecrecyParams, channel: ChannelModel) -> LeakageReport:
    """Measure both leakage statistics of the hyperplane cipher exactly, then
    cross-check them against the closed-form bounds at the channel's true
    collision budget.  leakage_work refuses a point too large first.

    With f(t) = sum over x with s.x = t of prod_i W(z_i | x_i), seed (s, s0)
    and message m give P(s, s0, z | m) = f(m - s0) / (|S| q^(ell'-1)).  Over
    s0 each message sees every value of f once, so the max TV is
    sum_(s,z,t) |q f(t) - sum f| / q for every message, and messages d apart
    differ by sum_(s,z,t) |f(t) - f(t + d)|, both over |S| q^(ell'-1); d and
    -d give the same sum.  f is a convolution over GF(q), one step per
    coordinate with s_i != 0; a coordinate with s_i = 0 only scales f, by
    weights that sum to q over its z_i.  The step of multiplier a and output
    z convolves with the kernel h(a x) = W(z | x).  So level k, the
    directions with the pivot's 1 and k - 1 nonzero entries below it
    (C(ell', k) places for them), weighs its sums by C(ell', k)
    (q scale)^(ell' - k) in the channel's integer rows W = scaled / scale.

    A spike channel, every scaled column c_z + b_z [x = x_z] (spike_sum =
    beta = sum_z |b_z|: the CLI's four named channels, every channel with
    q = 2, a symmetric channel with an erasure column), takes a closed form.
    Each kernel is a constant plus one spike, and a spike convolved with
    c + b [t = w] is again a constant plus one spike, so every f is one,
    with |b| the product of its steps' |b_z|.  Then sum_t |q f(t) - sum f|
    = 2 (q - 1) |b| and sum_t |f(t) - f(t + d)| = 2 |b| for every d != 0,
    level k's walks sum |b| to beta ((q - 1) beta)^(k - 1), and with
    X = q scale the binomial theorem sums the levels:
        pairwise = 2 ((X + (q - 1) beta)^ell' - X^ell') / (q - 1) / norm,
        max = (q - 1) / q * pairwise,  norm = |S| q^(ell'-1) scale^ell'.
    Every other channel runs _leakage_walk."""
    field = params.field
    q = field.q
    if channel.q != q:
        raise ValueError(f"channel alphabet {channel.q} does not match q={q}")
    lp, scale = params.ell_prime, channel.scale
    leakage_work(params, channel)  # before the powers, or the kernel pass
    if channel.spike_sum is None:
        max_sum, pair_sum = _leakage_walk(params, channel)
    else:
        x = q * scale
        pair_sum = 2 * ((x + (q - 1) * channel.spike_sum) ** lp - x ** lp) // (q - 1)
        max_sum = (q - 1) * pair_sum
    norm = params.seed_space_size * q ** (lp - 1) * scale ** lp
    exact_max_tv = Fraction(max_sum, q * norm)
    exact_pairwise_tv = Fraction(pair_sum, norm)

    # collision budget of the vector channel at uniform input; products
    # factorize, so the channel's per-symbol budget is raised to ell'
    d2_pow = channel.d2_pow ** lp
    num, den = d2_pow.numerator, d2_pow.denominator  # past float range, in exponent space
    d2_bits = math.log2(d2_pow) if num < den << 1023 else _log2_ratio(num, den)
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


def _leakage_walk(params: SecrecyParams, channel: ChannelModel) -> tuple[int, int]:
    """exact_leakage's level sums on any channel, weighted and summed: the
    max TV's over q norm and the pairwise TV's over norm.  leakage_work
    refuses the walk again from the first level and the steps.

    Steps commute, so f after the pivot's 1 and k - 1 nonzero entries
    depends only on the multiset of steps: the walk goes level by level in
    k, one f per class of translates f(. + c) with how many walks reach the
    class.  That is exact: translating f changes neither sum, and
    convolution commutes with translation, so what lies below a translate
    of f, or below a translated kernel, is translated alike.  The pivot's
    columns are keyed by their greatest translate, and merge with a count;
    a translated column spreads to a translated kernel, so each class of
    columns is spread once per multiplier, and kernels merge alike; each
    child g is keyed by its translate from its first maximum, a function
    of g that is canonical when that maximum is unique.  A constant added
    to f adds a constant to every f below it and changes no sum, so each
    step drops low = min h: g(t) = sum_u (h(u) - low) f(t - u).  Each sum
    over t is one map pipeline (_leakage_tables)."""
    field = params.field
    q = field.q
    lp, scale, w = params.ell_prime, channel.scale, channel.scaled
    shifts, fronts, half, spreads = _leakage_tables(field)

    def greatest(f: tuple) -> tuple:  # the class's canonical translate
        top = max(f)
        if f.count(top) == 1:
            return fronts[f.index(top)](f)
        return max(fronts[i](f) for i, v in enumerate(f) if v == top)  # the greatest starts at top

    level = Counter(map(greatest, zip(*w)))  # the pivot's step from t = 0: f = W(z | .)
    kernels = Counter()  # h(u) = W(z | x) at u = a x, one per class, from each class of columns
    for spread in spreads:
        for col, n in level.items():
            kernels[greatest(spread(col))] += n
    steps = []  # (terms (u, times: multiply by h(u) - low), how many (a, z) share h's class)
    for h, count in kernels.items():
        low = min(h)
        if terms := [(u, (v - low).__mul__) for u, v in enumerate(h) if v > low]:
            steps.append((terms, count))  # a constant h leaves nothing to sum
    reads = {u: shifts[u] for terms, _ in steps for u, _ in terms}  # each once per f
    # sums by walk length k; pair_sums[k][i] for messages half[i]'s d apart
    max_sums = [0] * (lp + 1)
    pair_sums = [[0] * len(half) for _ in range(lp + 1)]

    leakage_work(params, channel, len(level), steps)
    for k in range(1, lp + 1):
        pair = pair_sums[k]
        below = defaultdict(int)
        for f, walks in level.items():
            total = sum(f)
            max_sums[k] += walks * sum(map(abs, map(sub, map(q.__mul__, f), repeat(total, q))))
            for i, shift in enumerate(half):
                pair[i] += walks * sum(map(abs, map(sub, f, shift(f))))
            if k == lp:
                continue
            moved = {u: read(f) for u, read in reads.items()}  # f(. - u)
            for ((u, times), *rest), count in steps:
                g = map(times, moved[u])
                for u, times in rest:
                    g = map(add, g, map(times, moved[u]))
                g = tuple(g)  # keyed by its translate from its first maximum
                below[fronts[g.index(max(g))](g)] += walks * count
        level = below

    # C(ell', k) (q scale)^(ell' - k), from k = ell' down: one multiply and
    # one exact divide each, C(ell', k - 1) = C(ell', k) k / (ell' - k + 1)
    weights = [1]
    for k in range(lp, 0, -1):
        weights.append(weights[-1] * (q * scale * k) // (lp - k + 1))
    weights.reverse()
    pair_sum = max(sum(map(mul, weights, col)) for col in zip(*pair_sums))
    return sum(map(mul, weights, max_sums)), pair_sum


@lru_cache(maxsize=None)
def _leakage_tables(field: Field) -> tuple[list[itemgetter], ...]:
    """exact_leakage's getters, once per field, each taking f in one C call:
    shifts[u](f) = f(. - u), by back[u][t] = t - u; fronts[c] = shifts[-c],
    f(. + c); half, the shifts[d] with d <= -d; spreads[a - 1](col), col at
    the x sorted by a x."""
    plus, times = field.fast_ops()
    q = field.q
    back = [[plus(t, times(field.p - 1, u)) for t in range(q)] for u in range(q)]
    shifts = [itemgetter(*row) for row in back]
    fronts = [shifts[row[0]] for row in back]
    half = [shifts[d] for d in range(1, q) if d <= back[d][0]]
    spreads = [
        itemgetter(*sorted(range(q), key=lambda x, a=a: times(a, x))) for a in range(1, q)
    ]
    return shifts, fronts, half, spreads


# ---------------------------------------------------------------------------
# exact identification error

def exact_id_error(id_i: Identity, id_j: Identity) -> Fraction:
    """Exact per-challenge acceptance fraction: how many points of GF(q)^ell
    make id_j's tag match id_i's.  exact_id_error(x, x) = 1, returned before
    any table is built.

    The tag is linear in the coefficients, so the tags agree exactly where
    the difference polynomial vanishes.  Its zeros are counted one variable
    at a time: at each value a of the first variable, Horner in a folds
    the coefficients into a polynomial of total degree <= k in the
    variables left.  Each Horner step is one lookup,
    steps[a][acc][c] = a * acc + c, in tables of q^2 entries built once per
    field, so q is limited to 1024 (q^2 <= ff.TABLE_LIMIT); the difference
    a - b is steps[-1][b][a] from the same tables.  q alone picks the
    counter: for q <= 16 a pair (acc, c) fits one byte, and _byte_zeros
    counts on byte vectors; above 16, _walk_zeros counts depth-first."""
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
        hits = _byte_zeros(diff, plan, tables)
    return Fraction(hits, q ** ell)


@lru_cache(maxsize=None)
def _step_tables(field: Field) -> tuple[list[list[list[int]]], tuple | None]:
    """exact_id_error's tables, once per field: steps[a][x] = sums[a * x],
    sums[y][c] = y + c, sharing rows and ints (17 MiB at q = 1024, not 41),
    and for q <= 16 _byte_zeros' bytes, read from steps: start[c][a] =
    a * q + c, first[c][a * q + x] = a * q + (a * x + c), strip[a * q + x]
    = x, lanes (b * q at byte b * q + a of q^2), mul[b * q + x] = b * x and
    tables[a][x * q + c] = a * x + c."""
    plus, times = field.fast_ops()
    q = field.q
    ints = list(range(q))
    sums = [[ints[plus(y, c)] for c in ints] for y in ints]
    steps = [[sums[times(a, x)] for x in ints] for a in ints]
    if q > 16:
        return steps, None
    pad = b"\0" * (256 - q * q)
    start = [bytes(range(c, q * q, q)) for c in ints]
    first = [bytes(a * q + s[x][c] for a, s in enumerate(steps) for x in ints) + pad for c in ints]
    lanes = int.from_bytes(bytes(b * q for b in ints for _ in ints), "big")
    mul = bytes(s[x][0] for s in steps for x in ints) + pad
    tables = [b"".join(map(bytes, step)) + pad for step in steps]
    return steps, (start, first, bytes(ints) * q + pad, lanes, mul, tables)


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


def _byte_zeros(poly: list[int], plan: tuple, byte_tables: tuple) -> int:
    """Zeros of poly in the variables plan folds, q <= 16, on bytes vectors
    over the values folded so far, in _step_tables' tables.  The first
    variable runs at all its values a at once, in byte lanes a * q + acc:
    its coefficients are scalars, so a Horner step is a translate by
    first[c], and strip leaves acc.  So does the second, in q^2-byte lanes
    (b, a) on the first's vectors tiled q times: acc + lanes by mul gives
    b * acc, then (b * acc) * q + c by tables[1] b * acc + c.  Deeper
    levels run one value at a time (_byte_folds), joining their q folds;
    the last counts each fold's zeros as it is made, in memory of about
    (2 k + 5) q^(ell - 1) bytes."""
    start, first, strip, lanes, mul, tables = byte_tables
    q = len(tables)
    from_bytes = int.from_bytes
    vectors = []
    for top, rest in plan[0]:
        acc = start[poly[top]]
        for i in rest:
            acc = acc.translate(first[poly[i]])
        vectors.append(acc.translate(strip))
    if len(plan) > 1:
        n, add = q * q, tables[1]
        ints = [from_bytes(v * q, "big") for v in vectors]
        folded = []
        for top, rest in plan[1]:
            acc = vectors[top] * q
            for i in rest:
                acc = (from_bytes(acc, "big") + lanes).to_bytes(n, "big").translate(mul)
                acc = (from_bytes(acc, "big") * q + ints[i]).to_bytes(n, "big").translate(add)
            folded.append(acc)
        vectors = folded
    folds = [vectors]  # the lanes' vectors, one fold to join
    for groups in plan[2:]:
        vectors = [b"".join(column) for column in zip(*folds)]
        folds = _byte_folds(vectors, groups, tables)
    return sum(fold[0].count(0) for fold in folds)


def _byte_folds(vectors: list[bytes], groups: tuple, tables: list[bytes]) -> Iterator[list]:
    """Yield the fold of vectors at each value a of the next variable, a
    Horner step (int(acc) * q + int(c)).to_bytes(n).translate(tables[a]):
    acc * q + c < q^2 <= 256 carries into no other byte."""
    q, n = len(tables), len(vectors[0])
    from_bytes = int.from_bytes
    ints = [from_bytes(v, "big") for v in vectors]
    for table in tables:
        fold = []
        for top, rest in groups:
            acc = vectors[top]
            for i in rest:
                acc = (from_bytes(acc, "big") * q + ints[i]).to_bytes(n, "big").translate(table)
            fold.append(acc)
        yield fold
