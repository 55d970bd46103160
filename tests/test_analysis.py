import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrid import analysis
from secrid.analysis import (
    LEAKAGE_CSV_HEADER,
    ChannelModel,
    exact_id_error,
    exact_leakage,
)
from secrid.ff import Field, field_for
from secrid.rmid import IdCodeParams, Identity, monomial_exponents, substitution_plan
from secrid.wiretap import SecrecyParams, enumerate_seeds, hyperplane, leakage_bound_squared

from util import id_error_by_sweep, leakage_by_walk


def params_for(q, ell_prime):
    return SecrecyParams(Field.from_q(q), ell_prime)


def channel_power(channel, n):
    """Memoryless n-fold product of a per-symbol channel; inputs and outputs
    are mixed-radix encodings of the coordinate tuples."""
    rows = []
    for xs in product(range(channel.q), repeat=n):
        row = []
        for zs in product(range(channel.n_outputs), repeat=n):
            v = Fraction(1)
            for x, z in zip(xs, zs):
                v *= channel.matrix[x][z]
            row.append(v)
        rows.append(tuple(row))
    return ChannelModel(
        f"{channel.kind}^{n}", channel.q ** n, tuple(rows), channel.delta
    )


# ---------------------------------------------------------------------------
# channels

def test_identity_channel_d2_counts_alphabet():
    assert ChannelModel.identity(2).d2_pow == 2
    assert ChannelModel.identity(5).d2_pow == 5


def test_uniform_channel_carries_nothing():
    assert ChannelModel.uniform(3).d2_pow == 1


def test_symmetric_channel_interpolates():
    q = 3
    assert ChannelModel.symmetric(q, 0).d2_pow == q
    full_mix = ChannelModel.symmetric(q, Fraction(q - 1, q))
    assert full_mix.d2_pow == 1
    values = [
        ChannelModel.symmetric(q, d).d2_pow
        for d in (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_erasure_channel_d2_closed_form():
    for q in (2, 3, 5):
        for delta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            got = ChannelModel.erasure(q, delta).d2_pow
            assert got == q * (1 - delta) + delta


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel.from_matrix("bad", [[Fraction(1, 2), Fraction(1, 4)]])
    with pytest.raises(ValueError):
        ChannelModel.symmetric(3, 2)
    with pytest.raises(ValueError):
        ChannelModel.erasure(3, -1)
    for empty in (lambda: ChannelModel.from_matrix("x", []), lambda: ChannelModel.erasure(0, 0.5)):
        with pytest.raises(ValueError, match="^the channel needs at least one input$"):
            empty()
    for one_input in (
        lambda: ChannelModel.symmetric(1, 0), lambda: ChannelModel.identity(1),
        lambda: ChannelModel.uniform(1),
    ):
        with pytest.raises(ValueError, match="^symmetric channel needs q >= 2$"):
            one_input()
    assert ChannelModel.erasure(3, Fraction(1, 2)).n_outputs == 4


@pytest.mark.parametrize(
    "q,rows,message",
    [(2, [[1, 0], [1]], "ragged transition matrix"),
     (2, [[Fraction(3, 2), Fraction(-1, 2)], [0, 1]], "negative transition probability"),
     (3, [[1, 0], [0, 1]], "need 3 rows, got 2")],
    ids=["ragged", "negative", "short"],
)
def test_channel_rejects_malformed_matrices(q, rows, message):
    matrix = tuple(tuple(Fraction(v) for v in row) for row in rows)
    with pytest.raises(ValueError) as exc:
        ChannelModel("bad", q, matrix)
    assert str(exc.value) == message


def test_product_channel_d2_factorizes():
    for base in (
        ChannelModel.symmetric(2, Fraction(1, 4)),
        ChannelModel.symmetric(3, Fraction(1, 8)),
        ChannelModel.erasure(2, Fraction(1, 2)),
    ):
        single = base.d2_pow
        for n in (2, 3):
            assert channel_power(base, n).d2_pow == single ** n


@pytest.mark.parametrize("q", [2, 3, 4, 9, 101])
@pytest.mark.parametrize("kind", ["identity", "uniform", "symmetric", "erasure"])
def test_named_channels_meet_the_bounds_a_point_is_first_sized_at(kind, q):
    # leakage-exact sizes each point at |Z| = q and scale = delta's
    # denominator (1 without a delta) before it builds a channel, which is
    # a lower bound only if every named channel has at least those
    deltas = [None] if kind in ("identity", "uniform") else [
        Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(1)]
    make = getattr(ChannelModel, kind)
    for delta in deltas:
        channel = make(q) if delta is None else make(q, delta)
        assert channel.n_outputs >= q
        assert channel.scale % (1 if delta is None else delta.denominator) == 0


# ---------------------------------------------------------------------------
# exact leakage, with an independent joint-law oracle

def oracle_leakage_stats(params, channel):
    """Rebuild the joint law through the product-channel matrix instead of
    per-coordinate convolution, then take both statistics."""
    q = params.field.q
    lp = params.ell_prime
    big = channel_power(channel, lp)
    seeds = list(enumerate_seeds(params))
    n_obs = channel.n_outputs ** lp
    weight = Fraction(1, params.seed_space_size * q ** (lp - 1))

    def encode(tup, radix):
        v = 0
        for t in tup:
            v = v * radix + t
        return v

    joint = [
        [[Fraction(0)] * n_obs for _ in seeds] for _ in range(q)
    ]
    for si, seed in enumerate(seeds):
        for m in range(q):
            for x in hyperplane(params, seed, m):
                xi = encode(x, q)
                for zi in range(n_obs):
                    p = big.matrix[xi][zi]
                    if p:
                        joint[m][si][zi] += weight * p
    avg = [
        [sum(joint[m][si][zi] for m in range(q)) / q for zi in range(n_obs)]
        for si in range(len(seeds))
    ]

    def tv(m, ref):
        return sum(
            abs(joint[m][si][zi] - ref[si][zi])
            for si in range(len(seeds))
            for zi in range(n_obs)
        )

    max_tv = max(tv(m, avg) for m in range(q))
    pair_tv = max(tv(m, joint[m2]) for m in range(q) for m2 in range(q))
    return max_tv, pair_tv


def test_exact_leakage_identity_channel_reveals_half():
    report = exact_leakage(params_for(2, 2), ChannelModel.identity(2))
    assert report.exact_max_tv == 1
    assert report.exact_pairwise_tv == 2
    assert report.kappa_true == pytest.approx(1.0)
    assert report.d2_pow == 4


def test_exact_leakage_uniform_channel_reveals_nothing():
    report = exact_leakage(params_for(3, 2), ChannelModel.uniform(3))
    assert report.exact_max_tv == 0
    assert report.exact_pairwise_tv == 0
    assert report.bound_tight == 0.0
    assert report.kappa_true == 0.0


def test_exact_leakage_matches_product_channel_oracle():
    params = params_for(3, 2)
    channel = ChannelModel.symmetric(3, Fraction(1, 8))
    report = exact_leakage(params, channel)
    max_tv, pair_tv = oracle_leakage_stats(params, channel)
    assert report.exact_max_tv == max_tv
    assert report.exact_pairwise_tv == pair_tv


def test_exact_leakage_erasure_oracle_agreement():
    params = params_for(2, 3)
    channel = ChannelModel.erasure(2, Fraction(1, 2))
    report = exact_leakage(params, channel)
    max_tv, pair_tv = oracle_leakage_stats(params, channel)
    assert report.exact_max_tv == max_tv
    assert report.exact_pairwise_tv == pair_tv


def test_exact_leakage_decreases_with_noise():
    params = params_for(3, 2)
    deltas = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]
    curve = [
        exact_leakage(params, ChannelModel.symmetric(3, d)).exact_max_tv
        for d in deltas
    ]
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 0  # full mixing erases the message


def test_exact_leakage_bounds_dominate_on_grid():
    # the closed-form comparisons are asserted inside exact_leakage; this
    # sweep fails loudly if any point violates them
    for q in (2, 3):
        for lp in (2, 3):
            for delta in (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(q - 1, q)):
                report = exact_leakage(
                    params_for(q, lp), ChannelModel.symmetric(q, delta)
                )
                assert float(report.exact_max_tv) <= report.bound_tight + 1e-9
                assert report.bound_tight <= report.bound_simplified + 1e-9


def test_exact_leakage_rejects_mismatched_alphabet():
    with pytest.raises(ValueError):
        exact_leakage(params_for(3, 2), ChannelModel.identity(2))


def oracle_states(q, lp, n_out):
    """Joint-law entries oracle_leakage_stats visits: q^ell' * |S| * |Z|^ell'."""
    return q ** lp * params_for(q, lp).seed_space_size * n_out ** lp


@st.composite
def small_leakage_points(draw):
    """Random channels with zero entries and small denominators, small
    enough for the Fraction oracle; GF(8) and GF(9) with two outputs."""
    q, lp = draw(st.sampled_from(
        [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (8, 2), (9, 2)]
    ))
    widest = 2 if q > 5 else max(
        n for n in range(2, q + 2) if oracle_states(q, lp, n) <= 160_000
    )
    n_out = draw(st.integers(min_value=2, max_value=widest))
    row = st.lists(
        st.integers(min_value=0, max_value=3), min_size=n_out, max_size=n_out
    ).filter(any)
    rows = [draw(row) for _ in range(q)]
    matrix = [[Fraction(v, sum(r)) for v in r] for r in rows]
    return params_for(q, lp), ChannelModel.from_matrix("random", matrix)


@given(small_leakage_points())
@settings(max_examples=15, deadline=None)
def test_exact_leakage_matches_oracle_on_random_channels(point):
    params, channel = point
    report = exact_leakage(params, channel)
    assert (report.exact_max_tv, report.exact_pairwise_tv) == oracle_leakage_stats(
        params, channel
    )


def scaling_by_definition(channel):
    """(scale, scaled, n_outputs, d2_pow) from the Fraction matrix alone: the
    lcm of the denominators, the matrix times it, the row width, and
    sum_(x,z) W(z | x)^2 / (q py(z)) over the outputs with py(z) > 0."""
    q, matrix = channel.q, channel.matrix
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    py = [sum(col, Fraction(0)) / q for col in zip(*matrix)]
    terms = (v * v / (q * py[z]) for row in matrix for z, v in enumerate(row) if py[z])
    scaled = tuple(tuple(int(v * scale) for v in row) for row in matrix)
    return scale, scaled, len(matrix[0]), sum(terms, Fraction(0))


def assert_scaled_once(params, channel):
    """The channel carries its integer form, and exact_leakage forms no
    common denominator of its own."""
    assert (channel.scale, channel.scaled, channel.n_outputs, channel.d2_pow) == (
        scaling_by_definition(channel)
    )
    with mock.patch.object(math, "lcm", wraps=math.lcm) as lcm:
        report = exact_leakage(params, channel)
    assert lcm.call_count == 0
    assert report.d2_pow == channel.d2_pow ** params.ell_prime


@given(small_leakage_points())
@settings(max_examples=25, deadline=None)
def test_random_channels_are_scaled_once_by_their_constructor(point):
    assert_scaled_once(*point)


def test_named_channels_are_scaled_once_by_their_constructor(monkeypatch):
    kinds = []
    init = ChannelModel.__init__

    def counted(self, kind, *args, **kwargs):
        kinds.append(kind)
        init(self, kind, *args, **kwargs)

    monkeypatch.setattr(ChannelModel, "__init__", counted)
    for q in (2, 3, 4, 5, 8, 9):  # prime, XOR and Zech fields
        kinds.clear()
        channels = [
            ChannelModel.identity(q),
            ChannelModel.uniform(q),
            ChannelModel.symmetric(q, Fraction(1, 8)),
            ChannelModel.erasure(q, Fraction(1, 4)),
        ]
        assert kinds == ["identity", "uniform", "symmetric", "erasure"]
        for channel in channels:
            assert_scaled_once(params_for(q, 2), channel)


@pytest.mark.parametrize("q", [5, 8, 9])  # prime, XOR and Zech fields
def test_each_class_of_columns_is_spread_once(monkeypatch, q):
    # the columns of these channels are translates of one another, plus the
    # constant erasure column: one spread per class and multiplier, not per column
    tables = analysis._leakage_tables
    spread_cols = []

    def counted(field):
        shifts, fronts, half, spreads = tables(field)
        spreads = [lambda col, s=s: spread_cols.append(col) or s(col) for s in spreads]
        return shifts, fronts, half, spreads

    monkeypatch.setattr(analysis, "_leakage_tables", counted)
    for channel, classes in [
        (ChannelModel.identity(q), 1),
        (ChannelModel.symmetric(q, Fraction(1, 4)), 1),
        (ChannelModel.erasure(q, Fraction(1, 4)), 2),
    ]:
        spread_cols.clear()
        exact_leakage(params_for(q, 2), channel)
        assert len(spread_cols) == classes * (q - 1)


@pytest.mark.parametrize("q", [9, 11, 13])  # Zech and prime fields
def test_a_tied_column_builds_only_the_translates_from_its_maxima(monkeypatch, q):
    # each row holds 1/4 at 4 random outputs, so most columns hold their
    # maximum more than once; a translate from any other point starts below
    # the maximum and cannot be the greatest, so it is not built
    rng = random.Random(q)
    rows = [[Fraction(int(z in picked), 4) for z in range(q)]
            for picked in (rng.sample(range(q), 4) for _ in range(q))]
    channel = ChannelModel.from_matrix("tied", rows)
    tables = analysis._leakage_tables
    built = []  # (f, c) for each translate f(. + c) built

    def counted(field):
        shifts, fronts, half, spreads = tables(field)
        fronts = [lambda f, c=c, t=t: built.append((f, c)) or t(f) for c, t in enumerate(fronts)]
        return shifts, fronts, half, spreads

    monkeypatch.setattr(analysis, "_leakage_tables", counted)
    params = params_for(q, 2)
    report = exact_leakage(params, channel)
    assert any(f.count(max(f)) > 1 for f, _ in built)
    assert all(f[c] == max(f) for f, c in built)
    assert (report.exact_max_tv, report.exact_pairwise_tv) == leakage_by_walk(params, channel)


@given(small_leakage_points(), st.data())
@settings(max_examples=40, deadline=None)
def test_exact_leakage_is_invariant_under_translating_the_inputs(point, data):
    # W(z | x + c) with the outputs permuted: every f of the hyperplane
    # cipher becomes a translate, f(. + c sum s), so no statistic moves;
    # the level walk keeps one f per class of translates on this ground
    params, channel = point
    field = params.field
    c = data.draw(st.integers(min_value=0, max_value=field.q - 1))
    outputs = data.draw(st.permutations(range(channel.n_outputs)))
    rows = [[channel.matrix[field.add(x, c)][z] for z in outputs] for x in range(field.q)]
    before = exact_leakage(params, channel)
    after = exact_leakage(params, ChannelModel.from_matrix("translated", rows))
    assert (after.exact_max_tv, after.exact_pairwise_tv, after.d2_pow) == (
        before.exact_max_tv, before.exact_pairwise_tv, before.d2_pow
    )


@pytest.mark.parametrize(
    "q, lp", [(4, 3), (5, 3), (7, 3), (8, 3), (9, 3), (4, 4), (5, 4)]
)
def test_exact_leakage_under_non_trivial_bound(q, lp):
    # near-uniform observers: the tight bound falls below 1, so it can fail
    report = exact_leakage(
        params_for(q, lp), ChannelModel.symmetric(q, Fraction(q - 2, q))
    )
    assert report.bound_tight < 1
    assert 0 < report.exact_max_tv <= report.exact_pairwise_tv
    assert float(report.exact_pairwise_tv) <= report.bound_tight


def walk_channel(kind, q, delta):
    """An observation channel by name; "parity" has two outputs, the parity
    of the symbol's integer form flipped with probability delta."""
    if kind == "parity":
        rows = [[1 - delta, delta] if x % 2 == 0 else [delta, 1 - delta] for x in range(q)]
        return ChannelModel.from_matrix("parity", rows)
    if kind in ("identity", "uniform"):
        return getattr(ChannelModel, kind)(q)
    return getattr(ChannelModel, kind)(q, delta)


@pytest.mark.parametrize("kind", ["symmetric", "erasure", "identity", "uniform", "parity"])
@pytest.mark.parametrize("q, lp", [(7, 2), (8, 3), (9, 2), (5, 3), (4, 4), (3, 5), (2, 6)])
def test_exact_leakage_matches_the_depth_first_walk(q, lp, kind):
    # points too large for the product-channel oracle: every ordered
    # sequence of unmerged steps against one f per class of translates
    # with counts; (3, 5) and (2, 6) merge classes over several levels
    params = params_for(q, lp)
    channel = walk_channel(kind, q, Fraction(1, 3))
    report = exact_leakage(params, channel)
    assert (report.exact_max_tv, report.exact_pairwise_tv) == leakage_by_walk(params, channel)


@pytest.mark.parametrize(
    "q, lp, kind, max_tv, pair_tv, d2_pow",
    [
        (5, 2, "symmetric", "387/320", "387/256", "970225/65536"),
        (3, 3, "symmetric", "673/768", "673/512", "26198073/2097152"),
        (4, 3, "parity", "93/448", "93/224", "15625/4096"),
        (9, 2, "parity", "104/405", "16/45", "49729/20449"),
    ],
)
def test_exact_leakage_at_the_benchmark_points(q, lp, kind, max_tv, pair_tv, d2_pow):
    # the four leakage goldens of the oracles benchmark, at delta = 1/8
    params = params_for(q, lp)
    channel = walk_channel(kind, q, Fraction(1, 8))
    report = exact_leakage(params, channel)
    expected = (Fraction(max_tv), Fraction(pair_tv))
    assert (report.exact_max_tv, report.exact_pairwise_tv) == expected
    assert leakage_by_walk(params, channel) == expected
    assert report.d2_pow == Fraction(d2_pow)


def test_exact_leakage_rejects_huge_state_space():
    # a random GF(4) channel whose walk may hold 3 C(19, 10) = 277,134
    # classes at ell' = 11 passes the bound of a channel not yet built, and
    # is refused once its classes are counted, before any level runs
    rng = random.Random(1)
    rows = [[rng.randint(1, 3) for _ in range(3)] for _ in range(4)]
    channel = ChannelModel.from_matrix("random", [[Fraction(v, sum(r)) for v in r] for r in rows])
    assert analysis.leakage_work(params_for(4, 11), 3, channel.scale) < 10 ** 5
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r" is too large for exact leakage$"):
        exact_leakage(params_for(4, 11), channel)
    assert time.perf_counter() - start < 0.1
    # GF(9)'s identity channel at ell' = 4 has one class per level
    assert exact_leakage(params_for(9, 4), ChannelModel.identity(9)).exact_pairwise_tv == 2


def test_leakage_work_counts_and_refuses_by_size():
    from secrid.analysis import WORK_LIMIT, leakage_work

    assert WORK_LIMIT == 40_000_000
    # channel 2 * 2 * (2 + 64), levels 10, weights 3 * 11 * 1 // 32, and
    # one class summing for 2 + 2 * 1 + 16
    assert leakage_work(params_for(2, 10), 2) == 264 + 10 + 1 + 20
    # two steps of one term each: C(2 + 9, 9) = 55 classes sum for
    # 3 + 3 * 1 + 16, and the C(2 + 8, 8) = 45 below ell' = 10 step for 3 * 2 * 5
    one_term = [([(1, None)], 1)] * 2
    assert leakage_work(params_for(3, 10), 3, 1, 1, one_term) == 603 + 10 + 1 + 55 * 22 + 45 * 30
    # 2 C(8 + 30, 30) = 97,806,984 classes, past the limit in their sums alone
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^a work bound >= 2\^\d+ units, past 40000000, "):
        leakage_work(params_for(3, 31), 3, 1, 2, one_term * 4)
    # the weights alone refuse ell' = 10^9; no binomial or 2^(10^9) is formed
    with pytest.raises(ValueError, match=r">= 2\^77 units, past 40000000, is too large"):
        leakage_work(params_for(2, 10 ** 9), 2)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("lp", [16, 32, 64])
@pytest.mark.parametrize(
    "kind, delta", [("symmetric", Fraction(1, 8)), ("erasure", Fraction(1, 4))]
)
@pytest.mark.parametrize("q", [3, 5, 4, 8, 9])  # prime, XOR and Zech fields
def test_exact_leakage_meets_the_bounds_at_planned_lengths(q, kind, delta, lp):
    # acceptance 4 at the lengths the planner plans: exact TV^2 <= min(tight^2, 4)
    # and tight <= simplified; all 30 points take ~0.1 s
    report = exact_leakage(params_for(q, lp), getattr(ChannelModel, kind)(q, delta))
    tight_sq, simplified_sq = leakage_bound_squared(q, lp, report.d2_pow)
    for stat in (report.exact_max_tv, report.exact_pairwise_tv):
        assert 0 <= stat * stat <= min(tight_sq, 4)
    assert tight_sq <= simplified_sq


def test_exact_leakage_takes_d2_bits_past_float_range():
    # d2_pow = (per-symbol value)^1024 passes 2^1024, so log2 of it as a float
    # overflows; the bits and kappa come from exponent space instead
    channel = ChannelModel.symmetric(3, Fraction(1, 8))
    report = exact_leakage(params_for(3, 1024), channel)
    assert report.d2_pow > 2 ** 1024
    per_symbol = exact_leakage(params_for(3, 2), channel)
    assert report.d2_bits == pytest.approx(512 * per_symbol.d2_bits, rel=1e-12)
    assert report.kappa_true == pytest.approx(per_symbol.kappa_true, rel=1e-12)
    assert 0 < report.bound_tight <= report.bound_simplified


def test_leakage_report_row_matches_header():
    report = exact_leakage(params_for(2, 2), ChannelModel.symmetric(2, Fraction(1, 4)))
    assert len(report.to_csv_row()) == len(LEAKAGE_CSV_HEADER)
    obj = report.to_json_dict()
    assert obj["channel"] == "symmetric"
    assert Fraction(obj["exact_max_tv_exact"]) == report.exact_max_tv
    assert report.to_csv_row() == [obj[key] for key in LEAKAGE_CSV_HEADER]
    # the row formats no exact string: one of 10^5000 would pass str()'s limit
    huge = analysis.LeakageReport(**{**vars(report), "exact_max_tv": Fraction(1, 10 ** 5000)})
    assert huge.to_csv_row()[LEAKAGE_CSV_HEADER.index("exact_max_tv")] == 0.0


# ---------------------------------------------------------------------------
# exact identification error

def test_exact_id_error_counts_agreement_points():
    params = IdCodeParams(field_for(5, 1), 1, 2)
    id_i = Identity(params, (0, 0, 1))
    id_j = Identity(params, (1, 0, 0))
    # difference r^2 - 1 vanishes at r in {1, 4}
    assert exact_id_error(id_i, id_j) == Fraction(2, 5)


def test_exact_id_error_self_is_one():
    params = IdCodeParams(field_for(5, 1), 1, 2)
    identity = Identity(params, (1, 2, 3))
    assert exact_id_error(identity, identity) == 1


def test_exact_id_error_multivariate():
    field = field_for(3, 1)
    params = IdCodeParams(field, 2, 1)  # coeffs for 1, r2, r1
    id_i = Identity(params, (0, 1, 0))
    id_j = Identity(params, (0, 0, 1))
    # tags agree on the diagonal r1 = r2: 3 of 9 points
    assert exact_id_error(id_i, id_j) == Fraction(1, 3)


def test_exact_id_error_requires_matching_params():
    p1 = IdCodeParams(field_for(5, 1), 1, 2)
    p2 = IdCodeParams(field_for(5, 1), 1, 3)
    with pytest.raises(ValueError):
        exact_id_error(Identity(p1, (0, 0, 1)), Identity(p2, (0, 0, 1, 0)))


def test_exact_id_error_refuses_a_point_space_too_large_to_enumerate():
    params = IdCodeParams(field_for(3, 10), 2, 1)
    identity = Identity(params, (0, 0, 0))
    with pytest.raises(ValueError) as exc:
        exact_id_error(identity, identity)
    assert str(exc.value) == "q^ell = 3486784401 too large to enumerate"


@pytest.mark.parametrize("field, ell", [(field_for(2, 16), 5000), (field_for(4294967291, 1), 65536)])
def test_exact_id_error_refuses_a_huge_point_space_by_bit_length(field, ell):
    identity = Identity(IdCodeParams(field, ell, 0), (0,))
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        exact_id_error(identity, identity)
    assert time.perf_counter() - start < 0.05  # q^ell is never formed
    bits = ell * (field.q.bit_length() - 1)
    assert str(exc.value) == f"q^ell = {field.q}^{ell} >= 2^{bits} too large to enumerate"


def test_exact_id_error_counts_over_the_largest_field_its_tables_allow():
    params = IdCodeParams(field_for(2, 10), 1, 3)
    id_i = Identity(params, (7, 1, 1, 0))
    id_j = Identity(params, (7, 0, 0, 0))  # difference r^2 + r: zeros 0 and 1
    assert exact_id_error(id_i, id_j) == id_error_by_sweep(id_i, id_j) == Fraction(2, 1024)


def test_exact_id_error_refuses_a_field_too_large_for_its_step_tables():
    field = Field(2, 11)
    identity = Identity(IdCodeParams(field, 1, 1), (0, 0))
    with pytest.raises(ValueError) as exc:
        exact_id_error(identity, identity)
    assert str(exc.value) == "q^2 = 4194304 too large for the Horner step tables"
    assert field._tables is None  # refused before anything was built


@st.composite
def id_error_pairs(draw, fields=((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)), ell=None):
    """Identity pairs over prime, XOR-add and Zech-add fields, q <= 16 by
    default.  Half the draws force a shape: equal identities (error 1), a
    nonzero constant difference (error 0), or x_v - c, whose substitution
    x_v = c vanishes identically, so whole subgrids are counted at once."""
    field = field_for(*draw(st.sampled_from(fields)))
    if ell is None:
        ell = draw(st.integers(min_value=1, max_value=4 if field.q <= 5 else 3))
    k = draw(st.integers(min_value=0, max_value=min(field.q - 1, 3)))
    params = IdCodeParams(field, ell, k)
    coeffs = st.lists(
        st.integers(min_value=0, max_value=field.q - 1),
        min_size=params.coeff_count,
        max_size=params.coeff_count,
    )
    a = draw(coeffs)
    shape = draw(st.sampled_from(["random", "random", "random", "equal", "constant", "linear"]))
    if shape == "random":
        b = draw(coeffs)
    else:
        diff = [0] * params.coeff_count
        if shape == "constant":
            diff[0] = draw(st.integers(min_value=1, max_value=field.q - 1))
        elif shape == "linear" and k >= 1:
            v = draw(st.integers(min_value=0, max_value=ell - 1))
            unit = tuple(int(i == v) for i in range(ell))
            diff[0] = draw(st.integers(min_value=0, max_value=field.q - 1))
            diff[monomial_exponents(ell, k).index(unit)] = 1
        b = [field.sub(x, d) for x, d in zip(a, diff)]
    return Identity(params, tuple(a)), Identity(params, tuple(b))


@given(id_error_pairs())
@settings(max_examples=300, deadline=None)
def test_exact_id_error_matches_per_point_sweep(pair):
    id_i, id_j = pair
    assert exact_id_error(id_i, id_j) == id_error_by_sweep(id_i, id_j)


@given(id_error_pairs(fields=[(17, 1), (5, 2), (2, 5)], ell=2))
@settings(max_examples=100, deadline=None)
def test_exact_id_error_walks_depth_first_above_q_16(pair):
    # a prime, a Zech and an XOR field whose pairs (acc, c) need two bytes
    id_i, id_j = pair
    assert id_i.params.field.q > 16
    assert exact_id_error(id_i, id_j) == id_error_by_sweep(id_i, id_j)


@given(id_error_pairs())
@settings(max_examples=200, deadline=None)
def test_byte_path_matches_the_depth_first_walk(pair):
    # at q <= 16 exact_id_error counts on byte vectors only; the walk, run
    # here from depth 0, must count the same zeros
    id_i, id_j = pair
    params = id_i.params
    field, q = params.field, params.field.q
    add, mul = field.fast_ops()
    steps = [[[add(mul(a, x), c) for c in range(q)] for x in range(q)] for a in range(q)]
    plan = substitution_plan(params.ell, params.k)
    diff = [field.sub(a, b) for a, b in zip(id_i.coeffs, id_j.coeffs)]
    folds = [analysis._fold(diff, plan[0], step) for step in steps]
    walk = analysis._walk_zeros(diff, plan, steps)
    assert walk == analysis._byte_zeros(folds, plan[1:], analysis._step_tables(field)[1])
    assert Fraction(walk, q ** params.ell) == exact_id_error(id_i, id_j)


@pytest.mark.parametrize("p, m, ell", [(2, 4, 5), (3, 2, 6), (7, 1, 7)])
def test_exact_id_error_closed_form_counts_at_a_million_points(p, m, ell):
    # ~10^6 points over an XOR, a Zech and a prime field, all on the byte path
    field = field_for(p, m)
    q = field.q
    params = IdCodeParams(field, ell, 2)
    layout = monomial_exponents(ell, 2)
    x1 = layout.index((1,) + (0,) * (ell - 1))
    x1x2 = layout.index((1, 1) + (0,) * (ell - 2))
    zero = Identity(params, (0,) * params.coeff_count)
    for c in (0, q - 1):
        diff = [0] * params.coeff_count
        diff[0], diff[x1] = field.sub(0, c), 1  # x1 - c: every point with x1 = c
        assert exact_id_error(Identity(params, tuple(diff)), zero) == Fraction(1, q)
    diff = [0] * params.coeff_count
    diff[x1x2] = 1  # x1 x2: x1 = 0 or x2 = 0, 2 q^(ell-1) - q^(ell-2) points
    assert exact_id_error(Identity(params, tuple(diff)), zero) == Fraction(2 * q - 1, q * q)


def test_exact_id_error_of_equal_identities_builds_nothing():
    field = Field(7, 1)  # a fresh field: no tables yet
    params = IdCodeParams(field, 8, 2)
    coeffs = tuple(range(7)) * 6 + (1, 2, 3)
    assert params.coeff_count == len(coeffs)
    start = time.perf_counter()
    assert exact_id_error(Identity(params, coeffs), Identity(params, coeffs)) == 1
    assert time.perf_counter() - start < 0.5  # 7^8 points are never walked
    assert field._tables is None


GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def test_exact_id_error_at_the_full_benchmark_goldens():
    # the 12 full-size id-error pairs of the oracles benchmark, over q = 7,
    # the Zech field GF(9) and the XOR field GF(16); the file is only read
    specs = json.loads(GOLDENS.read_text(encoding="utf-8"))["full"]["id_error"]
    assert len(specs) == 12
    assert {(spec["p"], spec["m"]) for spec in specs} == {(7, 1), (3, 2), (2, 4)}
    for spec in specs:
        params = IdCodeParams(field_for(spec["p"], spec["m"]), spec["ell"], spec["k"])
        a, b = (Identity(params, tuple(spec[key])) for key in "ab")
        assert exact_id_error(a, b) == Fraction(spec["error"])


FULL = json.loads(GOLDENS.read_text(encoding="utf-8"))["full"]


def golden_leakage(spec, field=None):
    # one leakage golden of the oracles benchmark: (computed, expected)
    field = field or field_for(spec["p"], spec["m"])
    report = exact_leakage(
        SecrecyParams(field, spec["ell_prime"]),
        walk_channel(spec["channel"], spec["q"], Fraction(spec["delta"])),
    )
    got = (report.exact_max_tv, report.exact_pairwise_tv, report.d2_pow)
    return got, tuple(Fraction(spec[key]) for key in ("exact_max_tv", "exact_pairwise_tv", "d2_pow"))


def golden_id_error(spec, field=None):
    # one id-error golden of the oracles benchmark: (computed, expected)
    params = IdCodeParams(field or field_for(spec["p"], spec["m"]), spec["ell"], spec["k"])
    a, b = (Identity(params, tuple(spec[key])) for key in "ab")
    return exact_id_error(a, b), Fraction(spec["error"])


def test_warm_oracles_need_no_field_operation(monkeypatch):
    # the tables are kept per field: once both oracles have run on GF(9),
    # they run again with fast_ops refusing every call
    leakage = next(spec for spec in FULL["leakage"] if spec["q"] == 9)
    id_error = next(spec for spec in FULL["id_error"] if spec["q"] == 9)
    golden_leakage(leakage)
    golden_id_error(id_error)

    def refuse(self, work=None):
        raise AssertionError("a warm oracle asked for field operations")

    monkeypatch.setattr(Field, "fast_ops", refuse)
    got, expected = golden_leakage(leakage)
    assert got == expected
    got, expected = golden_id_error(id_error)
    assert got == expected


def test_a_fresh_field_counts_as_its_shared_equal():
    fresh, shared = Field(3, 2), field_for(3, 2)
    assert fresh == shared and fresh is not shared
    for spec in FULL["id_error"]:
        if spec["q"] == 9:
            assert golden_id_error(spec, fresh) == golden_id_error(spec, shared)
    spec = next(spec for spec in FULL["leakage"] if spec["q"] == 9)
    assert golden_leakage(spec, fresh) == golden_leakage(spec, shared)


def test_oracles_interleaved_over_their_fields_match_the_goldens():
    # the leakage fields (5, 3, 4, 9) and the id-error fields (7, 9, 16) in
    # a seeded shuffle, as the oracles workload runs them, from cold tables
    analysis._step_tables.cache_clear()
    analysis._leakage_tables.cache_clear()
    ops = [(golden_leakage, spec) for spec in FULL["leakage"]]
    ops += [(golden_id_error, spec) for spec in FULL["id_error"]]
    rng = random.Random(28)
    for _ in range(2):
        rng.shuffle(ops)
        for run, spec in ops:
            got, expected = run(spec)
            assert got == expected, spec
    assert analysis._leakage_tables.cache_info().currsize == 4
    assert analysis._step_tables.cache_info().currsize == 3


def test_a_leakage_sweep_builds_its_tables_once(capsys):
    from secrid.cli import main

    analysis._leakage_tables.cache_clear()
    argv = ["leakage-exact", "--q", "9", "--sweep", "--ell-prime", "2,3", "--delta", "1/8,1/4"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5  # header and 2 x 2 points
    assert analysis._leakage_tables.cache_info().misses == 1


def test_step_tables_of_the_largest_field_share_their_ints():
    # GF(2^10), the largest field the step tables allow: ~17 MB of lists
    # when every entry is one shared int, ~41 MB with a fresh int per entry
    field = field_for(2, 10)
    field.fast_ops()  # the field's own tables are not counted
    params = IdCodeParams(field, 1, 3)
    id_i, id_j = Identity(params, (7, 1, 1, 0)), Identity(params, (7, 0, 0, 0))
    analysis._step_tables.cache_clear()
    tracemalloc.start()
    try:
        assert exact_id_error(id_i, id_j) == Fraction(2, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000


def test_exact_id_error_stays_under_degree_bound():
    # every distinct pair in a small exhaustive family respects k/q
    field = field_for(3, 1)
    params = IdCodeParams(field, 1, 1)
    identities = [
        Identity(params, (c0, c1)) for c0 in range(3) for c1 in range(3)
    ]
    for a in identities:
        for b in identities:
            if a == b:
                continue
            assert exact_id_error(a, b) <= Fraction(1, 3)
