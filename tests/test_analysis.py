import json
import math
import pickle
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
from secrid.planner import plan
from secrid.rmid import IdCodeParams, Identity, monomial_exponents, substitution_plan
from secrid.wiretap import SecrecyParams, enumerate_seeds, hyperplane, leakage_bound_squared

from util import channel_rows, id_error_by_sweep, leakage_by_walk, with_rows


def params_for(q, ell_prime):
    return SecrecyParams(Field.from_q(q), ell_prime)


def channel_power(channel, n):
    """Memoryless n-fold product of a per-symbol channel; inputs and outputs
    are mixed-radix encodings of the coordinate tuples."""
    matrix, rows = channel_rows(channel), []
    for xs in product(range(channel.q), repeat=n):
        row = []
        for zs in product(range(channel.n_outputs), repeat=n):
            v = Fraction(1)
            for x, z in zip(xs, zs):
                v *= matrix[x][z]
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
    # every named channel has at least q outputs, and a scale that delta's
    # denominator (1 without a delta) divides
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
    """(scale, scaled, n_outputs, d2_pow) from the Fraction rows alone: the
    lcm of the denominators, the rows times it, the row width, and
    sum_(x,z) W(z | x)^2 / (q py(z)) over the outputs with py(z) > 0."""
    q, matrix = channel.q, channel_rows(channel)
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    py = [sum(col, Fraction(0)) / q for col in zip(*matrix)]
    terms = (v * v / (q * py[z]) for row in matrix for z, v in enumerate(row) if py[z])
    scaled = tuple(tuple(int(v * scale) for v in row) for row in matrix)
    return scale, scaled, len(matrix[0]), sum(terms, Fraction(0))


def assert_scaled_once(params, channel):
    """The channel carries its integer form, its rows scaled only if it has
    rows, and exact_leakage forms no common denominator of its own."""
    scale, scaled, n_outputs, d2_pow = scaling_by_definition(channel)
    assert (channel.scale, channel.n_outputs, channel.d2_pow) == (scale, n_outputs, d2_pow)
    assert vars(channel).get("scaled") == (None if channel.matrix is None else scaled)
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


@st.composite
def named_channels(draw):
    """A named channel over a prime, XOR or Zech field of q <= 32, at a
    delta of 0, (q - 1)/q, 1 or a fraction of denominator <= 12."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 29, 31, 32]))
    delta = draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(q - 1, q), Fraction(1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
    ))
    kind = draw(st.sampled_from(["identity", "uniform", "symmetric", "erasure"]))
    make = getattr(ChannelModel, kind)
    return make(q) if kind in ("identity", "uniform") else make(q, delta)


@given(named_channels())
@settings(max_examples=100, deadline=None)
def test_named_channels_take_in_closed_form_what_their_rows_give(channel):
    # a named channel builds no rows; from_matrix scans the reference rows
    rows = ChannelModel.from_matrix(channel.kind, channel_rows(channel))
    assert channel.matrix is None
    attributes = ("scale", "n_outputs", "d2_pow", "spike_sum")
    assert [vars(channel)[a] for a in attributes] == [vars(rows)[a] for a in attributes]


def test_a_named_channel_over_a_32_bit_field_costs_nothing_to_handle():
    # q^2 = 1.8 x 10^19 entries could not be built; (kind, q, delta) is all
    q, start = 4294967291, time.perf_counter()
    for channel in (ChannelModel.identity(q), ChannelModel.uniform(q),
                    ChannelModel.symmetric(q, "80/81"), ChannelModel.erasure(q, "1/4")):
        copy = pickle.loads(pickle.dumps(channel))
        assert copy == channel and hash(copy) == hash(channel) and repr(copy) == repr(channel)
        assert str(q) in repr(channel) and channel.n_outputs >= q
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("q", [5, 8, 9])  # prime, XOR and Zech fields
def test_each_class_of_columns_is_spread_once(monkeypatch, q):
    # the columns of these channels are translates of one another, plus the
    # constant erasure column: one spread per class and multiplier, not per
    # column; exact_leakage takes their closed form, so the walk runs alone,
    # on their rows
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
        analysis._leakage_walk(params_for(q, 2), with_rows(channel))
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


def walk_tvs(params, channel):
    """(max TV, pairwise TV) from the level walk alone, whatever the channel:
    a named one through from_matrix of its rows."""
    q, lp = params.field.q, params.ell_prime
    norm = params.seed_space_size * q ** (lp - 1) * channel.scale ** lp
    max_sum, pair_sum = analysis._leakage_walk(params, with_rows(channel))
    return Fraction(max_sum, q * norm), Fraction(pair_sum, norm)


@st.composite
def spike_points(draw):
    """Spike channels, every column a constant plus one spike, over prime,
    XOR and Zech fields: symmetric and erasure at delta on both sides of
    (q - 1)/q, identity, uniform, random binary-input channels with 2-5
    outputs, and a symmetric channel with an erasure column; ell' as large
    as the depth-first walk of every ordered step sequence allows."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    top = Fraction(q - 1, q)
    delta = draw(st.one_of(
        st.sampled_from([Fraction(0), top, Fraction(1)]),
        st.fractions(min_value=0, max_value=top, max_denominator=12),
        st.fractions(min_value=top, max_value=1, max_denominator=12),
    ))
    kind = draw(st.sampled_from(
        ["symmetric", "erasure", "identity", "uniform", "binary", "symmetric+erasure"]))
    if kind in ("symmetric", "erasure"):
        channel = getattr(ChannelModel, kind)(q, delta)
    elif kind in ("identity", "uniform"):
        channel = getattr(ChannelModel, kind)(q)
    elif kind == "binary":
        q = 2
        n_out = draw(st.integers(min_value=2, max_value=5))
        row = st.lists(st.integers(min_value=0, max_value=4), min_size=n_out, max_size=n_out)
        rows = [draw(row.filter(any)) for _ in range(2)]
        channel = ChannelModel.from_matrix(kind, [[Fraction(v, sum(r)) for v in r] for r in rows])
    else:
        erased = draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
        rows = channel_rows(ChannelModel.symmetric(q, delta))
        channel = ChannelModel.from_matrix(kind, [[v * (1 - erased) for v in r] + [erased] for r in rows])
    steps = (q - 1) * channel.n_outputs  # leakage_by_walk visits up to |Z| steps^(ell' - 1)
    longest = 2
    while longest < 6 and channel.n_outputs * steps ** longest <= 4000:
        longest += 1
    return params_for(q, draw(st.integers(min_value=2, max_value=longest))), channel


@given(spike_points())
@settings(max_examples=80, deadline=None)
def test_the_spike_closed_form_matches_both_walks(point):
    params, channel = point
    assert channel.spike_sum is not None
    report = exact_leakage(params, channel)
    got = (report.exact_max_tv, report.exact_pairwise_tv)
    assert got == walk_tvs(params, channel) == leakage_by_walk(params, channel)


def test_only_channels_without_the_spike_form_walk(monkeypatch):
    walks = []
    walk = analysis._leakage_walk
    monkeypatch.setattr(analysis, "_leakage_walk", lambda *a: walks.append(a) or walk(*a))
    analysis._leakage_tables.cache_clear()
    spikes = [
        ChannelModel.identity(9), ChannelModel.uniform(9),
        ChannelModel.symmetric(9, Fraction(1, 8)), ChannelModel.erasure(9, Fraction(1, 4)),
        ChannelModel.from_matrix("binary", [[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
                                            [Fraction(1, 3), Fraction(2, 3), 0]]),
    ]
    for channel in spikes:
        assert channel.spike_sum is not None
        exact_leakage(params_for(channel.q, 3), channel)
    assert walks == [] and analysis._leakage_tables.cache_info().misses == 0
    rng = random.Random(9)
    tied = [[Fraction(int(z in picked), 4) for z in range(9)]
            for picked in (rng.sample(range(9), 4) for _ in range(9))]
    for channel in (walk_channel("parity", 4, Fraction(1, 8)), ChannelModel.from_matrix("tied", tied)):
        assert channel.spike_sum is None
        exact_leakage(params_for(channel.q, 2), channel)
    assert [channel.kind for _, channel in walks] == ["parity", "tied"]
    assert analysis._leakage_tables.cache_info().misses == 2


def test_a_point_only_the_walk_refused_gets_the_walks_value(monkeypatch):
    # erasure GF(317) at ell' = 16 passes the walk's check from its first
    # level; its second, from its 2 classes and 1 step, refuses it, and the
    # closed form takes it
    params, channel = params_for(317, 16), ChannelModel.erasure(317, Fraction(1, 4))
    rows = with_rows(channel)
    analysis.leakage_work(params, rows, 1, ())
    with pytest.raises(ValueError, match=r" is too large for exact leakage$"):
        analysis._leakage_walk(params, rows)
    report = exact_leakage(params, channel)
    monkeypatch.setattr(analysis, "WORK_LIMIT", 10 * analysis.WORK_LIMIT)
    assert (report.exact_max_tv, report.exact_pairwise_tv) == walk_tvs(params, channel)


def test_exact_leakage_rejects_huge_state_space():
    # a random GF(4) channel whose walk may hold 3 C(19, 10) = 277,134
    # classes at ell' = 11 passes the bound from its first level, and is
    # refused once its classes are counted, before any level runs
    rng = random.Random(1)
    rows = [[rng.randint(1, 3) for _ in range(3)] for _ in range(4)]
    channel = ChannelModel.from_matrix("random", [[Fraction(v, sum(r)) for v in r] for r in rows])
    assert analysis.leakage_work(params_for(4, 11), channel) < 10 ** 5
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r" is too large for exact leakage$"):
        exact_leakage(params_for(4, 11), channel)
    assert time.perf_counter() - start < 0.1
    # GF(9)'s identity channel at ell' = 4 has one class per level
    assert exact_leakage(params_for(9, 4), ChannelModel.identity(9)).exact_pairwise_tv == 2


def test_leakage_work_counts_and_refuses_by_size():
    from secrid.analysis import WORK_LIMIT, leakage_work

    assert WORK_LIMIT == 40_000_000
    # the walk, charged on any channel given its steps: channel 2 * 2 *
    # (2 + 64), levels 10, weights 3 * 11 * 1 // 32, and one class summing
    # for 2 + 2 * 1 + 16
    two, three = ChannelModel.identity(2), ChannelModel.identity(3)
    assert leakage_work(params_for(2, 10), two, 1, ()) == 264 + 10 + 1 + 20
    # two steps of one term each: C(2 + 9, 9) = 55 classes sum for
    # 3 + 3 * 1 + 16, and the C(2 + 8, 8) = 45 below ell' = 10 step for 3 * 2 * 5
    one_term = [([(1, None)], 1)] * 2
    assert leakage_work(params_for(3, 10), three, 1, one_term) == 603 + 10 + 1 + 55 * 22 + 45 * 30
    # a channel that walks is charged from its first level without steps:
    # GF(4), 2 outputs, 4 * 2 * 68, 10, 5 * 11 * 1 // 32 and 4 + 4 * 3 + 16
    walks = ChannelModel.from_matrix("walks", [[1, 0], [1, 0], [0, 1], [0, 1]])
    assert walks.spike_sum is None
    assert leakage_work(params_for(4, 10), walks) == 544 + 10 + 1 + 32
    # a spike channel is charged its closed form: ell' + w^2 for the w =
    # ell' * 4 // 64 + 1 words of an int below (q^2 scale)^ell' = 9^ell'
    assert leakage_work(params_for(3, 10), three) == 10 + 1
    assert leakage_work(params_for(3, 1000), three) == 1000 + 63 * 63
    # 2 C(8 + 30, 30) = 97,806,984 classes, past the limit in their sums alone
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^a work bound >= 2\^\d+ units, past 40000000, "):
        leakage_work(params_for(3, 31), three, 2, one_term * 4)
    # the weights alone refuse ell' = 10^9; no binomial or 2^(10^9) is formed
    with pytest.raises(ValueError, match=r">= 2\^77 units, past 40000000, is too large"):
        leakage_work(params_for(2, 10 ** 9), two, 1, ())
    # and the closed form's powers refuse it too, at their own charge
    with pytest.raises(ValueError, match=r">= 2\^50 units, past 40000000, is too large"):
        leakage_work(params_for(2, 10 ** 9), two)
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


@pytest.mark.parametrize("policy", ["paper", "additive"])
@pytest.mark.parametrize(
    "kind, delta", [("symmetric", Fraction(80, 81)), ("erasure", Fraction(1, 4))],
    ids=["symmetric", "erasure"],
)
@pytest.mark.parametrize("q", [59049, 4294967291])
def test_exact_leakage_meets_the_bounds_at_the_reference_field(q, kind, delta, policy):
    # acceptance 4 at the reference point (ell = 2, k = 20, kappa = 0.2) and
    # at the lengths the planner plans for it, over GF(3^10) and the largest
    # prime below 2^32
    lp = plan(q=q, ell=2, k=20, kappa=0.2, budget_policy=policy).ell_prime
    report = exact_leakage(params_for(q, lp), getattr(ChannelModel, kind)(q, delta))
    tight_sq, simplified_sq = leakage_bound_squared(q, lp, report.d2_pow)
    for stat in (report.exact_max_tv, report.exact_pairwise_tv):
        assert 0 <= stat * stat <= min(tight_sq, 4)
    assert tight_sq <= simplified_sq


def test_exact_leakage_of_the_reference_row():
    # GF(3^10), symmetric 80/81, at ell' = 3, the paper policy's length: 3.763e-6
    channel = ChannelModel.symmetric(59049, Fraction(80, 81))
    report = exact_leakage(params_for(59049, 3), channel)
    assert report.exact_pairwise_tv == Fraction(1064342, 282817489141)


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
    walk = analysis._walk_zeros(diff, plan, steps)
    assert walk == analysis._byte_zeros(diff, plan, analysis._step_tables(field)[1])
    assert Fraction(walk, q ** params.ell) == exact_id_error(id_i, id_j)


# every field on the byte path, q <= 16: GF(11) and GF(13) are drawn by no
# default pair, and GF(16)'s lanes a * q + acc reach byte 255
BYTE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize(
    "p, m, ell",
    [(p, m, ell) for p, m in BYTE_FIELDS for ell in (1, 2, 3) if (p ** m) ** ell <= 4096],
)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_exact_id_error_matches_per_point_sweep_on_every_byte_field(p, m, ell, data):
    # ell = 1 runs the first variable's lanes only, ell = 2 both lane levels
    # and no deeper one, ell = 3 one per-value level below them
    id_i, id_j = data.draw(id_error_pairs(fields=[(p, m)], ell=ell))
    assert exact_id_error(id_i, id_j) == id_error_by_sweep(id_i, id_j)


@pytest.mark.parametrize("p, m", BYTE_FIELDS)
def test_byte_tables_match_the_checked_field_operations(p, m):
    field = field_for(p, m)
    q = field.q
    start, first, strip, lanes, mul, tables = analysis._step_tables(field)[1]
    assert len(start) == len(first) == len(tables) == q
    assert all(len(t) == 256 for t in (*first, strip, mul, *tables))
    lane_bytes = lanes.to_bytes(q * q, "big")
    for a, x in product(range(q), repeat=2):
        assert strip[a * q + x] == x
        assert mul[a * q + x] == field.mul(a, x)
        assert tables[1][a * q + x] == field.add(a, x)  # the second variable's add
        assert lane_bytes[a * q + x] == a * q
        for c in range(q):
            assert start[c][a] == a * q + c
            assert first[c][a * q + x] == a * q + field.add(field.mul(a, x), c)
            assert tables[a][x * q + c] == field.add(field.mul(a, x), c)


def test_exact_id_error_counts_the_last_level_as_it_is_made():
    # GF(16), ell = 5: 16^5 = 1,048,576 points.  Joining the last level's
    # folds into one byte per point took ~2.5 MB; counting each fold's zeros
    # as it is made keeps the peak below one byte per point
    field = field_for(2, 4)
    q = field.q
    params = IdCodeParams(field, 5, 2)
    layout = monomial_exponents(5, 2)
    diff = [0] * params.coeff_count
    diff[layout.index((1, 1, 0, 0, 0))] = 1  # x1 x2
    diff[layout.index((0, 0, 0, 0, 1))] = 1  # + x5
    id_i, id_j = Identity(params, tuple(diff)), Identity(params, (0,) * params.coeff_count)
    assert exact_id_error(id_i, id_j) == Fraction(1, q)  # x5 = x1 x2: one point per (x1..x4)
    tracemalloc.start()
    try:
        assert exact_id_error(id_i, id_j) == Fraction(1, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q ** 5


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
    # only the parity channels (q = 4 and 9) walk; the symmetric ones are spikes
    assert analysis._leakage_tables.cache_info().currsize == 2
    assert analysis._step_tables.cache_info().currsize == 3


def test_a_leakage_sweep_builds_no_tables(capsys):
    # every channel the CLI builds is a spike channel, so no point walks
    from secrid.cli import main

    analysis._leakage_tables.cache_clear()
    argv = ["leakage-exact", "--q", "9", "--sweep", "--ell-prime", "2,3", "--delta", "1/8,1/4"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5  # header and 2 x 2 points
    assert analysis._leakage_tables.cache_info().misses == 0


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
