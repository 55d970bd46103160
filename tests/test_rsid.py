from fractions import Fraction

import pytest

from secrid.ff import field_for
from secrid.rmid import IdCodeParams
from secrid.rsid import (
    RsErrorQuote,
    RsIdParams,
    epsilon_2rs,
    min_challenges_for,
    rs_candidates,
)

from util import required_rm_challenges, rs_outer_field, rs_tag, split_outer_symbol


def test_quote_union_bound_values():
    field = field_for(3, 1)
    quote = RsErrorQuote.quote(RsIdParams(field, 2, 2))
    assert quote.error == Fraction(1, 9) + Fraction(1, 3)
    quote5 = RsErrorQuote.quote(RsIdParams(field_for(5, 1), 2, 1))
    assert quote5.error == Fraction(1, 5)


def test_quote_clamps_at_one():
    field = field_for(2, 1)
    quote = RsErrorQuote.quote(RsIdParams(field, 1, 1))
    assert quote.error == 0
    big = RsErrorQuote.quote(RsIdParams(field_for(3, 1), 2, 8))
    assert big.error == 1  # 7/9 + 1/3 > 1, clamped


def test_false_accept_rate_exhaustive_q3():
    # every ordered identity pair, every challenge point: the observed
    # collision fraction never exceeds the union bound 1/9 + 1/3 = 4/9
    field = field_for(3, 1)
    params = RsIdParams(field, 2, 2)
    outer_q = rs_outer_field(params).q
    bound = Fraction(4, 9)
    identities = [
        (c0, c1) for c0 in range(outer_q) for c1 in range(outer_q)
    ]
    tags = {
        ident: {
            (r1, r2): rs_tag(params, ident, r1, r2)
            for r1 in range(outer_q)
            for r2 in range(3)
        }
        for ident in identities
    }
    n_points = outer_q * 3
    worst = Fraction(0)
    for id_i in identities:
        for id_j in identities:
            if id_i == id_j:
                continue
            hits = sum(
                tags[id_i][pt] == tags[id_j][pt] for pt in tags[id_i]
            )
            frac = Fraction(hits, n_points)
            worst = max(worst, frac)
            assert frac <= bound
    assert worst > 0  # the bound is doing real work


def test_symbol_split_inverts_extension_packing():
    field = field_for(3, 1)
    params = RsIdParams(field, 2, 1)
    outer = rs_outer_field(params)  # GF(9)
    # inner coefficients (a, b) are the digits of y = a + 3b
    for y in range(9):
        a, b = split_outer_symbol(params, y)
        assert a + 3 * b == y
        # the split is GF(3)-linear: a sum splits into the sums
        for z in range(9):
            pairs = zip(split_outer_symbol(params, y), split_outer_symbol(params, z))
            assert split_outer_symbol(params, outer.add(y, z)) == tuple(
                field.add(u, v) for u, v in pairs
            )


def test_params_validation():
    field = field_for(3, 1)
    with pytest.raises(ValueError):
        RsIdParams(field, 0, 1)
    with pytest.raises(ValueError):
        RsIdParams(field, 3, 1)  # k_in must stay below q
    with pytest.raises(ValueError):
        RsIdParams(field, 2, 9)  # k_out must stay below q^k_in
    with pytest.raises(ValueError):
        RsIdParams(field, 2, 0)


# ---------------------------------------------------------------------------
# the budget search

def test_candidate_search_fills_the_size_budget():
    target = IdCodeParams(field_for(5, 1), 1, 2)  # 3 symbols
    quotes = rs_candidates(target)
    by_k_in = {rq.params.k_in: rq.params.k_out for rq in quotes}
    assert by_k_in == {1: 3, 2: 1, 3: 1}


def test_epsilon_2rs_worked_example():
    target = IdCodeParams(field_for(5, 1), 1, 2)
    best = epsilon_2rs(target)
    assert best.error == Fraction(1, 5)
    assert (best.params.k_in, best.params.k_out) == (2, 1)


def test_epsilon_2rs_large_grid_point():
    target = IdCodeParams(field_for(3, 10), 2, 20)  # 231 symbols
    best = epsilon_2rs(target)
    assert (best.params.k_in, best.params.k_out) == (2, 115)
    assert best.error == Fraction(114, 59049 ** 2) + Fraction(1, 59049)
    assert best.error == Fraction(19721, 1162261467)


def test_epsilon_2rs_prefers_smaller_k_in_on_ties():
    # degenerate budget of 1 symbol: every k_in gives k_out = 1 and error
    # (k_in - 1)/q, so k_in = 1 wins with error 0
    target = IdCodeParams(field_for(7, 1), 1, 0)
    best = epsilon_2rs(target)
    assert best.params.k_in == 1
    assert best.error == 0


def test_required_challenge_counts():
    assert min_challenges_for(Fraction(1, 100), Fraction(1, 10 ** 5)) == 3
    assert min_challenges_for(Fraction(1, 2), Fraction(1, 2)) == 1
    assert min_challenges_for(Fraction(0), Fraction(1, 10)) == 1
    target = IdCodeParams(field_for(3, 10), 2, 20)
    assert required_rm_challenges(target) == 2


def test_min_challenges_rejects_bad_domains():
    with pytest.raises(ValueError):
        min_challenges_for(Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        min_challenges_for(Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError, match="^challenge count diverged; target error too small$"):
        min_challenges_for(Fraction(9999, 10000), Fraction(1, 10**60))
