import functools
import itertools
import json
import math
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrid.analysis import ChannelModel
from secrid.ff import TABLE_PAYBACK, Field, field_for
from secrid.rmid import (
    Challenge,
    IdCodeParams,
    Identity,
    MultiChallenge,
    Record,
    capacity_diagnostics,
    code_size_bits,
    evaluate_tag,
    generate_challenge,
    generate_multi,
    identity_from_bytes,
    monomial_exponents,
    substitution_plan,
    verify,
    verify_multi,
)
from secrid.wiretap import SecrecyParams, SecretChallenge, Seed

from util import (
    ScriptedSource,
    error_bound,
    identity_to_bytes,
    substitution_plan_by_lookup,
    table_built,
    table_free,
    tag_by_monomials,
)


def brute_force_exponents(ell, k):
    # independent oracle: enumerate the whole cube, filter, sort
    cube = itertools.product(range(k + 1), repeat=ell)
    kept = [e for e in cube if sum(e) <= k]
    return sorted(kept, key=lambda e: (sum(e), e))


# ---------------------------------------------------------------------------
# records

def test_records_print_as_their_fields():
    f = field_for(3, 2)
    assert repr(Challenge((1, 2), 3)) == "Challenge(r=(1, 2), tag=3)"
    assert repr(IdCodeParams(f, 2, 1)) == (
        "IdCodeParams(field=Field(p=3, m=2, q=9), ell=2, k=1, n_challenges=1)"
    )
    assert repr(Identity(IdCodeParams(f, 1, 1), (0, 5))) == (
        "Identity(params=IdCodeParams(field=Field(p=3, m=2, q=9), ell=1, k=1,"
        " n_challenges=1), coeffs=(0, 5))"
    )
    assert repr(Seed((4, 1, 0), 2, 1)) == "Seed(s=(4, 1, 0), s0=2, pivot=1)"
    assert repr(ChannelModel.erasure(2, "1/2")) == (
        "ChannelModel(kind='erasure', q=2, matrix=((Fraction(1, 2), Fraction(0, 1),"
        " Fraction(1, 2)), (Fraction(0, 1), Fraction(1, 2), Fraction(1, 2))),"
        " delta=Fraction(1, 2))"
    )


def test_records_compare_and_hash_by_class_and_fields():
    f = field_for(3, 2)
    assert Challenge((1, 2), 3) == Challenge(r=(1, 2), tag=3)
    assert hash(Challenge((1, 2), 3)) == hash(Challenge(r=(1, 2), tag=3))
    assert len({IdCodeParams(f, 2, 1), IdCodeParams(f, 2, 1, 1)}) == 1
    assert Challenge((1, 2), 4) != Challenge((1, 2), 3)
    # equal field values, but a challenge is not a secret challenge
    assert Challenge((1, 2), (3,)) != SecretChallenge((1, 2), (3,))
    assert not Challenge((1, 2), (3,)) == SecretChallenge((1, 2), (3,))
    assert Challenge((1, 2), 3) != ((1, 2), 3)


def test_a_record_equals_itself_without_comparing_fields():
    params = IdCodeParams(field_for(3, 2), 2, 1)
    with mock.patch.object(Record, "_values", side_effect=AssertionError("fields compared")):
        assert params == params
        assert not params != params


def test_records_are_immutable():
    challenge = Challenge((1, 2), 3)
    with pytest.raises(AttributeError):
        challenge.tag = 4
    with pytest.raises(AttributeError):
        challenge.extra = 4
    with pytest.raises(AttributeError):
        del challenge.r
    assert challenge == Challenge((1, 2), 3)


def test_records_take_keywords_and_defaults_and_refuse_unknown_keywords():
    f = field_for(3, 2)
    assert IdCodeParams(f, 2, 3).n_challenges == 1
    assert IdCodeParams(field=f, k=3, ell=2, n_challenges=2) == IdCodeParams(f, 2, 3, 2)
    assert ChannelModel("identity", 2, ChannelModel.identity(2).matrix).delta is None
    with pytest.raises(TypeError):
        IdCodeParams(f, 2, 3, n=2)
    with pytest.raises(TypeError):
        Challenge((1, 2), 3, 4)


def test_records_survive_pickling():
    f = field_for(3, 2)
    identity = Identity(IdCodeParams(f, 1, 1, 2), (0, 5))
    for record in (SecrecyParams(f, 3), ChannelModel.symmetric(3, "1/8"), identity):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
        with pytest.raises(AttributeError):
            copy.field = None


# ---------------------------------------------------------------------------
# monomial order

def test_monomial_order_frozen_ell2_k2():
    assert monomial_exponents(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


def test_monomial_order_univariate_is_power_basis():
    assert monomial_exponents(1, 4) == [(0,), (1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("ell,k", [(1, 5), (2, 3), (3, 4), (4, 2), (5, 1)])
def test_monomial_order_matches_brute_force(ell, k):
    assert monomial_exponents(ell, k) == brute_force_exponents(ell, k)


@pytest.mark.parametrize("ell,k", [(1, 3), (2, 4), (3, 3), (6, 2)])
def test_coeff_count_is_binomial(ell, k):
    params = IdCodeParams(field_for(5, 1), ell, k)
    assert params.coeff_count == math.comb(ell + k, ell)
    assert len(monomial_exponents(ell, k)) == params.coeff_count


@pytest.mark.parametrize("ell,k", [(1, 6), (2, 4), (3, 3), (6, 2), (4, 0)])
def test_coeff_count_above_compares_the_count_with_the_limit(ell, k):
    params = IdCodeParams(field_for(7, 1), ell, k)
    for limit in range(params.coeff_count + 2):
        assert params.coeff_count_above(limit) == (params.coeff_count > limit)


def test_identity_of_the_wrong_length_names_its_geometry():
    # a count of millions of digits is neither formed nor printed
    params = IdCodeParams(field_for(4294967291, 1), 10 ** 6, 10 ** 6)
    huge = r"^identity of ell=1000000, k=1000000 needs C\(2000000, 1000000\) coefficients"
    with pytest.raises(ValueError, match=huge):
        Identity(params, (1,))
    with pytest.raises(ValueError, match=r"^identity of ell=2, k=1 needs C\(3, 2\) .*, got 4$"):
        Identity(IdCodeParams(field_for(7, 1), 2, 1), (0,) * 4)


@pytest.mark.parametrize("bad", [True, -1, 5, 1.0])
@pytest.mark.parametrize("at", [0, 2, 5])
def test_identity_names_its_first_non_element(bad, at):
    field = field_for(5, 1)
    coeffs = [1, 2, 3, 4, 0, 1]  # ell = 2, k = 2
    coeffs[at] = bad
    with pytest.raises(ValueError) as exc:
        Identity(IdCodeParams(field, 2, 2), tuple(coeffs))
    assert str(exc.value) == f"{bad!r} is not a canonical element of {field!r}"


# every ell <= 4 with k <= 8, then long groups (large k) and many levels
PLAN_GEOMETRIES = [(ell, k) for ell in range(1, 5) for k in range(9)]
PLAN_GEOMETRIES += [(3, 90), (2, 100), (4, 40), (6, 10)]


@pytest.mark.parametrize("ell,k", PLAN_GEOMETRIES)
def test_substitution_plan_matches_the_lookup_oracle(ell, k):
    assert substitution_plan(ell, k) == substitution_plan_by_lookup(ell, k)


# ---------------------------------------------------------------------------
# evaluation

def test_univariate_example_tag():
    # 1 + 2r + 3r^2 at r = 2 over GF(5): 1 + 4 + 12 = 17 = 2
    params = IdCodeParams(field_for(5, 1), 1, 2)
    identity = Identity(params, (1, 2, 3))
    assert evaluate_tag(identity, (2,)) == 2


@pytest.mark.parametrize(
    "q,ell,k",
    [
        (5, 1, 3), (5, 2, 2), (7, 2, 3), (9, 3, 2), (8, 2, 2), (25, 1, 4),
        (7, 4, 3), (5, 2, 4), (2 ** 21, 2, 2),  # ell = 4, k = q - 1, no tables
    ],
)
def test_evaluation_matches_monomial_oracle(q, ell, k):
    field = Field.from_q(q)
    params = IdCodeParams(field, ell, k)
    rng = random.Random(q * 100 + ell * 10 + k)
    for trial in range(20 + ell):
        identity = Identity(params, field.sample_vector(rng, params.coeff_count))
        r = list(field.sample_vector(rng, ell))
        if trial < ell:
            r[trial] = 0  # a zero in each coordinate position
        assert evaluate_tag(identity, r) == tag_by_monomials(identity, r)


# one of each kernel: Zech logs (GF(9), GF(3^10)), the XOR and prime fast
# pairs, and the digit pair of a field that never builds tables
KERNEL_FIELDS = {
    "zech_9": (table_built, 3, 2),
    "zech_59049": (table_built, 3, 10),
    "xor_16": (table_built, 2, 4),
    "prime_7": (table_built, 7, 1),
    "table_free_9": (table_free, 3, 2),
}


@functools.lru_cache(maxsize=None)
def kernel_field(name):
    make, p, m = KERNEL_FIELDS[name]
    return make(p, m)


@st.composite
def kernel_cases(draw):
    name = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    field = kernel_field(name)
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(0, min(4, field.q - 1)))
    element = st.one_of(st.just(0), st.integers(0, field.q - 1))
    count = math.comb(ell + k, ell)
    coeffs = draw(st.lists(element, min_size=count, max_size=count))
    r = draw(st.lists(element, min_size=ell, max_size=ell))
    return name, Identity(IdCodeParams(field, ell, k), tuple(coeffs)), r


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_every_kernel_matches_the_monomial_oracle(case):
    name, identity, r = case
    tables = identity.params.field._tables
    assert (tables is None) == name.startswith("table_free")
    assert (tables is not None and tables[2] is not None) == name.startswith("zech")
    assert evaluate_tag(identity, r) == tag_by_monomials(identity, r)


def test_coefficient_logs_stay_out_of_identity_records_and_survive_pickling():
    field = table_built(3, 10)
    params = IdCodeParams(field, 2, 3)
    rng = random.Random(10)
    coeffs = (0,) + field.sample_vector(rng, params.coeff_count - 1)
    warm, cold = Identity(params, coeffs), Identity(params, coeffs)
    r = field.sample_vector(rng, 2)
    tag = evaluate_tag(warm, r)
    assert "_logs" in vars(warm) and "_logs" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert warm.to_json_dict() == cold.to_json_dict()
    copy = pickle.loads(pickle.dumps(warm))
    assert copy.params.field._tables is None  # rebuilt by (p, m), no tables
    copy.params.field.fast_ops()
    assert vars(copy)["_logs"] == Identity(copy.params, coeffs)._logs
    assert evaluate_tag(copy, r) == tag == tag_by_monomials(cold, r)


def test_short_evaluations_run_table_free_until_they_repay_the_tables():
    field = Field(3, 10)  # not field_for: the work count starts at zero
    params = IdCodeParams(field, 2, 20)
    # the oracle's checked pow/mul charge its own field, not this one
    oracle_params = IdCodeParams(field_for(3, 10), 2, 20)
    rng = random.Random(59049)
    coeffs = field.sample_vector(rng, params.coeff_count)
    identity = Identity(params, coeffs)
    oracle = Identity(oracle_params, coeffs)
    crossing = -(-field.q // (TABLE_PAYBACK * params.coeff_count))  # 16 tags
    for done in range(1, crossing + 1):
        r = field.sample_vector(rng, 2)
        assert evaluate_tag(identity, r) == tag_by_monomials(oracle, r)
        assert (field._tables is None) == (done < crossing)


def test_evaluation_at_origin_reads_constant_coeff():
    params = IdCodeParams(field_for(7, 1), 3, 2)
    rng = random.Random(3)
    identity = Identity(params, field_for(7, 1).sample_vector(rng, params.coeff_count))
    assert evaluate_tag(identity, (0, 0, 0)) == identity.coeffs[0]


def test_evaluate_rejects_bad_point():
    params = IdCodeParams(field_for(5, 1), 2, 2)
    identity = Identity(params, (0,) * params.coeff_count)
    with pytest.raises(ValueError):
        evaluate_tag(identity, (0,))  # wrong arity
    with pytest.raises(ValueError):
        evaluate_tag(identity, (0, 5))  # out of range


# ---------------------------------------------------------------------------
# challenge and verify

def test_own_identity_always_accepts():
    field = field_for(7, 1)
    params = IdCodeParams(field, 2, 3)
    rng = random.Random(11)
    identity = Identity(params, field.sample_vector(rng, params.coeff_count))
    for _ in range(50):
        assert verify(identity, generate_challenge(identity, rng))


def test_distinct_identities_with_constant_difference_never_collide():
    # p_i - p_j = 1 everywhere, so no challenge point can confuse them
    params = IdCodeParams(field_for(5, 1), 1, 2)
    id_i = Identity(params, (0, 2, 3))
    id_j = Identity(params, (1, 2, 3))
    for r in range(5):
        tag_i = evaluate_tag(id_i, (r,))
        assert not verify(id_j, Challenge((r,), tag_i))


def test_false_accept_fraction_obeys_degree_bound():
    params = IdCodeParams(field_for(7, 1), 1, 3)
    id_i = Identity(params, (1, 0, 0, 1))
    id_j = Identity(params, (0, 0, 0, 0))
    hits = sum(
        verify(id_j, Challenge((r,), evaluate_tag(id_i, (r,)))) for r in range(7)
    )
    # r^3 + 1 has at most 3 roots in GF(7)
    assert Fraction(hits, 7) <= Fraction(3, 7)


def test_scripted_challenge_point():
    field = field_for(5, 1)
    params = IdCodeParams(field, 1, 2)
    identity = Identity(params, (1, 2, 3))
    ch = generate_challenge(identity, ScriptedSource([2]))
    assert ch.r == (2,)
    assert ch.tag == 2


def test_multi_false_accept_is_per_challenge_product():
    # over all (r1, r2) pairs the 2-challenge acceptance count for a rival
    # is exactly (single-challenge count)^2
    field = field_for(5, 1)
    params1 = IdCodeParams(field, 1, 2, 1)
    id_i = Identity(params1, (0, 0, 1))
    id_j = Identity(params1, (1, 0, 0))  # difference r^2 - 1, roots {1, 4}
    singles = [
        r for r in range(5)
        if verify(id_j, Challenge((r,), evaluate_tag(id_i, (r,))))
    ]
    assert singles == [1, 4]
    params2 = IdCodeParams(field, 1, 2, 2)
    id_i2 = Identity(params2, id_i.coeffs)
    id_j2 = Identity(params2, id_j.coeffs)
    doubles = 0
    for r1 in range(5):
        for r2 in range(5):
            mc = MultiChallenge(
                (
                    Challenge((r1,), evaluate_tag(id_i2, (r1,))),
                    Challenge((r2,), evaluate_tag(id_i2, (r2,))),
                )
            )
            doubles += verify_multi(id_j2, mc)
    assert doubles == len(singles) ** 2


def test_verify_multi_rejects_wrong_count():
    field = field_for(5, 1)
    params = IdCodeParams(field, 1, 2, 2)
    identity = Identity(params, (1, 2, 3))
    with pytest.raises(ValueError):
        verify_multi(identity, MultiChallenge((Challenge((0,), 1),)))


# ---------------------------------------------------------------------------
# size and error accounting

def test_error_bound_values():
    field = field_for(3, 10)
    assert error_bound(IdCodeParams(field, 2, 20, 1)) == Fraction(20, 59049)
    assert error_bound(IdCodeParams(field, 2, 20, 2)) == Fraction(20, 59049) ** 2


def test_code_size_bits_values():
    assert code_size_bits(IdCodeParams(field_for(2, 4), 1, 2)) == pytest.approx(12.0)
    assert code_size_bits(IdCodeParams(field_for(5, 1), 1, 2)) == pytest.approx(
        3 * math.log2(5)
    )


def test_params_validation():
    field = field_for(5, 1)
    with pytest.raises(ValueError):
        IdCodeParams(field, 0, 2)
    with pytest.raises(ValueError):
        IdCodeParams(field, 1, -1)
    with pytest.raises(ValueError):
        IdCodeParams(field, 1, 5)  # k must stay below q
    with pytest.raises(ValueError):
        IdCodeParams(field, 1, 2, 0)
    # k = 0 is the degenerate constant code and is allowed
    assert IdCodeParams(field, 1, 0).coeff_count == 1


# ---------------------------------------------------------------------------
# byte and JSON codecs

def test_identity_bytes_is_base_q_big_endian():
    params = IdCodeParams(field_for(5, 2), 1, 2)  # q = 25, 3 coeffs
    identity = identity_from_bytes(bytes([1, 4]), params)
    # 0x0104 = 260 = 0*625 + 10*25 + 10
    assert identity.coeffs == (0, 10, 10)
    assert identity_to_bytes(identity) == bytes([1, 4])


def test_identity_bytes_roundtrip_random():
    params = IdCodeParams(field_for(3, 2), 2, 2)  # 9^6 identities
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 8)
        payload = bytes(rng.randrange(256) for _ in range(n))
        payload = payload.lstrip(b"\x00") or b"\x00"
        value = int.from_bytes(payload, "big")
        if value >= 9 ** params.coeff_count:
            continue
        identity = identity_from_bytes(payload, params)
        if value == 0:
            assert identity_to_bytes(identity) == b""
        else:
            assert identity_to_bytes(identity) == payload


def test_identity_from_bytes_rejects_oversized_payload():
    params = IdCodeParams(field_for(2, 1), 1, 1)  # 4 identities total
    with pytest.raises(ValueError):
        identity_from_bytes(bytes([4]), params)


def test_identity_from_bytes_never_raises_q_to_the_coefficient_count():
    # q^n has millions of digits at the coefficient counts gen-identity
    # accepts, so bounding the payload by it cost seconds per call
    class NoPow(int):
        def __pow__(self, other, mod=None):
            raise AssertionError("q ** n computed")

    field = Field(3, 2)
    field.q = NoPow(9)
    params = IdCodeParams(field, 2, 2)  # 6 coefficients, 9^6 identities
    identity = identity_from_bytes((9 ** 6 - 1).to_bytes(3, "big"), params)
    assert identity.coeffs == (8,) * 6
    with pytest.raises(ValueError, match="more than 6 base-9 digits"):
        identity_from_bytes((9 ** 6).to_bytes(3, "big"), params)


@pytest.mark.parametrize("value", [9 ** 6, 2 ** 24 - 1, 2 ** 24, 2 ** 4000])
def test_identity_from_bytes_refuses_by_bit_length_with_the_same_message(value):
    # 6 digits of 4 bits: a value of 25 bits or more is refused unexpanded,
    # one of 24 bits at or above 9^6 after the expansion, alike
    params = IdCodeParams(field_for(3, 2), 2, 2)
    with pytest.raises(ValueError, match=r"^payload needs more than 6 base-9 digits; "):
        identity_from_bytes(value.to_bytes(-(-value.bit_length() // 8), "big"), params)


def test_identity_json_roundtrip():
    field = field_for(5, 2)
    params = IdCodeParams(field, 2, 2, 3)
    rng = random.Random(9)
    identity = Identity(params, field.sample_vector(rng, params.coeff_count))
    blob = json.dumps(identity.to_json_dict())
    back = Identity.from_json_dict(json.loads(blob))
    assert back == identity
    assert back.params.field == field


def test_identity_json_rejects_inconsistent_q():
    field = field_for(5, 1)
    params = IdCodeParams(field, 1, 2)
    obj = Identity(params, (1, 2, 3)).to_json_dict()
    obj["q_params"]["q"] = 26
    with pytest.raises(ValueError):
        Identity.from_json_dict(obj)


def test_challenge_binary_layout():
    # GF(3^10): 2-byte big-endian symbols, the point then the tag
    ch = Challenge((59048, 300), 4)
    assert ch.to_bytes(field_for(3, 10)) == bytes.fromhex("e6a8012c0004")


def test_multichallenge_codecs_roundtrip():
    field = field_for(7, 1)
    mc = MultiChallenge((Challenge((1, 2), 3), Challenge((4, 5), 6)))
    # records back to back, no delimiter or count
    assert mc.to_bytes(field) == bytes([1, 2, 3, 4, 5, 6])


# ---------------------------------------------------------------------------
# scaling diagnostics

def test_capacity_family_shape():
    d = capacity_diagnostics(1)
    assert d.ell == 2
    assert d.k_over_q == pytest.approx(0.5)
    d4 = capacity_diagnostics(4)
    assert d4.ell == 16
    assert d4.k_over_q == pytest.approx(2 ** -4)


def test_capacity_interval_brackets_target():
    for n in range(2, 13):
        d = capacity_diagnostics(n)
        target = (n * n - 2 * n) / (n * n)
        assert d.ratio_lower <= target <= d.ratio_upper
        assert d.ratio_lower == pytest.approx(target)


def test_capacity_interval_tightens():
    widths = [
        capacity_diagnostics(n).ratio_upper - capacity_diagnostics(n).ratio_lower
        for n in range(2, 13)
    ]
    assert all(a > b for a, b in zip(widths, widths[1:]))


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_capacity_ratios_are_ordered_and_bounded(n):
    d = capacity_diagnostics(n)
    assert 0.0 < d.k_over_q <= 0.5
    assert d.ratio_lower <= d.ratio_upper
    if n >= 2:  # n = 1 is the degenerate corner of the family
        assert 0.0 <= d.ratio_lower < 1.0
        assert d.ratio_upper <= 1.0
