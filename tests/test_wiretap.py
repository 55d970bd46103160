import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrid.ff import field_for
from secrid.rmid import Challenge, MultiChallenge
from secrid.wiretap import (
    BUDGET_POLICIES,
    Seed,
    SecrecyParams,
    SecretChallenge,
    _tight_terms,
    decrypt,
    decrypt_tags,
    encrypt,
    encrypt_tags,
    enumerate_seeds,
    hyperplane,
    kappa_d2_bits,
    leakage_bound,
    leakage_bound_squared,
    min_cipher_length,
    sample_seed,
    split_leakage_budget,
)

from util import ScriptedSource, dot, pivot_by_running_sum, table_built, table_free


def params_for(q, ell_prime, **kw):
    from secrid.ff import Field

    return SecrecyParams(Field.from_q(q), ell_prime, **kw)


# ---------------------------------------------------------------------------
# seed space

def test_direction_count_small_cases():
    assert params_for(2, 3).direction_count == 7
    assert params_for(3, 2).direction_count == 4
    assert params_for(5, 2).direction_count == 6
    assert params_for(2, 3).seed_space_size == 14


@pytest.mark.parametrize("ell_prime", [1, 0, 2.0, "3", True])
def test_secrecy_params_refuse_a_length_below_two_or_not_an_int(ell_prime):
    with pytest.raises(ValueError) as exc:
        params_for(5, ell_prime)
    assert str(exc.value) == f"ciphertext length must be an integer >= 2, got {ell_prime!r}"


def test_enumerate_seeds_matches_count_and_shape():
    params = params_for(3, 3)
    seeds = list(enumerate_seeds(params))
    assert len(seeds) == params.seed_space_size
    assert len({(s.s, s.s0) for s in seeds}) == len(seeds)
    for seed in seeds:
        seed.validate(params)


def test_pivot_probability_is_block_proportional():
    # q = 2, ell' = 3: 7 directions; pivot 0-based 2 owns 4 of the 7 draws
    params = params_for(2, 3)
    counts = [0, 0, 0]
    for u in range(7):
        seed = sample_seed(params, ScriptedSource([u] + [0] * 3))
        counts[seed.pivot] += 1
    assert counts == [1, 2, 4]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 59049, 65521, 4294967291])
@pytest.mark.parametrize("ell_prime", [2, 3, 17, 300])
def test_pivot_matches_the_running_sum_at_every_block_boundary(q, ell_prime):
    # the first draw of each direction block, the last of the block before
    # it, and the last draw of all
    params = params_for(q, ell_prime)
    m = params.field.m
    starts = [(q ** j - 1) // (q - 1) for j in range(ell_prime)]
    draws = {u for start in starts for u in (start, start - 1) if u >= 0}
    for u in sorted(draws | {params.direction_count - 1}):
        seed = sample_seed(params, ScriptedSource([u] + [0] * (ell_prime * m)))
        assert seed.pivot == pivot_by_running_sum(q, u), u


@pytest.mark.parametrize("q", [2, 3, 9, 65521])
@pytest.mark.parametrize("ell_prime", [2, 5])
def test_the_top_pivot_starts_at_q_to_the_ell_prime_minus_one(q, ell_prime):
    # sample_seed compares v = u (q - 1) + 1 with top_block = q^(ell' - 1):
    # the top block's first draw gives v = q^(ell' - 1), and the draw before
    # it v = q^(ell' - 1) - (q - 1), which is q^(ell' - 1) - 1 at q = 2
    params = params_for(q, ell_prime)
    top = q ** (ell_prime - 1)
    assert params.top_block == top
    first = (top - 1) // (q - 1)  # the first draw of the top block
    for u, v, pivot in ((first - 1, top - (q - 1), ell_prime - 2), (first, top, ell_prime - 1)):
        assert u * (q - 1) + 1 == v
        seed = sample_seed(params, ScriptedSource([u] + [0] * (ell_prime * params.field.m)))
        assert seed.pivot == pivot == pivot_by_running_sum(q, u)
        assert seed.s[pivot:] == (1,) + (0,) * (ell_prime - pivot - 1)


def test_sampler_is_exactly_uniform_over_seeds():
    # walk every draw path with its exact probability; each of the 12 seeds
    # must accumulate mass 1/12
    params = params_for(3, 2)
    n_dir = params.direction_count  # 4
    mass = {}
    for u in range(n_dir):
        # pivot 0 consumes one below-draw path of length 0, pivot 1 length 1
        pivot = 0 if u < 1 else 1
        below = pivot  # one field draw per coordinate below the pivot
        for extra in itertools.product(range(3), repeat=below + 1):
            src = ScriptedSource([u, *extra])
            seed = sample_seed(params, src)
            assert src.exhausted
            key = (seed.s, seed.s0)
            prob = Fraction(1, n_dir) * Fraction(1, 3 ** (below + 1))
            mass[key] = mass.get(key, Fraction(0)) + prob
    assert len(mass) == params.seed_space_size
    assert all(p == Fraction(1, 12) for p in mass.values())


def test_sampled_seeds_validate():
    params = params_for(4, 3)
    rng = random.Random(2)
    for _ in range(200):
        sample_seed(params, rng).validate(params)


def test_seed_validation_rejects_malformed():
    params = params_for(3, 2)
    with pytest.raises(ValueError):
        Seed((1, 1), 0, 0).validate(params)  # nonzero above pivot
    with pytest.raises(ValueError):
        Seed((0, 2), 0, 1).validate(params)  # pivot coordinate not 1
    with pytest.raises(ValueError):
        Seed((1,), 0, 0).validate(params)  # wrong arity
    with pytest.raises(ValueError):
        Seed((0, 1), 3, 1).validate(params)  # s0 out of range


@pytest.mark.parametrize("bad", [True, -1, 5, 1.0])
@pytest.mark.parametrize("at", ["s first", "s middle", "s0"])
def test_seed_validation_names_its_first_non_element(bad, at):
    # pivot 3: s[0] and s[1] lie below it, s0 is validated last
    params = params_for(5, 4)
    s, s0 = [2, 3, 4, 1], 2
    if at == "s0":
        s0 = bad
    else:
        s[0 if at == "s first" else 1] = bad
    with pytest.raises(ValueError) as exc:
        Seed(tuple(s), s0, 3).validate(params)
    assert str(exc.value) == f"{bad!r} is not a canonical element of {params.field!r}"


@pytest.mark.parametrize("bad", [True, -1, 5, 1.0])
@pytest.mark.parametrize("at", [0, 2, 3])
def test_decrypt_names_its_first_non_element(bad, at):
    params = params_for(5, 4)
    x = [1, 4, 0, 2]
    x[at] = bad
    with pytest.raises(ValueError) as exc:
        decrypt(params, Seed((2, 3, 4, 1), 2, 3), tuple(x))
    assert str(exc.value) == f"{bad!r} is not a canonical element of {params.field!r}"


# ---------------------------------------------------------------------------
# cipher

def test_decrypt_worked_example():
    params = params_for(3, 2)
    seed = Seed((2, 1), 1, 1)
    assert decrypt(params, seed, (1, 0)) == 0  # 2*1 + 1*0 + 1 = 0 mod 3


def test_encrypt_worked_example():
    params = params_for(3, 2)
    seed = Seed((2, 1), 1, 1)
    x = encrypt(params, seed, 0, ScriptedSource([1]))
    assert x == (1, 0)  # free coord scripted to 1, pivot solves to 0
    assert decrypt(params, seed, x) == 0


@pytest.mark.parametrize("q,ell_prime", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_hyperplane_partitions_the_cube(q, ell_prime):
    params = params_for(q, ell_prime)
    plane_size = q ** (ell_prime - 1)
    for seed in enumerate_seeds(params):
        cover = set()
        for m in range(q):
            plane = list(hyperplane(params, seed, m))
            assert len(plane) == plane_size
            assert len(set(plane)) == plane_size
            for x in plane:
                assert decrypt(params, seed, x) == m
            cover.update(plane)
        assert len(cover) == q ** ell_prime  # planes over m tile the cube


@pytest.mark.parametrize("q,ell_prime", [(2, 2), (3, 2), (3, 3)])
def test_encrypt_decrypt_roundtrip_random(q, ell_prime):
    params = params_for(q, ell_prime)
    rng = random.Random(q * 10 + ell_prime)
    for _ in range(300):
        seed = sample_seed(params, rng)
        m = rng.randrange(q)
        assert decrypt(params, seed, encrypt(params, seed, m, rng)) == m


def test_ciphertext_marginal_is_uniform():
    # sum over seeds of the per-seed hyperplane law must weight every
    # ciphertext equally, for every message
    params = params_for(3, 2)
    seeds = list(enumerate_seeds(params))
    plane_mass = Fraction(1, 3 ** (params.ell_prime - 1))
    for m in range(3):
        mass = {}
        for seed in seeds:
            for x in hyperplane(params, seed, m):
                mass[x] = mass.get(x, Fraction(0)) + plane_mass
        total = Fraction(len(seeds))
        assert all(v / total == Fraction(1, 9) for v in mass.values())
        assert len(mass) == 9


def test_encrypt_hits_every_plane_point_via_scripts():
    # scripting the free coordinate draw sweeps the whole hyperplane
    params = params_for(3, 2)
    seed = Seed((2, 1), 1, 1)
    points = {encrypt(params, seed, 2, ScriptedSource([v])) for v in range(3)}
    assert points == set(hyperplane(params, seed, 2))


def test_encrypt_tags_roundtrip_and_errors():
    params = params_for(5, 3)
    field = params.field
    rng = random.Random(77)
    mc = MultiChallenge((Challenge((1,), 4), Challenge((0,), 2)))
    seeds = [sample_seed(params, rng) for _ in range(2)]
    secrets = encrypt_tags(params, mc, seeds, rng)
    assert all(sc.r == c.r for sc, c in zip(secrets, mc.challenges))
    assert decrypt_tags(params, seeds, secrets) == mc
    with pytest.raises(ValueError):
        encrypt_tags(params, mc, seeds[:1], rng)
    with pytest.raises(ValueError):
        decrypt_tags(params, seeds[:1], secrets)
    bad = [Seed((1, 1, 2), 0, 1)]  # nonzero above the pivot
    with pytest.raises(ValueError):
        encrypt_tags(params, MultiChallenge((mc.challenges[0],)), bad, rng)


# over GF(5) with ell' = 3: 2 * x_0 + x_1 + 3 = m
GOOD_SEED = Seed((2, 1, 0), 3, 1)
BAD_SEEDS = [
    Seed((5, 1, 0), 3, 1),  # below-pivot coordinate = q
    Seed((True, 1, 0), 3, 1),
    Seed((2, 1, 0), 5, 1),  # s0 = q
    Seed((2, 1, 0), 3.0, 1),
    Seed((2, 1, 0), 3, 3),  # pivot past the last coordinate
    Seed((2, 1, 0), 3, -1),
]
BAD_SEED_IDS = ["s_q", "s_true", "s0_q", "s0_float", "pivot_3", "pivot_minus_one"]


@pytest.mark.parametrize(
    "seed,message", [(seed, 2) for seed in BAD_SEEDS] + [(GOOD_SEED, 5)],
    ids=BAD_SEED_IDS + ["message_q"],
)
def test_encrypt_validates_its_operands_before_any_draw(seed, message):
    # encrypt checks seed and message once, on entry, and then runs on the
    # unchecked field pair; the empty script fails any draw
    params = params_for(5, 3)
    with pytest.raises(ValueError):
        encrypt(params, seed, message, ScriptedSource([]))
    with pytest.raises(ValueError):
        list(hyperplane(params, seed, message))


@pytest.mark.parametrize(
    "seed,x",
    [(seed, (1, 4, 0)) for seed in BAD_SEEDS]
    + [(GOOD_SEED, x) for x in ((1, 5, 0), (-1, 4, 0), (1, True, 0), (1, 4))],
    ids=BAD_SEED_IDS + ["x_q", "x_minus_one", "x_true", "x_short"],
)
def test_decrypt_validates_its_operands(seed, x):
    params = params_for(5, 3)
    assert decrypt(params, GOOD_SEED, (1, 4, 0)) == 4  # 2 + 4 + 3 = 9 = 4
    with pytest.raises(ValueError):
        decrypt(params, seed, x)


@st.composite
def cipher_cases(draw):
    pm = draw(st.sampled_from([(3, 2), (3, 10)]))
    q = pm[0] ** pm[1]
    element = st.one_of(st.just(0), st.integers(0, q - 1))
    ell_prime = draw(st.integers(2, 6))
    pivot = draw(st.integers(0, ell_prime - 1))
    below = tuple(draw(st.lists(element, min_size=pivot, max_size=pivot)))
    seed = Seed(below + (1,) + (0,) * (ell_prime - pivot - 1), draw(element), pivot)
    x = tuple(draw(st.lists(element, min_size=ell_prime, max_size=ell_prime)))
    return pm, ell_prime, seed, draw(element), x, draw(st.integers(0, 2 ** 32))


@functools.lru_cache(maxsize=None)
def cipher_fields(pm):
    return table_built(*pm), table_free(*pm)


@given(cipher_cases())
@settings(max_examples=200, deadline=None)
def test_log_domain_cipher_matches_the_table_free_pair(case):
    pm, ell_prime, seed, message, x, stream = case
    built, plain = (SecrecyParams(f, ell_prime) for f in cipher_fields(pm))
    assert built.field._tables[2] is not None and plain.field._tables is None
    cipher = encrypt(built, seed, message, random.Random(stream))
    assert cipher == encrypt(plain, seed, message, random.Random(stream))
    assert decrypt(built, seed, cipher) == message == decrypt(plain, seed, cipher)
    # x with zero symbols against the checked s.x + s0, and the pivot-0
    # seed, whose sum is s0 + x_0
    for params in (built, plain):
        assert decrypt(params, seed, x) == params.field.add(dot(params.field, seed.s, x), seed.s0)
    first = Seed((1,) + (0,) * (ell_prime - 1), seed.s0, 0)
    assert decrypt(built, first, x) == plain.field.add(seed.s0, x[0])


# ---------------------------------------------------------------------------
# serialization

def test_seed_json_pivot_is_one_based():
    seed = Seed((2, 1, 0), 4, 1)
    obj = seed.to_json_dict()
    assert obj == {"pivot": 2, "s": [2, 1, 0], "s0": 4}
    assert Seed.from_json_dict(json.loads(json.dumps(obj))) == seed


def test_seed_binary_layout():
    # 1-based pivot byte, then s with its zeros, then s0
    seed = Seed((3, 1, 0), 2, 1)
    assert seed.to_bytes(field_for(5, 1)) == bytes([2, 3, 1, 0, 2])
    wide = Seed((258, 1), 65535, 1)
    assert wide.to_bytes(field_for(2, 16)) == bytes.fromhex("02" "0102" "0001" "ffff")


def test_seed_binary_layout_caps_length_at_255():
    field = field_for(5, 1)
    longest = Seed((1,) + (0,) * 254, 0, 0)
    assert longest.to_bytes(field) == bytes([1, 1]) + bytes(255)
    # a pivot-0 seed fits the pivot byte, but the layout caps the length
    too_long = Seed((1,) + (0,) * 299, 0, 0)
    with pytest.raises(ValueError, match="one-byte pivot field"):
        too_long.to_bytes(field)


def test_secret_challenge_codecs():
    field = field_for(3, 2)
    sc = SecretChallenge((4, 7), (1, 0, 8))
    assert SecretChallenge.from_json_dict(sc.to_json_dict()) == sc
    assert sc.to_bytes(field) == bytes([4, 7, 1, 0, 8])


# ---------------------------------------------------------------------------
# closed-form bounds

def test_leakage_bound_at_zero_information():
    params = params_for(3, 2)
    bounds = leakage_bound(params, 0.0)
    assert bounds.tight == 0.0
    assert bounds.simplified == pytest.approx(2 / math.sqrt(3))


def test_leakage_bound_squared_exact_values():
    tight_sq, simplified_sq = leakage_bound_squared(3, 2, Fraction(2))
    # tight: 4 * (9 - 3 + 1 - 1)/((9 - 1) * 3) * (2 - 1) = 4 * 6/24 = 1
    assert tight_sq == 1
    assert simplified_sq == Fraction(8, 3)
    with pytest.raises(ValueError, match="^bounds assume ell_prime >= 2$"):
        leakage_bound_squared(5, 1, Fraction(1))


# (q, ell', d2 bits, tight, simplified), both bounds as float.hex, on each
# side of the d2 = 512 switch to exponent space; the d2 > 512 points are
# kappa_d2_bits(params, kappa) of the kappa given as a string
BOUND_BITS = [
    (3, 4, 1.5, "0x1.d52d992a4dcb5p-2", "0x1.4b6dd62fe4baap-1"),
    (25, 3, 5.0, "0x1.bf44830a01337p-2", "0x1.cf68d4fff04ddp-2"),
    (59049, 40, 300.0, "0x1.e88766f271bccp-159", "0x1.e888760b742b4p-159"),
    (7, 200, 500.0, "0x1.7d15557676e73p-29", "0x1.96cd7a40cc03ep-29"),
    (65536, 33, 512.0, "0x1.ffff0000c0006p+0", "0x1.0000000000000p+1"),
    (2, 600, "0.99", "0x1.3988e1409216fp-2", "0x1.6a09e667f3bcdp-2"),
    (3, 400, "0.99", "0x1.5b98cb56e5c72p-2", "0x1.8a2345cc04333p-2"),
    (5, 300, "0.95", "0x1.89a3e7bd810e2p-16", "0x1.ad7f29abcaf84p-16"),
    (9, 200, "0.97", "0x1.0007f096a7a4fp-7", "0x1.0db20a88f469dp-7"),
    (16, 200, "0.98", "0x1.f0c60a033a715p-6", "0x1.0000000000000p-5"),
    (25, 120, "0.97", "0x1.e95b340ddff88p-6", "0x1.f3080da384c6ep-6"),
    (59049, 40, "0.9", "0x1.2b5234fcb2c54p-23", "0x1.2b52db169e977p-23"),
    (59049, 1000, "0.99", "0x1.9934234d2ebb4p-71", "0x1.9935066127754p-71"),
    (65536, 300, "0.995", "0x1.ffff0000bfc31p-4", "0x1.0000000000000p-3"),
    (2 ** 31 - 1, 30, "0.96", "0x1.ddb6800ffc715p-3", "0x1.ddb68011da221p-3"),
    (7, 3000, "0.999", "0x1.1212fc7e98e3dp-2", "0x1.2492492491e83p-2"),
]


@pytest.mark.parametrize("q,lp,budget,tight,simplified", BOUND_BITS)
def test_leakage_bound_bits_are_pinned(q, lp, budget, tight, simplified):
    params = params_for(q, lp)
    d2 = budget if isinstance(budget, float) else kappa_d2_bits(params, float(budget))
    bounds = leakage_bound(params, d2)
    assert (bounds.tight.hex(), bounds.simplified.hex()) == (tight, simplified)
    assert 0 < bounds.tight < 2
    if d2 <= 512:  # the float path agrees with the exact squares
        squares = leakage_bound_squared(q, lp, Fraction(2.0 ** d2))
        assert [bounds.tight, bounds.simplified] == [min(2.0, math.sqrt(sq)) for sq in squares]


@pytest.mark.parametrize("budget", ["0.2", 0.0, 100.0])
def test_leakage_bound_at_a_huge_ell_prime_is_fast(budget):
    # the tight factor's terms have ~3 megabits here; a Fraction of them
    # spent seconds on their gcd
    params = params_for(59049, 100_000)
    d2 = budget if isinstance(budget, float) else kappa_d2_bits(params, float(budget))
    start = time.perf_counter()
    bounds = leakage_bound(params, d2)
    assert time.perf_counter() - start < 1.0
    assert (bounds.tight, bounds.simplified) == (0.0, 0.0)  # both underflow


def test_tight_terms_are_in_lowest_terms():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 59049):
        for lp in range(2, 9):
            qlp = q ** lp
            num = qlp - q ** (lp - 1) + q ** (lp - 2) - 1
            den = (qlp - 1) * q ** (lp - 1)
            g = math.gcd(num, den)
            assert _tight_terms(q, lp) == (num // g, den // g)


def test_tight_bound_never_exceeds_simplified():
    for q in (2, 3, 5, 9):
        for lp in (2, 3, 4):
            for d2 in (0.0, 0.5, 1.0, 2.0):
                if d2 > lp * math.log2(q):
                    continue
                b = leakage_bound(params_for(q, lp), d2)
                assert b.tight <= b.simplified + 1e-12


def test_leakage_bound_clamps_at_two():
    params = params_for(2, 2)
    bounds = leakage_bound(params, 2.0)  # full capture
    assert bounds.simplified == 2.0
    assert bounds.tight <= 2.0


def test_leakage_bound_rejects_out_of_range_budget():
    params = params_for(3, 2)
    with pytest.raises(ValueError):
        leakage_bound(params, -0.1)
    with pytest.raises(ValueError):
        leakage_bound(params, 2 * math.log2(3) + 0.1)


def test_kappa_d2_bits():
    params = params_for(59049, 3)
    assert kappa_d2_bits(params, 0.2) == pytest.approx(0.2 * 3 * math.log2(59049))
    assert kappa_d2_bits(params, 0.0) == 0.0


@pytest.mark.parametrize("kappa", [-1.0, float("nan"), 1.5])
def test_kappa_d2_bits_refuses_a_kappa_outside_the_unit_interval(kappa):
    params = params_for(59049, 3)
    with pytest.raises(ValueError) as exc:
        kappa_d2_bits(params, kappa)
    assert str(exc.value) == f"kappa must be a fraction in [0, 1], got {kappa}"
    assert kappa_d2_bits(params, 1.0) == 3 * math.log2(59049)  # the whole ciphertext


# ---------------------------------------------------------------------------
# length planning

def test_min_cipher_length_worked_example():
    result = min_cipher_length(59049, 0.0, 0.85e-3)
    assert result.ell_prime == 3
    assert result.real_bound == pytest.approx(2.41334, abs=1e-4)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-320])
def test_min_cipher_length_takes_a_subnormal_epsilon(epsilon):
    # 1/epsilon is inf, so log2(1/epsilon) is read as -log2(epsilon)
    log2_q = math.log2(59049)
    result = min_cipher_length(59049, 0.2, epsilon)
    assert result.real_bound == (2.0 + log2_q - 2.0 * math.log2(epsilon)) / (0.8 * log2_q)
    assert result.ell_prime == math.ceil(result.real_bound)


def test_min_cipher_length_floor_and_domain():
    assert min_cipher_length(1024, 0.0, 1.0).ell_prime == 2
    with pytest.raises(ValueError):
        min_cipher_length(59049, 1.0, 0.5)
    with pytest.raises(ValueError):
        min_cipher_length(59049, 1.5, 0.5)
    with pytest.raises(ValueError):
        min_cipher_length(59049, 0.2, 0.0)
    with pytest.raises(ValueError):
        min_cipher_length(59049, 0.2, 1.5)
    with pytest.raises(ValueError):
        min_cipher_length(1, 0.2, 0.5)


@pytest.mark.parametrize(
    "kappa,message",
    [(-0.5, "kappa must be a fraction in [0, 1), got -0.5"),
     (float("-inf"), "kappa must be a fraction in [0, 1), got -inf"),
     (float("nan"), "kappa must be a fraction in [0, 1), got nan"),
     (1.0, "kappa=1.0: no finite ciphertext length once the observer captures a "
           "full symbol fraction"),
     (float("inf"), "kappa=inf: no finite ciphertext length once the observer captures a "
                    "full symbol fraction")],
    ids=["minus_half", "minus_inf", "nan", "one", "inf"],
)
def test_min_cipher_length_says_why_it_refuses_a_kappa(kappa, message):
    # only kappa >= 1 leaves no finite length; a negative or NaN kappa is
    # not a captured fraction at all
    with pytest.raises(ValueError) as exc:
        min_cipher_length(59049, kappa, 0.5)
    assert str(exc.value) == message


def test_min_cipher_length_monotone_in_kappa():
    lengths = [min_cipher_length(81, kappa, 1e-3).ell_prime for kappa in
               (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)]
    assert lengths == sorted(lengths)


def test_min_cipher_length_meets_its_own_budget():
    # plugging the returned length back into the simplified bound at
    # d2 = kappa * ell' * log2 q must land at or below epsilon
    for q in (7, 81, 1024, 59049):
        for kappa in (0.0, 0.25, 0.5):
            for epsilon in (0.5, 1e-2, 1e-4):
                lp = min_cipher_length(q, kappa, epsilon).ell_prime
                params = params_for(q, lp)
                achieved = leakage_bound(params, kappa_d2_bits(params, kappa))
                assert achieved.simplified <= epsilon + 1e-9


@given(
    st.sampled_from([2, 3, 7, 64, 59049]),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_min_cipher_length_is_minimal(q, kappa, epsilon):
    result = min_cipher_length(q, kappa, epsilon)
    assert result.ell_prime >= 2
    assert result.ell_prime >= result.real_bound - 1e-9
    # one symbol shorter must violate the real bound, unless the floor binds
    if result.ell_prime > 2:
        assert result.ell_prime - 1 < result.real_bound


# ---------------------------------------------------------------------------
# budget split

def test_budget_split_values():
    assert split_leakage_budget(1e-4, 2, "paper") == pytest.approx(1e-2)
    assert split_leakage_budget(1e-4, 2, "additive") == pytest.approx(5e-5)
    assert split_leakage_budget(0.3, 1, "paper") == 0.3
    assert split_leakage_budget(Fraction(1, 10), 5, "additive") == Fraction(1, 50)


def test_budget_split_rejects_unknown_policy():
    with pytest.raises(ValueError):
        split_leakage_budget(0.1, 2, "geometric")
    with pytest.raises(ValueError):
        split_leakage_budget(0.0, 2, "paper")
    with pytest.raises(ValueError):
        split_leakage_budget(0.1, 0, "paper")
    assert set(BUDGET_POLICIES) == {"paper", "additive"}


@given(
    st.floats(min_value=1e-8, max_value=1.0),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_additive_split_never_exceeds_root_split(epsilon, n):
    additive = split_leakage_budget(epsilon, n, "additive")
    root = split_leakage_budget(epsilon, n, "paper")
    assert additive <= root + 1e-15
