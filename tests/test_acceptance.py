"""Top-level acceptance checks, one test per criterion.

Each test is self-contained and runs the claim at full stated scale; the
terminal summary (conftest) prints one PASS/FAIL line per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from secrid.analysis import (
    ChannelModel,
    exact_id_error,
    exact_leakage,
    leakage_bound_squared,
)
from secrid.bench import MIN_REPS, run_grid
from secrid.ff import Field, field_for
from secrid.planner import plan
from secrid.rmid import (
    Challenge,
    IdCodeParams,
    Identity,
    capacity_diagnostics,
    evaluate_tag,
    monomial_exponents,
    verify,
)
from secrid.rsid import epsilon_2rs
from secrid.wiretap import (
    SecrecyParams,
    Seed,
    decrypt,
    encrypt,
    enumerate_seeds,
    hyperplane,
    kappa_d2_bits,
    leakage_bound,
    min_cipher_length,
    sample_seed,
)

from util import ScriptedSource, required_rm_challenges


def test_acceptance_1_false_accept_never_beats_degree_bound():
    """Exhaustive single-challenge error over whole code families."""
    started = time.monotonic()

    # q = 5, ell = 1, k in {1, 2, 3}: every identity, every rival, every point
    field = field_for(5, 1)
    for k in (1, 2, 3):
        params = IdCodeParams(field, 1, k)
        count = params.coeff_count
        identities = [
            Identity(params, coeffs)
            for coeffs in itertools.product(range(5), repeat=count)
        ]
        vectors = [
            tuple(evaluate_tag(ident, (r,)) for r in range(5))
            for ident in identities
        ]
        limit = k  # a degree-k difference has at most k roots
        for i, vi in enumerate(vectors):
            assert sum(a == b for a, b in zip(vi, vi)) == 5  # e_ii = 0
            for vj in vectors[i + 1 :]:
                agreements = sum(a == b for a, b in zip(vi, vj))
                assert agreements <= limit

    # q = 7, ell = 2, k = 2: sampled rival pairs, cross-checked against the
    # exhaustive per-pair oracle
    field7 = field_for(7, 1)
    params7 = IdCodeParams(field7, 2, 2)
    rng = random.Random(2024)
    bound = Fraction(2, 7)
    for _ in range(200):
        id_i = Identity(params7, field7.sample_vector(rng, params7.coeff_count))
        id_j = Identity(params7, field7.sample_vector(rng, params7.coeff_count))
        if id_i == id_j:
            continue
        err = exact_id_error(id_i, id_j)
        assert err <= bound
        r = field7.sample_vector(rng, 2)
        ch = Challenge(r, evaluate_tag(id_i, r))
        assert verify(id_i, ch)
        assert verify(id_j, ch) == (evaluate_tag(id_j, r) == ch.tag)

    assert time.monotonic() - started < 60


def test_acceptance_2_encryption_is_a_bijection_onto_hyperplanes():
    """Exhaustive over q in {2, 3}, ell' in {2, 3}: every seed, message, and
    free-coordinate script; decrypt inverts encrypt; each hyperplane point is
    produced exactly once; ciphertexts have ell' symbols."""
    started = time.monotonic()
    for q in (2, 3):
        for ell_prime in (2, 3):
            params = SecrecyParams(Field.from_q(q), ell_prime)
            free_count = ell_prime - 1
            for seed in enumerate_seeds(params):
                for m in range(q):
                    produced = []
                    for draws in itertools.product(range(q), repeat=free_count):
                        src = ScriptedSource(list(draws))
                        x = encrypt(params, seed, m, src)
                        assert src.exhausted
                        assert len(x) == ell_prime
                        assert decrypt(params, seed, x) == m
                        produced.append(x)
                    assert sorted(produced) == sorted(hyperplane(params, seed, m))
                    assert len(set(produced)) == q ** free_count
    assert time.monotonic() - started < 60


def test_acceptance_3_seed_sampler_is_exactly_uniform():
    """Total mass reaching each seed, summed over every draw path with its
    exact probability, equals 1/|seed space| symbolically."""
    for q, ell_prime in ((3, 2), (2, 3)):
        params = SecrecyParams(Field.from_q(q), ell_prime)
        n_dir = params.direction_count
        mass: dict = {}
        for u in range(n_dir):
            pivot, cumulative, block = 0, 1, 1
            while cumulative <= u:
                block *= q
                cumulative += block
                pivot += 1
            for extra in itertools.product(range(q), repeat=pivot + 1):
                src = ScriptedSource([u, *extra])
                seed = sample_seed(params, src)
                assert src.exhausted
                seed.validate(params)
                prob = Fraction(1, n_dir) * Fraction(1, q ** (pivot + 1))
                key = (seed.s, seed.s0)
                mass[key] = mass.get(key, Fraction(0)) + prob
        assert len(mass) == params.seed_space_size
        expected = Fraction(1, params.seed_space_size)
        assert all(p == expected for p in mass.values())


def test_acceptance_4_exact_leakage_under_closed_form_bounds():
    """Grid of toy observers: both exact statistics stay below the tight
    bound, which stays below the simplified one, all in exact arithmetic."""
    started = time.monotonic()
    violations = 0
    points = 0
    for q in (2, 3):
        deltas = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
                  Fraction(q - 1, q)]
        for ell_prime in (2, 3):
            params = SecrecyParams(Field.from_q(q), ell_prime)
            for delta in deltas:
                report = exact_leakage(params, ChannelModel.symmetric(q, delta))
                tight_sq, simplified_sq = leakage_bound_squared(
                    q, ell_prime, report.d2_pow
                )
                cap = min(tight_sq, Fraction(4))
                points += 1
                for stat in (report.exact_max_tv, report.exact_pairwise_tv):
                    if stat * stat > cap:
                        violations += 1
                if tight_sq > simplified_sq:
                    violations += 1
    assert points == 20
    assert violations == 0
    assert time.monotonic() - started < 300


def test_acceptance_5_min_length_formula_is_exact_and_sufficient():
    reference = min_cipher_length(59049, 0.0, 0.85e-3)
    assert reference.ell_prime == 3

    qs = (7, 64, 81, 1024, 59049)
    kappas = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    epsilons = (1.0, 0.5, 1e-1, 1e-2, 1e-3, 1e-5)
    for q in qs:
        log2_q = math.log2(q)
        for eps in epsilons:
            lengths = []
            for kappa in kappas:
                result = min_cipher_length(q, kappa, eps)
                # agreement with an independent evaluation of the formula
                real = (2.0 + log2_q + 2.0 * math.log2(1.0 / eps)) / (
                    (1.0 - kappa) * log2_q
                )
                assert result.ell_prime == max(2, math.ceil(real))
                assert result.ell_prime >= 2  # finite whenever kappa < 1
                lengths.append(result.ell_prime)
                # feeding the returned length back meets the budget
                params = SecrecyParams(Field.from_q(q), result.ell_prime)
                achieved = leakage_bound(
                    params, kappa_d2_bits(params, kappa)
                ).simplified
                assert achieved <= eps + 1e-9
            assert lengths == sorted(lengths)  # nondecreasing in kappa


def test_acceptance_6_capacity_interval_brackets_the_ratio():
    diagnostics = [capacity_diagnostics(n) for n in range(2, 13)]
    for n, d in zip(range(2, 13), diagnostics):
        target = (n * n - 2 * n) / (n * n)
        assert d.ratio_lower <= target <= d.ratio_upper
    ratios = [d.k_over_q for d in diagnostics]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    widths = [d.ratio_upper - d.ratio_lower for d in diagnostics]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_acceptance_7_challenge_count_beats_the_layered_baseline():
    """On the whole reference grid the planned challenge count n is minimal:
    (k/q)^n <= eps_2RS < (k/q)^(n-1)."""
    field = field_for(3, 10)
    q = field.q
    for ell in range(2, 7):
        for mult in (10, 20, 30, 40, 50):
            k = mult * ell
            target = IdCodeParams(field, ell, k)
            quote = epsilon_2rs(target)
            n = required_rm_challenges(target)
            ratio = Fraction(k, q)
            assert ratio ** n <= quote.error
            if n > 1:
                assert ratio ** (n - 1) > quote.error
            report = plan(q=q, ell=ell, k=k, kappa=0.2)
            assert report.n_challenges == n
            assert report.ell_prime >= 2
            assert report == plan(q=q, ell=ell, k=k, kappa=0.2)

    golden = plan(q=59049, ell=2, k=20, kappa=0.2)
    assert golden.n_challenges == 2
    assert (golden.rs_k_in, golden.rs_k_out) == (2, 115)
    assert golden.eps_2rs == Fraction(19721, 1162261467)
    assert golden.ell_prime == 3
    assert golden.wire_plain_symbols == 6
    assert golden.wire_secret_symbols == 10


def test_acceptance_8_latency_profile_at_reference_scale():
    """Bench the feasible reference grid: tag-independent operations stay
    flat while challenge generation tracks the coefficient count."""
    started = time.monotonic()
    records = run_grid(q=59049, kappa=0.2, reps=MIN_REPS, seed=7)
    assert records, "bench grid came back empty"
    assert all(r.reps >= MIN_REPS for r in records)

    by_op: dict = {}
    for r in records:
        by_op.setdefault(r.operation, []).append(r)
    assert set(by_op) == {"challenge", "encrypt", "decrypt", "verify"}

    # encryption and decryption never touch the polynomial, so the per-tag
    # median must stay within 3x across the whole grid
    for op in ("encrypt", "decrypt"):
        per_tag = [r.median_s / r.n_challenges for r in by_op[op]]
        assert max(per_tag) <= 3 * min(per_tag)

    # challenge generation is linear in the coefficient count: whenever one
    # grid point has at least twice the coefficients of another, it must
    # also take longer
    challenge = sorted(by_op["challenge"], key=lambda r: r.coeff_count)
    for a in challenge:
        for b in challenge:
            if b.coeff_count >= 2 * a.coeff_count:
                assert b.median_s > a.median_s
    smallest, largest = challenge[0], challenge[-1]
    assert largest.median_s > 10 * smallest.median_s

    # hiding a tag costs far less than computing one at production size
    enc_at_largest = next(
        r for r in by_op["encrypt"] if r.coeff_count == largest.coeff_count
    )
    assert enc_at_largest.median_s < largest.median_s

    assert time.monotonic() - started < 1800


def test_acceptance_9_field_arithmetic_is_sound_at_scale():
    started = time.monotonic()

    # exhaustive axioms and dual-path agreement on every field up to q = 81
    for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (2, 4), (2, 6), (3, 4)):
        field = field_for(p, m)
        q = field.q
        for a in range(q):
            assert field.add(a, 0) == a
            assert field.mul(a, 1) == a
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert field.mul(a, field.inv(a)) == 1
                assert field.pow(a, q - 1) == 1
        for a in range(q):
            for b in range(q):
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul_schoolbook(a, b)
                if field.p > 2 and field.m > 1:
                    assert field.add(a, b) == field._add_digits(a, b)
        probe = range(0, q, 7 if q > 27 else 1)
        for a in probe:
            for b in probe:
                for c in probe:
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )

    # production-size fields: table path against schoolbook on 10^5 random
    # pairs each
    for p, m in ((2, 16), (3, 10)):
        field = field_for(p, m)
        add_fast, mul_fast = field.fast_ops()
        rng = random.Random(p * m)
        for _ in range(100_000):
            a = rng.randrange(field.q)
            b = rng.randrange(field.q)
            expected = field.mul_schoolbook(a, b)
            assert field.mul(a, b) == expected
            assert mul_fast(a, b) == expected
            if p > 2:
                assert add_fast(a, b) == field._add_digits(a, b)

    assert time.monotonic() - started < 600
