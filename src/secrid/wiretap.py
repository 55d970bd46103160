"""Affine hyperplane encryption of tags against a partially informed observer.

A tag m in GF(q) is hidden inside a ciphertext x in GF(q)^ell_prime lying on
the hyperplane s.x + s0 = m selected by a shared seed.  The seed's direction
vector s is drawn uniformly from normalized representatives of the
projective space: the highest nonzero coordinate (the pivot) equals 1 and
everything above it is 0, so there are (q^ell_prime - 1)/(q - 1) directions
and pivot position i (1-based) carries probability q^(i-1) over that count.
Encryption samples every non-pivot coordinate uniformly and solves for the
pivot coordinate, which makes the ciphertext uniform on the hyperplane and,
averaged over seeds, uniform on all of GF(q)^ell_prime.

What the observer learns is controlled by the collision-entropy budget of
its channel: with d2 observed bits the total variation between conditional
seed-observation laws is at most the tight bound below, at most
2 * sqrt(2^d2 / q^(ell_prime - 1)) in simplified form.  Writing the budget
as a fraction kappa of the ciphertext entropy, d2 = kappa * ell_prime *
log2 q, inverts into the minimum ciphertext length that meets a leakage
target epsilon.

The records (parameters, seeds, secret challenges, bounds) are rmid.Records.
fractions is imported only inside leakage_bound_squared, the one function
here that makes a Fraction, so encrypt and decrypt processes never load it.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence

from .ff import Field
from .rmid import (
    BUDGET_POLICIES, Challenge, MultiChallenge, Record, cached, json_field, json_ints,
)


class SecrecyParams(Record):
    """Ciphertext geometry: GF(q) and the ciphertext length ell_prime."""

    def __init__(self, field: Field, ell_prime: int) -> None:
        self.__dict__.update(field=field, ell_prime=ell_prime)
        if type(ell_prime) is not int or ell_prime < 2:
            raise ValueError(f"ciphertext length must be an integer >= 2, got {ell_prime!r}")

    @cached
    def direction_count(self) -> int:
        """Number of normalized direction vectors: (q^ell' - 1) / (q - 1),
        formed once per params: every seed drawn reads it."""
        q = self.field.q
        return (q ** self.ell_prime - 1) // (q - 1)

    @property
    def seed_space_size(self) -> int:
        return self.direction_count * self.field.q


def check_binary_seed_length(ell_prime: int) -> None:
    if ell_prime > 255:
        raise ValueError(
            f"the binary seed layout has a one-byte pivot field, so it "
            f"holds at most 255 coordinates; ell_prime is {ell_prime}"
        )


class Seed(Record):
    """s has s[pivot] == 1 and zeros above (pivot is a 0-based index here;
    serialized forms carry it 1-based)."""

    def __init__(self, s: tuple[int, ...], s0: int, pivot: int) -> None:
        self.__dict__.update(s=s, s0=s0, pivot=pivot)

    def validate(self, params: SecrecyParams) -> "Seed":
        if len(self.s) != params.ell_prime:
            raise ValueError(
                f"direction vector has {len(self.s)} coordinates, "
                f"expected {params.ell_prime}"
            )
        if not 0 <= self.pivot < params.ell_prime:
            raise ValueError(f"pivot {self.pivot} out of range")
        if self.s[self.pivot] != 1:
            raise ValueError("pivot coordinate must be 1")
        if any(c != 0 for c in self.s[self.pivot + 1 :]):
            raise ValueError("coordinates above the pivot must be 0")
        params.field._check_all((*self.s, self.s0))
        return self

    def to_json_dict(self) -> dict:
        return {"pivot": self.pivot + 1, "s": list(self.s), "s0": self.s0}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Seed":
        pivot = json_field(obj, "pivot", int)
        return cls(json_ints(obj, "s"), json_field(obj, "s0", int), pivot - 1)

    def to_bytes(self, field: Field) -> bytes:
        """1-based pivot byte, then ell_prime + 1 fixed-width symbols
        (s with its zeros, then s0).  The one byte holds pivots up to 255,
        so longer direction vectors are rejected whatever their pivot."""
        check_binary_seed_length(len(self.s))
        return bytes([self.pivot + 1]) + field.encode_symbols(self.s + (self.s0,))


class SecretChallenge(Record):
    """A challenge point in the clear plus the encrypted tag."""

    def __init__(self, r: tuple[int, ...], x: tuple[int, ...]) -> None:
        self.__dict__.update(r=r, x=x)

    def to_json_dict(self) -> dict:
        return {"r": list(self.r), "x": list(self.x)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SecretChallenge":
        return cls(json_ints(obj, "r"), json_ints(obj, "x"))

    def to_bytes(self, field: Field) -> bytes:
        return field.encode_symbols(self.r + self.x)


# ---------------------------------------------------------------------------
# seeds

def sample_seed(params: SecrecyParams, rng) -> Seed:
    """Uniform over the seed space.  The pivot (0-based j) is selected with
    probability q^j / direction_count by one uniform draw u against the
    cumulative counts (q^(j+1) - 1)/(q - 1): j is the one with
    q^j <= v = u (q - 1) + 1 < q^(j+1), floor(log_q v).  The estimate from
    v's bit length b, (b - 1/2) / log2 q, is within 1/2 of log_q v, so its
    floor is within one of j and one step corrects it.  Coordinates below
    the pivot and s0 are then uniform."""
    field = params.field
    q = field.q
    v = rng.randrange(params.direction_count) * (q - 1) + 1
    pivot = int((v.bit_length() - 0.5) / field.log2_q)
    power = q ** pivot
    if power > v:
        pivot -= 1
    elif power * q <= v:
        pivot += 1
    # the coordinates below the pivot, then s0, in one call
    drawn = field.sample_vector(rng, pivot + 1)
    s = drawn[:pivot] + (1,) + (0,) * (params.ell_prime - pivot - 1)
    return Seed(s, drawn[pivot], pivot)


def enumerate_seeds(params: SecrecyParams) -> Iterator[Seed]:
    """All direction_count * q seeds, deterministic order."""
    field = params.field
    q = field.q
    for pivot in range(params.ell_prime):
        for below in product(range(q), repeat=pivot):
            s = below + (1,) + (0,) * (params.ell_prime - pivot - 1)
            for s0 in range(q):
                yield Seed(s, s0, pivot)


# ---------------------------------------------------------------------------
# the cipher

def decrypt(params: SecrecyParams, seed: Seed, x: Sequence[int]) -> int:
    """m = s.x + s0, with the seed and every symbol of x validated here, once;
    the affine sum then runs unchecked."""
    field = params.field
    if len(x) != params.ell_prime:
        raise ValueError(f"ciphertext has {len(x)} symbols, expected {params.ell_prime}")
    seed.validate(params)
    field._check_all(x)
    return _affine_sum(field, seed, x, *field.fast_ops(seed.pivot + 1))


def _affine_sum(field: Field, seed: Seed, x: Sequence[int], add, mul) -> int:
    """s.x + s0, summed through the pivot (s is 0 above it): on logs (-1 for
    0), one Zech lookup per term, given a Zech table; else on add and mul."""
    terms = zip(seed.s[: seed.pivot + 1], x)
    tables = field._tables
    if tables is None or tables[2] is None:
        acc = seed.s0
        for sj, xj in terms:
            acc = add(acc, mul(sj, xj))
        return acc
    exp, log, zech = tables
    qm1 = field.q - 1
    acc = log[seed.s0]
    for sj, xj in terms:
        if sj and xj:
            t = log[sj] + log[xj]
            if acc < 0:
                acc = t
            else:
                z = zech[(acc - t) % qm1]
                acc = t + z if z >= 0 else -1
    return exp[acc % qm1] if acc >= 0 else 0


def _solve_pivot(field: Field, seed: Seed, message: int, free: Sequence[int]) -> tuple[int, ...]:
    """The point of s.x + s0 = message with the free coordinates around the
    pivot, whose slot is solved for after a sum taken with it at 0.  Runs
    unchecked: the caller has validated seed, message and free."""
    pivot = seed.pivot
    x = [*free[:pivot], 0, *free[pivot:]]
    add, mul = field.fast_ops(pivot + 1)
    # the canonical integer p - 1 is the constant -1
    x[pivot] = add(message, mul(_affine_sum(field, seed, x, add, mul), field.p - 1))
    return tuple(x)


def encrypt(params: SecrecyParams, seed: Seed, message: int, rng) -> tuple[int, ...]:
    """Uniform point of the hyperplane s.x + s0 = message: non-pivot
    coordinates are sampled in ascending position order, then the pivot
    coordinate is solved for.  message and the seed are validated here,
    once, before any draw; the solve runs on the field's unchecked pair."""
    field = params.field
    field._check(message)
    seed.validate(params)
    return _solve_pivot(field, seed, message, field.sample_vector(rng, params.ell_prime - 1))


def hyperplane(params: SecrecyParams, seed: Seed, message: int) -> Iterator[tuple[int, ...]]:
    """All q^(ell_prime - 1) ciphertexts decrypting to message under seed."""
    field = params.field
    field._check(message)
    seed.validate(params)
    for free in product(range(field.q), repeat=params.ell_prime - 1):
        yield _solve_pivot(field, seed, message, free)


def encrypt_tags(
    params: SecrecyParams, mc: MultiChallenge, seeds: Sequence[Seed], rng
) -> tuple[SecretChallenge, ...]:
    challenges = mc.challenges
    if len(challenges) != len(seeds):
        raise ValueError(
            f"{len(challenges)} challenges but {len(seeds)} seeds; need one each"
        )
    return tuple(
        SecretChallenge(c.r, encrypt(params, seed, c.tag, rng))
        for c, seed in zip(challenges, seeds)
    )


def decrypt_tags(
    params: SecrecyParams,
    seeds: Sequence[Seed],
    secrets: Sequence[SecretChallenge],
) -> MultiChallenge:
    if len(secrets) != len(seeds):
        raise ValueError(f"{len(secrets)} ciphertexts but {len(seeds)} seeds")
    return MultiChallenge(
        tuple(
            Challenge(sc.r, decrypt(params, seed, sc.x))
            for sc, seed in zip(secrets, seeds)
        )
    )


# ---------------------------------------------------------------------------
# leakage accounting

class LeakageBounds(Record):
    def __init__(self, d2_bits: float, tight: float, simplified: float) -> None:
        self.__dict__.update(d2_bits=d2_bits, tight=tight, simplified=simplified)


def leakage_bound(params: SecrecyParams, d2_bits: float) -> LeakageBounds:
    """Both total-variation bounds for an observer holding d2_bits of
    collision information, clamped at the trivial maximum 2.  A ciphertext
    of more than 2^21 bits (ell' log2 q) is refused before q^ell' is formed."""
    q = params.field.q
    lp = params.ell_prime
    bits = lp * params.field.log2_q
    if bits > 1 << 21:
        raise ValueError(f"ell'={lp} symbols over GF({q}) are above the limit of 2^21 bits")
    if not 0 <= d2_bits <= bits * (1 + 1e-12):  # NaN too
        raise ValueError(f"d2_bits={d2_bits} outside [0, ell_prime * log2 q]")
    if d2_bits <= 512.0:
        # at 2^d2 exactly, each square rounded once as float() of its Fraction is
        (tn, td), (sn, sd) = _squares(q, lp, *(2.0 ** d2_bits).as_integer_ratio())
        tight = min(2.0, math.sqrt(tn / td))
        simplified = min(2.0, math.sqrt(sn / sd))
    else:
        # 2^d2 would overflow a float; at this size 2^d2 - 1 is 2^d2 to within
        # 2^-512, so both bounds are taken in exponent space (underflow is 0)
        num, den = _tight_terms(q, lp)
        tight = 2.0 ** min(1.0, (d2_bits + _log2_ratio(4 * num, den)) / 2.0)
        simplified = 2.0 ** min(1.0, (2.0 + d2_bits - (lp - 1) * params.field.log2_q) / 2.0)
    return LeakageBounds(d2_bits=d2_bits, tight=tight, simplified=simplified)


def _log2_ratio(num: int, den: int) -> float:
    """log2 of num / den > 0 for terms that may exceed float range."""
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        scaled = num / (den << shift)
    else:
        scaled = (num << -shift) / den
    return shift + math.log2(scaled)


def _tight_terms(q: int, ell_prime: int) -> tuple[int, int]:
    """Numerator and denominator, in lowest terms, of the tight bound's
    factor (q^ell' - q^(ell'-1) + q^(ell'-2) - 1) / ((q^ell' - 1) q^(ell'-1)).
    The numerator falls short of q^ell' - 1 by q^(ell'-2) (q - 1), and is
    -1 mod q for ell' > 2 and q (q - 1) for ell' = 2, so the terms' gcd is
    its gcd with q (q - 1); no gcd of two terms of megabits is taken."""
    if ell_prime < 2:
        raise ValueError("bounds assume ell_prime >= 2")
    low = q ** (ell_prime - 2)
    mid = low * q
    top = mid * q
    num = top - mid + low - 1
    g = math.gcd(num, q * (q - 1))
    return num // g, (top - 1) * mid // g


def _squares(q: int, ell_prime: int, top: int, bottom: int) -> tuple[tuple[int, int], ...]:
    """Both squared bounds at 2^d2 = top / bottom, as integer (numerator,
    denominator) pairs: 4 (2^d2 - 1) times the tight factor, and 4 * 2^d2 / q^(ell'-1)."""
    num, den = _tight_terms(q, ell_prime)
    return (4 * num * (top - bottom), den * bottom), (4 * top, bottom * q ** (ell_prime - 1))


def leakage_bound_squared(
    q: int, ell_prime: int, pow2_d2: Fraction
) -> tuple[Fraction, Fraction]:
    """Squares of both bounds as exact rationals in 2^d2, so exact leakage
    statistics can be compared without touching floats."""
    from fractions import Fraction  # its only user here: a round never loads it

    tight, simplified = _squares(q, ell_prime, pow2_d2.numerator, pow2_d2.denominator)
    return Fraction(*tight), Fraction(*simplified)


def kappa_d2_bits(params: SecrecyParams, kappa: float) -> float:
    """Observer budget as a fraction kappa of the ciphertext entropy."""
    if not 0.0 <= kappa <= 1.0:  # NaN too
        raise ValueError(f"kappa must be a fraction in [0, 1], got {kappa}")
    return kappa * params.ell_prime * params.field.log2_q


class MinLength(Record):
    def __init__(self, ell_prime: int, real_bound: float) -> None:
        self.__dict__.update(ell_prime=ell_prime, real_bound=real_bound)


def min_cipher_length(q: int, kappa: float, epsilon: float) -> MinLength:
    """Smallest ciphertext length keeping the simplified bound at or below
    epsilon when the observer captures a kappa fraction of every symbol:
    ell' >= (2 + log2 q + 2 log2(1/epsilon)) / ((1 - kappa) log2 q), with a
    floor of 2.  Diverges as kappa -> 1, hence the domain error there."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if not kappa >= 0.0:  # negative or NaN
        raise ValueError(f"kappa must be a fraction in [0, 1), got {kappa}")
    if kappa >= 1.0:
        raise ValueError(
            f"kappa={kappa}: no finite ciphertext length once the observer "
            "captures a full symbol fraction"
        )
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    log2_q = math.log2(q)
    inv = 1.0 / epsilon  # inf below ~5.6e-309, where log2(1/epsilon) is -log2(epsilon)
    bits = math.log2(inv) if inv < math.inf else -math.log2(epsilon)
    real = (2.0 + log2_q + 2.0 * bits) / ((1.0 - kappa) * log2_q)
    return MinLength(ell_prime=max(2, math.ceil(real)), real_bound=real)


def split_leakage_budget(epsilon_total, n: int, policy: str = "paper"):
    """Per-challenge budget for n challenges.  "paper" is the multiplicative
    accounting the length formula is calibrated for (epsilon^(1/n));
    "additive" divides the budget as epsilon/n, matching the subadditive
    composition of total variation and never exceeding the other rule."""
    if n < 1:
        raise ValueError(f"challenge count must be >= 1, got {n}")
    if not 0 < epsilon_total <= 2:
        raise ValueError(f"budget must be in (0, 2], got {epsilon_total}")
    if policy == "paper":
        return float(epsilon_total) ** (1.0 / n)
    if policy == "additive":
        return epsilon_total / n
    raise ValueError(f"unknown budget policy {policy!r}; use one of {BUDGET_POLICIES}")
