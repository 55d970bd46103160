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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .ff import Field
from .rmid import Challenge, MultiChallenge, json_field, json_ints


@dataclass(frozen=True)
class SecrecyParams:
    """Ciphertext geometry: GF(q) and the ciphertext length ell_prime."""

    field: Field
    ell_prime: int

    def __post_init__(self) -> None:
        if type(self.ell_prime) is not int or self.ell_prime < 2:
            raise ValueError(
                f"ciphertext length must be an integer >= 2, got {self.ell_prime!r}"
            )

    @property
    def direction_count(self) -> int:
        """Number of normalized direction vectors: (q^ell' - 1) / (q - 1)."""
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


@dataclass(frozen=True)
class Seed:
    """s has s[pivot] == 1 and zeros above (pivot is a 0-based index here;
    serialized forms carry it 1-based)."""

    s: tuple[int, ...]
    s0: int
    pivot: int

    def validate(self, params: SecrecyParams) -> "Seed":
        q = params.field.q
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
        for c in (*self.s, self.s0):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < q:
                raise ValueError("seed coordinates outside the field")
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


@dataclass(frozen=True)
class SecretChallenge:
    """A challenge point in the clear plus the encrypted tag."""

    r: tuple[int, ...]
    x: tuple[int, ...]

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
    probability q^j / direction_count by one uniform draw against the
    cumulative counts (q^(j+1) - 1)/(q - 1); coordinates below it and s0
    are then uniform."""
    field = params.field
    q = field.q
    u = rng.randrange(params.direction_count)
    pivot = 0
    cumulative = 1  # (q^1 - 1)/(q - 1)
    block = 1
    while cumulative <= u:
        block *= q
        cumulative += block
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
    """m = s.x + s0.  The seed and every symbol of x are validated here,
    once; the sum then runs on the field's unchecked pair, over the
    coordinates up to the pivot (the ones above it are 0)."""
    field = params.field
    if len(x) != params.ell_prime:
        raise ValueError(f"ciphertext has {len(x)} symbols, expected {params.ell_prime}")
    seed.validate(params)
    for v in x:
        field._check(v)
    pivot, s = seed.pivot, seed.s
    add, mul = field.fast_ops(pivot + 1)
    acc = add(seed.s0, x[pivot])  # s[pivot] = 1
    for j in range(pivot):
        acc = add(acc, mul(s[j], x[j]))
    return acc


def _solve_pivot(field: Field, seed: Seed, message: int, x: list[int]) -> tuple[int, ...]:
    """Fill x[pivot] with message - (s0 + sum_(j<pivot) s_j x_j), putting x
    on the hyperplane; coordinates above the pivot have s_j = 0.  Runs on
    the unchecked pair: the caller has validated seed, message and x."""
    pivot, s = seed.pivot, seed.s
    add, mul = field.fast_ops(pivot + 1)
    acc = seed.s0
    for j in range(pivot):
        acc = add(acc, mul(s[j], x[j]))
    # the canonical integer p - 1 is the constant -1
    x[pivot] = add(message, mul(acc, field.p - 1))
    return tuple(x)


def encrypt(params: SecrecyParams, seed: Seed, message: int, rng) -> tuple[int, ...]:
    """Uniform point of the hyperplane s.x + s0 = message: non-pivot
    coordinates are sampled in ascending position order, then the pivot
    coordinate is solved for.  message and the seed are validated here,
    once, before any draw; the solve runs on the field's unchecked pair."""
    field = params.field
    field._check(message)
    seed.validate(params)
    free = field.sample_vector(rng, params.ell_prime - 1)
    pivot = seed.pivot
    return _solve_pivot(field, seed, message, [*free[:pivot], 0, *free[pivot:]])


def hyperplane(params: SecrecyParams, seed: Seed, message: int) -> Iterator[tuple[int, ...]]:
    """All q^(ell_prime - 1) ciphertexts decrypting to message under seed."""
    field = params.field
    field._check(message)
    seed.validate(params)
    pivot = seed.pivot
    for free in product(range(field.q), repeat=params.ell_prime - 1):
        yield _solve_pivot(field, seed, message, [*free[:pivot], 0, *free[pivot:]])


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

@dataclass(frozen=True)
class LeakageBounds:
    d2_bits: float
    tight: float
    simplified: float


def leakage_bound(params: SecrecyParams, d2_bits: float) -> LeakageBounds:
    """Both total-variation bounds for an observer holding d2_bits of
    collision information, clamped at the trivial maximum 2."""
    q = params.field.q
    lp = params.ell_prime
    if not 0 <= d2_bits <= lp * params.field.log2_q * (1 + 1e-12):  # NaN too
        raise ValueError(
            f"d2_bits={d2_bits} outside [0, ell_prime * log2 q]"
        )
    if d2_bits <= 512.0:
        pow2 = 2.0 ** d2_bits
        tight_sq, simplified_sq = leakage_bound_squared(q, lp, Fraction(pow2))
        return LeakageBounds(
            d2_bits=d2_bits,
            tight=min(2.0, math.sqrt(float(tight_sq))),
            simplified=min(2.0, math.sqrt(float(simplified_sq))),
        )
    # 2^d2 would overflow a float; at this size 2^d2 - 1 is 2^d2 to within
    # 2^-512, so both bounds are evaluated in exponent space instead
    factor4, _ = leakage_bound_squared(q, lp, Fraction(2))  # = 4 * tight factor
    log2_tight_sq = d2_bits + _log2_fraction(factor4)
    log2_simplified_sq = 2.0 + d2_bits - (lp - 1) * params.field.log2_q
    return LeakageBounds(
        d2_bits=d2_bits,
        tight=_clamped_root_pow2(log2_tight_sq),
        simplified=_clamped_root_pow2(log2_simplified_sq),
    )


def _log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational whose terms may exceed float range."""
    num, den = fr.numerator, fr.denominator
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        scaled = num / (den << shift)
    elif shift < 0:
        scaled = (num << -shift) / den
    else:
        scaled = num / den
    return shift + math.log2(scaled)


def _clamped_root_pow2(log2_sq: float) -> float:
    """sqrt(2^log2_sq) capped at 2; underflow collapses to 0 harmlessly."""
    half = log2_sq / 2.0
    return 2.0 if half >= 1.0 else 2.0 ** half


def leakage_bound_squared(
    q: int, ell_prime: int, pow2_d2: Fraction
) -> tuple[Fraction, Fraction]:
    """Squares of both bounds as exact rationals in 2^d2, so exact leakage
    statistics can be compared without touching floats."""
    if ell_prime < 2:
        raise ValueError("bounds assume ell_prime >= 2")
    qlp = q ** ell_prime
    tight_factor = Fraction(
        qlp - q ** (ell_prime - 1) + q ** (ell_prime - 2) - 1,
        (qlp - 1) * q ** (ell_prime - 1),
    )
    tight_sq = 4 * tight_factor * (pow2_d2 - 1)
    simplified_sq = 4 * pow2_d2 / q ** (ell_prime - 1)
    return tight_sq, simplified_sq


def kappa_d2_bits(params: SecrecyParams, kappa: float) -> float:
    """Observer budget as a fraction kappa of the ciphertext entropy."""
    return kappa * params.ell_prime * params.field.log2_q


@dataclass(frozen=True)
class MinLength:
    ell_prime: int
    real_bound: float


def min_cipher_length(q: int, kappa: float, epsilon: float) -> MinLength:
    """Smallest ciphertext length keeping the simplified bound at or below
    epsilon when the observer captures a kappa fraction of every symbol:
    ell' >= (2 + log2 q + 2 log2(1/epsilon)) / ((1 - kappa) log2 q), with a
    floor of 2.  Diverges as kappa -> 1, hence the domain error there."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if not 0.0 <= kappa < 1.0:
        raise ValueError(
            f"kappa={kappa}: no finite ciphertext length once the observer "
            "captures a full symbol fraction"
        )
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    log2_q = math.log2(q)
    real = (2.0 + log2_q + 2.0 * math.log2(1.0 / epsilon)) / ((1.0 - kappa) * log2_q)
    return MinLength(ell_prime=max(2, math.ceil(real)), real_bound=real)


BUDGET_POLICIES = ("paper", "additive")


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
        if n == 1:
            return epsilon_total
        return float(epsilon_total) ** (1.0 / n)
    if policy == "additive":
        return epsilon_total / n
    raise ValueError(f"unknown budget policy {policy!r}; use one of {BUDGET_POLICIES}")
