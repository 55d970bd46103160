"""Identification via Reed-Muller tag polynomials.

An identity is the coefficient vector of an ell-variate polynomial of total
degree at most k over GF(q), laid out in graded lexicographic monomial
order.  A challenge is a uniformly random point r of GF(q)^ell together
with the tag p_i(r); the verifier accepts iff its own polynomial agrees.
Distinct identities collide on at most a k/q fraction of points, and n
independent challenges push the false-accept bound to (k/q)^n while the
identity space stays doubly exponential in the challenge length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .ff import Field, field_for, find_irreducible


def monomial_exponents(ell: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all ell-variate monomials with total degree <= k,
    in graded lexicographic order (degree first, then ascending tuple
    comparison).  This fixed enumeration is the wire layout of identities."""
    out: list[tuple[int, ...]] = []
    for degree in range(k + 1):
        out.extend(_compositions(ell, degree))
    return out


def _compositions(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(slots - 1, total - first):
            yield (first,) + rest


def json_field(obj, key: str, kind: type):
    """obj[key], where obj must be a JSON object and obj[key] of exactly
    type kind: a ValueError, which the CLI reports as a data error, and not
    a TypeError traceback.  JSON true is a bool, so it never passes for 1."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def json_ints(obj, key: str) -> tuple[int, ...]:
    """obj[key] as a tuple, where obj[key] must be a list of integers."""
    values = json_field(obj, key, list)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{key} entries must be integers, got {v!r}")
    return tuple(values)


@dataclass(frozen=True)
class IdCodeParams:
    """Code geometry: GF(q), ell variables, degree bound k, and how many
    independent challenges a verification round uses."""

    field: Field
    ell: int
    k: int
    n_challenges: int = 1

    def __post_init__(self) -> None:
        for name in ("ell", "k", "n_challenges"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.ell < 1:
            raise ValueError(f"need at least one variable, got ell={self.ell}")
        if not 0 <= self.k < self.field.q:
            raise ValueError(
                f"degree bound k={self.k} must satisfy 0 <= k < q={self.field.q}"
            )
        if self.n_challenges < 1:
            raise ValueError(f"n_challenges must be >= 1, got {self.n_challenges}")

    @cached_property
    def coeff_count(self) -> int:
        return math.comb(self.ell + self.k, self.ell)

@lru_cache(maxsize=4)
def substitution_plan(ell: int, k: int) -> tuple:
    """Horner plan of the graded-lex layout, shared by every IdCodeParams of
    the same (ell, k).  Entry d serves a polynomial in the last ell - d
    variables, laid out as monomial_exponents(ell - d, k).  It holds one
    (top, rest) group per monomial t of the variables after the first, in
    the layout of entry d + 1: the indices of x^e * t for e from k - deg t
    down to 0, the Horner order.  Folding entry d at one value of its first
    variable costs a multiply-add per input coefficient, C(ell - d + k, k)."""
    plan = []
    for n in range(ell, 0, -1):
        # x^e * t, deg t = j, e + j = d: the degrees <= d end at C(n + d, n),
        # and the last C(n + j - 1, n - 1) of them, one per tail of degree
        # <= j, start at x^e times the first degree-j tail; t's rank r follows
        groups = []
        for j in range(k + 1):
            below = math.comb(n + j - 1, n - 1)
            top, *rest = (math.comb(n + d, n) - below for d in range(k, j - 1, -1))
            for r in range(math.comb(n + j - 2, j) if n > 1 else int(j == 0)):
                groups.append((top + r, tuple(i + r for i in rest)))
        plan.append(tuple(groups))
    return tuple(plan)


@dataclass(frozen=True)
class Identity:
    params: IdCodeParams
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.params.coeff_count:
            raise ValueError(
                f"identity needs {self.params.coeff_count} coefficients, "
                f"got {len(self.coeffs)}"
            )
        check = self.params.field._check
        for c in self.coeffs:
            check(c)

    @cached_property
    def _logs(self) -> list[int]:
        """Coefficient logs (-1 for 0); pickle-safe: one generator per (p, m)."""
        return list(map(self.params.field._tables[1].__getitem__, self.coeffs))

    def to_json_dict(self) -> dict:
        f = self.params.field
        return {
            "q_params": {
                "p": f.p,
                "m": f.m,
                "q": f.q,
                "irreducible": list(find_irreducible(f.p, f.m)),
            },
            "ell": self.params.ell,
            "k": self.params.k,
            "n": self.params.n_challenges,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Identity":
        qp = json_field(obj, "q_params", dict)
        field = field_for(json_field(qp, "p", int), json_field(qp, "m", int))
        irreducible = list(find_irreducible(field.p, field.m))
        if qp.get("irreducible", irreducible) != irreducible:
            raise ValueError("reducing polynomial does not match the canonical one")
        if "q" in qp and qp["q"] != field.q:
            raise ValueError(f"inconsistent q_params: q={qp['q']} vs p^m={field.q}")
        params = IdCodeParams(field, obj["ell"], obj["k"], obj.get("n", 1))
        return cls(params, tuple(json_field(obj, "coeffs", list)))


@dataclass(frozen=True)
class Challenge:
    r: tuple[int, ...]
    tag: int

    def to_json_dict(self) -> dict:
        return {"r": list(self.r), "tag": self.tag}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Challenge":
        # the tag is checked against the field by whoever uses it
        return cls(json_ints(obj, "r"), obj["tag"])

    def to_bytes(self, field: Field) -> bytes:
        """ell + 1 fixed-width symbols: the point, then the tag."""
        return field.encode_symbols(self.r + (self.tag,))


@dataclass(frozen=True)
class MultiChallenge:
    challenges: tuple[Challenge, ...]

    def to_bytes(self, field: Field) -> bytes:
        return b"".join(c.to_bytes(field) for c in self.challenges)


# ---------------------------------------------------------------------------
# byte-string identities

def identity_from_bytes(data: bytes, params: IdCodeParams) -> Identity:
    """Interpret bytes as one big-endian integer and expand it base q,
    most significant digit first, zero-padded to the coefficient count n.
    A value left over after n digits is refused (q^n is never computed)."""
    value = int.from_bytes(data, "big")
    q = params.field.q
    n = params.coeff_count
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        value, digits[i] = divmod(value, q)
    if value:
        raise ValueError(
            f"payload needs more than {n} base-{q} digits; "
            f"identity space holds only q^{n}"
        )
    return Identity(params, tuple(digits))


# ---------------------------------------------------------------------------
# challenge / verify

def evaluate_tag(identity: Identity, r: Sequence[int]) -> int:
    """p_i(r) by Horner, one variable at a time: substituting r_1 folds each
    group of substitution_plan into one coefficient of a polynomial in the
    variables left, and so on down to a constant.  One multiply-add per
    coefficient, plus C(ell - d + k, k) for each smaller level d >= 1.  With
    a Zech table it runs on logs (-1 for 0), one Zech lookup per step, and a
    zero coordinate leaves each group's constant; else on the fast_ops pair."""
    params = identity.params
    field = params.field
    if len(r) != params.ell:
        raise ValueError(f"point has {len(r)} coordinates, expected {params.ell}")
    point = tuple(field._check(x) for x in r)
    add, mul = field.fast_ops(params.coeff_count)
    tables = field._tables
    if tables is None or tables[2] is None:
        poly = identity.coeffs
        for groups, a in zip(substitution_plan(params.ell, params.k), point):
            folded = []
            for top, rest in groups:
                acc = poly[top]
                for i in rest:
                    acc = add(mul(acc, a), poly[i])
                folded.append(acc)
            poly = folded
        return poly[0]
    exp, log, zech = tables
    qm1 = field.q - 1
    poly = identity._logs
    for groups, a in zip(substitution_plan(params.ell, params.k), point):
        if a == 0:
            poly = [poly[rest[-1] if rest else top] for top, rest in groups]
            continue
        la = log[a]
        folded = []
        for top, rest in groups:
            acc = poly[top]
            for i in rest:
                c = poly[i]
                if acc < 0 or c < 0:
                    acc = c if acc < 0 else (acc + la) % qm1
                else:
                    z = zech[(acc + la - c) % qm1]
                    acc = c + z if z >= 0 else -1
            folded.append(acc - qm1 if acc >= qm1 else acc)
        poly = folded
    return exp[poly[0]] if poly[0] >= 0 else 0


def generate_challenge(identity: Identity, rng) -> Challenge:
    params = identity.params
    r = params.field.sample_vector(rng, params.ell)
    return Challenge(r, evaluate_tag(identity, r))


def verify(identity: Identity, challenge: Challenge) -> bool:
    return evaluate_tag(identity, challenge.r) == challenge.tag


def generate_multi(identity: Identity, rng) -> MultiChallenge:
    return MultiChallenge(
        tuple(
            generate_challenge(identity, rng)
            for _ in range(identity.params.n_challenges)
        )
    )


def verify_multi(identity: Identity, mc: MultiChallenge) -> bool:
    """Accept only if every challenge verifies."""
    return first_failure(identity, mc) is None


def first_failure(identity: Identity, mc: MultiChallenge) -> int | None:
    """0-based index of the first challenge that does not verify, or None."""
    if len(mc.challenges) != identity.params.n_challenges:
        raise ValueError(
            f"expected {identity.params.n_challenges} challenges, "
            f"got {len(mc.challenges)}"
        )
    return next((i for i, c in enumerate(mc.challenges) if not verify(identity, c)), None)


# How a round of n challenges splits its secrecy budget: the policies of
# wiretap.split_leakage_budget, named here so the CLI's parser can offer
# them without loading the cipher.
BUDGET_POLICIES = ("paper", "additive")


# ---------------------------------------------------------------------------
# size accounting

def code_size_bits(params: IdCodeParams) -> float:
    """log2 of the identity count: C(ell+k, ell) * log2 q."""
    return params.coeff_count * params.field.log2_q


@dataclass(frozen=True)
class CapacityDiagnostics:
    """Scaling ratios of the self-similar family q = 2^(n^2), k = 2^(n^2-n),
    ell = 2^n, computed purely in exponent arithmetic since q itself is
    astronomically large.  The loglog interval encloses loglog(I)/log(R)
    using (k/ell)^ell <= C(k+ell, ell) <= (e(k+ell)/ell)^ell."""

    n_seq: int
    ell: int
    log_t_over_log_r: float
    k_over_q: float
    ratio_lower: float
    ratio_upper: float

    def to_json_dict(self) -> dict:
        return {
            "n_seq": self.n_seq,
            "ell": self.ell,
            "log_t_over_log_r": self.log_t_over_log_r,
            "k_over_q": self.k_over_q,
            "loglog_ratio_interval": [self.ratio_lower, self.ratio_upper],
        }


def capacity_diagnostics(n_seq: int) -> CapacityDiagnostics:
    # n = 1023 is the last index whose ell = 2^n converts to a float
    if not 1 <= n_seq <= 1023:
        raise ValueError(f"sequence index must be in [1, 1023], got {n_seq}")
    n = n_seq
    ell = 2 ** n
    log2_q = n * n  # q = 2^(n^2), never materialized
    # tag/randomness rate: log q / (ell * log q)
    log_t_over_log_r = 1.0 / ell
    k_over_q = math.ldexp(1.0, -n)  # 2^(n^2-n) / 2^(n^2)
    # lower: log2(k/ell) / log2 q, exact in exponents
    lower = (n * n - 2 * n) / (n * n)
    # upper keeps the loglog q term and the (k+ell)/ell form
    tail = math.ldexp(1.0, 2 * n - n * n)  # (ell/k), underflows harmlessly
    log2_kpl_over_ell = (n * n - 2 * n) + math.log2(1.0 + tail)
    upper = (2 * math.log2(n) / ell + math.log2(math.e) + log2_kpl_over_ell) / (n * n)
    return CapacityDiagnostics(
        n_seq=n,
        ell=ell,
        log_t_over_log_r=log_t_over_log_r,
        k_over_q=k_over_q,
        ratio_lower=lower,
        ratio_upper=upper,
    )
