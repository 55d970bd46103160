"""Identification via Reed-Muller tag polynomials.

An identity is the coefficient vector of an ell-variate polynomial of total
degree at most k over GF(q), laid out in graded lexicographic monomial
order.  A challenge is a uniformly random point r of GF(q)^ell together
with the tag p_i(r); the verifier accepts iff its own polynomial agrees.
Distinct identities collide on at most a k/q fraction of points, and n
independent challenges push the false-accept bound to (k/q)^n while the
identity space stays doubly exponential in the challenge length.

The records here and in the other layers (parameters, identities,
challenges, seeds, reports) are immutable Records: each names its fields
once, in its own __init__, and compares, hashes and prints as
Name(field=value, ...) over them, with no class generated at import, so a
cold CLI process loads nothing for them.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
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


class DomainError(ValueError):
    """Anything that is the caller's data rather than the caller's syntax."""


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


class Record:
    """Base of the immutable records.  A subclass names its fields once, as
    the parameters of its own __init__, which stores them with
    self.__dict__.update(...) and then checks them.  Equality (within one
    class only), the hash and the repr Name(field=value, ...) run over them;
    assigning or deleting an attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """functools.cached_property without its lock: the first read stores
    the value in the instance __dict__, which then shadows this non-data
    descriptor, so later reads never reach it."""

    def __init__(self, func) -> None:
        self.func = func

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


def json_ints(obj, key: str) -> tuple[int, ...]:
    """obj[key] as a tuple, where obj[key] must be a list of integers."""
    values = json_field(obj, key, list)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{key} entries must be integers, got {v!r}")
    return tuple(values)


class IdCodeParams(Record):
    """Code geometry: GF(q), ell variables, degree bound k, and how many
    independent challenges a verification round uses."""

    def __init__(self, field: Field, ell: int, k: int, n_challenges: int = 1) -> None:
        self.__dict__.update(field=field, ell=ell, k=k, n_challenges=n_challenges)
        for name, value in (("ell", ell), ("k", k), ("n_challenges", n_challenges)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if ell < 1:
            raise ValueError(f"need at least one variable, got ell={ell}")
        if not 0 <= k < field.q:
            raise ValueError(f"degree bound k={k} must satisfy 0 <= k < q={field.q}")
        if n_challenges < 1:
            raise ValueError(f"n_challenges must be >= 1, got {n_challenges}")

    @cached
    def coeff_count(self) -> int:
        return math.comb(self.ell + self.k, self.ell)

    def coeff_count_above(self, limit: int) -> bool:
        """coeff_count > limit, without forming a huge count: with
        r = min(ell, k) the count is C(ell + k, r) >= 2^r, as ell + k >= 2r,
        so an r of limit's bit length or more is already above it."""
        r = min(self.ell, self.k)
        return r >= limit.bit_length() or math.comb(self.ell + self.k, r) > limit

    def check_round(self) -> None:
        """Refuse a challenge round of more than 2^16 point coordinates
        (n * ell) or 2^25 coefficient terms (n * coeff_count), without
        forming a huge count: n = 2 stays within the 2^24-coefficient mint cap."""
        n = self.n_challenges
        if n * self.ell > 1 << 16 or self.coeff_count_above((1 << 25) // n):
            raise ValueError(
                f"a round of n={n} challenges at ell={self.ell}, k={self.k} is above"
                " the limits of 2^16 point coordinates and 2^25 coefficient terms"
            )

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


class Identity(Record):
    def __init__(self, params: IdCodeParams, coeffs: tuple[int, ...]) -> None:
        self.__dict__.update(params=params, coeffs=coeffs)
        ell, k, n = params.ell, params.k, len(coeffs)
        if params.coeff_count_above(n) or params.coeff_count != n:
            raise ValueError(
                f"identity of ell={ell}, k={k} needs C({ell + k}, {ell}) coefficients, got {n}"
            )
        params.check_round()
        params.field._check_all(coeffs)

    @cached
    def _logs(self) -> list[int]:
        """Coefficient logs (-1 for 0); pickle-safe: one generator per (p, m)."""
        return list(map(self.params.field._tables[1].__getitem__, self.coeffs))

    @cached
    def _packed(self) -> list[int]:
        """Coefficients with one base-p digit per byte, for the packed kernel."""
        field = self.params.field
        return list(map(_packing(field.p, field.m)[0], self.coeffs))

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


class Challenge(Record):
    def __init__(self, r: tuple[int, ...], tag: int) -> None:
        self.__dict__.update(r=r, tag=tag)

    def to_json_dict(self) -> dict:
        return {"r": list(self.r), "tag": self.tag}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Challenge":
        # the tag is checked against the field by verify
        return cls(json_ints(obj, "r"), obj["tag"])

    def to_bytes(self, field: Field) -> bytes:
        """ell + 1 fixed-width symbols: the point, then the tag."""
        return field.encode_symbols(self.r + (self.tag,))


class MultiChallenge(Record):
    def __init__(self, challenges: tuple[Challenge, ...]) -> None:
        self.__dict__.update(challenges=challenges)

    def to_bytes(self, field: Field) -> bytes:
        return b"".join(c.to_bytes(field) for c in self.challenges)


# ---------------------------------------------------------------------------
# byte-string identities

def identity_from_bytes(data: bytes, params: IdCodeParams) -> Identity:
    """Interpret bytes as one big-endian integer and expand it base q,
    most significant digit first, zero-padded to the coefficient count n.
    A value left over after n digits is refused (q^n is never computed);
    one of more than n * q.bit_length() bits is at least q^n, so it is
    refused before the expansion."""
    value = int.from_bytes(data, "big")
    q = params.field.q
    n = params.coeff_count
    digits = [0] * n
    if value.bit_length() <= n * q.bit_length():
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

@lru_cache(maxsize=None)
def _packing(p: int, m: int) -> tuple | None:
    """(spread, powers, mod_p) of the packed kernel of GF(p^m), or None for
    a field it does not serve.  An element is packed one base-p digit per
    byte, low digit first: spread packs a canonical integer w digits at a
    time through a table of the p^w <= 256 chunks, and powers(a) packs
    a * x^i mod f for i < m, multiplying by x as a shift whose top digit t
    folds back as t * (x^m mod f).  mod_p reduces every byte of a bytes
    object mod p through bytes.translate.  A multiply-add then sums m + 1
    packed terms whose bytes stay at most m (p - 1)^2 + p - 1: the kernel
    serves the fields where that is at most 255, so no byte carries."""
    if p == 2 or m == 1 or m * (p - 1) ** 2 + p - 1 > 255:
        return None
    table, width = [0], 0
    while len(table) * p <= 256:
        table = [t + (d << width) for d in range(p) for t in table]
        width += 8
    chunk, top = len(table), 8 * m
    mod_p = bytes(b % p for b in range(256))
    neg_f = int.from_bytes(bytes(-c % p for c in find_irreducible(p, m)[:m]), "little")

    def spread(c: int) -> int:
        out = shift = 0
        while c:
            c, r = divmod(c, chunk)
            out += table[r] << shift
            shift += width
        return out

    def powers(v: int) -> list[int]:
        out = []
        for _ in range(m):
            out.append(v)
            t = v >> (top - 8)
            v = (v << 8) + t * neg_f - (t << top)
            v = int.from_bytes(v.to_bytes(m, "little").translate(mod_p), "little")
        return out

    return spread, powers, mod_p


def evaluate_tag(identity: Identity, r: Sequence[int]) -> int:
    """p_i(r) by Horner, one variable at a time: substituting r_1 folds each
    group of substitution_plan into one coefficient of a polynomial in the
    variables left, and so on down to a constant.  One multiply-add per
    coefficient, plus C(ell - d + k, k) for each smaller level d >= 1.  With
    tables it runs on logs (-1 for 0), one Zech lookup per step, and a zero
    coordinate leaves each group's constant.  A field with no tables that
    _packing serves runs on packed digits: x -> a * x is GF(p)-linear, so a
    step is the sum of the accumulator's digits times the packed a * x^i,
    plus the packed coefficient, each byte then reduced mod p.  Every other
    field with no tables runs on the fast_ops pair."""
    params = identity.params
    field = params.field
    if len(r) != params.ell:
        raise ValueError(f"point has {len(r)} coordinates, expected {params.ell}")
    point = tuple(field._check(x) for x in r)
    add, mul = field.fast_ops(params.coeff_count)
    tables = field._tables
    packing = tables is None and _packing(field.p, field.m)
    if packing:
        spread, powers, mod_p = packing
        m = field.m
        poly = identity._packed
        for groups, a in zip(substitution_plan(params.ell, params.k), point):
            times_a = powers(spread(a))
            folded = []
            for top, rest in groups:
                acc = poly[top].to_bytes(m, "little")
                for i in rest:
                    acc = sum(map(operator.mul, acc, times_a), poly[i])
                    acc = acc.to_bytes(m, "little").translate(mod_p)
                folded.append(int.from_bytes(acc, "little"))
            poly = folded
        return sum(map(operator.mul, poly[0].to_bytes(m, "little"), field._places))
    if tables is None:
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
    return evaluate_tag(identity, challenge.r) == identity.params.field._check(challenge.tag)


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
    """0-based index of the first challenge that does not verify, or None.
    Every tag is checked against the field before the count and any evaluation."""
    identity.params.field._check_all([c.tag for c in mc.challenges])
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


class CapacityDiagnostics(Record):
    """Scaling ratios of the self-similar family q = 2^(n^2), k = 2^(n^2-n),
    ell = 2^n, computed purely in exponent arithmetic since q itself is
    astronomically large.  The loglog interval encloses loglog(I)/log(R)
    using (k/ell)^ell <= C(k+ell, ell) <= (e(k+ell)/ell)^ell."""

    def __init__(
        self, n_seq: int, ell: int, log_t_over_log_r: float, k_over_q: float,
        ratio_lower: float, ratio_upper: float,
    ) -> None:
        self.__dict__.update(
            n_seq=n_seq, ell=ell, log_t_over_log_r=log_t_over_log_r, k_over_q=k_over_q,
            ratio_lower=ratio_lower, ratio_upper=ratio_upper,
        )

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
