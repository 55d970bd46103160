"""End-to-end parameter planning.

plan() chains the accounting: pick the code geometry, quote the strongest
size-matched two-layer baseline, choose the number of challenges that beats
it, split the leakage budget over those challenges, and size the ciphertext
for a given observer fraction kappa.  The report carries every intermediate
so a run is reproducible from its JSON alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ff import field_for, prime_power
from .rmid import DomainError, IdCodeParams, Record, code_size_bits
from .rsid import epsilon_2rs, min_challenges_for
from .wiretap import min_cipher_length, split_leakage_budget


class PlanReport(Record):
    def __init__(
        self, p: int, m: int, q: int, ell: int, k: int, coeff_count: int,
        identity_bits: float, symbol_bits: int, eps_2rs: Fraction, rs_k_in: int,
        rs_k_out: int, n_challenges: int, budget_policy: str, epsilon_total: float,
        per_challenge_epsilon: float, kappa: float, ell_prime: int,
        ell_prime_real: float, wire_plain_symbols: int, wire_secret_symbols: int,
    ) -> None:
        self.__dict__.update(
            p=p, m=m, q=q, ell=ell, k=k, coeff_count=coeff_count,
            identity_bits=identity_bits, symbol_bits=symbol_bits, eps_2rs=eps_2rs,
            rs_k_in=rs_k_in, rs_k_out=rs_k_out, n_challenges=n_challenges,
            budget_policy=budget_policy, epsilon_total=epsilon_total,
            per_challenge_epsilon=per_challenge_epsilon, kappa=kappa,
            ell_prime=ell_prime, ell_prime_real=ell_prime_real,
            wire_plain_symbols=wire_plain_symbols, wire_secret_symbols=wire_secret_symbols,
        )

    def to_json_dict(self) -> dict:
        return {
            **dict(zip(self._fields, self._values())),
            "eps_2rs": float(self.eps_2rs),
            "eps_2rs_exact": str(self.eps_2rs),
            "wire_plain_bits": self.wire_plain_symbols * self.symbol_bits,
            "wire_secret_bits": self.wire_secret_symbols * self.symbol_bits,
        }


def plan(
    q: int,
    ell: int,
    k: int,
    kappa: float,
    budget_policy: str = "paper",
    epsilon_total: float | None = None,
) -> PlanReport:
    """Full pipeline for one parameter point.

    epsilon_total defaults to the two-layer baseline error, i.e. the
    identification advantage is spent as the secrecy budget; pass an
    explicit budget to decouple the two."""
    p, m = prime_power(q)
    field = field_for(p, m)
    params = IdCodeParams(field, ell, k)
    # identity_bits = count * log2 q is a float: float(count) overflows from
    # 2^1024 - 2^970 on, and the product may overflow below that
    limit = 2 ** 1024 - 2 ** 970 - 1
    if params.coeff_count_above(limit) or math.isinf(params.coeff_count * field.log2_q):
        raise DomainError("C(ell + k, ell) * log2 q is past 2^1024, the float range")
    quote = epsilon_2rs(params)
    # the challenge count is always sized to beat the layered baseline;
    # an explicit epsilon_total only changes the secrecy budget being split
    n = min_challenges_for(Fraction(k, q), quote.error)
    if epsilon_total is not None and not 0 < epsilon_total <= 2:  # NaN, inf too
        raise ValueError(f"budget must be in (0, 2], got {epsilon_total}")
    eps_total = quote.error if epsilon_total is None else Fraction(epsilon_total)
    if eps_total <= 0:
        raise ValueError(
            "leakage budget is zero; nothing can meet it with a finite ciphertext"
        )
    per_challenge = float(split_leakage_budget(eps_total, n, budget_policy))
    if not 0 < per_challenge <= 1:
        raise ValueError(
            f"budget {float(eps_total)} split over {n} challenges by the {budget_policy!r}"
            f" policy leaves {per_challenge} per challenge, outside (0, 1]"
        )
    length = min_cipher_length(q, kappa, per_challenge)
    return PlanReport(
        p=p,
        m=m,
        q=q,
        ell=ell,
        k=k,
        coeff_count=params.coeff_count,
        identity_bits=code_size_bits(params),
        symbol_bits=field.symbol_bits,
        eps_2rs=quote.error,
        rs_k_in=quote.params.k_in,
        rs_k_out=quote.params.k_out,
        n_challenges=n,
        budget_policy=budget_policy,
        epsilon_total=float(eps_total),
        per_challenge_epsilon=per_challenge,
        kappa=kappa,
        ell_prime=length.ell_prime,
        ell_prime_real=length.real_bound,
        wire_plain_symbols=n * (ell + 1),
        wire_secret_symbols=n * (ell + length.ell_prime),
    )
