"""secrid: identification codecs over GF(q) with information-theoretically
secret tags, plus the exact oracles that keep the closed forms honest."""

from .ff import Field, field_for, prime_power
from .rmid import (
    Challenge,
    IdCodeParams,
    Identity,
    MultiChallenge,
    capacity_diagnostics,
    code_size_bits,
    error_bound,
    evaluate_tag,
    generate_challenge,
    generate_multi,
    identity_from_bytes,
    identity_to_bytes,
    verify,
    verify_multi,
)
from .rsid import RsErrorQuote, RsIdParams, epsilon_2rs, required_rm_challenges
from .wiretap import (
    Seed,
    SecrecyParams,
    SecretChallenge,
    decrypt,
    decrypt_tags,
    encrypt,
    encrypt_tags,
    leakage_bound,
    min_cipher_length,
    sample_seed,
    split_leakage_budget,
)
from .analysis import ChannelModel, LeakageReport, conditional_d2, exact_id_error, exact_leakage, renyi2, total_variation
from .planner import PlanReport, plan

__version__ = "0.1.0"

__all__ = [
    "Field",
    "field_for",
    "prime_power",
    "IdCodeParams",
    "Identity",
    "Challenge",
    "MultiChallenge",
    "identity_from_bytes",
    "identity_to_bytes",
    "evaluate_tag",
    "generate_challenge",
    "generate_multi",
    "verify",
    "verify_multi",
    "error_bound",
    "code_size_bits",
    "capacity_diagnostics",
    "RsIdParams",
    "RsErrorQuote",
    "epsilon_2rs",
    "required_rm_challenges",
    "SecrecyParams",
    "Seed",
    "SecretChallenge",
    "sample_seed",
    "encrypt",
    "decrypt",
    "encrypt_tags",
    "decrypt_tags",
    "leakage_bound",
    "min_cipher_length",
    "split_leakage_budget",
    "ChannelModel",
    "LeakageReport",
    "total_variation",
    "renyi2",
    "conditional_d2",
    "exact_leakage",
    "exact_id_error",
    "PlanReport",
    "plan",
]
