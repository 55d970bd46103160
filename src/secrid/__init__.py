"""secrid: identification codecs over GF(q) with information-theoretically
secret tags, plus the exact oracles that keep the closed forms honest.

The exports load on first use (PEP 562): `import secrid` imports no
submodule, and `secrid.plan` or `from secrid import plan` imports the
module that defines it and what that module needs, nothing else, so a CLI
process pays for the layers its subcommand runs and no others."""

import importlib

__version__ = "0.1.0"

# the module that defines each name in __all__
_EXPORTS = {
    "ff": ("Field", "field_for", "prime_power"),
    "rmid": (
        "IdCodeParams", "Identity", "Challenge", "MultiChallenge", "identity_from_bytes",
        "evaluate_tag", "generate_challenge", "generate_multi", "verify", "verify_multi",
        "code_size_bits", "capacity_diagnostics",
    ),
    "rsid": ("RsIdParams", "RsErrorQuote", "epsilon_2rs"),
    "wiretap": (
        "SecrecyParams", "Seed", "SecretChallenge", "sample_seed", "encrypt", "decrypt",
        "encrypt_tags", "decrypt_tags", "leakage_bound", "min_cipher_length",
        "split_leakage_budget",
    ),
    "analysis": ("ChannelModel", "LeakageReport", "exact_leakage", "exact_id_error"),
    "planner": ("PlanReport", "plan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
