import re
from pathlib import Path

import secrid

README = Path(__file__).resolve().parents[1] / "README.md"

# The public surface.  A name leaves it only by an edit here, which the
# change log then has to explain.
PUBLIC_NAMES = [
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


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in secrid.__all__ if not hasattr(secrid, name)]
    assert missing == []
    assert len(set(secrid.__all__)) == len(secrid.__all__)


def test_public_names_are_pinned():
    assert sorted(secrid.__all__) == sorted(PUBLIC_NAMES)
