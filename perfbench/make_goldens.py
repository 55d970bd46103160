#!/usr/bin/env python3
"""Regenerate perfbench/goldens.json, the exact answers the oracles workload
checks against.

    python3 perfbench/make_goldens.py

The goldens pin the exact Fractions that exact_leakage and exact_id_error
returned when the benchmark was defined.  Regenerate them only on purpose:
a later change that moves a golden has changed what the oracles compute.
"""

from __future__ import annotations

import json
import random
import sys

from workloads import GOLDENS, SRC

sys.path.insert(0, str(SRC))

from secrid.analysis import exact_id_error, exact_leakage  # noqa: E402
from secrid.ff import field_for, prime_power  # noqa: E402
from secrid.rmid import IdCodeParams, Identity  # noqa: E402
from secrid.wiretap import SecrecyParams  # noqa: E402

from workloads import make_channel  # noqa: E402

# (q, ell', channel, delta): a prime field, GF(2^2) with XOR addition and
# GF(3^2) with Zech addition; each point takes ~0.3-0.4 s
LEAKAGE = {
    "full": [(5, 2, "symmetric", "1/8"), (3, 3, "symmetric", "1/8"),
             (4, 3, "parity", "1/8"), (9, 2, "parity", "1/8")],
    "tiny": [(4, 2, "erasure", "1/2"), (3, 2, "symmetric", "1/8")],
}
# (q, ell, k, pairs): one pair per field is drawn each cycle
ID_ERROR = {
    "full": [(7, 4, 5, 4), (9, 4, 3, 4), (16, 3, 6, 4)],
    "tiny": [(7, 2, 3, 2)],
}


def leakage_golden(q: int, ell_prime: int, channel: str, delta: str) -> dict:
    p, m = prime_power(q)
    spec = {"p": p, "m": m, "q": q, "ell_prime": ell_prime, "channel": channel, "delta": delta}
    report = exact_leakage(SecrecyParams(field_for(p, m), ell_prime), make_channel(spec))
    spec.update(exact_max_tv=str(report.exact_max_tv),
                exact_pairwise_tv=str(report.exact_pairwise_tv), d2_pow=str(report.d2_pow))
    return spec


def id_error_goldens(q: int, ell: int, k: int, pairs: int, rng: random.Random) -> list[dict]:
    p, m = prime_power(q)
    params = IdCodeParams(field_for(p, m), ell, k)
    out = []
    for _ in range(pairs):
        a, b = (tuple(rng.randrange(q) for _ in range(params.coeff_count)) for _ in range(2))
        error = exact_id_error(Identity(params, a), Identity(params, b))
        out.append({"p": p, "m": m, "q": q, "ell": ell, "k": k, "a": list(a), "b": list(b),
                    "error": str(error)})
    return out


def main() -> int:
    rng = random.Random("perfbench goldens")
    goldens = {
        size: {
            "leakage": [leakage_golden(*point) for point in LEAKAGE[size]],
            "id_error": [g for point in ID_ERROR[size] for g in id_error_goldens(*point, rng)],
        }
        for size in ("full", "tiny")
    }
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
