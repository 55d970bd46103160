"""Per-layer probes for the traced run.

Every traced run, whatever its workload, ends with the same probes so that
it reports every per-layer metric.  Each probe calls one layer through the
traced API.  Micro-probes of field arithmetic put one span around a batch
of calls, since a span per 300 ns call would measure the span.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction

from workloads import (
    REF_M, REF_P, REF_Q, ColdCli, leakage_states, load_goldens, make_channel, mint_wire,
    round_trip,
)

# the reference round: kappa = 0.2 at q = 59049, ell = 2, k = 20 gives
# n = 2 challenges and ell' = 3
N, ELL_PRIME = 2, 3
BATCH = 20_000
BATCH_REPS = 5
# (ell, k) grid points named by coefficient count; the last is the largest
# reference grid point below 600k coefficients
EVAL_POINTS = {"c5151": (2, 100, 21), "c129766": (3, 90, 3), "c585276": (3, 150, 2)}
PLAN_REPS = 20


def _median_ns(tracer, name: str, per: int = 1) -> float:
    return statistics.median(tracer.durations_ns(name)) / per


def probe_ff(api, tracer, rng) -> dict:
    with tracer.span("ff", "ff.table_build"):
        field = api.Field(REF_P, REF_M)
        field.mul(1, 2)
    q = field.q
    pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(BATCH)]
    fast_add, fast_mul = field.fast_ops()
    for name, fn in (("mul", field.mul), ("add", field.add),
                     ("fast_mul", fast_mul), ("fast_add", fast_add)):
        for _ in range(BATCH_REPS):
            with tracer.span("ff", f"ff.{name}"):
                for a, b in pairs:
                    fn(a, b)
    sample = field.sample_uniform
    for _ in range(BATCH_REPS):
        with tracer.span("ff", "ff.sample"):
            for _ in range(BATCH):
                sample(rng)
    out = {"ff.table_build_ms": _median_ns(tracer, "ff.table_build") / 1e6}
    for name in ("mul", "add", "sample", "fast_mul", "fast_add"):
        out[f"ff.{name}_ns"] = _median_ns(tracer, f"ff.{name}", BATCH)
    return out


def probe_rmid(api, tracer, rng) -> tuple[dict, int]:
    """Warm evaluate_tag in ns per coefficient, and the cost of a first
    evaluation on freshly loaded params (which rebuilds the eval chain)."""
    field = api.field_for(REF_P, REF_M)
    out, failed = {}, 0
    for label, (ell, k, reps) in EVAL_POINTS.items():
        params = api.IdCodeParams(field, ell, k)
        coeffs = tuple(rng.randrange(field.q) for _ in range(params.coeff_count))
        wire = json.loads(json.dumps(api.Identity(params, coeffs).to_json_dict()))
        del coeffs
        point = field.sample_vector(rng, ell)
        with tracer.span("rmid", f"rmid.load_first_eval.{label}"):
            identity = api.identity_from_json(wire)
            first = api.evaluate_tag(identity, point)
        del wire
        for _ in range(reps):
            with tracer.span("rmid", f"rmid.eval.{label}"):
                failed += api.evaluate_tag(identity, point) != first
        warm_ns = _median_ns(tracer, f"rmid.eval.{label}")
        out[f"rmid.eval_ns_per_coeff.{label}"] = warm_ns / params.coeff_count
        if label == "c129766":
            load_ns = _median_ns(tracer, f"rmid.load_first_eval.{label}")
            out[f"rmid.load_first_eval_ms.{label}"] = load_ns / 1e6
            out["rmid.cold_warm_ratio"] = load_ns / warm_ns
        del identity
    return out, failed


def probe_planner(api, tracer) -> dict:
    for _ in range(PLAN_REPS):
        api.plan(REF_Q, 2, 20, 0.2)
    base = api.IdCodeParams(api.field_for(REF_P, REF_M), 2, 20)
    for _ in range(PLAN_REPS):
        api.epsilon_2rs(base)
    return {
        "planner.plan_us": _median_ns(tracer, "planner.plan") / 1e3,
        "rsid.epsilon_2rs_us": _median_ns(tracer, "rsid.epsilon_2rs") / 1e3,
    }


def probe_analysis(api) -> int:
    """One leakage point and one identity pair from the goldens; the per-state
    and per-point costs are read off all analysis spans of the run."""
    goldens = load_goldens()["full"]
    spec = goldens["leakage"][0]
    field = api.field_for(spec["p"], spec["m"])
    channel = make_channel(spec)
    report = api.exact_leakage(api.SecrecyParams(field, spec["ell_prime"]), channel)
    api.count("analysis.states", leakage_states(spec, channel.n_outputs))
    failed = report.exact_max_tv != Fraction(spec["exact_max_tv"])
    pair = goldens["id_error"][0]
    params = api.IdCodeParams(api.field_for(pair["p"], pair["m"]), pair["ell"], pair["k"])
    a, b = api.Identity(params, tuple(pair["a"])), api.Identity(params, tuple(pair["b"]))
    api.count("analysis.points", params.field.q ** pair["ell"])
    failed += api.exact_id_error(a, b) != Fraction(pair["error"])
    return failed


def probe_cli(api, seed: int) -> int:
    """Interpreter start, import, and one reference round of subcommands."""
    cli = ColdCli(seed)
    try:
        cli.setup_dir()
        for _ in range(5):
            cli.run_cli(api, "python_start", ["-c", "pass"])
        for _ in range(5):
            cli.run_cli(api, "import", ["-c", "import secrid.cli"])
        outputs: dict[str, bytes] = {}
        return sum(not cli.step(api, sub, cli.warm_seeds, None, outputs) for sub in cli.SUBCOMMANDS)
    finally:
        cli.close()


def cli_metrics(tracer) -> dict:
    start = _median_ns(tracer, "cli.python_start") / 1e6
    imported = _median_ns(tracer, "cli.import") / 1e6
    out = {"cli.python_start_ms": start, "cli.import_ms": imported - start}
    for sub in ColdCli.SUBCOMMANDS:
        out[f"cli.cmd_ms.{sub}"] = _median_ns(tracer, f"cli.{sub}") / 1e6 - imported
    return out


def span_metrics(tracer) -> dict:
    """Per-call and per-item costs read off every span of the traced run:
    the workload's own calls and the probes' alike, so that each exists on
    every workload."""
    def total(name):
        return sum(tracer.durations_ns(name))

    c = tracer.counts
    return {
        "rmid.challenge_ms": _median_ns(tracer, "rmid.generate_multi") / 1e6,
        "rmid.verify_ms": _median_ns(tracer, "rmid.verify_multi") / 1e6,
        "rmid.tags": c["rmid.tags"],
        "wiretap.seed_us": _median_ns(tracer, "wiretap.sample_seed") / 1e3,
        "wiretap.encrypt_us_per_tag": total("wiretap.encrypt_tags") / c["wiretap.tags"] / 1e3,
        "wiretap.decrypt_us_per_tag": total("wiretap.decrypt_tags") / c["wiretap.tags"] / 1e3,
        "wiretap.tags": c["wiretap.tags"],
        "analysis.leakage_us_per_state": total("analysis.exact_leakage") / c["analysis.states"] / 1e3,
        "analysis.id_error_us_per_point": total("analysis.exact_id_error") / c["analysis.points"] / 1e3,
        "analysis.states": c["analysis.states"],
    }


def run_probes(api, tracer, rng, seed: int) -> tuple[dict, int]:
    """All probes; returns the probe metrics and the number that failed their
    check.  A round of the reference workload runs first so the round-level
    spans (challenge, seed, encrypt...) exist whatever the workload."""
    field = api.field_for(REF_P, REF_M)
    with tracer.span("ff", "ff.table_warm"):
        field.mul(1, 1)  # builds the tables unless the workload already did
    sp = api.SecrecyParams(field, ELL_PRIME)
    wire, other = mint_wire(api, field, 2, 20, N, rng)
    failed = not round_trip(api, wire, other, sp, N, rng)
    out = probe_ff(api, tracer, rng)
    rmid, bad = probe_rmid(api, tracer, rng)
    out.update(rmid)
    failed += bad
    out.update(probe_planner(api, tracer))
    failed += probe_analysis(api)
    failed += probe_cli(api, seed)
    out.update(cli_metrics(tracer))
    out.update(span_metrics(tracer))
    return out, failed
