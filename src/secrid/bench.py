"""Latency measurements for the codec pipeline.

Per grid point we time four operations: multi-challenge generation (which
scales with the coefficient count), tag encryption, tag decryption, and
verification.  Cheap operations are batched so every sample spans at least
~0.2 ms of wall clock; reported numbers are always seconds per single
operation.  Trends and ratios are the product here, not absolute numbers.

The grid is the paper's: ell in ELLS, k = multiplier * ell for each
multiplier in K_MULTIPLIERS, and no point above MAX_COEFFS coefficients.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from typing import Callable, Sequence, TextIO

from .ff import field_for
from .planner import PlanReport, plan
from .rmid import IdCodeParams, Identity, Record, generate_multi, verify_multi
from .wiretap import SecrecyParams, encrypt_tags, decrypt_tags, sample_seed

MIN_REPS = 30
MAX_REPS = 1000  # 20x the default of 50
_MIN_SAMPLE_SECONDS = 2e-4

BENCH_SCHEMA_VERSION = 1

ELLS = (2, 3, 4, 5, 6)
K_MULTIPLIERS = (10, 20, 30, 40, 50)
MAX_COEFFS = 600_000


class BenchRecord(Record):
    def __init__(
        self, operation: str, q: int, ell: int, k: int, n_challenges: int,
        ell_prime: int, kappa: float, identity_bits: float, coeff_count: int,
        reps: int, mean_s: float, median_s: float, min_s: float,
    ) -> None:
        self.__dict__.update(
            operation=operation, q=q, ell=ell, k=k, n_challenges=n_challenges,
            ell_prime=ell_prime, kappa=kappa, identity_bits=identity_bits,
            coeff_count=coeff_count, reps=reps, mean_s=mean_s, median_s=median_s,
            min_s=min_s,
        )
        if reps < MIN_REPS:
            raise ValueError(f"records need >= {MIN_REPS} repetitions, got {reps}")
        if min(mean_s, median_s, min_s) <= 0:
            raise ValueError("non-positive timing; sample batching is broken")

    def to_csv_row(self) -> list:
        return [BENCH_SCHEMA_VERSION, *self._values()]


BENCH_CSV_HEADER = ["schema_version", *BenchRecord._fields]


def _time_op(op: Callable[[], object], reps: int) -> list[float]:
    """reps samples of seconds per call; op is batched until one sample
    costs at least _MIN_SAMPLE_SECONDS so the clock resolution never
    dominates."""
    op()  # warmup
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            op()
        elapsed = time.perf_counter() - t0
        if elapsed >= _MIN_SAMPLE_SECONDS:
            break
        batch *= 4
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            op()
        samples.append((time.perf_counter() - t0) / batch)
    return samples


def run_bench(report: PlanReport, reps: int, rng: random.Random) -> list[BenchRecord]:
    """Measure one planned parameter point.  reps = 0 is a dry run that
    yields nothing; otherwise at least MIN_REPS repetitions are required so
    the medians mean something, and at most MAX_REPS so the run ends."""
    if reps > MAX_REPS:
        raise ValueError(f"at most {MAX_REPS} repetitions, got {reps}")
    if reps == 0:
        return []
    if reps < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} repetitions, got {reps}")
    field = field_for(report.p, report.m)
    field.fast_ops()  # steady-state latency: build the tables before timing
    params = IdCodeParams(field, report.ell, report.k, report.n_challenges)
    secrecy = SecrecyParams(field, report.ell_prime)
    # identity content does not affect timing
    identity = Identity(params, field.sample_vector(rng, params.coeff_count))
    seeds = [sample_seed(secrecy, rng) for _ in range(report.n_challenges)]
    mc = generate_multi(identity, rng)
    secrets = encrypt_tags(secrecy, mc, seeds, rng)

    ops: dict[str, Callable[[], object]] = {
        "challenge": lambda: generate_multi(identity, rng),
        "encrypt": lambda: encrypt_tags(secrecy, mc, seeds, rng),
        "decrypt": lambda: decrypt_tags(secrecy, seeds, secrets),
        "verify": lambda: verify_multi(identity, mc),
    }
    records = []
    for name, op in ops.items():
        samples = _time_op(op, reps)
        records.append(
            BenchRecord(
                operation=name,
                q=report.q,
                ell=report.ell,
                k=report.k,
                n_challenges=report.n_challenges,
                ell_prime=report.ell_prime,
                kappa=report.kappa,
                identity_bits=report.identity_bits,
                coeff_count=report.coeff_count,
                reps=reps,
                mean_s=statistics.fmean(samples),
                median_s=statistics.median(samples),
                min_s=min(samples),
            )
        )
    return records


def default_grid(q: int) -> list[tuple[int, int]]:
    """(ell, k) grid with k = multiplier * ell, dropping points whose
    coefficient count exceeds MAX_COEFFS.  The upper corner of the full
    grid runs to ~10^12 coefficients, far past what any implementation can
    hold, so a cap is part of the harness contract."""
    grid = []
    for ell in ELLS:
        for mult in K_MULTIPLIERS:
            k = mult * ell
            if k >= q:
                continue
            if math.comb(ell + k, ell) <= MAX_COEFFS:
                grid.append((ell, k))
    return grid


def run_grid(
    q: int, kappa: float = 0.2, reps: int = 50, budget_policy: str = "paper", seed: int = 0
) -> list[BenchRecord]:
    rng = random.Random(seed)
    records = []
    for ell, k in default_grid(q):
        report = plan(q, ell, k, kappa, budget_policy)
        records.extend(run_bench(report, reps, rng))
    return records


def write_csv(records: Sequence[BenchRecord], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(BENCH_CSV_HEADER)
    for record in records:
        writer.writerow(record.to_csv_row())
