import csv
import io
import random

import pytest

from secrid import bench
from secrid.bench import (
    BENCH_CSV_HEADER,
    BENCH_SCHEMA_VERSION,
    MAX_COEFFS,
    MIN_REPS,
    BenchRecord,
    default_grid,
    run_bench,
    run_grid,
    write_csv,
)
from secrid.planner import plan


def small_plan():
    return plan(q=25, ell=1, k=2, kappa=0.2)


def test_grid_respects_coefficient_cap():
    grid = default_grid(q=59049)
    import math

    assert MAX_COEFFS == 600_000
    assert all(math.comb(ell + k, ell) <= 600_000 for ell, k in grid)
    assert (2, 20) in grid
    assert (3, 90) in grid
    assert all(k == mult * ell for ell, k in grid for mult in [k // ell])
    # the full table corner is excluded by the cap, not by accident
    assert (6, 300) not in grid


def test_grid_drops_k_at_or_above_q():
    grid = default_grid(q=25)
    assert grid == [(2, 20)]  # k = 40 >= q = 25 goes away, and every ell >= 3


def test_run_bench_produces_all_operations():
    records = run_bench(small_plan(), reps=MIN_REPS, rng=random.Random(0))
    ops = [r.operation for r in records]
    assert ops == ["challenge", "encrypt", "decrypt", "verify"]
    for r in records:
        assert r.reps == MIN_REPS
        assert 0 < r.min_s <= r.median_s <= r.mean_s * 3
        assert r.q == 25 and r.ell == 1 and r.k == 2
        assert r.coeff_count == 3


def test_run_bench_rep_floor():
    assert run_bench(small_plan(), reps=0, rng=random.Random(0)) == []
    with pytest.raises(ValueError):
        run_bench(small_plan(), reps=MIN_REPS - 1, rng=random.Random(0))


def test_bench_record_validation():
    with pytest.raises(ValueError):
        BenchRecord(
            operation="challenge", q=25, ell=1, k=2, n_challenges=2, ell_prime=3,
            kappa=0.2, identity_bits=10.0, coeff_count=3, reps=5,
            mean_s=1e-6, median_s=1e-6, min_s=1e-6,
        )
    with pytest.raises(ValueError):
        BenchRecord(
            operation="challenge", q=25, ell=1, k=2, n_challenges=2, ell_prime=3,
            kappa=0.2, identity_bits=10.0, coeff_count=3, reps=30,
            mean_s=0.0, median_s=1e-6, min_s=1e-6,
        )


def test_csv_shape_and_schema_column():
    records = run_grid(q=25, kappa=0.2, reps=MIN_REPS)
    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == BENCH_CSV_HEADER
    # the schema of docs/wire-format.md, column for column
    assert buf.getvalue().splitlines()[0] == (
        "schema_version,operation,q,ell,k,n_challenges,ell_prime,kappa,"
        "identity_bits,coeff_count,reps,mean_s,median_s,min_s"
    )
    assert len(rows) == 1 + len(records)
    for row in rows[1:]:
        assert row[0] == str(BENCH_SCHEMA_VERSION)
        assert len(row) == len(BENCH_CSV_HEADER)


def test_run_grid_empty_when_cap_kills_everything(monkeypatch):
    monkeypatch.setattr(bench, "MAX_COEFFS", 10)
    assert run_grid(q=25, reps=MIN_REPS) == []
