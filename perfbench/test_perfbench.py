"""Smoke tests of the benchmark itself: every workload at its tiny size with
the correctness gate on, the traced run's metric names, and the refusal to
run without the program.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)) and emitted["value"] == emitted["value"]


def test_declared_names_are_well_formed():
    groups = [BENCH["workloads"], BENCH["end_to_end"], BENCH["per_layer"]]
    names = [item["name"] for group in groups for item in group]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert {w["name"] for w in BENCH["workloads"]} == {"cold_cli", "secret_small", "oracles"}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", ["cold_cli", "secret_small", "oracles"])
def test_tiny_workload_passes_its_gate(workload):
    proc, result = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    check_result(result, BENCH["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_traced_run_emits_every_per_layer_metric():
    proc, result = run("--workload", "oracles", "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    check_result(result, BENCH["per_layer"])
    # the oracles ops start no CLI process: every cli span is the probes',
    # which carry no op id and add nothing to the layers' self time
    assert result["metrics"]["cli.self_s"]["value"] == 0
    assert result["metrics"]["analysis.self_s"]["value"] > 0
    spans = [json.loads(line) for line in (HERE / "out" / "trace-oracles.jsonl").open()]
    cli = [s for s in spans if s["layer"] == "cli"]
    assert cli and all(s["op"] == -1 for s in cli)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run("--workload", "oracles", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_gate_rejects_a_wrong_decryption():
    sys.path.insert(0, str(HERE))
    from probes import ELL_PRIME, N
    from run import load_secrid_api
    from workloads import mint_wire, round_trip

    api = load_secrid_api()
    rng = random.Random(5)
    field = api.field_for(5, 2)
    sp = api.SecrecyParams(field, ELL_PRIME)
    wire, other = mint_wire(api, field, 2, 3, N, rng)
    assert round_trip(api, wire, other, sp, N, rng)

    def tampered(params, seeds, secrets):
        mc = api.decrypt_tags(params, seeds, secrets)
        first = mc.challenges[0]
        bad = type(first)(first.r, (first.tag + 1) % params.field.q)
        return type(mc)((bad,) + mc.challenges[1:])

    broken = SimpleNamespace(**{**vars(api), "decrypt_tags": tampered})
    assert not round_trip(broken, wire, other, sp, N, rng)
