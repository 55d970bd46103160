import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import secrid
from secrid.cli import _pool_size, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# identity generation

def test_gen_identity_random_is_seed_deterministic(capsys):
    args = ("gen-identity", "--q", "25", "--ell", "1", "--k", "2", "--seed", "7")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    obj = json.loads(first[1])
    assert len(obj["coeffs"]) == 3
    assert obj["q_params"]["q"] == 25


def test_gen_identity_from_hex_bytes(capsys):
    obj = run_json(
        capsys,
        "gen-identity", "--q", "25", "--ell", "1", "--k", "2", "--data-hex", "0104",
    )
    assert obj["coeffs"] == [0, 10, 10]


def test_gen_identity_accepts_p_m_spelling(capsys):
    obj = run_json(
        capsys, "gen-identity", "--p", "5", "--m", "2", "--ell", "1", "--k", "2",
        "--seed", "1",
    )
    assert obj["q_params"]["q"] == 25


def test_gen_identity_rejects_inconsistent_q_p(capsys):
    code, out, err = run_cli(
        capsys,
        "gen-identity", "--q", "25", "--p", "3", "--ell", "1", "--k", "2",
    )
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "DomainError"


# ---------------------------------------------------------------------------
# the full wire pipeline

@pytest.fixture
def pipeline(tmp_path, capsys):
    identity = tmp_path / "id.json"
    challenge = tmp_path / "ch.json"
    identity.write_text(
        run_cli(
            capsys,
            "gen-identity", "--q", "25", "--ell", "2", "--k", "3",
            "--n", "2", "--seed", "3",
        )[1]
    )
    challenge.write_text(
        run_cli(capsys, "challenge", "--identity", str(identity), "--seed", "5")[1]
    )
    return identity, challenge


def test_challenge_then_verify_accepts(pipeline, capsys):
    identity, challenge = pipeline
    obj = run_json(capsys, "verify", "--identity", str(identity), "--challenge", str(challenge))
    assert obj == {"accept": True}


def test_verify_rejects_tampered_tag(pipeline, tmp_path, capsys):
    identity, challenge = pipeline
    obj = json.loads(challenge.read_text())
    obj["challenges"][0]["tag"] = (obj["challenges"][0]["tag"] + 1) % 25
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run_json(capsys, "verify", "--identity", str(identity), "--challenge", str(bad)) == {
        "accept": False
    }


@pytest.mark.parametrize("bad_tag", ["tag_plus_q", "json_true"])
def test_verify_rejects_non_canonical_tag(pipeline, tmp_path, capsys, bad_tag):
    identity, challenge = pipeline
    obj = json.loads(challenge.read_text())
    tag = obj["challenges"][0]["tag"]
    obj["challenges"][0]["tag"] = tag + 25 if bad_tag == "tag_plus_q" else True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(
        capsys, "verify", "--identity", str(identity), "--challenge", str(bad)
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert "not a canonical element" in error["message"]


def test_encrypt_decrypt_restores_challenges(pipeline, tmp_path, capsys):
    _, challenge = pipeline
    seeds = tmp_path / "seeds.json"
    secret_text = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
        "--seeds-out", str(seeds), "--seed", "11",
    )[1]
    secret = tmp_path / "secret.json"
    secret.write_text(secret_text)
    secret_obj = json.loads(secret_text)
    assert secret_obj["ell_prime"] == 3
    assert all(len(sc["x"]) == 3 for sc in secret_obj["secret_challenges"])
    seeds_obj = json.loads(seeds.read_text())
    assert seeds_obj["q"] == 25
    assert all(s["pivot"] >= 1 for s in seeds_obj["seeds"])

    restored = run_json(capsys, "decrypt", "--secret", str(secret), "--seeds", str(seeds))
    original = json.loads(challenge.read_text())
    assert restored["challenges"] == original["challenges"]


def test_encrypt_can_size_itself_from_kappa_epsilon(pipeline, tmp_path, capsys):
    _, challenge = pipeline
    seeds = tmp_path / "seeds.json"
    obj = run_json(
        capsys,
        "encrypt", "--challenge", str(challenge), "--kappa", "0.0",
        "--epsilon", "0.5", "--seeds-out", str(seeds), "--seed", "2",
    )
    assert obj["ell_prime"] >= 2


def test_encrypt_requires_a_length_or_a_target(pipeline, tmp_path, capsys):
    _, challenge = pipeline
    code, _, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge),
        "--seeds-out", str(tmp_path / "s.json"),
    )
    assert code == 1
    assert "ell-prime" in json.loads(err)["error"]["message"]


def test_encrypt_writes_no_file_when_an_output_fails(pipeline, tmp_path, capsys):
    # pivot 300 does not fit the one-byte pivot field of the binary seed form
    _, challenge = pipeline
    seeds = tmp_path / "seeds.json"
    seeds_bin = tmp_path / "s.bin"
    code, out, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "300",
        "--seeds-out", str(seeds), "--seeds-bin-out", str(seeds_bin), "--seed", "1",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"
    assert not seeds.exists()
    assert not seeds_bin.exists()


def test_encrypt_rejects_long_binary_seeds_before_sampling(
    pipeline, tmp_path, capsys, monkeypatch
):
    def no_sampling(*_):
        raise AssertionError("a seed was drawn before ell_prime was checked")

    monkeypatch.setattr(secrid.cli, "sample_seed", no_sampling)
    _, challenge = pipeline
    seeds = tmp_path / "seeds.json"
    seeds_bin = tmp_path / "s.bin"
    code, out, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "256",
        "--seeds-out", str(seeds), "--seeds-bin-out", str(seeds_bin), "--seed", "1",
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert "one-byte pivot field" in error["message"]
    assert not seeds.exists()
    assert not seeds_bin.exists()


def test_decrypt_rejects_mismatched_files(pipeline, tmp_path, capsys):
    _, challenge = pipeline
    seeds = tmp_path / "seeds.json"
    secret = tmp_path / "secret.json"
    secret.write_text(
        run_cli(
            capsys,
            "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
            "--seeds-out", str(seeds), "--seed", "1",
        )[1]
    )
    mangled = json.loads(seeds.read_text())
    mangled["ell_prime"] = 4
    seeds.write_text(json.dumps(mangled))
    code, _, err = run_cli(capsys, "decrypt", "--secret", str(secret), "--seeds", str(seeds))
    assert code == 1
    assert "ell_prime" in json.loads(err)["error"]["message"]


def _symbols(values, width=1):
    """Fixed-width big-endian symbols, as docs/wire-format.md lays them out."""
    return b"".join(v.to_bytes(width, "big") for v in values)


def test_binary_outputs_have_fixed_width(pipeline, tmp_path, capsys):
    identity, challenge = pipeline
    ch_bin = tmp_path / "ch.bin"
    ch_obj = run_json(
        capsys,
        "challenge", "--identity", str(identity), "--seed", "5",
        "--out-bin", str(ch_bin),
    )
    # q = 25 -> 1 byte per symbol; 2 challenges of (2 + 1) symbols
    assert len(ch_bin.read_bytes()) == 2 * 3
    assert ch_bin.read_bytes() == b"".join(
        _symbols([*c["r"], c["tag"]]) for c in ch_obj["challenges"]
    )

    seeds = tmp_path / "seeds.json"
    seeds_bin = tmp_path / "seeds.bin"
    secret_bin = tmp_path / "secret.bin"
    secret_obj = run_json(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
        "--seeds-out", str(seeds), "--seeds-bin-out", str(seeds_bin),
        "--out-bin", str(secret_bin), "--seed", "4",
    )
    assert len(seeds_bin.read_bytes()) == 2 * (1 + 4)  # pivot byte + 4 symbols
    assert len(secret_bin.read_bytes()) == 2 * (2 + 3)
    assert seeds_bin.read_bytes() == b"".join(
        bytes([s["pivot"]]) + _symbols([*s["s"], s["s0"]])
        for s in json.loads(seeds.read_text())["seeds"]
    )
    assert secret_bin.read_bytes() == b"".join(
        _symbols([*sc["r"], *sc["x"]]) for sc in secret_obj["secret_challenges"]
    )


def test_challenge_reads_identity_from_stdin(pipeline, capsys, monkeypatch):
    identity, _ = pipeline
    monkeypatch.setattr(sys, "stdin", io.StringIO(identity.read_text()))
    obj = run_json(capsys, "challenge", "--identity", "-", "--seed", "5")
    assert len(obj["challenges"]) == 2


# ---------------------------------------------------------------------------
# planning and analysis commands

def test_params_reports_the_reference_plan(capsys):
    obj = run_json(
        capsys,
        "params", "--q", "59049", "--ell", "2", "--k", "20", "--kappa", "0.2",
    )
    assert obj["n_challenges"] == 2
    assert obj["rs_k_in"] == 2
    assert obj["rs_k_out"] == 115
    assert obj["ell_prime"] == 3
    assert obj["eps_2rs_exact"] == "19721/1162261467"


def test_leakage_bound_command(capsys):
    obj = run_json(
        capsys,
        "leakage-bound", "--q", "3", "--ell-prime", "2", "--d2-bits", "0",
    )
    assert obj["tight"] == 0.0
    assert obj["simplified"] == pytest.approx(2 / 3 ** 0.5)


def test_leakage_exact_single_point(capsys):
    obj = run_json(
        capsys,
        "leakage-exact", "--q", "3", "--ell-prime", "2",
        "--channel", "symmetric", "--delta", "1/8",
    )
    assert obj["channel"] == "symmetric"
    assert 0 < obj["exact_max_tv"] < 2
    assert obj["exact_max_tv"] <= obj["bound_tight"] + 1e-9


def test_leakage_exact_sweep_is_worker_invariant(tmp_path, capsys):
    common = (
        "leakage-exact", "--q", "2", "--sweep", "--channel", "symmetric",
        "--ell-primes", "2,3", "--deltas", "0,1/4,1/2",
    )
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main([*common, "--workers", "1", "--out", str(one)]) == 0
    assert main([*common, "--workers", "3", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_text() == two.read_text()
    rows = list(csv.reader(io.StringIO(one.read_text())))
    assert rows[0] == ["q", "ell_prime", "delta", "kappa_true", "exact_max_tv",
                      "bound_tight", "bound_simplified"]
    assert len(rows) == 1 + 6


def test_pool_size_never_exceeds_points_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(10 ** 6, 6) == 4
    assert _pool_size(10 ** 6, 3) == 3
    assert _pool_size(2, 6) == 2
    assert _pool_size(1, 6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 6) == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("sweep", [False, True])
def test_leakage_exact_rejects_non_positive_workers(tmp_path, capsys, workers, sweep):
    out = tmp_path / "leak.csv"
    argv = ["leakage-exact", "--q", "2", "--workers", workers, "--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv, *(["--sweep"] if sweep else []))
    assert code == 1
    assert stdout == ""
    assert json.loads(err)["error"] == {
        "kind": "DomainError",
        "message": f"--workers must be at least 1, got {workers}",
    }
    assert not out.exists()


def test_capacity_check_single_and_sweep(capsys):
    obj = run_json(capsys, "capacity-check", "--n-seq", "3")
    lo, hi = obj["loglog_ratio_interval"]
    assert lo <= (9 - 6) / 9 <= hi
    sweep = run_json(capsys, "capacity-check", "--n-seq", "2", "--sweep-to", "5")
    assert [d["n_seq"] for d in sweep] == [2, 3, 4, 5]


def test_bench_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys,
        "bench", "--q", "25", "--ells", "1", "--k-multipliers", "2",
        "--reps", "30", "--kappa", "0.2", "--out", str(out), "--seed", "0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "schema_version"
    assert len(rows) == 1 + 4  # four timed operations at one grid point


# ---------------------------------------------------------------------------
# configuration and error contract

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 25\nell = 1\nk = 2\nseed = 9\n# trailing comment\n")
    from_config = run_json(capsys, "gen-identity", "--config", str(cfg))
    assert len(from_config["coeffs"]) == 3
    overridden = run_json(
        capsys, "gen-identity", "--config", str(cfg), "--k", "3",
    )
    assert len(overridden["coeffs"]) == 4


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qq = 25\n")
    code, _, err = run_cli(capsys, "gen-identity", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in json.loads(err)["error"]["message"]


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen-identity", "--q", "not-a-number", "--ell", "1", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_errors_exit_one_with_json(capsys):
    code, out, err = run_cli(
        capsys, "gen-identity", "--q", "6", "--ell", "1", "--k", "1",
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "ValueError"
    assert "prime power" in payload["error"]["message"]


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "/nope.json", "--challenge", "/nope2.json")
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "FileNotFoundError"


def test_unreadable_path_exits_one_with_json(tmp_path, capsys):
    # a directory where a file is expected: any OSError is a data error
    code, out, err = run_cli(
        capsys, "verify", "--identity", str(tmp_path), "--challenge", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "IsADirectoryError"


def test_malformed_json_exits_one_with_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "verify", "--identity", str(bad), "--challenge", str(bad))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "JSONDecodeError"


def _assert_prints_version(result):
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"secrid {secrid.__version__}\n", result.stderr


def _child_env():
    """Environment in which a child imports the same secrid tree as this
    test, whatever the working directory and however PYTHONPATH was spelled."""
    src = str(Path(secrid.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_installed_entry_point_runs():
    """The `secrid` console script declared in pyproject.toml starts the CLI.

    Runs the wrapper pip generates for a `[project.scripts]` entry through
    the interpreter, so a plain checkout checks the declared target too.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["secrid"]
    module, attr = target.split(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'secrid'\nsys.exit({attr}())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    _assert_prints_version(result)


@pytest.mark.skipif(
    shutil.which("secrid") is None, reason="no installed secrid console script on PATH"
)
def test_installed_console_script_runs():
    result = subprocess.run(
        [shutil.which("secrid"), "--version"], capture_output=True, text=True, timeout=60
    )
    _assert_prints_version(result)


def test_python_dash_m_secrid_runs():
    result = subprocess.run(
        [sys.executable, "-m", "secrid", "--version"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    _assert_prints_version(result)


def test_cli_import_leaves_sweep_and_bench_modules_out():
    # only `leakage-exact --workers` and `bench` need them; every cold CLI
    # call would pay their import otherwise
    probe = "import sys, secrid.cli; print(sorted({'multiprocessing', 'secrid.bench'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _set_first_coeff(value):
    def edit(obj):
        obj["coeffs"][0] = value
        return obj
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_first_coeff(True),
        _set_first_coeff("1"),
        _set_first_coeff(1.0),
        lambda obj: {**obj, "ell": "2"},
        lambda obj: {**obj, "k": 3.0},
        lambda obj: {**obj, "n": True},
        lambda obj: {**obj, "coeffs": 7},
        lambda obj: {**obj, "q_params": [5, 2]},
        lambda obj: {**obj, "q_params": {**obj["q_params"], "p": "5"}},
        lambda obj: {**obj, "q_params": {**obj["q_params"], "irreducible": 3}},
        lambda obj: [obj],
    ],
    ids=[
        "coeff_true", "coeff_string", "coeff_float", "ell_string", "k_float",
        "n_true", "coeffs_not_list", "q_params_array", "p_string",
        "irreducible_int", "top_level_array",
    ],
)
def test_challenge_rejects_mistyped_identity_json(pipeline, tmp_path, capsys, edit):
    identity, _ = pipeline
    bad = tmp_path / "bad_id.json"
    bad.write_text(json.dumps(edit(json.loads(identity.read_text()))))
    code, out, err = run_cli(capsys, "challenge", "--identity", str(bad), "--seed", "5")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


# ---------------------------------------------------------------------------
# record files are type-checked at the boundary


def _set_path(path, value):
    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj
    return edit


@pytest.mark.parametrize(
    "command,target,edit",
    [
        ("verify", "challenge", lambda obj: [1]),
        ("verify", "challenge", _set_path(("challenges",), 5)),
        ("verify", "challenge", _set_path(("challenges",), [1, 2])),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r", 0), 99)),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r", 0), True)),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r"), [0])),
        ("encrypt", "challenge", _set_path(("q",), "25")),
        ("encrypt", "challenge", _set_path(("ell",), "2")),
        ("decrypt", "secret", lambda obj: [1]),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "r"), [99])),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "r", 0), 99)),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "x"), 5)),
        ("decrypt", "seeds", _set_path(("seeds",), 5)),
        ("decrypt", "seeds", _set_path(("seeds", 0, "pivot"), 1.5)),
        ("decrypt", "seeds", _set_path(("seeds", 0, "s", 0), "1")),
    ],
    ids=[
        "challenge_array", "challenges_not_list", "challenge_not_object",
        "r_outside_field", "r_true", "r_too_short", "q_string", "ell_string",
        "secret_array", "secret_r_99", "secret_r_outside_field", "x_not_list",
        "seeds_not_list", "pivot_float", "s_string",
    ],
)
def test_mistyped_record_files_fail_with_json_error(
    pipeline, tmp_path, capsys, command, target, edit
):
    identity, challenge = pipeline
    seeds, secret = tmp_path / "seeds.json", tmp_path / "secret.json"
    secret.write_text(
        run_cli(
            capsys,
            "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
            "--seeds-out", str(seeds), "--seed", "1",
        )[1]
    )
    path = {"challenge": challenge, "secret": secret, "seeds": seeds}[target]
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {
        "verify": ["--identity", str(identity), "--challenge", str(challenge)],
        "encrypt": [
            "--challenge", str(challenge), "--ell-prime", "3", "--seed", "2",
            "--seeds-out", str(out_dir / "seeds.json"),
            "--seeds-bin-out", str(out_dir / "seeds.bin"),
        ],
        "decrypt": ["--secret", str(secret), "--seeds", str(seeds)],
    }[command]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"
    assert list(out_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# fields above 2^32 are refused before any search


@pytest.mark.parametrize(
    "case", ["identity_m_100000", "q_mersenne_61", "p_m", "challenge_q", "seeds_q"]
)
def test_oversized_fields_fail_fast(pipeline, tmp_path, case):
    identity, _ = pipeline
    big_id, big_q = tmp_path / "big_id.json", tmp_path / "big_q.json"
    big_id.write_text(
        json.dumps({**json.loads(identity.read_text()), "q_params": {"p": 2, "m": 100_000}})
    )
    big_q.write_text(json.dumps({
        "q": 2 ** 61 - 1, "ell": 2, "ell_prime": 3,
        "challenges": [], "seeds": [], "secret_challenges": [],
    }))
    seeds_out = tmp_path / "seeds_out.json"
    argv = {
        "identity_m_100000": ["challenge", "--identity", str(big_id)],
        "q_mersenne_61": ["gen-identity", "--q", str(2 ** 61 - 1), "--ell", "1", "--k", "1"],
        "p_m": ["params", "--p", "2", "--m", "100000", "--ell", "1", "--k", "1"],
        "challenge_q": [
            "encrypt", "--challenge", str(big_q), "--ell-prime", "3",
            "--seeds-out", str(seeds_out),
        ],
        "seeds_q": ["decrypt", "--secret", str(big_q), "--seeds", str(big_q)],
    }[case]
    # a child process, so a regression shows as a timeout and not a hang
    result = subprocess.run(
        [sys.executable, "-m", "secrid", *argv],
        capture_output=True, text=True, timeout=30, env=_child_env(),
    )
    assert result.returncode == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "ValueError"
    assert "above the limit 2^32" in error["message"]
    assert not seeds_out.exists()
