import argparse
import ast
import contextlib
import copy
import csv
import functools
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrid
from secrid import analysis, cli, rmid
from secrid.cli import main
from secrid.ff import Field
from secrid.wiretap import min_cipher_length


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


def test_gen_identity_reads_its_payload_from_a_file(tmp_path, capsys):
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes.fromhex("0104"))
    args = ("gen-identity", "--q", "25", "--ell", "1", "--k", "2")
    from_file = run_json(capsys, *args, "--data-file", str(payload))
    assert from_file == run_json(capsys, *args, "--data-hex", "0104")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_gen_identity_rejects_zero_challenges(tmp_path, capsys, source):
    args = ["gen-identity", "--q", "5", "--ell", "1", "--k", "1", "--seed", "1"]
    if source == "flag":
        args += ["--n", "0"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 0\n")
        args += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert "n_challenges must be >= 1" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("source", ["random", "data-hex"])
def test_gen_identity_rejects_oversized_identities_before_drawing(capsys, monkeypatch, source):
    # C(80, 40) ~ 1.1e23 coefficients: a draw would run out of memory and
    # --data-hex would compute q ** 1.1e23, so both are made to fail loudly
    def boom(*args):
        raise AssertionError("gen-identity built an oversized identity")

    monkeypatch.setattr(Field, "sample_vector", boom)
    monkeypatch.setattr(rmid, "identity_from_bytes", boom)
    monkeypatch.setattr(cli, "identity_from_bytes", boom)
    args = ["gen-identity", "--q", "59049", "--ell", "40", "--k", "40", "--seed", "1"]
    if source == "data-hex":
        args += ["--data-hex", "01"]
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "DomainError"
    assert "above the limit 2^24" in error["message"]


def test_gen_identity_refuses_a_huge_geometry_without_counting_it():
    # C(2*10^6, 10^6) alone takes ~40 s to build; the guard must not need it
    argv = ["gen-identity", "--q", "4294967291", "--ell", "1000000", "--k", "1000000"]
    result = subprocess.run(
        [sys.executable, "-m", "secrid", *argv],
        capture_output=True, text=True, timeout=10, env=_child_env(),
    )
    assert result.returncode == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "DomainError"
    assert "above the limit 2^24" in error["message"]


@pytest.mark.parametrize(
    "ell,k,refused",
    [(1, (1 << 24) - 1, False), (1, 1 << 24, True),
     (2, 5791, False), (2, 5792, True), (40, 40, True)],
)
def test_gen_identity_limit_is_the_exact_binomial(capsys, monkeypatch, ell, k, refused):
    # C(5793, 2) = 16,776,528 <= 2^24 < C(5794, 2) = 16,782,321; an
    # accepted geometry reaches the draw, which fails here instead
    def drawn(*args):
        raise ValueError("drawn")

    monkeypatch.setattr(Field, "sample_vector", drawn)
    code, out, err = run_cli(
        capsys, "gen-identity", "--q", "4294967291", "--ell", str(ell), "--k", str(k)
    )
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    if refused:
        assert error["kind"] == "DomainError"
        assert "above the limit 2^24" in error["message"]
    else:
        assert error == {"kind": "ValueError", "message": "drawn"}


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


def test_verify_names_the_first_failing_challenge_on_stderr(pipeline, tmp_path, capsys):
    identity, challenge = pipeline
    argv = ["verify", "--identity", str(identity), "--challenge"]
    assert run_cli(capsys, *argv, str(challenge)) == (0, '{"accept":true}\n', "")
    obj = json.loads(challenge.read_text())
    obj["challenges"][1]["tag"] = (obj["challenges"][1]["tag"] + 1) % 25
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (0, '{"accept":false}\n')
    assert err == "reject: challenge 1 (0-based) is the first to fail\n"


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


@pytest.mark.parametrize("bad", [True, -1, 5, 1.0])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_challenge_file_names_its_first_non_element(tmp_path, bad, at):
    # JSON true and 1.0 stop at the integer check, -1 and q at the field's
    r = [1, 2, 3]
    r[at] = bad
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(
        {"q": 5, "ell": 3, "challenges": [{"r": [0, 4, 1], "tag": 0}, {"r": r, "tag": 0}]}
    ))
    with pytest.raises(ValueError) as exc:
        cli._read_records(str(path), "challenges", rmid.Challenge)
    if type(bad) is int:
        assert str(exc.value) == f"{bad!r} is not a canonical element of {Field(5, 1)!r}"
    else:
        assert str(exc.value) == f"r entries must be integers, got {bad!r}"


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


def test_decrypt_writes_the_ell_of_its_points_when_the_header_has_none(
    pipeline, tmp_path, capsys
):
    # the header's ell is optional; decrypt wrote "ell": null, which verify refused
    identity, challenge = pipeline
    seeds, secret, restored = tmp_path / "seeds.json", tmp_path / "secret.json", tmp_path / "dec.json"
    secret_obj = json.loads(run_cli(
        capsys, "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
        "--seeds-out", str(seeds), "--seed", "11",
    )[1])
    del secret_obj["ell"]
    secret.write_text(json.dumps(secret_obj))
    restored.write_text(run_cli(capsys, "decrypt", "--secret", str(secret), "--seeds", str(seeds))[1])
    assert json.loads(restored.read_text())["ell"] == 2
    obj = run_json(capsys, "verify", "--identity", str(identity), "--challenge", str(restored))
    assert obj == {"accept": True}


def test_a_subnormal_epsilon_plans_a_finite_length(capsys):
    # 1/epsilon is inf here: min_cipher_length raised OverflowError
    plan = run_json(capsys, "params", "--q", "59049", "--ell", "2", "--k", "20",
                    "--budget-policy", "additive", "--epsilon", "1e-320")
    assert plan["ell_prime"] == 136
    assert min_cipher_length(25, 0.2, 5e-324).ell_prime == 580


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


def test_encrypt_leaves_no_file_when_an_output_cannot_be_opened(
    pipeline, tmp_path, capsys
):
    _, challenge = pipeline
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    missing = out_dir / "nodir" / "sec.bin"
    code, out, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
        "--seeds-out", str(out_dir / "seeds.json"),
        "--seeds-bin-out", str(out_dir / "seeds.bin"),
        "--out-bin", str(missing), "--seed", "1",
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "FileNotFoundError"
    assert error["message"] == f"{missing}: no such file"
    assert list(out_dir.iterdir()) == []


def test_encrypt_rejects_long_binary_seeds_before_sampling(
    pipeline, tmp_path, capsys, monkeypatch
):
    def no_sampling(*_):
        raise AssertionError("a seed was drawn before ell_prime was checked")

    # encrypt imports sample_seed when it runs, so the module is patched
    monkeypatch.setattr("secrid.wiretap.sample_seed", no_sampling)
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


def test_encrypt_rejects_a_challenge_file_without_challenges(tmp_path, capsys):
    # no identity has n = 0, so there is nothing to encrypt
    challenge = tmp_path / "ch.json"
    challenge.write_text('{"q":59049,"challenges":[]}')
    seeds = tmp_path / "seeds.json"
    code, out, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
        "--seeds-out", str(seeds), "--out-bin", str(tmp_path / "sec.bin"), "--seed", "1",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "kind": "DomainError", "message": "challenge file holds no challenges",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ch.json"]


def test_decrypt_rejects_files_without_challenges(tmp_path, capsys):
    secret = tmp_path / "secret.json"
    secret.write_text('{"q":59049,"ell":2,"ell_prime":3,"secret_challenges":[]}')
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"q":59049,"ell_prime":3,"seeds":[]}')
    code, out, err = run_cli(capsys, "decrypt", "--secret", str(secret), "--seeds", str(seeds))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "kind": "DomainError", "message": "secret challenge file holds no challenges",
    }


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


@pytest.mark.parametrize("target", ["secret", "seeds"])
@pytest.mark.parametrize("ell_prime", [3.0, True])
def test_decrypt_refuses_an_ell_prime_that_is_not_an_integer(
    pipeline, tmp_path, capsys, target, ell_prime
):
    # 3.0 == 3 and True == 1 in Python, so only a type check tells them apart
    _, challenge = pipeline
    files = {"seeds": tmp_path / "seeds.json", "secret": tmp_path / "secret.json"}
    files["secret"].write_text(
        run_cli(
            capsys,
            "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
            "--seeds-out", str(files["seeds"]), "--seed", "1",
        )[1]
    )
    mangled = json.loads(files[target].read_text())
    mangled["ell_prime"] = ell_prime
    files[target].write_text(json.dumps(mangled))
    code, out, err = run_cli(
        capsys, "decrypt", "--secret", str(files["secret"]), "--seeds", str(files["seeds"]),
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "kind": "ValueError", "message": f"ell_prime must be of type int, got {ell_prime!r}",
    }


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


@pytest.mark.parametrize("flag", ["--d2-bits", "--kappa"])
def test_leakage_bound_rejects_nan(capsys, flag):
    code, out, err = run_cli(
        capsys, "leakage-bound", "--q", "5", "--ell-prime", "3", flag, "nan",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan"])
def test_params_rejects_non_finite_epsilon(capsys, epsilon):
    code, out, err = run_cli(
        capsys, "params", "--q", "59049", "--ell", "2", "--k", "20", f"--epsilon={epsilon}",
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert "(0, 2]" in error["message"]


def test_params_refuses_a_budget_by_its_total_and_policy(capsys):
    # the paper split's share 1.5^(1/2) is past 1; the message names the flag's value
    code, out, err = run_cli(
        capsys, "params", "--q", "59049", "--ell", "2", "--k", "20", "--epsilon", "1.5",
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"kind": "ValueError", "message": (
        "budget 1.5 split over 2 challenges by the 'paper' policy leaves"
        " 1.224744871391589 per challenge, outside (0, 1]"
    )}


def test_params_and_plan_share_the_float_range_rule(capsys):
    from secrid.planner import plan

    code, out, err = run_cli(capsys, "params", "--q", "59049", "--ell", "300", "--k", "59000")
    with pytest.raises(ValueError) as info:
        plan(59049, 300, 59000, 0.0)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"kind": "DomainError", "message": str(info.value)}


def test_params_refuses_a_code_past_the_float_range(capsys):
    # C(2000, 1000) * log2 q has no float; the count is refused before it
    code, out, err = run_cli(
        capsys, "params", "--q", "4294967291", "--ell", "1000", "--k", "1000",
    )
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "DomainError"
    assert "2^1024" in error["message"]


HUGE_IDENTITY = {"q_params": {"p": 4294967291, "m": 1}, "ell": 10 ** 6, "k": 10 ** 6,
                 "n": 1, "coeffs": [1]}
LONG_POINT_IDENTITY = {"q_params": {"p": 5, "m": 1}, "ell": 10 ** 6, "k": 0, "n": 1,
                       "coeffs": [1]}


@pytest.mark.parametrize(
    "argv,kind,words",
    [
        (["challenge", "--identity", "{identity}"], "ValueError", "ell=1000000, k=1000000 needs"),
        (["verify", "--identity", "{identity}", "--challenge", "{identity}"],
         "ValueError", "ell=1000000, k=1000000 needs"),
        (["params", "--q", "4294967291", "--ell", "1000000", "--k", "1000000"],
         "DomainError", "the float range"),
        (["params", "--q", "4294967291", "--ell", "514", "--k", "514"],
         "DomainError", "the float range"),
        (["gen-identity", "--q", "59049", "--ell", "2", "--k", "100", "--data-file", "{payload}"],
         "ValueError", "identity space holds only q^5151"),
        (["gen-identity", "--q", "5", "--ell", "1", "--k", "1", "--n", "100000000"],
         "ValueError", "a round of n=100000000 challenges at ell=1, k=1 is above the limits"),
        (["challenge", "--identity", "{long_point}"],
         "ValueError", "a round of n=1 challenges at ell=1000000, k=0 is above the limits"),
        (["encrypt", "--challenge", "{challenge}", "--ell-prime", "1000000",
          "--seeds-out", "{seeds}"],
         "DomainError", "2 x ell'=1000000 symbols are above the limit 2^16"),
        (["leakage-bound", "--q", "4294967291", "--ell-prime", "1000000", "--kappa", "0.2"],
         "ValueError", "ell'=1000000 symbols over GF(4294967291) are above the limit of 2^21"),
        (["leakage-bound", "--q", "5", "--ell-prime", "10000000000", "--kappa", "0.2"],
         "ValueError", "ell'=10000000000 symbols over GF(5) are above the limit of 2^21"),
    ],
    ids=["identity_file_challenge", "identity_file_verify", "params_ell_k_10_6",
         "params_bits_past_float", "payload_1mb", "mint_n_10_8", "identity_file_point_10_6",
         "encrypt_ell_prime_10_6", "leakage_bound_ell_prime_10_6",
         "leakage_bound_ell_prime_10_10"],
)
def test_oversized_inputs_are_refused_before_the_work(
    pipeline, tmp_path, capsys, monkeypatch, argv, kind, words
):
    # each took from 3 s to minutes, printed Infinity, or minted at once
    # what no round could use, before its refusal; none may draw
    def drawn(*_):
        raise AssertionError("drawn before the input's size was checked")

    monkeypatch.setattr(Field, "sample_vector", drawn)
    monkeypatch.setattr("secrid.wiretap.sample_seed", drawn)
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(HUGE_IDENTITY))
    long_point = tmp_path / "long_point.json"
    long_point.write_text(json.dumps(LONG_POINT_IDENTITY, separators=(",", ":")))
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"\xff" * (1 << 20))
    seeds = tmp_path / "seeds.json"
    argv = [
        a.format(identity=identity, long_point=long_point, payload=payload,
                 challenge=pipeline[1], seeds=seeds)
        for a in argv
    ]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == kind
    assert words in error["message"]
    assert not seeds.exists()


def test_encrypt_at_the_symbol_limit_finishes_within_its_budget(tmp_path, capsys):
    # 2 challenges x ell' = 2^15 is the 2^16-symbol limit; a pivot search
    # that added the q^j direction blocks one at a time took ~5.7 s on a
    # 2-core x86 machine
    identity, challenge = tmp_path / "id.json", tmp_path / "ch.json"
    identity.write_text(run_cli(
        capsys, "gen-identity", "--q", "4294967291", "--ell", "1", "--k", "1", "--n", "2",
        "--seed", "1",
    )[1])
    challenge.write_text(run_cli(capsys, "challenge", "--identity", str(identity), "--seed", "2")[1])
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "encrypt", "--challenge", str(challenge), "--ell-prime", "32768",
        "--seeds-out", str(tmp_path / "seeds.json"), "--seed", "3",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    assert [len(sc["x"]) for sc in json.loads(out)["secret_challenges"]] == [32768, 32768]


@pytest.mark.parametrize("sweep", [(), ("--sweep",)], ids=["point", "sweep"])
def test_leakage_exact_refuses_a_large_field_before_building_its_channel(capsys, monkeypatch, sweep):
    # a named channel is its (kind, q, delta), with no matrix to build, so
    # GF(509), once refused for its 509 x 509 one, runs; a point whose closed
    # form's powers are past the work bound is refused before any point runs
    code, out, err = run_cli(capsys, "leakage-exact", "--q", "509", *sweep)
    assert code == 0, err
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    argv = ["leakage-exact", "--q", "4294967291", "--ell-prime", "8192", *sweep]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert error["message"].endswith(" too large for exact leakage")


@pytest.mark.parametrize("q", ["331", "509", "4294967291"])
def test_leakage_exact_runs_every_named_channel_past_the_fields_once_refused(capsys, q):
    # the work rule charged the q^2 |Z| kernel pass no named channel runs,
    # and refused each of these at ell' = 2
    for flags in (["identity"], ["uniform"], ["symmetric", "--delta", "1/8"],
                  ["erasure", "--delta", "1/4"]):
        code, out, err = run_cli(capsys, "leakage-exact", "--q", q, "--channel", *flags)
        assert code == 0, err
        assert json.loads(out)["q"] == int(q)


def test_leakage_exact_refuses_a_huge_ell_prime_by_its_size(capsys, monkeypatch):
    # the closed form's powers of ~4 * 10^6 bits bound the work past 2^31
    # units; no power of 3 is formed and no point runs
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "leakage-exact", "--q", "3", "--ell-prime", "1000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert error["message"] == (
        "a work bound >= 2^31 units, past 40000000, is too large for exact leakage"
    )


@pytest.mark.parametrize(
    "flags, kind",
    [
        # refused from the text: Fraction("1e-30000000") alone takes ~1 min
        (("--delta", "1e-30000000"), "DomainError"),
        (("--sweep", "--delta", "1/8,1e-30000000"), "DomainError"),
        (("--delta", "1e-300000"), "DomainError"),
        (("--sweep", "--delta", "1/8,1e-300000"), "DomainError"),
        # parsed, then refused by its denominators of ~2 * 2150 digits
        (("--delta", "1e-2150"), "ValueError"),
        (("--sweep", "--delta", "1/8,1e-2150"), "ValueError"),
    ],
    ids=[
        "point_huge", "sweep_huge", "point", "sweep",
        "point_past_the_estimate", "sweep_past_the_estimate",
    ],
)
def test_leakage_exact_refuses_a_delta_whose_report_cannot_be_written(
    tmp_path, capsys, monkeypatch, flags, kind
):
    # 10^300000 took ~42 s of integer DP before str() of a TV passed
    # Python's int-to-str limit; each is now refused before any point runs
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    report = tmp_path / "report"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "leakage-exact", "--q", "3", *flags, "--out", str(report))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert json.loads(err) == {"error": {
        "kind": kind,
        "message": f"the exact report would write an integer past {limit} digits",
    }}
    assert not report.exists()


def test_leakage_exact_writes_up_to_the_digit_limit(tmp_path, capsys, monkeypatch):
    # GF(3) erasure at ell' = 2 has scale 10^N, and its report's integers
    # are below 2 * 3 * 36 * 10^(2N), bounded at 4,299 digits for N = 2148
    # (the longest written has 4,297) and 4,301 for N = 2149, refused before
    # it runs
    assert sys.get_int_max_str_digits() == 4300  # Python's default
    argv = ["leakage-exact", "--q", "3", "--channel", "erasure"]
    report = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--delta", "1e-2148", "--out", str(report)) == (0, "", "")
    obj = json.loads(report.read_text())
    exact = (obj["exact_max_tv_exact"], obj["exact_pairwise_tv_exact"])
    assert max(len(term) for tv in exact for term in tv.split("/")) == 4297
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    code, out, err = run_cli(capsys, *argv, "--delta", "1e-2149")
    assert (code, out) == (1, "")
    message = json.loads(err)["error"]["message"]
    assert message == "the exact report would write an integer past 4300 digits"


def test_leakage_exact_writes_a_delta_of_a_thousand_digits(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli(capsys, "leakage-exact", "--q", "3", "--delta", "1e-1000",
                   "--out", str(report)) == (0, "", "")
    assert len(report.read_bytes()) == 8259
    assert json.loads(report.read_text())["exact_max_tv_exact"].count("/") == 1


def test_leakage_exact_single_point(capsys):
    obj = run_json(
        capsys,
        "leakage-exact", "--q", "3", "--ell-prime", "2",
        "--channel", "symmetric", "--delta", "1/8",
    )
    assert obj["channel"] == "symmetric"
    assert 0 < obj["exact_max_tv"] < 2
    assert obj["exact_max_tv"] <= obj["bound_tight"] + 1e-9


def test_leakage_exact_point_writes_its_json_to_out(tmp_path, capsys):
    argv = ["leakage-exact", "--q", "3", "--delta", "1/8"]
    code, printed, err = run_cli(capsys, *argv)
    assert code == 0, err
    out = tmp_path / "pt.json"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text() == printed


def test_leakage_exact_sweep_writes_one_row_per_point(tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main([
        "leakage-exact", "--q", "2", "--sweep", "--channel", "symmetric",
        "--ell-prime", "2,3", "--delta", "0,1/4,1/2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["q", "ell_prime", "delta", "kappa_true", "exact_max_tv",
                      "bound_tight", "bound_simplified"]
    assert [row[1:3] for row in rows[1:]] == [
        [lp, delta] for lp in ("2", "3") for delta in ("0.0", "0.25", "0.5")
    ]


@pytest.mark.parametrize("channel", ["identity", "uniform"])
def test_a_delta_free_sweep_runs_each_ell_prime_once(capsys, monkeypatch, channel):
    # one channel serves every --delta entry, which wrote 4 equal rows per ell'
    calls = []
    run = analysis.exact_leakage
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: calls.append(point) or run(*point))
    code, out, err = run_cli(
        capsys, "leakage-exact", "--q", "9", "--channel", channel, "--sweep",
        "--ell-prime", "2,3", "--delta", "0,1/8,1/4,1/2",
    )
    assert code == 0, err
    assert [row[1:3] for row in csv.reader(io.StringIO(out))][1:] == [["2", ""], ["3", ""]]
    assert [params.ell_prime for params, _ in calls] == [2, 3]


def test_a_sweep_sizes_each_point_at_its_channels_scale(capsys, monkeypatch):
    # GF(3) at delta = 1/8 scales by 16, not 8: ell' = 2100 is refused
    # before ell' = 1000 runs; GF(101) at 1e-2144 scales by 10^2146, not
    # 10^2144, so the point is refused once its channel is built
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    limit = sys.get_int_max_str_digits()
    for argv in [
        ["--q", "3", "--sweep", "--delta", "1/8", "--ell-prime", "1000,2100"],
        ["--q", "101", "--delta", "1e-2144"],
    ]:
        code, out, err = run_cli(capsys, "leakage-exact", *argv)
        assert (code, out) == (1, ""), argv
        assert json.loads(err)["error"] == {
            "kind": "ValueError",
            "message": f"the exact report would write an integer past {limit} digits",
        }


def test_each_leakage_input_is_taken_one_way(capsys, monkeypatch):
    # a sweep's grid is the lists --ell-prime and --delta give (--delta 1/4
    # wrote the default grid's 8 rows), a point takes one entry of each, and
    # leakage-bound one budget (--kappa was dropped when --d2-bits was given)
    code, out, err = run_cli(
        capsys, "leakage-exact", "--q", "3", "--sweep", "--ell-prime", "2,3", "--delta", "1/4"
    )
    assert code == 0, err
    assert [row[1:3] for row in csv.reader(io.StringIO(out))][1:] == [["2", "0.25"], ["3", "0.25"]]
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    for flags in (["--ell-prime", "2,3"], ["--delta", "0,1/4"]):
        code, out, err = run_cli(capsys, "leakage-exact", "--q", "3", *flags)
        assert (code, out) == (1, ""), flags
        assert json.loads(err)["error"] == {
            "kind": "DomainError", "message": "a comma list of --ell-prime or --delta needs --sweep",
        }
    argv = ["leakage-bound", "--q", "25", "--ell-prime", "3", "--d2-bits", "1", "--kappa", "0.5"]
    code, out, err = _parser_exit(capsys, main, argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --kappa: not allowed with argument --d2-bits\n")


def test_bench_refuses_more_repetitions_than_its_limit(capsys):
    # 2^64 repetitions ran until killed; the limit is checked before any
    # identity is minted
    code, out, err = run_cli(capsys, "bench", "--q", "25", "--reps", "1001")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {
        "kind": "ValueError", "message": "at most 1000 repetitions, got 1001",
    }}


def test_small_sweeps_start_no_process(capsys, monkeypatch):
    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    argv, digest = REPORT_SHA256["leakage_sweep"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # a point above the digit limit is refused before any point runs
    monkeypatch.setattr(analysis, "exact_leakage", lambda *point: pytest.fail(f"{point} ran"))
    code, out, err = run_cli(
        capsys, "leakage-exact", "--q", "9", "--sweep", "--ell-prime", "2,4096"
    )
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    limit = sys.get_int_max_str_digits()
    assert error["message"] == f"the exact report would write an integer past {limit} digits"


def test_capacity_check_single_and_sweep(capsys):
    obj = run_json(capsys, "capacity-check", "--n-seq", "3")
    lo, hi = obj["loglog_ratio_interval"]
    assert lo <= (9 - 6) / 9 <= hi
    sweep = run_json(capsys, "capacity-check", "--n-seq", "2", "--sweep-to", "5")
    assert [d["n_seq"] for d in sweep] == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "argv",
    [["--n-seq", "1024"], ["--n-seq", "1020", "--sweep-to", "1030"], ["--n-seq", "0"]],
    ids=["n_1024", "sweep_1020_1030", "n_0"],
)
def test_capacity_check_rejects_indices_beyond_float_range(capsys, argv):
    # ell = 2^n has no float above n = 1023
    code, out, err = run_cli(capsys, "capacity-check", *argv)
    assert code == 1
    assert out == ""
    assert "[1, 1023]" in json.loads(err)["error"]["message"]


def test_capacity_check_rejects_an_inverted_range(capsys):
    code, out, err = run_cli(capsys, "capacity-check", "--n-seq", "5", "--sweep-to", "2")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "kind": "DomainError", "message": "--sweep-to 2 is below --n-seq 5",
    }


@pytest.mark.parametrize(
    "field_args,config,q",
    [([], "", 59049), (["--q", "7"], "", 7), ([], "q = 3\n", 3), (["--q", "9"], "q = 25\n", 9)],
    ids=["default", "q", "config_q", "flag_over_config"],
)
def test_bench_resolves_its_field_from_any_field_flag(
    tmp_path, capsys, monkeypatch, field_args, config, q
):
    # the grid itself is not run: only the field it would run on is read
    seen = []
    monkeypatch.setattr("secrid.bench.run_grid", lambda **kw: seen.append(kw["q"]) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, "bench", *field_args, "--config", str(cfg))
    assert code == 0, err
    assert seen == [q]
    assert out.splitlines()[0].startswith("schema_version,")


def test_bench_csv_names_the_field_given_as_p_and_m(capsys):
    # q = 25 is the field of characteristic p = 5 and degree m = 2; the CSV
    # names it by its order, whichever way it was given
    code, out, err = run_cli(
        capsys,
        "bench", "--q", "25", "--reps", "30", "--seed", "0",
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {row["q"] for row in rows} == {"25"}


@pytest.mark.parametrize("kappas",["", "0.2,x", "0.2,,0.4"])
def test_bench_parses_every_kappa_before_any_grid_runs(capsys, monkeypatch, kappas):
    # an empty kappa list used to bench the default kappa, and a bad value
    # used to fail only after the grids before it had run
    def no_grid(**kwargs):
        raise AssertionError(f"bench ran its grid at kappa = {kwargs['kappa']}")

    monkeypatch.setattr("secrid.bench.run_grid", no_grid)
    code, out, err = run_cli(capsys, "bench", "--kappa", kappas)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert error["message"].startswith("could not convert string to float")


def test_bench_runs_one_grid_per_kappa_in_order(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("secrid.bench.run_grid", lambda **kw: seen.append(kw["kappa"]) or [])
    assert run_cli(capsys, "bench", "--kappa", "0.4,0.2")[0] == 0
    assert run_cli(capsys, "bench", "--kappa", "0.3")[0] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 0.25\n")  # a config's kappa is one float
    assert run_cli(capsys, "bench", "--config", str(cfg))[0] == 0
    assert seen == [0.4, 0.2, 0.3, 0.25]


def _disk_full_after_first_row(monkeypatch):
    """Make every csv writer fail with ENOSPC after its first row."""
    real_writer = csv.writer

    class DiskFull:
        def __init__(self, fh, *args, **kwargs):
            self.inner = real_writer(fh, *args, **kwargs)
            self.rows = 0

        def writerow(self, row):
            if self.rows:
                raise OSError(28, "No space left on device")
            self.rows += 1
            return self.inner.writerow(row)

        def writerows(self, rows):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(csv, "writer", DiskFull)


@pytest.mark.parametrize(
    "argv",
    [["leakage-exact", "--q", "3", "--sweep"],
     ["bench", "--q", "25", "--reps", "30"]],
    ids=["leakage_exact_sweep", "bench"],
)
def test_a_failed_csv_write_leaves_the_old_output_alone(tmp_path, capsys, monkeypatch, argv):
    out = tmp_path / "out.csv"
    out.write_text("earlier results\n")
    _disk_full_after_first_row(monkeypatch)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert json.loads(err)["error"]["kind"] == "OSError"
    assert out.read_text() == "earlier results\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_bench_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys,
        "bench", "--q", "25", "--reps", "30", "--kappa", "0.2", "--out", str(out), "--seed", "0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "schema_version"
    assert len(rows) == 1 + 4  # four timed operations at one grid point
    assert {row[rows[0].index("q")] for row in rows[1:]} == {"25"}


# ---------------------------------------------------------------------------
# one writer for every output

# output flags that name one place: the same path twice, two spellings of
# one path, a symlink to another output, or a second output to stdout
CLASHING_OUTPUTS = {
    "same_path": ("encrypt", ["--seeds-out", "k", "--out-bin", "k"]),
    "dot_slash": ("encrypt", ["--seeds-out", "./k", "--seeds-bin-out", "k"]),
    "symlink": ("encrypt", ["--seeds-out", "k", "--out-bin", "link"]),
    "seeds_out_stdout": ("encrypt", ["--seeds-out", "-"]),
    "out_bin_stdout": ("encrypt", ["--seeds-out", "s.json", "--out-bin", "-"]),
    "seeds_bin_out_stdout": ("encrypt", ["--seeds-out", "s.json", "--seeds-bin-out", "-"]),
    "challenge_out_bin_stdout": ("challenge", ["--out-bin", "-"]),
}


@pytest.mark.parametrize("case", list(CLASHING_OUTPUTS))
def test_outputs_in_one_place_are_refused_before_any_write(
    pipeline, tmp_path, capsys, monkeypatch, case
):
    identity, challenge = pipeline
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "link").symlink_to("k")  # dangling until k is written
    monkeypatch.chdir(out_dir)
    command, flags = CLASHING_OUTPUTS[case]
    inputs = {
        "encrypt": ["--challenge", str(challenge), "--ell-prime", "3"],
        "challenge": ["--identity", str(identity)],
    }[command]
    code, out, err = run_cli(capsys, command, *inputs, *flags, "--seed", "1")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "DomainError"
    assert error["message"].startswith("two outputs go to ")
    assert sorted(os.listdir(out_dir)) == ["link"]


def test_encrypt_refuses_an_empty_seeds_path(pipeline, tmp_path, capsys, monkeypatch):
    # the seeds are the one output encrypt cannot leave out: without them
    # the secret challenges can never be decrypted
    _, challenge = pipeline
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.chdir(out_dir)
    code, out, err = run_cli(
        capsys,
        "encrypt", "--challenge", str(challenge), "--ell-prime", "3", "--seeds-out", "",
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "DomainError"
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "argv",
    [["leakage-exact", "--q", "3", "--sweep"],
     ["bench", "--q", "25", "--reps", "30"]],
    ids=["leakage_exact_sweep", "bench"],
)
def test_csv_out_dash_writes_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", "-")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    default_rows = list(csv.reader(io.StringIO(run_cli(capsys, *argv)[1])))
    assert rows[0] == default_rows[0]
    assert len(rows) == len(default_rows) > 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["gen-identity", "--q", "7", "--ell", "1", "--k", "2", "--seed", "1"],
     ["leakage-exact", "--q", "3", "--sweep", "--out", "grid.csv"],
     ["capacity-check", "--n-seq", "2"]],
    ids=["gen_identity", "leakage_exact_sweep", "capacity_check"],
)
def test_subcommands_return_their_outputs_and_write_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(argv)
    outputs = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert os.listdir(tmp_path) == []
    assert all(isinstance(data, (str, bytes)) for _, data in outputs)
    cli._write_outputs(outputs)
    paths = [path for path, _ in outputs]
    assert capsys.readouterr().out == dict(outputs).get("-", "")
    assert sorted(os.listdir(tmp_path)) == sorted(p for p in paths if p != "-")


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


@pytest.mark.parametrize("flag,ell_prime", [([], 3), (["--ell-prime", "2"], 2)])
def test_config_sets_leakage_exact_ell_prime_and_the_flag_wins(tmp_path, capsys, flag, ell_prime):
    # --ell-prime has a default of its own (2), which the config replaces
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 3\nell_prime = 3\n")
    obj = run_json(capsys, "leakage-exact", "--config", str(cfg), "--delta", "1/4", *flag)
    assert obj["ell_prime"] == ell_prime


def test_config_is_parsed_by_the_one_parser_main_builds(tmp_path, capsys, monkeypatch):
    # the file's values become defaults of the running subcommand's parser,
    # which then parses argv again; no second parser is built
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 59049\nell = 2\nk = 20\n")
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: calls.append(a) or build(*a))
    from_config = run_json(capsys, "params", "--config", str(cfg))
    assert len(calls) == 1
    assert from_config == run_json(capsys, "params", "--q", "59049", "--ell", "2", "--k", "20")


def _parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    return (info.value.code, *capsys.readouterr())


# a complete argv of each subcommand; no file it names is read before
# argparse has accepted the whole line
ACCEPTED_ARGV = {
    "gen-identity": ["--q", "25", "--ell", "1", "--k", "2"],
    "challenge": ["--identity", "id.json"],
    "verify": ["--identity", "id.json", "--challenge", "ch.json"],
    "encrypt": ["--challenge", "ch.json", "--ell-prime", "3", "--seeds-out", "seeds.json"],
    "decrypt": ["--secret", "secret.json", "--seeds", "seeds.json"],
    "params": ["--q", "25", "--ell", "1", "--k", "2"],
    "leakage-bound": ["--q", "5", "--ell-prime", "3", "--kappa", "0.2"],
    "leakage-exact": ["--q", "3"],
    "capacity-check": ["--n-seq", "2"],
    "bench": [],
}
# spellings of values the program works out elsewhere, or takes under
# another name, which no subcommand takes: a field's (p, m), which --q
# fixes, a ciphertext length planned from (kappa, epsilon), which is
# params' ell_prime, and a sweep's lists, which --ell-prime and --delta take
NOT_TAKEN = [(name, flag) for name in cli.SUBCOMMANDS for flag in ("--p", "--m")] + [
    ("encrypt", "--kappa"), ("encrypt", "--epsilon"),
    ("leakage-exact", "--ell-primes"), ("leakage-exact", "--deltas"),
]


@pytest.mark.parametrize("name, flag", NOT_TAKEN, ids=lambda value: value)
def test_values_the_program_works_out_are_not_flags(capsys, name, flag):
    code, out, err = _parser_exit(capsys, main, [name, *ACCEPTED_ARGV[name], flag, "3"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: secrid")
    assert err.endswith(f"error: unrecognized arguments: {flag} 3\n")


@pytest.mark.parametrize("key", ["p", "m"])
def test_a_config_names_a_field_only_as_q(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3\n")
    code, out, err = run_cli(capsys, "params", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "kind": "DomainError", "message": f"{cfg}:1: unknown key {key!r}",
    }


def _argv_the_parser_refuses_or_answers():
    """-h, --version, no arguments and an unknown subcommand; then for each
    subcommand -h, an unknown flag, each spelling it does not take
    (NOT_TAKEN), its required flags missing, each typed flag given a bad
    value, each choice a bad one, and both flags of an exclusive pair."""
    cases = [["-h"], ["--version"], [], ["bogus"], ["--bogus"]]
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in sub.choices.items():
        cases += [[name, "-h"], [name, "--bogus"]]
        cases += [[name, flag, "x"] for command, flag in NOT_TAKEN if command == name]
        flags = [a for a in parser._actions if a.option_strings]
        if any(a.required for a in flags):
            cases.append([name])
        cases += [[name, a.option_strings[0], "x"] for a in flags if a.type or a.choices]
        for group in parser._mutually_exclusive_groups:
            cases.append([name, *(s for a in group._group_actions for s in (a.option_strings[0], "x"))])
    return cases


@pytest.mark.parametrize(
    "argv", _argv_the_parser_refuses_or_answers(), ids=lambda argv: " ".join(argv) or "(none)"
)
def test_main_answers_as_the_parser_of_every_subcommand(capsys, argv):
    # main builds only the named subcommand's parser; its usage, help,
    # errors and exit codes are those of the full one
    expect = _parser_exit(capsys, cli.build_parser().parse_args, argv)
    assert _parser_exit(capsys, main, argv) == expect


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qq = 25\n")
    code, _, err = run_cli(capsys, "gen-identity", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in json.loads(err)["error"]["message"]


def _args_read(func) -> set[str]:
    """The args attributes func reads: each args.<name>, each string passed
    with args to a helper of the cli module, and what that helper reads."""
    read = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and any(getattr(a, "id", None) == "args" for a in node.args):
            helper = vars(cli).get(getattr(node.func, "id", None))
            if inspect.isfunction(helper) and helper.__module__ == cli.__name__:
                read |= {a.value for a in node.args if isinstance(a, ast.Constant)}
                read |= _args_read(helper)
    return read


def test_every_option_is_read_by_its_subcommand():
    # an option its subcommand never reads is a value the user sets for nothing
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for name, parser in sub.choices.items():
        options = {a.dest for a in parser._actions if a.option_strings} - {"help", "config"}
        missing = options - _args_read(parser.get_default("func"))
        if missing:
            unread[name] = sorted(missing)
    assert unread == {}


# each numeric flag with the argv it is set in ({challenge} and {seeds} stand
# for files the test writes); the flag comes last, so its value wins
EDGE_FLAGS = {
    **{
        f"params_{policy}": (
            ["params", "--q", "59049", "--ell", "2", "--k", "20", "--kappa", "0.2",
             "--budget-policy", policy],
            ("--q", "--ell", "--k", "--kappa", "--epsilon"),
        )
        for policy in rmid.BUDGET_POLICIES
    },
    "leakage_bound": (
        ["leakage-bound", "--q", "5", "--ell-prime", "3", "--kappa", "0.2"],
        ("--q", "--ell-prime", "--kappa", "--d2-bits"),
    ),
    # --d2-bits and --kappa exclude each other, so the argv above stops at
    # argparse when --d2-bits is added
    "leakage_bound_d2": (["leakage-bound", "--q", "5", "--ell-prime", "3"], ("--d2-bits",)),
    "encrypt": (
        ["encrypt", "--challenge", "{challenge}", "--seeds-out", "{seeds}"],
        ("--ell-prime",),
    ),
    "leakage_exact": (["leakage-exact", "--q", "3"], ("--q", "--ell-prime")),
    "capacity_check": (["capacity-check", "--n-seq", "2"], ("--n-seq", "--sweep-to")),
    "gen_identity": (
        ["gen-identity", "--q", "5", "--ell", "1", "--k", "2", "--seed", "1"],
        ("--q", "--seed", "--ell", "--k", "--n"),
    ),
    "bench": (["bench"], ("--q", "--reps")),
}
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-320", "1e308", "-1", str(2 ** 64)]


@pytest.mark.parametrize(
    "name, flag",
    [(name, flag) for name, (_, flags) in EDGE_FLAGS.items() for flag in flags],
    ids=[name + flag for name, (_, flags) in EDGE_FLAGS.items() for flag in flags],
)
def test_numeric_edge_values_never_escape_main(pipeline, tmp_path, capsys, name, flag):
    # as --flag=value, since argparse reads "-inf" alone as a flag; a subnormal
    # epsilon raised OverflowError from min_cipher_length, where 1/epsilon is inf
    argv, _ = EDGE_FLAGS[name]
    files = {"challenge": pipeline[1], "seeds": tmp_path / "seeds.json"}
    for value in EDGE_VALUES:
        args = [arg.format(**files) for arg in argv] + [f"{flag}={value}"]
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage error, which exits 2
            code = exc.code
        out, err = capsys.readouterr()
        if code == 1:
            assert out == "", args
            assert err.count("\n") == 1 and list(json.loads(err)) == ["error"], args
        else:
            assert code in (0, 2), args


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen-identity", "--q", "not-a-number", "--ell", "1", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["params", "--q", "25", "--ell", "1", "--k", "1", "--budget-policy", "nope"])
    assert exc.value.code == 2


# an error path of each kind that no other test reaches: argv (with {name}
# standing for a file the test writes), the error kind and its message
ERROR_PATHS = {
    "gen_identity_without_ell": (
        ["gen-identity", "--q", "25", "--k", "2"],
        "DomainError", "missing --ell (flag or config key)",
    ),
    "leakage_bound_without_ell_prime": (
        ["leakage-bound", "--q", "5", "--d2-bits", "0"],
        "DomainError", "missing --ell-prime (flag or config key)",
    ),
    "leakage_bound_without_a_budget": (
        ["leakage-bound", "--q", "5", "--ell-prime", "3"],
        "DomainError", "give --d2-bits or --kappa",
    ),
    "data_file_missing": (
        ["gen-identity", "--q", "25", "--ell", "1", "--k", "2", "--data-file", "{missing}"],
        "FileNotFoundError", "{missing}: no such file",
    ),
    "decrypt_across_fields": (
        ["decrypt", "--secret", "{secret}", "--seeds", "{seeds_49}"],
        "DomainError", "secret challenges and seeds disagree on q",
    ),
    "verify_across_fields": (
        ["verify", "--identity", "{identity_49}", "--challenge", "{challenge}"],
        "DomainError", "challenge was issued over GF(25), identity lives in GF(49)",
    ),
    "params_negative_kappa": (
        ["params", "--q", "59049", "--ell", "2", "--k", "20", "--kappa", "-0.5"],
        "ValueError", "kappa must be a fraction in [0, 1), got -0.5",
    ),
    "params_nan_kappa": (
        ["params", "--q", "59049", "--ell", "2", "--k", "20", "--kappa", "nan"],
        "ValueError", "kappa must be a fraction in [0, 1), got nan",
    ),
    "params_zero_budget": (
        ["params", "--q", "59049", "--ell", "2", "--k", "0"],
        "ValueError", "leakage budget is zero; nothing can meet it with a finite ciphertext",
    ),
    "leakage_exact_ell_prime_1": (
        ["leakage-exact", "--q", "5", "--ell-prime", "1"],
        "ValueError", "ciphertext length must be an integer >= 2, got 1",
    ),
    "leakage_bound_ell_prime_1": (
        ["leakage-bound", "--q", "5", "--ell-prime", "1", "--kappa", "0.2"],
        "ValueError", "ciphertext length must be an integer >= 2, got 1",
    ),
    "leakage_bound_negative_kappa": (
        ["leakage-bound", "--q", "9", "--ell-prime", "3", "--kappa", "-1"],
        "ValueError", "kappa must be a fraction in [0, 1], got -1.0",
    ),
    "leakage_bound_nan_kappa": (
        ["leakage-bound", "--q", "9", "--ell-prime", "3", "--kappa", "nan"],
        "ValueError", "kappa must be a fraction in [0, 1], got nan",
    ),
    "leakage_bound_kappa_above_one": (
        ["leakage-bound", "--q", "9", "--ell-prime", "3", "--kappa", "1.5"],
        "ValueError", "kappa must be a fraction in [0, 1], got 1.5",
    ),
    # a channel that takes no delta still has its text checked
    **{
        f"leakage_exact_{channel}_malformed_delta": (
            ["leakage-exact", "--q", "9", "--channel", channel, "--delta", "abc"],
            "ValueError", "Invalid literal for Fraction: 'abc'",
        )
        for channel in ("identity", "uniform")
    },
    "encrypt_ell_prime_1": (
        ["encrypt", "--challenge", "{challenge}", "--ell-prime", "1", "--seeds-out", "{missing}"],
        "ValueError", "ciphertext length must be an integer >= 2, got 1",
    ),
}


@pytest.mark.parametrize("case", list(ERROR_PATHS))
def test_error_paths_exit_one_with_their_message(pipeline, tmp_path, capsys, case):
    identity, challenge = pipeline
    files = {
        "challenge": challenge,
        "missing": tmp_path / "missing.bin",
        "secret": tmp_path / "secret.json",
        "seeds_49": tmp_path / "seeds.json",
        "identity_49": tmp_path / "id_49.json",
    }
    files["secret"].write_text(
        run_cli(
            capsys,
            "encrypt", "--challenge", str(challenge), "--ell-prime", "3",
            "--seeds-out", str(files["seeds_49"]), "--seed", "1",
        )[1]
    )
    seeds = json.loads(files["seeds_49"].read_text())
    files["seeds_49"].write_text(json.dumps({**seeds, "q": 49}))
    files["identity_49"].write_text(
        run_cli(capsys, "gen-identity", "--q", "49", "--ell", "2", "--k", "3", "--seed", "1")[1]
    )
    names = {name: str(path) for name, path in files.items()}
    argv, kind, message = ERROR_PATHS[case]
    code, out, err = run_cli(capsys, *(arg.format(**names) for arg in argv))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"kind": kind, "message": message.format(**names)}
    assert not files["missing"].exists()


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


@pytest.mark.parametrize("target", ["identity", "challenge"])
def test_deeply_nested_json_exits_one_with_json(pipeline, tmp_path, capsys, target):
    # the JSON decoder recurses once per level and runs out of stack here
    identity, challenge = pipeline
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths = {"identity": identity, "challenge": challenge, target: deep}
    code, out, err = run_cli(
        capsys, "verify", "--identity", str(paths["identity"]),
        "--challenge", str(paths["challenge"]),
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "kind": "ValueError", "message": f"{deep}: JSON nested too deeply to read",
    }


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
    # only `bench` needs secrid.bench, and no subcommand multiprocessing;
    # every cold CLI call would pay their import otherwise
    probe = "import sys, secrid.cli; print(sorted({'multiprocessing', 'secrid.bench'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# runs the CLI as `python -m secrid.cli` does, then reports its exit code
# and every module the process holds on stderr
FOOTPRINT_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("secrid.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps([code, sorted(sys.modules)]))
"""
# the reference round, one fresh process per subcommand: (stdout file, argv)
FOOTPRINT_ROUND = [
    ("id.json", ["gen-identity", "--q", "59049", "--ell", "2", "--k", "20", "--n", "2",
                 "--seed", "7"]),
    ("ch.json", ["challenge", "--identity", "id.json", "--seed", "8"]),
    ("secret.json", ["encrypt", "--challenge", "ch.json", "--ell-prime", "3",
                     "--seeds-out", "seeds.json", "--seed", "9"]),
    ("dec.json", ["decrypt", "--secret", "secret.json", "--seeds", "seeds.json"]),
    (None, ["verify", "--identity", "id.json", "--challenge", "dec.json"]),
]
# the records are plain classes and only leakage_bound_squared makes a
# Fraction, so no round subcommand loads dataclasses, inspect or fractions
NOT_IN_THE_ROUND = {
    "secrid.analysis", "secrid.planner", "secrid.rsid", "secrid.bench",
    "dataclasses", "inspect", "fractions",
}
NOT_WITHOUT_SECRECY = NOT_IN_THE_ROUND | {"secrid.wiretap"}


def test_each_round_subcommand_imports_only_its_own_layers(tmp_path):
    for out, argv in FOOTPRINT_ROUND:
        result = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_PROBE, *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=_child_env(),
        )
        code, modules = json.loads(result.stderr)
        assert code == 0, argv
        unwanted = NOT_IN_THE_ROUND if argv[0] in ("encrypt", "decrypt") else NOT_WITHOUT_SECRECY
        assert unwanted & set(modules) == set(), argv[0]
        if out:
            (tmp_path / out).write_text(result.stdout)
    assert result.stdout == '{"accept":true}\n'


# one process runs the seeded round at the reference point; its few hundred
# multiply-adds stay far below what building the GF(3^10) tables costs
COLD_ROUND = """
import contextlib, io
from secrid.cli import main
from secrid.ff import field_for

def run(out, *argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    if out:
        with open(out, "w") as fh:
            fh.write(buf.getvalue())
    return buf.getvalue()

run("id.json", "gen-identity", "--q", "59049", "--ell", "2", "--k", "20", "--n", "2",
    "--seed", "7")
run("ch.json", "challenge", "--identity", "id.json", "--seed", "8", "--out-bin", "ch.bin")
run("secret.json", "encrypt", "--challenge", "ch.json", "--ell-prime", "3",
    "--seeds-out", "seeds.json", "--seeds-bin-out", "seeds.bin", "--out-bin", "sec.bin",
    "--seed", "9")
run("dec.json", "decrypt", "--secret", "secret.json", "--seeds", "seeds.json")
print(run(None, "verify", "--identity", "id.json", "--challenge", "dec.json"), end="")
print("tables built:", field_for(3, 10)._tables is not None)
"""


def test_cold_reference_round_builds_no_field_tables(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", COLD_ROUND],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == '{"accept":true}\ntables built: False\n'
    assert (tmp_path / "ch.json").read_text() == (tmp_path / "dec.json").read_text()


# the seeded round gen-identity -> challenge -> encrypt -> decrypt -> verify,
# with ell' = 3: (q, ell, k, n, binary outputs too)
SEEDED_ROUNDS = {
    "reference": [(59049, 2, 20, 2, True)],
    "small_fields": [(65536, 2, 5, 3, False), (7, 2, 3, 2, False), (625, 3, 4, 2, False)],
}
# SHA-256 of every stdout and file of those rounds; a change here means a
# seeded CLI call no longer prints or writes the same bytes
SEEDED_ROUND_SHA256 = {
    "reference": {
        "q59049.ch.bin": "a19b0ede21ec30b77bf0076486f5b870067157f54ef13a138e849e01437842e5",
        "q59049.ch.json": "f4e1dd9ff71ce55cadee35052c9e6b93cbe502345daa8cd6320a094d855a9492",
        "q59049.dec.json": "f4e1dd9ff71ce55cadee35052c9e6b93cbe502345daa8cd6320a094d855a9492",
        "q59049.id.json": "389a8673bb18f79840161cced47467e0e39a840c1938857f91c3f5caf83147da",
        "q59049.secret.bin": "ed8bbe3002fe55e716a69d1cb0c203656d04216260574d22025d2411c2d96c5b",
        "q59049.secret.json": "caee7cfbad96f3a1bc37cb455c3ce8c08668d5ac49eadbd02668a4e3684f836e",
        "q59049.seeds.bin": "6958789881777b4b1dde726fcceeb7bbc556256c0dfe6b179bca97248d5153e2",
        "q59049.seeds.json": "e9871d760397e7e6ee700d3a251afd360bb8b7446e711c887c7b406179d39544",
        "q59049.verify": "021e801af5f6f070733559fa5d6f12e3cd86390b800983800707911838012abd",
    },
    "small_fields": {
        "q625.ch.json": "66acdb513ef7f456d284e1b29c4d7338b54695fe61447beb8af40be7bcfe28f3",
        "q625.dec.json": "66acdb513ef7f456d284e1b29c4d7338b54695fe61447beb8af40be7bcfe28f3",
        "q625.id.json": "bcd23b4bfe0a417e10f3276389d60f6c069d3e8b03cfdce9afe9802226ea4ff6",
        "q625.secret.json": "09c7b32d4d8d6292dea720babe29de8f5e2645a4568d3ee2a84d616f68059c9d",
        "q625.seeds.json": "46ecd11ab94d68d5d6b9719e0bcca34e1740747a50604e930ec4627e81ccb577",
        "q625.verify": "021e801af5f6f070733559fa5d6f12e3cd86390b800983800707911838012abd",
        "q65536.ch.json": "1797c34612864b34afcac41eed91f5921ba70a5fb6f5042a47dabcd34e946fd6",
        "q65536.dec.json": "1797c34612864b34afcac41eed91f5921ba70a5fb6f5042a47dabcd34e946fd6",
        "q65536.id.json": "bc504c18e6d47b21b4f165520df181cb38a050611c87547351fd38a3443dfa06",
        "q65536.secret.json": "39a45081e1723c640b82ef55a303b781fb0c4e7039e0c8407c65030493469a9b",
        "q65536.seeds.json": "7cf727f0dfa3247c654b0e1d55756c8cb279d467fc0536a194d361d98bbff1d5",
        "q65536.verify": "021e801af5f6f070733559fa5d6f12e3cd86390b800983800707911838012abd",
        "q7.ch.json": "f3772e0ac40494aa00461fd389031dc43ab1e04350f92a52e22804f31f981174",
        "q7.dec.json": "f3772e0ac40494aa00461fd389031dc43ab1e04350f92a52e22804f31f981174",
        "q7.id.json": "d902036ee36f81aaf96337221d7eb26868f3741e2e2a9353b2c56e47b69b2476",
        "q7.secret.json": "175213a1b09065c7e82f69d9026d9b53c60018fac30137fbf3303cd8a207d6c5",
        "q7.seeds.json": "5bb6da5bbfe890c10963a62b0689da5a697c543777057536b414eb2a5e13c265",
        "q7.verify": "021e801af5f6f070733559fa5d6f12e3cd86390b800983800707911838012abd",
    },
}


@pytest.mark.parametrize("case", list(SEEDED_ROUNDS))
def test_seeded_cli_rounds_are_byte_identical(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    digests = {}

    def run(name, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
        if name.endswith(".json"):
            Path(name).write_text(out)

    for q, ell, k, n, binary in SEEDED_ROUNDS[case]:
        tag = f"q{q}"
        run(f"{tag}.id.json", "gen-identity", "--q", str(q), "--ell", str(ell),
            "--k", str(k), "--n", str(n), "--seed", "7")
        bins = ["--out-bin", f"{tag}.ch.bin"] if binary else []
        run(f"{tag}.ch.json", "challenge", "--identity", f"{tag}.id.json", "--seed", "8", *bins)
        bins = ["--seeds-bin-out", f"{tag}.seeds.bin", "--out-bin", f"{tag}.secret.bin"] if binary else []
        run(f"{tag}.secret.json", "encrypt", "--challenge", f"{tag}.ch.json", "--ell-prime", "3",
            "--seeds-out", f"{tag}.seeds.json", "--seed", "9", *bins)
        run(f"{tag}.dec.json", "decrypt", "--secret", f"{tag}.secret.json",
            "--seeds", f"{tag}.seeds.json")
        run(f"{tag}.verify", "verify", "--identity", f"{tag}.id.json", "--challenge", f"{tag}.dec.json")
    for path in sorted(tmp_path.iterdir()):
        if path.name not in digests:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == SEEDED_ROUND_SHA256[case]


# SHA-256 of the stdout of the report subcommands, which draw nothing
REPORT_SHA256 = {
    "params_reference": (
        ["params", "--q", "59049", "--ell", "2", "--k", "20", "--kappa", "0.2"],
        "8055bf0599b3f0cea81cc64a1e95bc62757181ca1bc8af258367faf42ab58170",
    ),
    "params_additive": (
        ["params", "--q", "625", "--ell", "3", "--k", "9", "--kappa", "0.5",
         "--budget-policy", "additive", "--epsilon", "0.01"],
        "297989a754c13920a5a0f0209a1fa5a076231339286b6db8b13cdda52495a5e5",
    ),
    "leakage_sweep": (
        ["leakage-exact", "--q", "5", "--sweep", "--ell-prime", "2,3", "--delta", "0,1/8,1/4,1/2"],
        "05465d2c302efebf0f364654763bd6b6668404374a0e3b69fe34715f14972f8a",
    ),
    # a parameter-free channel: one row per ell', its delta column empty
    "leakage_sweep_identity": (
        ["leakage-exact", "--q", "3", "--sweep", "--channel", "identity", "--ell-prime", "2,3"],
        "36c0aef8413d9873394ee51525e624ba2dd20be94b4b92c3989c154a08303744",
    ),
    "leakage_sweep_erasure": (
        ["leakage-exact", "--q", "4", "--sweep", "--channel", "erasure", "--ell-prime", "2,3",
         "--delta", "0,1/3,1"],
        "c75995cdd57cf12e6ae81d87ccc2d7107f94e699a085844f18e9f70196881297",
    ),
    "leakage_point": (
        ["leakage-exact", "--q", "3", "--ell-prime", "3", "--delta", "1/4"],
        "ef40dfabcc327bc42756256c96d52f385419c224fc3894937fa4f6416969bdc8",
    ),
    "capacity_sweep": (
        ["capacity-check", "--n-seq", "2", "--sweep-to", "5"],
        "ff86baea0c72f336039fa1d70323474aea8253d73dbec91cb087fc648c6b90cb",
    ),
}


@pytest.mark.parametrize("case", list(REPORT_SHA256))
def test_report_subcommands_are_byte_identical(capsys, case):
    argv, digest = REPORT_SHA256[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        ("verify", "challenge", _set_path(("q",), 25.0)),
        ("verify", "challenge", _set_path(("q",), "25")),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r", 0), 99)),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r", 0), True)),
        ("encrypt", "challenge", _set_path(("challenges", 0, "r"), [0])),
        ("encrypt", "challenge", _set_path(("q",), "25")),
        ("encrypt", "challenge", _set_path(("ell",), "2")),
        ("decrypt", "secret", lambda obj: [1]),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "r"), [99])),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "r", 0), 99)),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "x"), 5)),
        ("decrypt", "secret", _set_path(("secret_challenges", 0, "x", 0), 25)),  # q
        ("decrypt", "seeds", _set_path(("seeds",), 5)),
        ("decrypt", "seeds", _set_path(("seeds", 0, "pivot"), 1.5)),
        ("decrypt", "seeds", _set_path(("seeds", 0, "s", 0), "1")),
    ],
    ids=[
        "challenge_array", "challenges_not_list", "challenge_not_object",
        "verify_q_float", "verify_q_string",
        "r_outside_field", "r_true", "r_too_short", "q_string", "ell_string",
        "secret_array", "secret_r_99", "secret_r_outside_field", "x_not_list",
        "x_outside_field", "seeds_not_list", "pivot_float", "s_string",
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
    "case",
    ["identity_m_100000", "q_mersenne_61", "params_q_mersenne_61", "challenge_q", "seeds_q"],
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
        "params_q_mersenne_61": ["params", "--q", str(2 ** 61 - 1), "--ell", "1", "--k", "1"],
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


# ---------------------------------------------------------------------------
# the boundary under mutated record files and config lines


def _main_captured(argv):
    """(exit code, stdout, stderr) of main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _round_records():
    """The JSON records of one seeded round over GF(25), by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in
                 ("identity", "challenge", "secret", "seeds")}
        steps = [
            ("identity", ["gen-identity", "--q", "25", "--ell", "2", "--k", "3",
                          "--n", "2", "--seed", "3"]),
            ("challenge", ["challenge", "--identity", files["identity"], "--seed", "5"]),
            ("secret", ["encrypt", "--challenge", files["challenge"], "--ell-prime", "3",
                        "--seeds-out", files["seeds"], "--seed", "7"]),
        ]
        for name, argv in steps:
            code, out, err = _main_captured(argv)
            assert code == 0, err
            Path(files[name]).write_text(out)
        return {name: json.loads(Path(path).read_text()) for name, path in files.items()}


def _json_paths(obj, path=()):
    """The path of every node of a JSON value, the root's () included."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from _json_paths(value, (*path, key))


DROP = object()  # a mutation that removes the node instead of replacing it
FUZZ_VALUES = [True, False, None, "1", "", 1.5, 25.0, -1, 25, 2 ** 64, [], {}, [0, 0]]
# each input file of the subcommands that read record files
FUZZ_TARGETS = {"verify": ["challenge"], "encrypt": ["challenge"],
                "decrypt": ["secret", "seeds"]}
CONFIG_VALUES = ["x", "1.5", "True", "", "-1", "0", "1", "3", "nan", "1e400"]


@st.composite
def boundary_cases(draw):
    """A subcommand, at most one mutated node in one of its record files,
    and, in one case of four, an extra (mostly mistyped) config line."""
    command = draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    target = draw(st.sampled_from([None, *FUZZ_TARGETS[command]]))
    edit = None
    if target is not None:
        path = draw(st.sampled_from(list(_json_paths(_round_records()[target]))))
        value = draw(st.just(DROP) | st.sampled_from(FUZZ_VALUES) | st.integers(-3, 30))
        edit = (target, path, value)
    line = None
    if draw(st.integers(0, 3)) == 0:
        line = draw(
            st.just("no equals sign")
            | st.builds("{} = {}".format, st.sampled_from([*cli.CONFIG_KEYS, "bogus"]),
                        st.sampled_from(CONFIG_VALUES))
        )
    return command, edit, line


def _mutated(obj, path, value):
    """A copy of obj with the node at path replaced by value, or removed
    for DROP; removing the root leaves an empty object."""
    if not path:
        return {} if value is DROP else value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@given(boundary_cases())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_mutated_inputs_exit_zero_or_fail_with_json_and_no_output(case):
    command, edit, line = case
    records = dict(_round_records())
    if edit is not None:
        target, path, value = edit
        records[target] = _mutated(records[target], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in records}
        for name, obj in records.items():
            Path(files[name]).write_text(json.dumps(obj))
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text("ell_prime = 3\nseed = 2\n" + (line or "") + "\n")
        out_dir = Path(tmp, "out")
        out_dir.mkdir()
        argv = {
            "verify": ["--identity", files["identity"], "--challenge", files["challenge"]],
            "encrypt": ["--challenge", files["challenge"],
                        "--seeds-out", str(out_dir / "seeds.json"),
                        "--seeds-bin-out", str(out_dir / "seeds.bin"),
                        "--out-bin", str(out_dir / "secret.bin")],
            "decrypt": ["--secret", files["secret"], "--seeds", files["seeds"]],
        }[command]
        code, out, err = _main_captured([command, *argv, "--config", cfg])
        written = sorted(p.name for p in out_dir.iterdir())
    assert code in (0, 1)
    if code == 0:
        json.loads(out)
        assert written == (["secret.bin", "seeds.bin", "seeds.json"] if command == "encrypt" else [])
    else:
        assert out == ""
        error = json.loads(err)["error"]
        assert sorted(error) == ["kind", "message"]
        assert written == []
