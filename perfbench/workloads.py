"""The three benchmark workloads.

Each workload makes all of its inputs from its seed, prepares them in
`setup`, and hands out ops one fixed mix at a time from `cycle`: one CLI
round, one in-process round, one pass over the oracle list.  The
loop in run.py only stops between cycles, so every run measures the same
mix.  An op returns True when its output passed the correctness gate.

`tail_pct` and `min_ops` go together: the loop runs at least `min_ops` ops,
so at least ten samples lie beyond the `tail_pct` percentile, and because a
run holds whole cycles that percentile always lands inside the same op kind
rather than on the edge between two.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

# GF(3^10), the reference field of the paper's latency grid
REF_P, REF_M = 3, 10
REF_Q = REF_P ** REF_M
CLI_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The program's output before the first op is not what the workload
    was built for; the run cannot be compared with others."""


def round_trip(api, wire: str, other: tuple, sp, n: int, rng) -> bool:
    """One identification round as a prover and a verifier run it: both load
    the identity from its JSON wire form, the prover issues n challenges and
    encrypts their tags, the verifier decrypts and checks.  A second identity
    of the same geometry, differing only in the constant coefficient, must
    reject: its tag differs from the first one's at every point."""
    prover = api.identity_from_json(json.loads(wire))
    verifier = api.identity_from_json(json.loads(wire))
    mc = api.generate_multi(prover, rng)
    seeds = [api.sample_seed(sp, rng) for _ in range(n)]
    secrets = api.encrypt_tags(sp, mc, seeds, rng)
    back = api.decrypt_tags(sp, seeds, secrets)
    api.count("rmid.tags", n)
    api.count("wiretap.tags", n)
    if len(mc.challenges) != n or back != mc:
        return False
    if not api.verify_multi(verifier, back):
        return False
    return not api.verify_multi(api.Identity(verifier.params, other), back)


def mint_wire(api, field, ell: int, k: int, n: int, rng) -> tuple[str, tuple]:
    """A random identity's JSON wire form, and the coefficients of its
    constant-shifted twin."""
    params = api.IdCodeParams(field, ell, k, n)
    coeffs = [rng.randrange(field.q) for _ in range(math.comb(ell + k, ell))]
    wire = json.dumps(api.Identity(params, tuple(coeffs)).to_json_dict())
    coeffs[0] = (coeffs[0] + 1) % field.q
    return wire, tuple(coeffs)


class Workload:
    name = ""
    tail_pct = 50.0
    min_ops = 1
    # setups after the first run in fresh child processes
    setup_in_child = True
    setup_reps = 3
    setup_failed = 0

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}/{seed}")
        if tiny:
            self.min_ops = 1
            self.setup_reps = 1

    def setup(self, api) -> None:
        raise NotImplementedError

    def setup_steps(self, api) -> list:
        """The set-up as zero-argument steps, timed one by one."""
        return [lambda: self.setup(api)]

    def cycle(self) -> list:
        """[(label, op)] for one pass over the workload's fixed mix."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class SecretSmall(Workload):
    """A 21-coefficient identity (ell = 1, k = 20) against an observer that
    sees 80% of every symbol, epsilon_total = 1e-6, sized by plan()."""

    name = "secret_small"
    # p99.9 would keep ten samples beyond it, but every op is the same round,
    # so its tail is the machine's: in some runs the slowest 10-20% of ops
    # are ~20% slower than in others, which moved p90 and p99 by 20-35%
    # between runs at the same median and p75 by ~8%
    tail_pct = 75.0
    min_ops = 1_000
    ELL, K, KAPPA, EPS = 1, 20, 0.8, 1e-6
    POOL = 64

    def setup(self, api) -> None:
        field = api.field_for(REF_P, REF_M)
        field.mul(1, 1)
        report = api.plan(REF_Q, self.ELL, self.K, self.KAPPA, epsilon_total=self.EPS)
        if (report.n_challenges, report.ell_prime) != (2, 12):
            raise SetupError(
                f"plan() sized n={report.n_challenges}, ell'={report.ell_prime}; "
                "this workload is defined at n=2, ell'=12"
            )
        self.n = report.n_challenges
        self.sp = api.SecrecyParams(field, report.ell_prime)
        self.pool = [
            mint_wire(api, field, self.ELL, self.K, self.n, self.rng) for _ in range(self.POOL)
        ]
        self.next = 0

    def cycle(self) -> list:
        wire, other = self.pool[self.next % self.POOL]
        self.next += 1
        return [("round", lambda api: round_trip(api, wire, other, self.sp, self.n, self.rng))]


def make_channel(spec: dict):
    """The observation channel of a leakage point: an input the benchmark
    builds, so its construction is not a traced call.  "parity" has two
    outputs, the parity of the symbol's integer form flipped with
    probability delta; it keeps |Z| = 2^ell' so ell' = 3 stays cheap."""
    from secrid.analysis import ChannelModel

    q, kind, delta = spec["q"], spec["channel"], Fraction(spec["delta"])
    if kind == "parity":
        rows = [[1 - delta, delta] if x % 2 == 0 else [delta, 1 - delta] for x in range(q)]
        return ChannelModel.from_matrix("parity", rows)
    return getattr(ChannelModel, kind)(q, delta)


def leakage_states(spec: dict, n_outputs: int) -> int:
    """q^ell' * |S| * |Z|, the state count exact_leakage enumerates."""
    q, lp = spec["q"], spec["ell_prime"]
    return q ** lp * (q ** lp - 1) // (q - 1) * q * n_outputs ** lp


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


class Oracles(Workload):
    """Each cycle runs every exact_leakage point once and one exact_id_error
    pair per field, the pair drawn from a stored pool, in seeded order."""

    name = "oracles"
    tail_pct = 75.0  # rank 6 of 7
    # 10 cycles of 7: more than p75 needs, because the two slowest calls take
    # about the same time and p75 falls among their interleaved samples
    min_ops = 70

    def setup(self, api) -> None:
        goldens = load_goldens()["tiny" if self.tiny else "full"]
        self.leakage = []
        for spec in goldens["leakage"]:
            field = api.field_for(spec["p"], spec["m"])
            channel = make_channel(spec)
            params = api.SecrecyParams(field, spec["ell_prime"])
            expected = tuple(Fraction(spec[key]) for key in ("exact_max_tv", "exact_pairwise_tv", "d2_pow"))
            self.leakage.append((spec, params, channel, expected, leakage_states(spec, channel.n_outputs)))
        self.pairs: dict[int, list] = {}
        for spec in goldens["id_error"]:
            field = api.field_for(spec["p"], spec["m"])
            params = api.IdCodeParams(field, spec["ell"], spec["k"])
            a = api.Identity(params, tuple(spec["a"]))
            b = api.Identity(params, tuple(spec["b"]))
            self.pairs.setdefault(field.q, []).append(
                (a, b, Fraction(spec["error"]), field.q ** spec["ell"])
            )

    def cycle(self) -> list:
        ops = [
            (f"leakage.q{spec['q']}", self._leakage_op(params, channel, expected, states))
            for spec, params, channel, expected, states in self.leakage
        ]
        for q, pool in sorted(self.pairs.items()):
            ops.append((f"id_error.q{q}", self._id_op(*self.rng.choice(pool))))
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _leakage_op(params, channel, expected, states):
        def op(api) -> bool:
            report = api.exact_leakage(params, channel)
            api.count("analysis.states", states)
            return (report.exact_max_tv, report.exact_pairwise_tv, report.d2_pow) == expected

        return op

    @staticmethod
    def _id_op(a, b, expected, points):
        def op(api) -> bool:
            api.count("analysis.points", points)
            return api.exact_id_error(a, b) == expected

        return op


class ColdCli(Workload):
    """One op is one fresh `python -m secrid.cli` process.  A cycle is the
    round gen-identity -> challenge -> encrypt -> decrypt -> verify at the
    reference point, each round with new seeds, except that the first timed
    round repeats the warm-up seeds and must match the warm-up byte for byte.

    The CLI is launched with `-m` because the `secrid` console script exists
    only after an install, not under PYTHONPATH=src."""

    name = "cold_cli"
    tail_pct = 65.0  # rank 4 of 5
    min_ops = 30  # 6 rounds of 5
    setup_in_child = False
    SUBCOMMANDS = ("gen-identity", "challenge", "encrypt", "decrypt", "verify")
    GEOMETRY = {"q": REF_Q, "ell": 2, "k": 20, "n": 2, "ell_prime": 3}
    TINY_GEOMETRY = {"q": 25, "ell": 2, "k": 3, "n": 2, "ell_prime": 3}

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.geometry = self.TINY_GEOMETRY if tiny else self.GEOMETRY
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.work = None
        self.reference: dict[str, bytes] | None = None
        self.warm_seeds = self._draw_seeds()
        self.rounds = 0

    def _draw_seeds(self) -> tuple[int, int, int]:
        return tuple(self.rng.randrange(2 ** 31) for _ in range(3))

    def setup_dir(self) -> None:
        if self.work is None:
            OUT.mkdir(exist_ok=True)
            self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    def setup_steps(self, api) -> list:
        """One untimed warm-up round with the warm-up seeds; the first one
        becomes the reference that later warm-ups and the first timed round
        must match byte for byte."""
        self.setup_dir()
        expect = self.reference
        outputs: dict[str, bytes] = {}
        if self.reference is None:
            self.reference = outputs

        def warm(sub):
            if not self.step(None, sub, self.warm_seeds, expect, outputs):
                self.setup_failed += 1

        return [lambda sub=sub: warm(sub) for sub in self.SUBCOMMANDS]

    def cycle(self) -> list:
        seeds = self.warm_seeds if self.rounds == 0 else self._draw_seeds()
        expect = self.reference if self.rounds == 0 else None
        self.rounds += 1
        outputs: dict[str, bytes] = {}
        return [
            (sub, lambda api, sub=sub: self.step(api, sub, seeds, expect, outputs))
            for sub in self.SUBCOMMANDS
        ]

    def run_cli(self, api, label: str, argv: list[str]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, *argv]
        tracer = api.tracer if api is not None else None
        if tracer is None:
            return subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        with tracer.span("cli", f"cli.{label}"):
            return subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)

    def step(self, api, sub: str, seeds, expect, outputs: dict[str, bytes]) -> bool:
        """Run one subcommand of the round; outputs carries the round's files."""
        g = self.geometry
        s_id, s_ch, s_enc = seeds
        args = {
            "gen-identity": ["--q", str(g["q"]), "--ell", str(g["ell"]), "--k", str(g["k"]),
                             "--n", str(g["n"]), "--seed", str(s_id)],
            "challenge": ["--identity", "id.json", "--seed", str(s_ch)],
            "encrypt": ["--challenge", "ch.json", "--ell-prime", str(g["ell_prime"]),
                        "--seeds-out", "seeds.json", "--seed", str(s_enc)],
            "decrypt": ["--secret", "secret.json", "--seeds", "seeds.json"],
            "verify": ["--identity", "id.json", "--challenge", "dec.json"],
        }[sub]
        target = {"gen-identity": "id.json", "challenge": "ch.json", "encrypt": "secret.json",
                  "decrypt": "dec.json", "verify": None}[sub]
        if target is not None:
            (self.work / target).unlink(missing_ok=True)
        proc = self.run_cli(api, sub, ["-m", "secrid.cli", sub, *args])
        if proc.returncode != 0:
            sys.stderr.write(f"cold_cli: {sub} exited {proc.returncode}: {proc.stderr[-500:]!r}\n")
            return False
        if target is not None:
            (self.work / target).write_bytes(proc.stdout)
        outputs[sub] = proc.stdout
        if sub == "encrypt":
            outputs["seeds.json"] = (self.work / "seeds.json").read_bytes()
        ok = {
            "gen-identity": lambda: len(json.loads(proc.stdout)["coeffs"]) == math.comb(g["ell"] + g["k"], g["ell"]),
            "challenge": lambda: len(json.loads(proc.stdout)["challenges"]) == g["n"],
            "encrypt": lambda: len(json.loads(proc.stdout)["secret_challenges"]) == g["n"],
            "decrypt": lambda: proc.stdout == outputs.get("challenge"),
            "verify": lambda: proc.stdout == b'{"accept":true}\n',
        }[sub]()
        if expect is not None:
            keys = (sub, "seeds.json") if sub == "encrypt" else (sub,)
            ok = ok and all(outputs[key] == expect.get(key) for key in keys)
        return ok

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ColdCli, SecretSmall, Oracles)}
