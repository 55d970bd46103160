"""Command line front end.

JSON goes to stdout, machine-readable errors go to stderr as JSON with exit
code 1; argparse handles usage errors with exit code 2.  Every drawing
subcommand takes --seed, and identical seeds give byte-identical output.
A --config file (KEY = VALUE lines, # comments) sets the default of each
flag it names; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys

from . import __version__
from .ff import Field, field_for, prime_power
from .rmid import (
    BUDGET_POLICIES,
    Challenge,
    IdCodeParams,
    Identity,
    MultiChallenge,
    capacity_diagnostics,
    first_failure,
    generate_multi,
    identity_from_bytes,
    json_field,
)

# Every other layer, and the standard modules only some subcommands need,
# is imported inside the subcommands that run it, so a cold process loads
# only what its subcommand runs.

CONFIG_KEYS = {
    "p": int,
    "m": int,
    "q": int,
    "ell": int,
    "k": int,
    "n": int,
    "ell_prime": int,
    "kappa": float,
    "epsilon": float,
    "budget_policy": str,
    "seed": int,
}


class DomainError(ValueError):
    """Anything that is the caller's data rather than the caller's syntax."""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj))


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True)
        + "\n"
    )
    return 1


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _write_outputs(files: dict[str, bytes]) -> None:
    """Write each output to a temp file beside it, then move them all into
    place, so a failure leaves neither a partial output nor a temp file."""
    temps: list[str] = []
    try:
        for path, data in files.items():
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                fh = open(tmp, "wb")
            except OSError as exc:
                exc.filename = path  # name the output, not its temp
                raise
            temps.append(tmp)
            with fh:
                fh.write(data)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _write_text(out: str | None, text: str) -> None:
    """text to the file out through _write_outputs, or to stdout."""
    if out:
        _write_outputs({out: text.encode()})
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected KEY = VALUE")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from None
    return values


def _read_records(path: str, key: str, record_cls, field: Field | None = None):
    """(header, field, records) of a challenge, secret-challenge or seeds file.
    q is an integer naming the field, optional only if the field is given;
    ell, if present, an integer; every point r canonical, all of one length."""
    header = _read_json(path)
    records = tuple(record_cls.from_json_dict(obj) for obj in json_field(header, key, list))
    if field is None:
        field = Field.from_q(json_field(header, "q", int))
    elif "q" in header and json_field(header, "q", int) != field.q:
        raise DomainError(
            f"challenge was issued over GF({header['q']}), "
            f"identity lives in GF({field.q})"
        )
    ell = json_field(header, "ell", int) if "ell" in header else None
    for record in records:
        r = getattr(record, "r", ())  # a seed has no point
        ell = len(r) if ell is None else ell
        if len(r) != ell:
            raise ValueError(f"challenge point has {len(r)} coordinates, expected {ell!r}")
        for x in r:
            field._check(x)
    return header, field, records


def _field_from_args(args) -> Field:
    if args.q is None:
        if args.p is None:
            raise DomainError("give --q or --p (with optional --m)")
        return field_for(args.p, 1 if args.m is None else args.m)
    p, m = prime_power(args.q)
    if args.p not in (None, p) or args.m not in (None, m):
        raise DomainError(f"--q {args.q} is not --p raised to --m")
    return field_for(p, m)


def _rng(args) -> random.Random:
    return random.Random(args.seed)  # Random(None) seeds from the OS


def _channel(kind: str, q: int, delta_text: str):
    """Observation channel by name; delta_text ("1/8", "0.125") is ignored
    by the parameter-free identity and uniform channels."""
    from fractions import Fraction

    from .analysis import ChannelModel

    if kind in ("identity", "uniform"):
        return getattr(ChannelModel, kind)(q)
    if kind in ("symmetric", "erasure"):
        return getattr(ChannelModel, kind)(q, Fraction(delta_text))
    raise DomainError(f"unknown channel kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise DomainError(f"missing {flags} (flag or config key)")


def cmd_gen_identity(args) -> int:
    _require(args, "ell", "k")
    field = _field_from_args(args)
    params = IdCodeParams(field, args.ell, args.k, args.n)
    # every coefficient is held in memory; 2^24 is ~28x what the bench mints.
    # C(n, i) rises up to i = min(ell, k), so a huge count fails at a small i
    n = params.ell + params.k
    if any(math.comb(n, i) > 1 << 24 for i in range(min(params.ell, params.k) + 1)):
        raise DomainError(f"C({n}, {params.ell}) coefficients are above the limit 2^24")
    if args.data_hex is not None:
        identity = identity_from_bytes(bytes.fromhex(args.data_hex), params)
    elif args.data_file is not None:
        with open(args.data_file, "rb") as fh:
            identity = identity_from_bytes(fh.read(), params)
    else:
        rng = _rng(args)
        identity = Identity(params, field.sample_vector(rng, params.coeff_count))
    _emit(identity.to_json_dict())
    return 0


def cmd_challenge(args) -> int:
    identity = Identity.from_json_dict(_read_json(args.identity))
    mc = generate_multi(identity, _rng(args))
    field = identity.params.field
    out = {
        "q": field.q,
        "ell": identity.params.ell,
        "n": identity.params.n_challenges,
        **mc.to_json_dict(),
    }
    if args.out_bin:
        _write_outputs({args.out_bin: mc.to_bytes(field)})
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    identity = Identity.from_json_dict(_read_json(args.identity))
    field = identity.params.field
    _, _, challenges = _read_records(args.challenge, "challenges", Challenge, field)
    for c in challenges:
        field._check(c.tag)
    failed = first_failure(identity, MultiChallenge(challenges))
    if failed is not None:
        sys.stderr.write(f"reject: challenge {failed} (0-based) is the first to fail\n")
    _emit({"accept": failed is None})
    return 0


def cmd_encrypt(args) -> int:
    from .wiretap import (
        SecrecyParams,
        check_binary_seed_length,
        encrypt_tags,
        min_cipher_length,
        sample_seed,
    )

    header, field, challenges = _read_records(args.challenge, "challenges", Challenge)
    if not challenges:
        raise DomainError("challenge file holds no challenges")
    if args.ell_prime is not None:
        ell_prime = args.ell_prime
    elif args.kappa is not None and args.epsilon is not None:
        ell_prime = min_cipher_length(field.q, args.kappa, args.epsilon).ell_prime
    else:
        raise DomainError("give --ell-prime, or --kappa with --epsilon")
    if args.seeds_bin_out:
        check_binary_seed_length(ell_prime)
    params = SecrecyParams(field, ell_prime)
    rng = _rng(args)
    seeds = [sample_seed(params, rng) for _ in challenges]
    secrets = encrypt_tags(params, MultiChallenge(challenges), seeds, rng)
    seeds_obj = {
        "q": field.q,
        "ell_prime": ell_prime,
        "seeds": [s.to_json_dict() for s in seeds],
    }
    # every output is built before any file is opened
    files = {args.seeds_out: _dumps(seeds_obj).encode()}
    if args.seeds_bin_out:
        files[args.seeds_bin_out] = b"".join(s.to_bytes(field) for s in seeds)
    if args.out_bin:
        files[args.out_bin] = b"".join(sc.to_bytes(field) for sc in secrets)
    _write_outputs(files)
    out = {
        "q": field.q,
        "ell": header.get("ell", len(challenges[0].r)),
        "ell_prime": ell_prime,
        "secret_challenges": [sc.to_json_dict() for sc in secrets],
    }
    _emit(out)
    return 0


def cmd_decrypt(args) -> int:
    from .wiretap import SecrecyParams, SecretChallenge, Seed, decrypt_tags

    secret_obj, field, secrets = _read_records(args.secret, "secret_challenges", SecretChallenge)
    seeds_obj, seeds_field, seeds = _read_records(args.seeds, "seeds", Seed)
    if seeds_field != field:
        raise DomainError("secret challenges and seeds disagree on q")
    if secret_obj.get("ell_prime") != seeds_obj.get("ell_prime"):
        raise DomainError("secret challenges and seeds disagree on ell_prime")
    if not secrets:
        raise DomainError("secret challenge file holds no challenges")
    params = SecrecyParams(field, seeds_obj["ell_prime"])
    mc = decrypt_tags(params, seeds, secrets)
    _emit(
        {
            "q": field.q,
            "ell": secret_obj.get("ell"),
            "n": len(mc.challenges),
            **mc.to_json_dict(),
        }
    )
    return 0


def cmd_params(args) -> int:
    from .planner import plan

    _require(args, "ell", "k")
    report = plan(
        q=_field_from_args(args).q,
        ell=args.ell,
        k=args.k,
        kappa=args.kappa,
        budget_policy=args.budget_policy,
        epsilon_total=args.epsilon,
    )
    _emit(report.to_json_dict())
    return 0


def cmd_leakage_bound(args) -> int:
    from .wiretap import SecrecyParams, kappa_d2_bits, leakage_bound

    _require(args, "ell_prime")
    field = _field_from_args(args)
    params = SecrecyParams(field, args.ell_prime)
    if args.d2_bits is not None:
        d2 = args.d2_bits
    elif args.kappa is not None:
        d2 = kappa_d2_bits(params, args.kappa)
    else:
        raise DomainError("give --d2-bits or --kappa")
    bounds = leakage_bound(params, d2)
    _emit(
        {
            "q": field.q,
            "ell_prime": args.ell_prime,
            "d2_bits": bounds.d2_bits,
            "tight": bounds.tight,
            "simplified": bounds.simplified,
        }
    )
    return 0


def _sweep_point(point: tuple[int, int, str, str]) -> list:
    from .analysis import exact_leakage
    from .wiretap import SecrecyParams

    q, ell_prime, kind, delta_text = point
    params = SecrecyParams(Field.from_q(q), ell_prime)
    return exact_leakage(params, _channel(kind, q, delta_text)).to_csv_row()


def _pool_size(workers: int, n_points: int) -> int:
    """Processes a sweep runs in: at most workers, its point count and the
    CPU count; 1 means the sweep runs in this process."""
    return min(workers, n_points, os.cpu_count() or 1)


def cmd_leakage_exact(args) -> int:
    import csv

    from .analysis import LEAKAGE_CSV_HEADER, exact_leakage
    from .wiretap import SecrecyParams

    if args.workers < 1:
        raise DomainError(f"--workers must be at least 1, got {args.workers}")
    field = _field_from_args(args)
    if not args.sweep:
        params = SecrecyParams(field, args.ell_prime)
        report = exact_leakage(params, _channel(args.channel, field.q, args.delta))
        _emit(report.to_json_dict())
        return 0
    deltas = args.deltas.split(",")
    ell_primes = [int(v) for v in args.ell_primes.split(",")]
    points = [(field.q, lp, args.channel, d) for lp in ell_primes for d in deltas]
    size = _pool_size(args.workers, len(points))
    if size > 1:
        from multiprocessing import get_context

        with get_context("spawn").Pool(size) as pool:
            rows = pool.map(_sweep_point, points)  # map keeps input order
    else:
        rows = [_sweep_point(pt) for pt in points]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(LEAKAGE_CSV_HEADER)
    writer.writerows(rows)
    _write_text(args.out, text.getvalue())
    return 0


def cmd_capacity_check(args) -> int:
    if args.sweep_to is not None:
        if args.sweep_to < args.n_seq:
            raise DomainError(f"--sweep-to {args.sweep_to} is below --n-seq {args.n_seq}")
        reports = [
            capacity_diagnostics(n).to_json_dict()
            for n in range(args.n_seq, args.sweep_to + 1)
        ]
        _emit(reports)
    else:
        _emit(capacity_diagnostics(args.n_seq).to_json_dict())
    return 0


def cmd_bench(args) -> int:
    from .bench import run_grid, write_csv

    # the reference field, unless a flag or config key names one
    named = (args.q, args.p, args.m) != (None, None, None)
    q = _field_from_args(args).q if named else 59049
    records = []
    for kappa_text in (args.kappas or str(args.kappa)).split(","):
        records.extend(
            run_grid(
                q=q,
                kappa=float(kappa_text),
                reps=args.reps,
                budget_policy=args.budget_policy,
                max_coeffs=args.max_coeffs,
                seed=args.seed,
                ells=tuple(int(v) for v in args.ells.split(",")),
                k_multipliers=tuple(int(v) for v in args.k_multipliers.split(",")),
            )
        )
    text = io.StringIO()
    write_csv(records, text)
    _write_text(args.out, text.getvalue())
    return 0


# ---------------------------------------------------------------------------


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; config values replace the defaults of the flags they name."""
    parser = argparse.ArgumentParser(
        prog="secrid",
        description="identification codecs with information-theoretically secret tags",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_args(seed: int | None) -> argparse.ArgumentParser:
        # bench gets its own: children share a parent's actions and defaults
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--config", help="KEY = VALUE defaults file")
        parent.add_argument("--seed", type=int, default=seed,
                            help="RNG seed; same seed, same bytes")
        return parent

    common = common_args(None)

    fieldargs = argparse.ArgumentParser(add_help=False)
    fieldargs.add_argument("--q", type=int, default=None, help="field size (prime power)")
    fieldargs.add_argument("--p", type=int, default=None, help="characteristic")
    fieldargs.add_argument("--m", type=int, default=None, help="extension degree")

    s = sub.add_parser("gen-identity", parents=[common, fieldargs],
                       help="mint an identity from bytes or at random")
    s.add_argument("--ell", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--n", type=int, default=1, help="challenges per verification")
    src = s.add_mutually_exclusive_group()
    src.add_argument("--data-hex", help="payload bytes as hex")
    src.add_argument("--data-file", help="payload bytes from a file")
    s.set_defaults(func=cmd_gen_identity)

    s = sub.add_parser("challenge", parents=[common], help="draw a fresh multi-challenge")
    s.add_argument("--identity", required=True, help="identity JSON (- for stdin)")
    s.add_argument("--out-bin", help="also write the fixed-width binary form")
    s.set_defaults(func=cmd_challenge)

    s = sub.add_parser("verify", parents=[common], help="check a multi-challenge")
    s.add_argument("--identity", required=True)
    s.add_argument("--challenge", required=True)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("encrypt", parents=[common], help="hide the tags of a multi-challenge")
    s.add_argument("--challenge", required=True)
    s.add_argument("--ell-prime", type=int, default=None)
    s.add_argument("--kappa", type=float, default=None)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--seeds-out", required=True, help="where the shared seeds go (JSON)")
    s.add_argument("--seeds-bin-out", help="seeds in binary form")
    s.add_argument("--out-bin", help="secret challenges in binary form")
    s.set_defaults(func=cmd_encrypt)

    s = sub.add_parser("decrypt", parents=[common], help="recover tags with the seeds")
    s.add_argument("--secret", required=True)
    s.add_argument("--seeds", required=True)
    s.set_defaults(func=cmd_decrypt)

    s = sub.add_parser("params", parents=[common, fieldargs],
                       help="plan challenges, budget, and ciphertext length")
    s.add_argument("--ell", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--kappa", type=float, default=0.0)
    s.add_argument("--epsilon", type=float, default=None,
                   help="override the secrecy budget (default: the layered-baseline error)")
    s.add_argument("--budget-policy", choices=BUDGET_POLICIES, default="paper")
    s.set_defaults(func=cmd_params)

    s = sub.add_parser("leakage-bound", parents=[common, fieldargs],
                       help="closed-form leakage bounds")
    s.add_argument("--ell-prime", type=int, default=None)
    s.add_argument("--d2-bits", type=float, default=None)
    s.add_argument("--kappa", type=float, default=None)
    s.set_defaults(func=cmd_leakage_bound)

    s = sub.add_parser("leakage-exact", parents=[common, fieldargs],
                       help="exhaustive leakage for a toy observer channel")
    s.add_argument("--ell-prime", type=int, default=2)
    s.add_argument("--channel", choices=["identity", "uniform", "symmetric", "erasure"],
                   default="symmetric")
    s.add_argument("--delta", default="0", help="channel parameter, e.g. 1/8")
    s.add_argument("--sweep", action="store_true", help="emit a CSV grid instead")
    s.add_argument("--deltas", default="0,1/8,1/4,1/2", help="comma list for --sweep")
    s.add_argument("--ell-primes", default="2,3", help="comma list for --sweep")
    s.add_argument("--workers", type=int, default=1,
                   help="sweep processes, capped at the sweep points and the CPU count")
    s.add_argument("--out", help="CSV path (default stdout)")
    s.set_defaults(func=cmd_leakage_exact)

    s = sub.add_parser("capacity-check", parents=[common],
                       help="scaling ratios of the doubly exponential family")
    s.add_argument("--n-seq", type=int, required=True)
    s.add_argument("--sweep-to", type=int, default=None)
    s.set_defaults(func=cmd_capacity_check)

    s = sub.add_parser("bench", parents=[common_args(0), fieldargs], help="latency grid to CSV")
    s.add_argument("--kappa", type=float, default=0.2)
    s.add_argument("--kappas", help="comma list of kappa values")
    s.add_argument("--reps", type=int, default=50)
    s.add_argument("--max-coeffs", type=int, default=600_000)
    s.add_argument("--ells", default="2,3,4,5,6")
    s.add_argument("--k-multipliers", default="10,20,30,40,50")
    s.add_argument("--budget-policy", choices=BUDGET_POLICIES, default="paper")
    s.add_argument("--out", help="CSV path (default stdout)")
    s.set_defaults(func=cmd_bench)

    for s in sub.choices.values():
        s.set_defaults(**(config or {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:  # parse again, with the file's values as defaults
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.func(args)
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        return _fail(type(exc).__name__, str(exc))
    except FileNotFoundError as exc:
        return _fail("FileNotFoundError", f"{exc.filename}: no such file")
    except OSError as exc:
        return _fail(type(exc).__name__, str(exc))
    except KeyError as exc:
        return _fail("KeyError", f"missing field {exc} in input JSON")


if __name__ == "__main__":
    sys.exit(main())
