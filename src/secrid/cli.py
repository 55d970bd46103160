"""Command line front end.

JSON goes to stdout, machine-readable errors go to stderr as JSON with exit
code 1; argparse handles usage errors with exit code 2.  Every drawing
subcommand takes --seed, and identical seeds give byte-identical output.
A --config file (KEY = VALUE lines, # comments) sets the default of each
flag it names; explicit flags win.

Each subcommand computes all its outputs and returns them as (path, data)
pairs, and main writes them: nothing is written until every output is
computed, two outputs in one place are refused, and files are written
before stdout.
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


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(_dumps({"error": {"kind": kind, "message": message}}))
    return 1


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _write_outputs(outputs) -> None:
    """Write a subcommand's (path, data) outputs, where a path of None or ""
    was not asked for and "-" is stdout.  Two outputs in one place are
    refused before any write; each file goes to a temp file beside it, then
    they all move into place, and stdout comes last, so a failure leaves
    neither a partial output nor a temp file."""
    places: dict[str, tuple[str, str | bytes]] = {}
    for path, data in outputs:
        if not path:
            continue
        place = path if path == "-" else os.path.realpath(path)
        if place in places:
            raise DomainError(f"two outputs go to {'stdout' if place == '-' else place}")
        places[place] = (path, data)
    _, text = places.pop("-", (None, ""))
    temps: list[str] = []
    try:
        for path, data in places.values():
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                fh = open(tmp, "wb")
            except OSError as exc:
                exc.filename = path  # name the output, not its temp
                raise
            temps.append(tmp)
            with fh:
                fh.write(data.encode() if isinstance(data, str) else data)
        for tmp, (path, _) in zip(temps, places.values()):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
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
    ell and ell_prime, if present, integers; every point r canonical, all
    of one length."""
    header = _read_json(path)
    records = tuple(record_cls.from_json_dict(obj) for obj in json_field(header, key, list))
    if field is None:
        field = Field.from_q(json_field(header, "q", int))
    elif "q" in header and json_field(header, "q", int) != field.q:
        raise DomainError(
            f"challenge was issued over GF({header['q']}), "
            f"identity lives in GF({field.q})"
        )
    if "ell_prime" in header:
        json_field(header, "ell_prime", int)
    ell = json_field(header, "ell", int) if "ell" in header else None
    for record in records:
        r = getattr(record, "r", ())  # a seed has no point
        ell = len(r) if ell is None else ell
        if len(r) != ell:
            raise ValueError(f"challenge point has {len(r)} coordinates, expected {ell!r}")
        field._check_all(r)
    return header, field, records


def _record_file(key: str, records, **header) -> str:
    """The text of a challenge, secret-challenge or seeds file, as
    _read_records reads it back: the header fields and the key's records."""
    return _dumps({**header, key: [r.to_json_dict() for r in records]})


def _field_from_args(args) -> Field:
    if args.q is None:
        if args.p is None:
            raise DomainError("give --q or --p (with optional --m)")
        return field_for(args.p, 1 if args.m is None else args.m)
    p, m = prime_power(args.q)
    if args.p not in (None, p) or args.m not in (None, m):
        raise DomainError(f"--q {args.q} is not --p raised to --m")
    return field_for(p, m)


def _channel(kind: str, q: int, delta):
    """Observation channel by name; a delta of None is a channel that takes none."""
    from .analysis import ChannelModel

    make = getattr(ChannelModel, kind)
    return make(q) if delta is None else make(q, delta)


# ---------------------------------------------------------------------------
# subcommands


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise DomainError(f"missing {flags} (flag or config key)")


def cmd_gen_identity(args) -> list:
    _require(args, "ell", "k")
    field = _field_from_args(args)
    params = IdCodeParams(field, args.ell, args.k, args.n)
    # every coefficient is held in memory; 2^24 is ~28x what the bench mints
    if params.coeff_count_above(1 << 24):
        n = params.ell + params.k
        raise DomainError(f"C({n}, {params.ell}) coefficients are above the limit 2^24")
    params.check_round()
    if args.data_hex is not None:
        identity = identity_from_bytes(bytes.fromhex(args.data_hex), params)
    elif args.data_file is not None:
        with open(args.data_file, "rb") as fh:
            identity = identity_from_bytes(fh.read(), params)
    else:
        rng = random.Random(args.seed)  # Random(None) seeds from the OS
        identity = Identity(params, field.sample_vector(rng, params.coeff_count))
    return [("-", _dumps(identity.to_json_dict()))]


def cmd_challenge(args) -> list:
    identity = Identity.from_json_dict(_read_json(args.identity))
    mc = generate_multi(identity, random.Random(args.seed))
    params = identity.params
    text = _record_file(
        "challenges", mc.challenges, q=params.field.q, ell=params.ell, n=params.n_challenges
    )
    return [(args.out_bin, args.out_bin and mc.to_bytes(params.field)), ("-", text)]


def cmd_verify(args) -> list:
    identity = Identity.from_json_dict(_read_json(args.identity))
    _, _, challenges = _read_records(args.challenge, "challenges", Challenge, identity.params.field)
    failed = first_failure(identity, MultiChallenge(challenges))
    if failed is not None:
        sys.stderr.write(f"reject: challenge {failed} (0-based) is the first to fail\n")
    return [("-", _dumps({"accept": failed is None}))]


def cmd_encrypt(args) -> list:
    from .wiretap import (
        SecrecyParams,
        check_binary_seed_length,
        encrypt_tags,
        min_cipher_length,
        sample_seed,
    )

    if not args.seeds_out:  # the one output that may not be left out
        raise DomainError("--seeds-out names no file")
    header, field, challenges = _read_records(args.challenge, "challenges", Challenge)
    if not challenges:
        raise DomainError("challenge file holds no challenges")
    if args.ell_prime is not None:
        ell_prime = args.ell_prime
    elif args.kappa is not None and args.epsilon is not None:
        ell_prime = min_cipher_length(field.q, args.kappa, args.epsilon).ell_prime
    else:
        raise DomainError("give --ell-prime, or --kappa with --epsilon")
    if len(challenges) * ell_prime > 1 << 16:  # sample_seed forms q^ell', so refuse first
        raise DomainError(f"{len(challenges)} x ell'={ell_prime} symbols are above the limit 2^16")
    if args.seeds_bin_out:
        check_binary_seed_length(ell_prime)
    params = SecrecyParams(field, ell_prime)
    rng = random.Random(args.seed)
    seeds = [sample_seed(params, rng) for _ in challenges]
    secrets = encrypt_tags(params, MultiChallenge(challenges), seeds, rng)
    ell = header.get("ell", len(challenges[0].r))
    text = _record_file("secret_challenges", secrets, q=field.q, ell=ell, ell_prime=ell_prime)
    # an output that was not asked for is not built
    return [
        (args.seeds_out, _record_file("seeds", seeds, q=field.q, ell_prime=ell_prime)),
        (args.seeds_bin_out, args.seeds_bin_out and b"".join(s.to_bytes(field) for s in seeds)),
        (args.out_bin, args.out_bin and b"".join(sc.to_bytes(field) for sc in secrets)),
        ("-", text),
    ]


def cmd_decrypt(args) -> list:
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
    challenges = decrypt_tags(params, seeds, secrets).challenges
    ell = secret_obj.get("ell")
    return [("-", _record_file("challenges", challenges, q=field.q, ell=ell, n=len(challenges)))]


def cmd_params(args) -> list:
    from .planner import plan

    _require(args, "ell", "k")
    field = _field_from_args(args)
    params = IdCodeParams(field, args.ell, args.k)
    # identity_bits = count * log2 q is a float: float(count) overflows from
    # 2^1024 - 2^970 on, and the product may overflow below that
    limit = 2 ** 1024 - 2 ** 970 - 1
    if params.coeff_count_above(limit) or math.isinf(params.coeff_count * field.log2_q):
        raise DomainError("C(ell + k, ell) * log2 q is past 2^1024, the float range")
    report = plan(
        q=field.q,
        ell=args.ell,
        k=args.k,
        kappa=args.kappa,
        budget_policy=args.budget_policy,
        epsilon_total=args.epsilon,
    )
    return [("-", _dumps(report.to_json_dict()))]


def cmd_leakage_bound(args) -> list:
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
    out = {
        "q": field.q,
        "ell_prime": args.ell_prime,
        "d2_bits": bounds.d2_bits,
        "tight": bounds.tight,
        "simplified": bounds.simplified,
    }
    return [("-", _dumps(out))]


def cmd_leakage_exact(args) -> list:
    import csv
    from fractions import Fraction

    from .analysis import LEAKAGE_CSV_HEADER, exact_leakage, leakage_work
    from .wiretap import SecrecyParams

    field = _field_from_args(args)
    # a point is a sweep of one
    if args.sweep:
        ell_primes, deltas = args.ell_primes.split(","), args.deltas.split(",")
    else:
        ell_primes, deltas = [args.ell_prime], [args.delta]
    points = [SecrecyParams(field, int(v)) for v in ell_primes]
    if args.channel in ("identity", "uniform"):  # no delta: one channel serves every point
        deltas = [None]
    else:
        # a term of Fraction(text) has at most len(text) + |exponent| digits,
        # refused past the int-to-str limit (0: none): "1e-30000000" takes ~1 min
        limit = getattr(sys, "get_int_max_str_digits", int)()
        for text in deltas:  # |exponent| <= the int of its decimal digits
            exponent = "".join(filter(str.isdecimal, text.lower().partition("e")[2]))
            if limit and len(text) + int(exponent or 0) > limit:
                raise DomainError(f"the exact report would write an integer past {limit} digits")
        deltas = [Fraction(d) for d in deltas]
    # every point is sized before any channel is built (at a large q the
    # matrix is the cost), at the least scale, its delta's denominator
    n_out = field.q + (args.channel == "erasure")  # the erasure mark
    floor = max(getattr(d, "denominator", 1) for d in deltas)
    for params in points:
        leakage_work(params, n_out, floor)
    channels = [_channel(args.channel, field.q, d) for d in deltas]
    reports = [exact_leakage(params, channel) for params in points for channel in channels]
    if not args.sweep:
        return [(args.out or "-", _dumps(reports[0].to_json_dict()))]
    text = io.StringIO()
    csv.writer(text).writerows([LEAKAGE_CSV_HEADER, *(r.to_csv_row() for r in reports)])
    return [(args.out or "-", text.getvalue())]


def cmd_capacity_check(args) -> list:
    last = args.n_seq if args.sweep_to is None else args.sweep_to
    if last < args.n_seq:
        raise DomainError(f"--sweep-to {last} is below --n-seq {args.n_seq}")
    reports = [capacity_diagnostics(n).to_json_dict() for n in range(args.n_seq, last + 1)]
    return [("-", _dumps(reports[0] if args.sweep_to is None else reports))]


def cmd_bench(args) -> list:
    from .bench import run_grid, write_csv

    # the reference field, unless a flag or config key names one
    named = (args.q, args.p, args.m) != (None, None, None)
    q = _field_from_args(args).q if named else 59049
    records = []
    # a config's kappa is a float; all are parsed before any grid runs
    for kappa in [float(v) for v in str(args.kappa).split(",")]:
        records += run_grid(
            q=q, kappa=kappa, reps=args.reps, budget_policy=args.budget_policy, seed=args.seed
        )
    text = io.StringIO()
    write_csv(records, text)
    return [(args.out or "-", text.getvalue())]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; each subparser is its own "parser" default, so main can add --config's."""
    parser = argparse.ArgumentParser(
        prog="secrid",
        description="identification codecs with information-theoretically secret tags",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="KEY = VALUE defaults file")
    # bench adds its own --seed: children share a parent's actions and defaults
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed; same seed, same bytes")

    fieldargs = argparse.ArgumentParser(add_help=False)
    fieldargs.add_argument("--q", type=int, default=None, help="field size (prime power)")
    fieldargs.add_argument("--p", type=int, default=None, help="characteristic")
    fieldargs.add_argument("--m", type=int, default=None, help="extension degree")

    s = sub.add_parser("gen-identity", parents=[common, seeded, fieldargs],
                       help="mint an identity from bytes or at random")
    s.add_argument("--ell", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--n", type=int, default=1, help="challenges per verification")
    src = s.add_mutually_exclusive_group()
    src.add_argument("--data-hex", help="payload bytes as hex")
    src.add_argument("--data-file", help="payload bytes from a file")
    s.set_defaults(func=cmd_gen_identity)

    s = sub.add_parser("challenge", parents=[common, seeded], help="draw a fresh multi-challenge")
    s.add_argument("--identity", required=True, help="identity JSON (- for stdin)")
    s.add_argument("--out-bin", help="also write the fixed-width binary form")
    s.set_defaults(func=cmd_challenge)

    s = sub.add_parser("verify", parents=[common], help="check a multi-challenge")
    s.add_argument("--identity", required=True)
    s.add_argument("--challenge", required=True)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("encrypt", parents=[common, seeded],
                       help="hide the tags of a multi-challenge")
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
    s.add_argument("--out", help="output path, - for stdout (the default)")
    s.set_defaults(func=cmd_leakage_exact)

    s = sub.add_parser("capacity-check", parents=[common],
                       help="scaling ratios of the doubly exponential family")
    s.add_argument("--n-seq", type=int, required=True)
    s.add_argument("--sweep-to", type=int, default=None)
    s.set_defaults(func=cmd_capacity_check)

    s = sub.add_parser("bench", parents=[common, fieldargs], help="latency grid to CSV")
    s.add_argument("--seed", type=int, default=0, help="RNG seed; same seed, same bytes")
    s.add_argument("--kappa", default="0.2", help="comma list of kappa values")
    s.add_argument("--reps", type=int, default=50)
    s.add_argument("--budget-policy", choices=BUDGET_POLICIES, default="paper")
    s.add_argument("--out", help="CSV path, - for stdout (the default)")
    s.set_defaults(func=cmd_bench)

    for s in sub.choices.values():
        s.set_defaults(parser=s)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # parse again, with the file's values as defaults
            args.parser.set_defaults(**_load_config(args.config))
            args = parser.parse_args(argv)
        _write_outputs(args.func(args))
        return 0
    except FileNotFoundError as exc:
        return _fail("FileNotFoundError", f"{exc.filename}: no such file")
    except (ValueError, ZeroDivisionError, OSError) as exc:  # DomainError is a ValueError
        return _fail(type(exc).__name__, str(exc))
    except KeyError as exc:
        return _fail("KeyError", f"missing field {exc} in input JSON")


if __name__ == "__main__":
    sys.exit(main())
