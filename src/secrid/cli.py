"""Command line front end.

JSON goes to stdout, machine-readable errors go to stderr as JSON with exit
code 1; argparse handles usage errors with exit code 2.  Every drawing
subcommand takes --seed, and identical seeds give byte-identical output;
bench's CSV holds timings, so its --seed fixes which identities are timed.
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
import os
import random
import sys

from . import __version__
from .ff import Field
from .rmid import (
    BUDGET_POLICIES,
    Challenge,
    DomainError,
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
    """(header, field, records, ell) of a challenge, secret-challenge or seeds
    file.  q is an integer naming the field, optional only if the field is
    given; ell and ell_prime, if present, integers; every point r canonical,
    all of one length, ell: the header's, else the first point's."""
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
    return header, field, records, ell


def _record_file(key: str, records, **header) -> str:
    """The text of a challenge, secret-challenge or seeds file, as
    _read_records reads it back: the header fields and the key's records."""
    return _dumps({**header, key: [r.to_json_dict() for r in records]})


# ---------------------------------------------------------------------------
# subcommands


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise DomainError(f"missing {flags} (flag or config key)")


def _field(args) -> Field:
    _require(args, "q")
    return Field.from_q(args.q)


def cmd_gen_identity(args) -> list:
    _require(args, "ell", "k")
    field = _field(args)
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
    field = identity.params.field
    _, _, challenges, _ = _read_records(args.challenge, "challenges", Challenge, field)
    failed = first_failure(identity, MultiChallenge(challenges))
    if failed is not None:
        sys.stderr.write(f"reject: challenge {failed} (0-based) is the first to fail\n")
    return [("-", _dumps({"accept": failed is None}))]


def cmd_encrypt(args) -> list:
    from .wiretap import (
        SecrecyParams,
        check_binary_seed_length,
        encrypt_tags,
        sample_seed,
    )

    if not args.seeds_out:  # the one output that may not be left out
        raise DomainError("--seeds-out names no file")
    _, field, challenges, ell = _read_records(args.challenge, "challenges", Challenge)
    if not challenges:
        raise DomainError("challenge file holds no challenges")
    _require(args, "ell_prime")
    ell_prime = args.ell_prime
    if len(challenges) * ell_prime > 1 << 16:  # sample_seed forms q^ell', so refuse first
        raise DomainError(f"{len(challenges)} x ell'={ell_prime} symbols are above the limit 2^16")
    if args.seeds_bin_out:
        check_binary_seed_length(ell_prime)
    params = SecrecyParams(field, ell_prime)
    rng = random.Random(args.seed)
    seeds = [sample_seed(params, rng) for _ in challenges]
    secrets = encrypt_tags(params, MultiChallenge(challenges), seeds, rng)
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

    secret_obj, field, secrets, ell = _read_records(args.secret, "secret_challenges", SecretChallenge)
    seeds_obj, seeds_field, seeds, _ = _read_records(args.seeds, "seeds", Seed)
    if seeds_field != field:
        raise DomainError("secret challenges and seeds disagree on q")
    if secret_obj.get("ell_prime") != seeds_obj.get("ell_prime"):
        raise DomainError("secret challenges and seeds disagree on ell_prime")
    if not secrets:
        raise DomainError("secret challenge file holds no challenges")
    params = SecrecyParams(field, seeds_obj["ell_prime"])
    challenges = decrypt_tags(params, seeds, secrets).challenges
    return [("-", _record_file("challenges", challenges, q=field.q, ell=ell, n=len(challenges)))]


def cmd_params(args) -> list:
    from .planner import plan

    _require(args, "ell", "k")
    report = plan(
        q=_field(args).q,
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
    field = _field(args)
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

    from .analysis import LEAKAGE_CSV_HEADER, ChannelModel, exact_leakage, leakage_work
    from .wiretap import SecrecyParams

    field = _field(args)
    # a point is a sweep of one; a config's ell_prime is an int
    ell_primes, deltas = str(args.ell_prime).split(","), args.delta.split(",")
    if not args.sweep and len(ell_primes) * len(deltas) > 1:
        raise DomainError("a comma list of --ell-prime or --delta needs --sweep")
    points = [SecrecyParams(field, int(v)) for v in ell_primes]
    # a term of Fraction(text) has at most len(text) + |exponent| digits,
    # refused past the int-to-str limit (0: none): "1e-30000000" takes ~1 min
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for text in deltas:  # |exponent| <= the int of its decimal digits
        exponent = "".join(filter(str.isdecimal, text.lower().partition("e")[2]))
        if limit and len(text) + int(exponent or 0) > limit:
            raise DomainError(f"the exact report would write an integer past {limit} digits")
    deltas = [Fraction(d) for d in deltas]  # parsed for every channel, used by some
    if args.channel in ("identity", "uniform"):  # no delta: one channel serves every point
        deltas = [None]
    make = getattr(ChannelModel, args.channel)
    channels = [make(field.q) if d is None else make(field.q, d) for d in deltas]
    for params in points:  # every point is sized at its channel before any runs
        for channel in channels:
            leakage_work(params, channel)
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

    q = _field(args).q
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


# the flags some subcommands share, in the order their help lists them
CONFIG_FLAG = [("--config", dict(help="KEY = VALUE defaults file"))]
SEED_FLAG = [("--seed", dict(type=int, default=None, help="RNG seed; same seed, same bytes"))]
FIELD_FLAG = [("--q", dict(type=int, default=None, help="field size (prime power)"))]

# name -> (function, help, flags), in the order the usage lists them; a flag
# is its name and add_argument keywords, or a list of flags that exclude
# each other
SUBCOMMANDS = {
    "gen-identity": (cmd_gen_identity, "mint an identity from bytes or at random", [
        *CONFIG_FLAG, *SEED_FLAG, *FIELD_FLAG,
        ("--ell", dict(type=int, default=None)),
        ("--k", dict(type=int, default=None)),
        ("--n", dict(type=int, default=1, help="challenges per verification")),
        [("--data-hex", dict(help="payload bytes as hex")),
         ("--data-file", dict(help="payload bytes from a file"))],
    ]),
    "challenge": (cmd_challenge, "draw a fresh multi-challenge", [
        *CONFIG_FLAG, *SEED_FLAG,
        ("--identity", dict(required=True, help="identity JSON (- for stdin)")),
        ("--out-bin", dict(help="also write the fixed-width binary form")),
    ]),
    "verify": (cmd_verify, "check a multi-challenge", [
        *CONFIG_FLAG,
        ("--identity", dict(required=True)),
        ("--challenge", dict(required=True)),
    ]),
    "encrypt": (cmd_encrypt, "hide the tags of a multi-challenge", [
        *CONFIG_FLAG, *SEED_FLAG,
        ("--challenge", dict(required=True)),
        ("--ell-prime", dict(type=int, default=None)),
        ("--seeds-out", dict(required=True, help="where the shared seeds go (JSON)")),
        ("--seeds-bin-out", dict(help="seeds in binary form")),
        ("--out-bin", dict(help="secret challenges in binary form")),
    ]),
    "decrypt": (cmd_decrypt, "recover tags with the seeds", [
        *CONFIG_FLAG,
        ("--secret", dict(required=True)),
        ("--seeds", dict(required=True)),
    ]),
    "params": (cmd_params, "plan challenges, budget, and ciphertext length", [
        *CONFIG_FLAG, *FIELD_FLAG,
        ("--ell", dict(type=int, default=None)),
        ("--k", dict(type=int, default=None)),
        ("--kappa", dict(type=float, default=0.0)),
        ("--epsilon", dict(type=float, default=None,
                           help="override the secrecy budget (default: the layered-baseline error)")),
        ("--budget-policy", dict(choices=BUDGET_POLICIES, default="paper")),
    ]),
    "leakage-bound": (cmd_leakage_bound, "closed-form leakage bounds", [
        *CONFIG_FLAG, *FIELD_FLAG,
        ("--ell-prime", dict(type=int, default=None)),
        [("--d2-bits", dict(type=float, default=None)),
         ("--kappa", dict(type=float, default=None))],
    ]),
    "leakage-exact": (cmd_leakage_exact, "exhaustive leakage for a toy observer channel", [
        *CONFIG_FLAG, *FIELD_FLAG,
        ("--ell-prime", dict(default="2", help="ciphertext length; a comma list with --sweep")),
        ("--channel", dict(choices=["identity", "uniform", "symmetric", "erasure"],
                           default="symmetric")),
        ("--delta", dict(default="0", help="channel parameter, e.g. 1/8; a comma list with --sweep")),
        ("--sweep", dict(action="store_true", help="emit a CSV grid instead")),
        ("--out", dict(help="output path, - for stdout (the default)")),
    ]),
    "capacity-check": (cmd_capacity_check, "scaling ratios of the doubly exponential family", [
        *CONFIG_FLAG,
        ("--n-seq", dict(type=int, required=True)),
        ("--sweep-to", dict(type=int, default=None)),
    ]),
    "bench": (cmd_bench, "latency grid to CSV", [
        *CONFIG_FLAG,
        ("--q", dict(type=int, default=59049, help="field size (prime power)")),
        ("--seed", dict(type=int, default=0, help="RNG seed; same seed, same bytes")),
        ("--kappa", dict(default="0.2", help="comma list of kappa values")),
        ("--reps", dict(type=int, default=50)),
        ("--budget-policy", dict(choices=BUDGET_POLICIES, default="paper")),
        ("--out", dict(help="CSV path, - for stdout (the default)")),
    ]),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand of SUBCOMMANDS, or with only
    the one named; its usage, help and errors list all of them either way.
    Each subparser is its own "parser" default, so main can add --config's."""
    parser = argparse.ArgumentParser(
        prog="secrid",
        description="identification codecs with information-theoretically secret tags",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the metavar argparse would print for all of them, which would then
    # name the action in errors; those arise only with all of them built
    metavar = None if only is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, text, flags) in SUBCOMMANDS.items():
        if only in (None, name):
            s = sub.add_parser(name, help=text)
            for flag in flags:
                group = s.add_mutually_exclusive_group() if isinstance(flag, list) else s
                for option, kwargs in flag if isinstance(flag, list) else [flag]:
                    group.add_argument(option, **kwargs)
            s.set_defaults(func=func, parser=s)
    return parser


def main(argv=None) -> int:
    # a process runs one subcommand, so it builds only that one's parser
    first = (sys.argv[1:] if argv is None else argv)[:1]
    parser = build_parser(*(n for n in first if n in SUBCOMMANDS))
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
