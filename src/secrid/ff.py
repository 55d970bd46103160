"""Exact arithmetic in GF(p^m).

Elements are canonical integers in [0, q): the little-endian base-p digit
vector of an integer is the coefficient vector of the residue polynomial.
Multiplication goes through precomputed exp/log tables for q <= 2**20 and
falls back to schoolbook polynomial multiplication above that.  Extension
fields with p > 2 add a Zech-logarithm table, read by add and by the log-
domain loops of tag evaluation and the cipher; GF(2^m) addition is XOR.

A field builds its tables only once its table-free work would have paid
for them (the ski-rental rule): callers charge the multiply-adds they are
about to run, and until the charge reaches q / TABLE_PAYBACK the digit
arithmetic serves them.  A cold CLI call at q = 59049, which runs a few
hundred multiply-adds, never builds the tables; the exact oracles, which
run millions, ask for them up front.

The tables are built by stepping x -> x * g through lookups over digit
chunks of about m/2 digits, about 2 * p^(m/2) schoolbook products in all
(see Field._times), so the build is linear in q; no temporary table holds
more than q entries, and none outlives the build.  One schoolbook
multiply mod f, _mulmod, and one square and multiply, _powmod, serve the
table-free path (above the limit and until the tables pay), the oracle the
tables are checked against, the generator search and the modulus search.

The reducing polynomial is not a free choice here: for every (p, m) we use
the monic irreducible of degree m with the smallest canonical integer, found
by deterministic search: the first candidate with gcd(x^(p^d) - x, f) = 1
for every d <= m/2, since a reducible f has a factor of such a degree.
Two processes therefore always agree on the representation.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import islice
from typing import Callable, Sequence

# exp/log (and Zech) tables are built for fields up to this size
TABLE_LIMIT = 1 << 20
# one table-free multiply-add costs about as much as building this many
# table entries (measured 19 on GF(3^10) and 9.5 on GF(2^16), 2-core x86,
# Python 3.11), so a field's tables are built once the multiply-adds charged
# to it reach q / TABLE_PAYBACK
TABLE_PAYBACK = 16
# no field is larger; above it the digit arithmetic is still exact, but the
# trial-division searches behind a field's construction run for minutes
MAX_Q = 1 << 32


# ---------------------------------------------------------------------------
# integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n <= 2**40 or so."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def _check_size(p: int, m: int = 1) -> None:
    """Reject a field p^m of more than MAX_Q elements, and non-integer p or
    m, before any factorisation, primality test or irreducible search sees
    them: at q = 2^61 those take minutes.  m is bounded before p is raised
    to it (every p >= 2 makes p^33 > MAX_Q); m < 1 is rejected later."""
    if type(p) is not int or type(m) is not int:
        raise ValueError(f"field parameters must be integers, got p={p!r}, m={m!r}")
    if m > 32 or p ** max(m, 0) > MAX_Q:
        raise ValueError(
            f"field size p^m is above the limit 2^32 (p has {p.bit_length()} bits, m = {m})"
        )


def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with q = p**m, p prime; raises if q is not a prime power."""
    _check_size(q)
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, m),) = factors.items()
    return p, m


# ---------------------------------------------------------------------------
# polynomials over GF(p): little-endian coefficient lists without trailing
# zeros for the gcd, and residues mod a monic f as canonical integers


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo f (f need not be monic)."""
    a = _trim(list(a))
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        _trim(a)
    return a


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """A gcd of a and b, not made monic: its callers read only its degree."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _mulmod(a: int, b: int, f: Sequence[int], p: int) -> int:
    """a * b modulo the monic f over GF(p), on canonical integers below
    p^m, m = deg f: the one table-free multiply of the field and of the
    modulus search.  A product mod p when m = 1, a carry-less multiply
    with shift-subtract reduction when p = 2, and otherwise a digit
    convolution reduced by f from the top."""
    m = len(f) - 1
    if m == 1:
        return (a * b) % p
    if p == 2:
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        f_int = 0
        for i, c in enumerate(f):
            f_int |= c << i
        for i in range(2 * m - 2, m - 1, -1):
            if (out >> i) & 1:
                out ^= f_int << (i - m)
        return out
    da = _int_digits(a, p, m)
    db = _int_digits(b, p, m)
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                conv[i + j] += ai * bj
    for i in range(2 * m - 2, m - 1, -1):
        c = conv[i] % p
        if c:
            shift = i - m
            for j in range(m + 1):
                conv[shift + j] -= c * f[j]
    value = 0
    for i in range(m - 1, -1, -1):
        value = value * p + conv[i] % p
    return value


def _powmod(a: int, e: int, f: Sequence[int], p: int) -> int:
    """a^e modulo the monic f over GF(p), by square and multiply from the
    top bit of e, which is a itself, down to the last, with no spare square."""
    result = a if e else 1
    for bit in bin(e)[3:]:
        result = _mulmod(result, result, f, p)
        if bit == "1":
            result = _mulmod(result, a, f, p)
    return result


def _has_factor_up_to(f: Sequence[int], p: int, degree: int) -> bool:
    """Whether the monic f has an irreducible factor of degree d <= degree:
    the distinct-degree test gcd(x^(p^d) - x, f) != 1, with x^(p^d) mod f
    raised to the p-th power from d - 1.  The canonical integer of x is p.
    d = 1 asks for a root in GF(p)."""
    m = len(f) - 1
    h = p
    for _ in range(degree):
        h = _powmod(h, p, f, p)
        h_minus_x = list(_int_digits(h, p, m))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        if len(_poly_gcd(_trim(h_minus_x), f, p)) != 1:
            return True
    return False


@lru_cache(maxsize=None, typed=True)  # typed: m = 2.0 must not hit m = 2
def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) whose low-order coefficient
    vector has the smallest canonical integer: the reducing polynomial of
    GF(p^m).  Deterministic."""
    _check_size(p, m)
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    for c in range(p ** m):
        f = list(_int_digits(c, p, m)) + [1]
        # a reducible f has an irreducible factor of degree <= m/2
        if not _has_factor_up_to(f, p, m // 2):
            return tuple(f)
    raise AssertionError("unreachable: irreducibles of every degree exist")


def _int_digits(value: int, p: int, m: int) -> tuple[int, ...]:
    digits = []
    for _ in range(m):
        value, d = divmod(value, p)
        digits.append(d)
    return tuple(digits)


def _chunk_add_table(p: int, chunk: int) -> list[int]:
    """Digit-wise sum of base-p chunks: entry a * chunk + b is a + b digit by
    digit, for a, b < chunk.  Row a is row a - p^i with p^i added to every
    entry, where digit i is a's lowest nonzero one: O(1) per entry."""
    table = list(range(chunk))
    for a in range(1, chunk):
        place = 1
        while a // place % p == 0:
            place *= p
        wrap = (p - 1) * place
        row = table[(a - place) * chunk : (a - place + 1) * chunk]
        table += [e - wrap if e // place % p == p - 1 else e + place for e in row]
    return table


# ---------------------------------------------------------------------------


class Field:
    """GF(p^m) acting on canonical integer representatives.

    The heavy lookup tables are built lazily: by fast_ops() with no
    argument, or once the work charged through fast_ops(work) and the
    checked operations reaches q / TABLE_PAYBACK multiply-adds.  Until then
    arithmetic runs on digits, so parameter-only work and short runs stay
    cheap.  Once built the tables are never mutated; instances are safe to
    share between threads (a lost race during the first build just rebuilds
    identical tables, and a lost update of the work count only delays it).
    """

    def __init__(self, p: int, m: int):
        self._modulus = find_irreducible(p, m)  # checks p and m first
        self.p = p
        self.m = m
        self.q = p ** m
        self.generator: int | None = None
        # both set by fast_ops() once the pair is fixed; until then _work
        # counts the multiply-adds charged to the table-free pair _digits
        self._tables: tuple[list[int], list[int], list[int] | None] | None = None
        self._ops: tuple[Callable[[int, int], int], Callable[[int, int], int]] | None = None
        self._digits: tuple[Callable[[int, int], int], Callable[[int, int], int]] | None = None
        self._work = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_q(cls, q: int) -> "Field":
        p, m = prime_power(q)
        return field_for(p, m)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, q={self.q})"

    def __eq__(self, other: object) -> bool:
        # (p, m) fixes the reducing polynomial, hence the representation
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __reduce__(self):
        # the tables and the closures over them are rebuilt, not pickled
        return Field, (self.p, self.m)

    # -- validation --------------------------------------------------------

    def _check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:  # JSON true is not 1
            raise ValueError(f"{a!r} is not a canonical element of {self!r}")
        return a

    # -- arithmetic core --------------------------------------------------

    def fast_ops(
        self, work: int | None = None
    ) -> tuple[Callable[[int, int], int], Callable[[int, int], int]]:
        """(add, mul) without canonicality checks, for inner loops whose
        operands were validated up front: the pair add and mul call after
        checking.

        work is the number of multiply-adds the caller is about to run.  It
        is added to the field's count, and while the count stays below
        q / TABLE_PAYBACK the table-free digit pair is returned: the tables
        would cost more to build than they save.  With no work, or once the
        count reaches that, the pair is fixed for good, which builds the
        tables when q <= TABLE_LIMIT; above that the pair is digit
        arithmetic."""
        if self._ops is not None:
            return self._ops
        if self.q <= TABLE_LIMIT:
            if work is not None:
                self._work += work
                if self._work * TABLE_PAYBACK < self.q:
                    return self._digit_ops()
            self._tables = self._build_tables()
            self._ops = self._table_ops(*self._tables)
        else:
            self._ops = self._digit_ops()
        return self._ops

    def _digit_ops(self) -> tuple[Callable[[int, int], int], Callable[[int, int], int]]:
        """The table-free (add, mul): xor, sum mod p or digit-wise sum, and
        the schoolbook multiply.  Built once per field."""
        if self._digits is None:
            p = self.p
            if p == 2:
                add = operator.xor
            elif self.m == 1:
                def add(a: int, b: int) -> int:
                    return (a + b) % p
            else:
                add = self._add_digits
            self._digits = (add, self._mul_core)
        return self._digits

    def _table_ops(
        self, exp: list[int], log: list[int], zech: list[int] | None
    ) -> tuple[Callable[[int, int], int], Callable[[int, int], int]]:
        """(add, mul) through the tables; add is the digit one unless
        there is a Zech table."""
        qm1 = self.q - 1

        def mul(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return exp[log[a] + log[b]]

        if zech is None:
            return self._digit_ops()[0], mul

        def add(a: int, b: int) -> int:
            if a == 0:
                return b
            if b == 0:
                return a
            la = log[a]
            t = log[b] - la
            if t < 0:
                t += qm1
            z = zech[t]
            return 0 if z < 0 else exp[la + z]

        return add, mul

    def _build_tables(self) -> tuple[list[int], list[int], list[int] | None]:
        """(exp, log, zech).  exp is doubled so mul can skip a modulo;
        zech[t] = log(1 + g^t), or -1 when 1 + g^t = 0, exists only when
        p > 2 and m > 1.  exp steps by _times(g), so no entry costs a
        schoolbook multiply; Zech adds 1 to the low digit only, and its
        entries are log's int objects."""
        p, m, q = self.p, self.m, self.q
        g = self._find_generator()
        step = self._times(g)
        exp = [1] * (q - 1)
        log = [-1] * q
        # exp and log hold one shared int object per value, taken from ints,
        # instead of a fresh one from step(x) in exp and another in log
        ints = list(range(q))
        x = 1
        for i in islice(ints, q - 1):
            exp[i] = ints[x]
            log[x] = i
            x = step(x)
        if x != 1:
            raise AssertionError("generator order check failed")
        del step, ints  # frees the chunk tables before the Zech table is built
        self.generator = g
        zech = None
        if p > 2 and m > 1:
            # log[0] == -1 marks 1 + g^t = 0
            pm1 = p - 1
            zech = [log[a - pm1 if a % p == pm1 else a + 1] for a in exp]
        exp *= 2
        return exp, log, zech

    def _times(self, g: int) -> Callable[[int], int]:
        """x -> x * g by table lookups.  The map is GF(p)-linear on digit
        vectors, so with x = lo + p^w * hi (w = m // 2) the product is
        lo * g plus (p^w * hi) * g, both read from tables of p^w and
        p^(m-w) products precomputed with _mul_core.  The sum goes w digits
        at a time through a digit-wise add table of p^(2w) <= q entries,
        plus one top digit when m is odd (for m = 1 that digit is all of
        x, and the step is x * g mod p).  No table holds more than q
        entries."""
        p, m, q = self.p, self.m, self.q
        w = m // 2
        chunk = p ** w
        top = chunk * chunk  # place of the top digit, nonzero only for odd m
        add = _chunk_add_table(p, chunk)
        # the chunks of lo * g, the first two scaled to rows of add
        lo_g = [
            (v % chunk * chunk, v // chunk % chunk * chunk, v // top)
            for v in (self._mul_core(v, g) for v in range(chunk))
        ]
        hi_g = [
            (v % chunk, v // chunk % chunk, v // top)
            for v in (self._mul_core(v * chunk, g) for v in range(q // chunk))
        ]

        def step(x: int) -> int:
            a0, a1, a2 = lo_g[x % chunk]
            b0, b1, b2 = hi_g[x // chunk]
            return add[a0 + b0] + add[a1 + b1] * chunk + (a2 + b2) % p * top

        return step

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1  # trivial group, 1 generates it
        cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
        for g in range(2, self.q):
            if all(_powmod(g, c, self._modulus, self.p) != 1 for c in cofactors):
                return g
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _add_digits(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        value = 0
        scale = 1
        for _ in range(m):
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            value += ((da + db) % p) * scale
            scale *= p
        return value

    def _mul_core(self, a: int, b: int) -> int:
        return _mulmod(a, b, self._modulus, self.p)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return (self._ops or self.fast_ops(1))[0](a, b)

    def neg(self, a: int) -> int:
        # the canonical integer p - 1 is the constant -1, also for p = 2, m = 1
        return self.mul(a, self.p - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return (self._ops or self.fast_ops(1))[1](a, b)

    def mul_schoolbook(self, a: int, b: int) -> int:
        """Table-free multiplication: digit convolution reduced by the
        field polynomial.  Kept callable on every field so the two paths
        can be checked against each other."""
        self._check(a)
        self._check(b)
        return self._mul_core(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        return self._pow_nonzero(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return self._pow_nonzero(a, e)

    def _pow_nonzero(self, a: int, e: int) -> int:
        """a^e for a != 0 and e >= 0, charging the square-and-multiply
        steps of the table-free path."""
        self.fast_ops(2 * e.bit_length())
        tables = self._tables
        if tables is None:
            return _powmod(a, e, self._modulus, self.p)
        exp, log, _ = tables
        return exp[(log[a] * e) % (self.q - 1)]

    # -- sampling ----------------------------------------------------------

    def sample_uniform(self, rng) -> int:
        """One uniform element: sample_vector(rng, 1)[0], with its draws."""
        return self.sample_vector(rng, 1)[0]

    def sample_vector(self, rng, length: int) -> tuple[int, ...]:
        """length uniform elements, each from m base-p digits, low digit
        first.  For p > 2 a digit is rng.getrandbits(p.bit_length()), drawn
        again while it is >= p: the very calls random.Random.randrange(p)
        makes, so a seeded stream is the one of one randrange(p) per digit,
        without randrange's argument handling on every digit.  For p = 2 an
        element is one getrandbits(m).  No element-level rejection, so a
        scripted source with m in-range values per element yields exactly
        one element each."""
        bits = rng.getrandbits
        p, m = self.p, self.m
        if p == 2:
            return tuple([bits(m) for _ in range(length)])
        k = p.bit_length()
        places = [p ** i for i in range(m)]
        out = []
        for _ in range(length):
            value = 0
            for place in places:
                d = bits(k)
                while d >= p:
                    d = bits(k)
                value += d * place
            out.append(value)
        return tuple(out)

    # -- serialization -----------------------------------------------------

    @property
    def symbol_bits(self) -> int:
        """Width of one element on the wire: ceil(log2 q) bits."""
        return max(1, (self.q - 1).bit_length())

    @property
    def symbol_bytes(self) -> int:
        return (self.symbol_bits + 7) // 8

    def encode_symbols(self, values: Sequence[int]) -> bytes:
        nbytes = self.symbol_bytes
        return b"".join(self._check(v).to_bytes(nbytes, "big") for v in values)

    @property
    def log2_q(self) -> float:
        return self.m * math.log2(self.p)


@lru_cache(maxsize=None, typed=True)  # typed: m = 2.0 must not hit m = 2
def field_for(p: int, m: int) -> Field:
    """Shared Field instance per (p, m); tables get built at most once."""
    return Field(p, m)
