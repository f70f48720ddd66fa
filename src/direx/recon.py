"""Efficient information reconciliation at desk scale.

One-way syndrome transmission over a binary linear code; unique decoding
when the promised error fraction is below a quarter, list decoding plus
pairwise-independent hash disambiguation above it.  Codes are structured
(Hamming, the 3-error BCH of length 15, interleavings) with known
distance, or random with exhaustively verified distance for lengths up to
24.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeFailureError, ListOverflowError
from .seeding import BitStream

EXHAUSTIVE_LENGTH_CAP = 24


# ---------------------------------------------------------------------------
# GF(2) and GF(2^m) helpers


def gf2_rref(mat: np.ndarray):
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    m = mat.copy() % 2
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        i = r + hit[0]
        m[[r, i]] = m[[i, r]]
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_null_space(mat: np.ndarray) -> np.ndarray:
    """Basis (rows) of the null space of mat over GF(2)."""
    rref, pivots = gf2_rref(mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for r, p in enumerate(pivots):
            if rref[r, f]:
                v[p] = 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8) if basis else np.zeros((0, cols), np.uint8)


def _poly_mul_mod2(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _poly_powmod(base: int, e: int, f: int) -> int:
    out = 1
    base = _poly_mod(base, f)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul_mod2(out, base), f)
        base = _poly_mod(_poly_mul_mod2(base, base), f)
        e >>= 1
    return out


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def irreducible_poly(m: int) -> int:
    """Deterministically pick an irreducible degree-m polynomial over GF(2).

    Scans low-weight candidates in a fixed order and applies the standard
    irreducibility test (x^(2^m) = x mod f, and gcd(x^(2^(m/p)) - x, f) = 1
    for prime divisors p of m).
    """
    if m == 1:
        return 0b10
    primes = sorted({p for p in range(2, m + 1) if m % p == 0 and _is_prime(p)})

    def is_irreducible(f):
        if _poly_powmod(0b10, 2**m, f) != _poly_mod(0b10, f):
            return False
        for p in primes:
            g = _poly_gcd(_poly_powmod(0b10, 2 ** (m // p), f) ^ 0b10, f)
            if g.bit_length() - 1 > 0:
                return False
        return True

    for weight in range(1, m + 1):
        for mids in itertools.combinations(range(1, m), weight):
            f = (1 << m) | 1
            for e in mids:
                f |= 1 << e
            if is_irreducible(f):
                return f
    raise RuntimeError(f"no irreducible polynomial of degree {m} found")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


class GF2m:
    """Arithmetic in GF(2^m) with a fixed irreducible modulus."""

    def __init__(self, m: int):
        self.m = m
        self.modulus = irreducible_poly(m)

    def mul(self, a: int, b: int) -> int:
        return _poly_mod(_poly_mul_mod2(a, b), self.modulus)


# ---------------------------------------------------------------------------
# Linear codes


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code given by its parity check matrix.

    regime "unique" promises unique decodability within half the minimum
    distance; regime "list" bounds the coset list size instead.  interleave
    > 1 marks a block-diagonal stack of a base code: the global distance is
    the base distance, and decoding runs per block.
    """

    name: str
    check_matrix: np.ndarray = field(repr=False)
    min_distance: int
    regime: str = "unique"
    list_cap: int = 0
    interleave: int = 1
    distance_provenance: str = "by construction"

    def __post_init__(self):
        h = np.asarray(self.check_matrix, dtype=np.uint8) % 2
        h.setflags(write=False)
        object.__setattr__(self, "check_matrix", h)
        if self.regime not in ("unique", "list"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "list" and self.list_cap < 1:
            raise ValueError("list regime needs a positive list cap")

    @property
    def length(self) -> int:
        return self.check_matrix.shape[1]

    @property
    def n_checks(self) -> int:
        return self.check_matrix.shape[0]

    @property
    def rate(self) -> float:
        return 1.0 - self.n_checks / self.length

    @property
    def unique_radius(self) -> int:
        """Guaranteed unique-decoding radius: half the minimum distance.

        For interleaved codes this is the global guarantee; per-block
        decoding corrects up to the base radius in every block.
        """
        return (self.min_distance - 1) // 2

    @property
    def block_length(self) -> int:
        return self.length // self.interleave

    def supported_lambda(self) -> float:
        """Largest disagreement parameter this code's radius backs:
        1/2 - radius/length."""
        return 0.5 - self.unique_radius / self.length

    def promise_radius(self, lam: float) -> int:
        """Errors a disagreement parameter lam promises to correct:
        (1/2 - lam) * length, rounded down."""
        return int(np.floor((0.5 - lam) * self.length + 1e-9))


def syndrome(code: LinearCode, word) -> np.ndarray:
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (code.length,):
        raise ValueError(f"word length {w.shape} does not match code length {code.length}")
    return (code.check_matrix @ w) % 2


def verify_min_distance(code: LinearCode) -> int:
    """Exhaustive minimum distance (codeword enumeration), length <= 24."""
    if code.length > EXHAUSTIVE_LENGTH_CAP:
        raise ValueError("exhaustive distance check capped at length 24")
    basis = gf2_null_space(code.check_matrix)
    k = basis.shape[0]
    best = code.length + 1
    for mask in range(1, 2**k):
        v = np.zeros(code.length, dtype=np.uint8)
        for i in range(k):
            if (mask >> i) & 1:
                v ^= basis[i]
        best = min(best, int(v.sum()))
    return best


def _packed_syndrome(s: np.ndarray) -> int:
    """A syndrome (or a column of a check matrix) packed into one int, so
    the syndrome of a set of positions is the XOR of their columns'."""
    return int.from_bytes(np.packbits(s).tobytes(), "big")


_COSET_TABLES: dict = {}


def _coset_table(h: np.ndarray, radius: int, unique: bool) -> dict:
    """Packed syndrome -> error position tuples of weight <= radius, in
    order of weight, then lexicographically.

    unique=True promises one pattern per syndrome and raises ValueError on
    a collision, which means the code's distance is smaller than declared.
    """
    key = (h.tobytes(), h.shape, radius, unique)
    tab = _COSET_TABLES.get(key)
    if tab is not None:
        return tab
    packed = np.ascontiguousarray(np.packbits(h, axis=0).T)
    raw, width = packed.tobytes(), packed.shape[1]
    cols = [int.from_bytes(raw[j * width:(j + 1) * width], "big")
            for j in range(h.shape[1])]
    tab = {}
    for w in range(radius + 1):
        for positions in itertools.combinations(range(h.shape[1]), w):
            acc = 0
            for p in positions:
                acc ^= cols[p]
            hits = tab.setdefault(acc, [])
            if unique and hits:
                raise ValueError(
                    "syndrome collision within the radius; distance too small")
            hits.append(positions)
    _COSET_TABLES[key] = tab
    return tab


def unique_decode(code: LinearCode, synd) -> np.ndarray:
    """Minimum-weight coset leader within the unique-decoding radius.

    Interleaved codes decode blockwise.  Raises DecodeFailureError when no
    error pattern within the radius matches the syndrome.
    """
    if code.regime != "unique":
        raise ValueError("code is not in the unique regime")
    s = np.asarray(synd, dtype=np.uint8) % 2
    if s.shape != (code.n_checks,):
        raise ValueError("syndrome length mismatch")
    n, per = code.block_length, code.n_checks // code.interleave
    tab = _coset_table(code.check_matrix[:per, :n], code.unique_radius, True)
    e = np.zeros(code.length, dtype=np.uint8)
    for b in range(code.interleave):
        hits = tab.get(_packed_syndrome(s[b * per:(b + 1) * per]))
        if hits is None:
            raise DecodeFailureError(
                f"no error of weight <= {code.unique_radius} in block {b}")
        e[[b * n + p for p in hits[0]]] = 1
    return e


def list_decode(code: LinearCode, synd, radius: int) -> list:
    """All coset members of weight at most the radius, as error vectors.

    Raises ListOverflowError when the list exceeds the configured cap.
    """
    if code.regime != "list":
        raise ValueError("code is not in the list regime")
    if code.length > EXHAUSTIVE_LENGTH_CAP:
        raise ValueError("exhaustive list decoding capped at length 24")
    s = np.asarray(synd, dtype=np.uint8) % 2
    hits = _coset_table(code.check_matrix, radius, False).get(
        _packed_syndrome(s), [])
    if len(hits) > code.list_cap:
        raise ListOverflowError(
            f"list size {len(hits)} exceeds the cap {code.list_cap}")
    out = []
    for positions in hits:
        e = np.zeros(code.length, dtype=np.uint8)
        e[list(positions)] = 1
        out.append(e)
    return out


# constructors -------------------------------------------------------------


def hamming_code(length: int) -> LinearCode:
    """Shortened Hamming code of any length >= 3: columns are the binary
    representations of 1..length, distance 3, corrects one error."""
    if length < 3:
        raise ValueError("need length at least 3")
    m = max(int(np.ceil(np.log2(length + 1))), 2)
    h = (np.arange(1, length + 1) >> np.arange(m)[:, None]) & 1
    return LinearCode(name=f"hamming-{length}", check_matrix=h, min_distance=3)


def bch_15_5() -> LinearCode:
    """The length-15, dimension-5, distance-7 cyclic code (corrects 3)."""
    # generator polynomial x^10+x^8+x^5+x^4+x^2+x+1
    g = 0b10100110111
    gen = np.zeros((5, 15), dtype=np.uint8)
    for row in range(5):
        for j in range(11):
            gen[row, row + j] = (g >> j) & 1
    h = gf2_null_space(gen)
    code = LinearCode(name="bch-15-5", check_matrix=h, min_distance=7,
                      distance_provenance="verified exhaustively")
    if verify_min_distance(code) != 7:
        raise RuntimeError("distance check failed for the length-15 code")
    return code


def interleaved(base: LinearCode, copies: int) -> LinearCode:
    """Block-diagonal stack of a base code; distance stays the base's."""
    if base.interleave != 1:
        raise ValueError("base code must not already be interleaved")
    n, c = base.length, base.n_checks
    h = np.zeros((c * copies, n * copies), dtype=np.uint8)
    for b in range(copies):
        h[b * c:(b + 1) * c, b * n:(b + 1) * n] = base.check_matrix
    return LinearCode(name=f"{base.name}-x{copies}", check_matrix=h,
                      min_distance=base.min_distance, regime=base.regime,
                      list_cap=base.list_cap, interleave=copies,
                      distance_provenance=base.distance_provenance)


def random_linear_code(length: int, checks: int, rng: np.random.Generator,
                       list_cap: int, verify_distance: bool = False) -> LinearCode:
    h = rng.integers(0, 2, size=(checks, length)).astype(np.uint8)
    # keep full row rank so the advertised leak length is honest
    for _ in range(100):
        _, pivots = gf2_rref(h)
        if len(pivots) == checks:
            break
        h = rng.integers(0, 2, size=(checks, length)).astype(np.uint8)
    code = LinearCode(name=f"random-{length}x{checks}", check_matrix=h,
                      min_distance=1, regime="list", list_cap=list_cap,
                      distance_provenance="not applicable (list regime)")
    if verify_distance:
        d = verify_min_distance(code)
        object.__setattr__(code, "min_distance", d)
    return code


# ---------------------------------------------------------------------------
# Hash families


@dataclass(frozen=True)
class AffineHashFamily:
    """Exactly pairwise independent: h(x) = b + sum a_i x_i over GF(2^k),
    the input split into k-bit field elements."""

    n_bits: int
    k: int

    @property
    def chunks(self) -> int:
        return -(-self.n_bits // self.k)

    @property
    def seed_bits(self) -> int:
        return (self.chunks + 1) * self.k

    def evaluate(self, seed: int, x_bits) -> int:
        gf = _gf_cache(self.k)
        x = _bits_to_int(x_bits)
        out = seed & ((1 << self.k) - 1)  # affine constant
        seed >>= self.k
        for _ in range(self.chunks):
            chunk = x & ((1 << self.k) - 1)
            x >>= self.k
            a = seed & ((1 << self.k) - 1)
            seed >>= self.k
            out ^= gf.mul(a, chunk)
        return out


_GF_FIELDS: dict = {}


def _gf_cache(m: int) -> GF2m:
    f = _GF_FIELDS.get(m)
    if f is None:
        f = GF2m(m)
        _GF_FIELDS[m] = f
    return f


def _bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def hash_bits_required(list_cap: int, eps: float) -> int:
    """Output length that pins the disambiguation failure under eps:
    ceil(log2(2 L / eps))."""
    if not (0 < eps < np.inf and np.isfinite(2.0 * list_cap / eps)):
        raise ValueError(
            f"eps must be positive with 2 L / eps finite, got eps = {eps} "
            f"for list cap L = {list_cap}")
    return int(np.ceil(np.log2(2.0 * list_cap / eps)))


# ---------------------------------------------------------------------------
# The reconciliation protocol


@dataclass(frozen=True)
class EirResult:
    estimate: np.ndarray
    aborted: bool
    leaked_bits: int
    randomness_used: int
    correction_weight: int
    promise_violated: bool
    list_size: int = 0
    measured_rate: float = 0.0
    hash_value: int = -1  # -1 outside the list regime


def eir_run(x_bits, y_bits, code: LinearCode, lam: float, epsilon: float,
            shared: BitStream | None = None, hash_family=None) -> EirResult:
    """One-way reconciliation: the holder of x sends its syndrome (plus a
    hash value in the list regime) and the y side outputs an estimate of x.

    Unique regime: deterministic, consumes no shared randomness.  List
    regime: the coset is list-decoded within radius (1/2 - lam) * N and
    disambiguated by an almost-pairwise hash of ceil(log2(2L/eps)) bits.
    A promise violation (actual distance beyond the radius) is reported in
    the result, never silently accepted.
    """
    x = np.asarray(x_bits, dtype=np.uint8) % 2
    y = np.asarray(y_bits, dtype=np.uint8) % 2
    if x.shape != y.shape or x.shape != (code.length,):
        raise ValueError("inputs must both match the code length")
    if not 0 < lam < 0.5:
        raise ValueError("disagreement parameter must lie in (0, 1/2)")
    radius = code.promise_radius(lam)
    actual = int(np.sum(x ^ y))
    sx = syndrome(code, x)
    s = (sx + syndrome(code, y)) % 2
    leaked = code.n_checks
    if code.regime == "unique":
        if radius > code.unique_radius:
            raise ValueError(
                f"promise radius {radius} exceeds the code's unique-decoding "
                f"radius {code.unique_radius}")
        try:
            d = unique_decode(code, s)
        except DecodeFailureError:
            return EirResult(estimate=y.copy(), aborted=True, leaked_bits=leaked,
                             randomness_used=0, correction_weight=0,
                             promise_violated=actual > radius,
                             measured_rate=code.rate)
        return EirResult(estimate=(y + d) % 2, aborted=False, leaked_bits=leaked,
                         randomness_used=0, correction_weight=int(d.sum()),
                         promise_violated=actual > radius,
                         measured_rate=code.rate)
    if shared is None:
        raise ValueError("list regime needs shared randomness")
    if hash_family is None:
        k = hash_bits_required(code.list_cap, epsilon)
        hash_family = AffineHashFamily(n_bits=code.length, k=k)
    try:
        cands = list_decode(code, s, radius)
    except ListOverflowError:
        return EirResult(estimate=y.copy(), aborted=True, leaked_bits=leaked,
                         randomness_used=0, correction_weight=0,
                         promise_violated=actual > radius,
                         measured_rate=code.rate)
    before = shared.consumed
    seed = shared.take(hash_family.seed_bits)
    used = shared.consumed - before
    hx = hash_family.evaluate(seed, x)
    leaked += hash_family.k
    matches = [d for d in cands if hash_family.evaluate(seed, (y + d) % 2) == hx]
    if len(matches) != 1:
        return EirResult(estimate=y.copy(), aborted=True, leaked_bits=leaked,
                         randomness_used=used, correction_weight=0,
                         promise_violated=actual > radius,
                         list_size=len(cands), measured_rate=code.rate,
                         hash_value=hx)
    d = matches[0]
    return EirResult(estimate=(y + d) % 2, aborted=False, leaked_bits=leaked,
                     randomness_used=used, correction_weight=int(d.sum()),
                     promise_violated=actual > radius, list_size=len(cands),
                     measured_rate=code.rate, hash_value=hx)
