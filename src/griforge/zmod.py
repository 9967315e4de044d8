"""Exact arithmetic in Z/p^sZ using centered representatives.

A residue is always stored as the unique congruent integer in the
half-open interval (-p^s/2, p^s/2]; for even p^s the right endpoint
p^s/2 is included, for odd p^s the interval is symmetric.
"""

from dataclasses import dataclass
from functools import cached_property


# Miller-Rabin with the first 13 primes as bases is exact below PSI_13,
# the least strong pseudoprime to all of them (about 3.3 * 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
# Cap on s * (bit length of p - 1), a lower bound on log2(p^s), so an
# oversized modulus is refused before p^s is ever computed.
MAX_MODULUS_BITS = 4096


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < PSI_13.

    Above PSI_13 a True answer only means a strong probable prime to
    the bases 2..41; Modulus refuses such p.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def centered(x: int, m: int) -> int:
    """The representative of x mod m lying in (-m/2, m/2]."""
    r = x % m
    if 2 * r > m:
        r -= m
    return r


def draws(rng, count: int, bound: int) -> list[int]:
    """The values of count rng.randrange(bound) calls, leaving rng in the same state:
    CPython's rejection loop of random.Random inlined, redrawing bits(bound) bits until below."""
    if bound < 1:  # randrange's empty range; getrandbits(0) would loop forever
        raise ValueError("bound must be >= 1")
    k, getrandbits, out = bound.bit_length(), rng.getrandbits, []
    for _ in range(count):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r)
    return out


@dataclass(frozen=True)
class Modulus:
    """A prime-power modulus p^s."""

    p: int
    s: int

    def __post_init__(self):
        bits = self.s * (self.p.bit_length() - 1)
        if bits > MAX_MODULUS_BITS:
            raise ValueError(f"modulus too large: s * (bits of p - 1) = {bits} > {MAX_MODULUS_BITS}")
        if self.p >= PSI_13:
            raise ValueError(f"p must be below {PSI_13}, where primality testing is exact")
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.s < 1:
            raise ValueError("s must be >= 1")

    @cached_property
    def m(self) -> int:
        return self.p**self.s

    @cached_property
    def residue(self) -> "Modulus":
        """The prime modulus p^1 of the residue field; self when s = 1."""
        return self if self.s == 1 else Modulus(self.p, 1)

    def __repr__(self):
        return f"{self.p}^{self.s}" if self.s > 1 else str(self.p)

