"""Exact coefficient rings: integers, rationals and prime fields.

Scalars are plain python objects (int, Fraction, or int mod p); the ring
object carries the arithmetic conventions.  No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first 12 prime bases has no strong pseudoprime below
# this bound (Jiang and Deng, Math. Comp. 83 (2014)), so it decides primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Whether n is prime.  At or above _MR_LIMIT a witness still proves n
    composite, but a number with none raises ValueError."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(
            f"primality above 3.18e23 is not decided: {n} passes Miller-Rabin "
            "on the first 12 prime bases"
        )
    return True


class BaseRing:
    """One of Z, Q, or F_p, with exact scalar arithmetic.

    kind is "Z", "Q" or "Fp"; for "Fp" the attribute p holds the prime.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is None or not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        elif p is not None:
            raise ValueError("p only makes sense for prime fields")
        self.kind = kind
        self.p = p

    # -- predicates ---------------------------------------------------
    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    def has_inverse_of(self, n: int) -> bool:
        """Whether the integer n is invertible in the ring."""
        if self.kind == "Z":
            return n in (1, -1)
        if self.kind == "Q":
            return n != 0
        return n % self.p != 0

    # -- scalar arithmetic --------------------------------------------
    def coerce(self, x):
        if type(x) is int:  # skips the ABC isinstance check below (bool does not)
            return x % self.p if self.kind == "Fp" else x
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        if self.kind == "Q":
            f = Fraction(x)
            return int(f) if f.denominator == 1 else f
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a) -> bool:
        return (a % self.p == 0) if self.kind == "Fp" else a == 0

    def inv(self, a):
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        if self.kind == "Q":
            f = Fraction(1, 1) / Fraction(a)
            return int(f) if f.denominator == 1 else f
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        """Exact division; raises if b does not divide a in the ring."""
        if self.kind == "Z":
            q, r = divmod(a, b)
            if r != 0:
                raise ValueError(f"{b} does not divide {a} in Z")
            return q
        return self.mul(a, self.inv(b))

    # -- serialization -------------------------------------------------
    def scalar_str(self, a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def parse_scalar(self, s: str):
        if "/" in s:
            num, den = s.split("/")
            return self.coerce(Fraction(int(num), int(den)))
        return self.coerce(int(s))

    def __repr__(self):
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")

    def __eq__(self, other):
        return (
            isinstance(other, BaseRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))


ZZ = BaseRing("Z")
QQ = BaseRing("Q")


def GF(p: int) -> BaseRing:
    return BaseRing("Fp", p)


def ring_from_flag(flag: str) -> BaseRing:
    """Parse a CLI ring flag: 'Z', 'Q' or 'Fp:<p>'."""
    if flag == "Z":
        return ZZ
    if flag == "Q":
        return QQ
    if flag.startswith("Fp:"):
        return GF(int(flag.split(":", 1)[1]))
    raise ValueError(f"unknown ring flag {flag!r} (expected Z, Q or Fp:<p>)")
