"""Arithmetic over Z/nZ and the bilinear congruence a*j + b*k + d*j*k = gcd(n,d).

The congruence solver follows the prime-power case split: when any of the
three coefficients is a unit the solution is written down directly, and
otherwise a common power of p is cancelled and the reduced congruence is
solved at a smaller prime power.  Per-prime-power solutions are then glued
with the Chinese remainder theorem.  A brute-force scan over (Z/nZ)^2 is
kept alongside as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotAUnit, VerificationFailed


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a mod n, raising NotAUnit when gcd(a, n) != 1."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotAUnit(f"{a} is not invertible mod {n}") from None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n is desk-scale here."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def crt(residues: list[int], moduli: list[int]) -> int:
    """Combine residues over pairwise coprime moduli into one residue."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        # solve x' = x (mod m), x' = r (mod q)
        t = ((r - x) * mod_inverse(m % q, q)) % q if q > 1 else 0
        x, m = x + m * t, m * q
    return x % m


@dataclass(frozen=True)
class CongruenceSolution:
    """A pair (j, k) with a*j + b*k + d*j*k = gcd(n, d) mod n.

    `method` records which path produced it: "crt" for the constructive
    prime-power solver, "brute" for the exhaustive scan (which always
    returns the lexicographically smallest pair).
    """

    j: int
    k: int
    method: str


def _valuation(x: int, p: int, cap: int) -> int:
    """min(v_p(x), cap), with the convention v_p(0) = cap."""
    if x == 0:
        return cap
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def _solve_prime_power(a: int, b: int, d: int, m: int, p: int, e: int) -> tuple[int, int]:
    """Solve a*j + b*k + d*j*k = m (mod p^e).

    The target m is guaranteed divisible by any power of p that divides
    all three coefficients, which is what makes the descent step exact.
    """
    q = p**e
    if q == 1:
        return 0, 0
    a %= q
    b %= q
    d %= q
    m %= q
    if gcd(a, p) == 1:
        return (mod_inverse(a, q) * m) % q, 0
    if gcd(b, p) == 1:
        return 0, (mod_inverse(b, q) * m) % q
    if gcd(d, p) == 1:
        # With j = d^-1 (1 - b), the bracket b + d*j collapses to 1, so
        # a*j + k*(b + d*j) = a*j + k is hit by k = m - a*j.
        j = (mod_inverse(d, q) * (1 - b)) % q
        return j, (m - a * j) % q
    # p divides a, b and d.  If p^e | d the cross term and the target both
    # vanish mod q and (0, 0) works; otherwise cancel the largest common
    # power of p and solve the reduced congruence one level down.
    delta = _valuation(d, p, e)
    if delta >= e:
        if m % q:
            raise VerificationFailed(
                "bilinear congruence target not divisible at prime power",
                witness={"a": a, "b": b, "d": d, "m": m, "p": p, "e": e},
            )
        return 0, 0
    mu = min(_valuation(a, p, e), _valuation(b, p, e), delta)
    step = p**mu
    if m % step:
        raise VerificationFailed(
            "bilinear congruence target not divisible by descent power",
            witness={"a": a, "b": b, "d": d, "m": m, "p": p, "e": e, "mu": mu},
        )
    return _solve_prime_power(a // step, b // step, d // step, m // step, p, e - mu)


def solve_bilinear_congruence(a: int, b: int, d: int, n: int) -> CongruenceSolution:
    """Find (j, k) with a*j + b*k + d*j*k = gcd(n, d) (mod n).

    a, b are residues mod n; d is a positive integer (the tuple length in
    the supercharacter setting).  A solution exists for every input.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be a positive integer, got {d}")
    a %= n
    b %= n
    g = gcd(n, d)
    if n == 1:
        return CongruenceSolution(0, 0, "crt")
    residues_j: list[int] = []
    residues_k: list[int] = []
    moduli: list[int] = []
    for p, e in sorted(factorize(n).items()):
        jq, kq = _solve_prime_power(a, b, d, g, p, e)
        residues_j.append(jq)
        residues_k.append(kq)
        moduli.append(p**e)
    j = crt(residues_j, moduli)
    k = crt(residues_k, moduli)
    if (a * j + b * k + d * j * k - g) % n:
        raise VerificationFailed(
            "crt solution fails the bilinear congruence",
            witness={"a": a, "b": b, "d": d, "n": n, "j": j, "k": k},
        )
    return CongruenceSolution(j, k, "crt")


def solve_bilinear_brute(a: int, b: int, d: int, n: int) -> CongruenceSolution:
    """Exhaustive solver; returns the lexicographically smallest (j, k)."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be a positive integer, got {d}")
    a %= n
    b %= n
    g = gcd(n, d)
    for j in range(n):
        aj = (a * j - g) % n
        bdj = (b + d * j) % n
        for k in range(n):
            if (aj + bdj * k) % n == 0:
                return CongruenceSolution(j, k, "brute")
    raise VerificationFailed(
        "bilinear congruence has no solution, which contradicts the existence proof",
        witness={"a": a, "b": b, "d": d, "n": n},
    )
