"""Polynomial arithmetic over GF(2).

Polynomials over GF(2) are represented as Python integers: bit ``i`` of the
integer is the coefficient of ``y^i``.  This is the standard "bit-vector"
encoding used by carry-less multiplication hardware and lets arbitrarily
large fields (the paper goes up to ``m = 163``) be handled with native
integer operations.

The module provides everything the rest of the library needs from GF(2)[y]:
multiplication, euclidean division, gcd, modular exponentiation, squaring,
irreducibility testing (Rabin's test) and a handful of structural helpers
(degree, Hamming weight, exponent extraction).

All functions are pure and operate on plain ``int`` values, so they compose
freely with :mod:`repro.galois.field` and the pentanomial catalog.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

__all__ = [
    "degree",
    "weight",
    "exponents",
    "from_exponents",
    "to_coefficient_list",
    "from_coefficient_list",
    "poly_to_string",
    "clmul",
    "poly_mod",
    "poly_divmod",
    "poly_mulmod",
    "poly_powmod",
    "poly_square",
    "poly_gcd",
    "is_irreducible",
    "distinct_prime_factors",
]


def degree(poly: int) -> int:
    """Return the degree of ``poly``; the zero polynomial has degree ``-1``.

    >>> degree(0b1011)
    3
    >>> degree(1)
    0
    >>> degree(0)
    -1
    """
    if poly < 0:
        raise ValueError("polynomials over GF(2) are encoded as non-negative integers")
    return poly.bit_length() - 1


def weight(poly: int) -> int:
    """Return the Hamming weight (number of non-zero coefficients) of ``poly``.

    >>> weight(0b10011)
    3
    """
    if poly < 0:
        raise ValueError("polynomials over GF(2) are encoded as non-negative integers")
    return bin(poly).count("1")


def exponents(poly: int) -> List[int]:
    """Return the exponents with non-zero coefficients, highest first.

    >>> exponents(0b100011101)
    [8, 4, 3, 2, 0]
    """
    result = []
    for bit in range(degree(poly), -1, -1):
        if (poly >> bit) & 1:
            result.append(bit)
    return result


def from_exponents(exps: Iterable[int]) -> int:
    """Build a polynomial from an iterable of exponents.

    Repeated exponents cancel (coefficients live in GF(2)).

    >>> from_exponents([8, 4, 3, 2, 0]) == 0b100011101
    True
    >>> from_exponents([3, 3]) == 0
    True
    """
    poly = 0
    for exp in exps:
        if exp < 0:
            raise ValueError("exponents must be non-negative")
        poly ^= 1 << exp
    return poly


def to_coefficient_list(poly: int, length: int | None = None) -> List[int]:
    """Return coefficients ``[c_0, c_1, ...]`` (low degree first).

    When ``length`` is given the list is padded or an error is raised if the
    polynomial does not fit.

    >>> to_coefficient_list(0b1011)
    [1, 1, 0, 1]
    >>> to_coefficient_list(0b11, length=4)
    [1, 1, 0, 0]
    """
    natural = degree(poly) + 1 if poly else 0
    if length is None:
        length = max(natural, 1)
    elif natural > length:
        raise ValueError(f"polynomial of degree {natural - 1} does not fit in {length} coefficients")
    return [(poly >> i) & 1 for i in range(length)]


def from_coefficient_list(coefficients: Iterable[int]) -> int:
    """Build a polynomial from coefficients ``[c_0, c_1, ...]`` (low first).

    Coefficients are reduced modulo 2.

    >>> from_coefficient_list([1, 1, 0, 1]) == 0b1011
    True
    """
    poly = 0
    for i, coefficient in enumerate(coefficients):
        if coefficient & 1:
            poly |= 1 << i
    return poly


def poly_to_string(poly: int, variable: str = "y") -> str:
    """Render a readable polynomial string such as ``y^8 + y^4 + y^3 + y^2 + 1``.

    >>> poly_to_string(0b100011101)
    'y^8 + y^4 + y^3 + y^2 + 1'
    >>> poly_to_string(0)
    '0'
    """
    if poly == 0:
        return "0"
    parts = []
    for exp in exponents(poly):
        if exp == 0:
            parts.append("1")
        elif exp == 1:
            parts.append(variable)
        else:
            parts.append(f"{variable}^{exp}")
    return " + ".join(parts)


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[y]) multiplication of two polynomials.

    >>> clmul(0b11, 0b11)  # (y + 1)^2 = y^2 + 1
    5
    >>> clmul(0, 0b1010)
    0
    """
    if a < 0 or b < 0:
        raise ValueError("polynomials over GF(2) are encoded as non-negative integers")
    result = 0
    shift = 0
    while b:
        if b & 1:
            result ^= a << shift
        b >>= 1
        shift += 1
    return result


def poly_divmod(dividend: int, divisor: int) -> Tuple[int, int]:
    """Euclidean division in GF(2)[y]: return ``(quotient, remainder)``.

    >>> poly_divmod(0b100011101, 0b100011101)
    (1, 0)
    >>> q, r = poly_divmod(0b1100101, 0b1011)
    >>> clmul(q, 0b1011) ^ r == 0b1100101
    True
    """
    if divisor == 0:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = 0
    remainder = dividend
    divisor_degree = degree(divisor)
    while degree(remainder) >= divisor_degree:
        shift = degree(remainder) - divisor_degree
        quotient ^= 1 << shift
        remainder ^= divisor << shift
    return quotient, remainder


def poly_mod(value: int, modulus: int) -> int:
    """Reduce ``value`` modulo ``modulus`` in GF(2)[y].

    >>> poly_mod(0b100000000, 0b100011101)  # y^8 mod AES-like pentanomial
    29
    """
    return poly_divmod(value, modulus)[1]


def poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Multiply two polynomials and reduce modulo ``modulus``."""
    return poly_mod(clmul(a, b), modulus)


def poly_square(a: int) -> int:
    """Square a polynomial over GF(2) (interleave its bits with zeros).

    Squaring is linear over GF(2): ``(sum y^i)^2 = sum y^(2i)``.

    >>> poly_square(0b111) == 0b10101
    True
    """
    result = 0
    bit = 0
    while a:
        if a & 1:
            result |= 1 << (2 * bit)
        a >>= 1
        bit += 1
    return result


#: ``poly_square`` of every byte: squaring spreads bit ``i`` to bit ``2i``.
_BYTE_SQUARES = tuple(poly_square(byte) for byte in range(256))


def poly_powmod(base: int, exponent: int, modulus: int) -> int:
    """Compute ``base**exponent mod modulus`` by square-and-multiply.

    >>> poly_powmod(0b10, 8, 0b100011101)  # y^8 mod f
    29
    """
    if exponent < 0:
        raise ValueError("negative exponents are not defined in GF(2)[y]")
    result = 1
    base = poly_mod(base, modulus)
    while exponent:
        if exponent & 1:
            result = poly_mulmod(result, base, modulus)
        base = poly_mulmod(base, base, modulus)
        exponent >>= 1
    return result


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two polynomials over GF(2).

    >>> poly_gcd(clmul(0b111, 0b1011), clmul(0b111, 0b11))
    7
    >>> poly_gcd(0, 0b101)
    5
    """
    while b:
        a, b = b, poly_mod(a, b)
    return a


def distinct_prime_factors(value: int) -> List[int]:
    """Return the distinct prime factors of a positive integer, ascending.

    Used by Rabin's irreducibility test on the extension degree ``m``.

    >>> distinct_prime_factors(163)
    [163]
    >>> distinct_prime_factors(148)
    [2, 37]
    """
    if value < 1:
        raise ValueError("value must be a positive integer")
    factors = []
    remaining = value
    candidate = 2
    while candidate * candidate <= remaining:
        if remaining % candidate == 0:
            factors.append(candidate)
            while remaining % candidate == 0:
                remaining //= candidate
        candidate += 1 if candidate == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return factors


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test for a polynomial over GF(2).

    ``f`` of degree ``m`` is irreducible iff ``y^(2^m) = y (mod f)`` and for
    every prime divisor ``p`` of ``m``, ``gcd(y^(2^(m/p)) - y, f) = 1``.

    >>> is_irreducible(0b100011101)   # y^8+y^4+y^3+y^2+1 (CCSDS / Reed-Solomon)
    True
    >>> is_irreducible(0b100011011)   # y^8+y^4+y^3+y+1 (AES polynomial)
    True
    >>> is_irreducible(0b101)         # y^2+1 = (y+1)^2
    False
    """
    m = degree(poly)
    if m <= 0:
        return False
    if m == 1:
        return True
    if not poly & 1:
        # Divisible by y.
        return False
    y = 0b10
    # Repeated squaring of y modulo poly: after k squarings we hold y^(2^k).
    # Each squaring spreads bits per byte, then folds y^m = Σ y^e over the
    # modulus's nonzero low exponents e: few XORs per fold for the sparse
    # moduli the catalog searches.
    low_exponents = exponents(poly)[1:]
    low_mask = (1 << m) - 1
    power = y
    powers_at = {}
    needed = {m} | {m // p for p in distinct_prime_factors(m)}
    for step in range(1, m + 1):
        square = 0
        shift = 0
        while power:
            square |= _BYTE_SQUARES[power & 0xFF] << shift
            power >>= 8
            shift += 16
        while square > low_mask:
            high = square >> m
            square &= low_mask
            for exp in low_exponents:
                square ^= high << exp
        power = square
        if step in needed:
            powers_at[step] = power
    if powers_at[m] != y:
        return False
    for p in distinct_prime_factors(m):
        if poly_gcd(powers_at[m // p] ^ y, poly) != 1:
            return False
    return True
