"""Elliptic-curve arithmetic over NIST P-256 (prime256v1), from scratch.

The paper's second strawman encrypts index digests with additive EC-ElGamal
over prime256v1 (via OpenSSL).  We implement the curve group here: points in
Jacobian coordinates for fast double-and-add scalar multiplication, plus the
affine interface EC-ElGamal (:mod:`repro.baselines.ecelgamal`) needs.  Token
sealing (:mod:`repro.crypto.hybrid`) uses it to recover the y coordinate the
native ECDH omits and to multiply by ``N − 1``, and its tests use
:func:`scalar_mult` as the reference.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import CryptoError

# NIST P-256 domain parameters.
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


@dataclass(frozen=True)
class Point:
    """An affine point on P-256; ``x is None`` encodes the point at infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """SEC1 encoding: 0x00 for infinity, uncompressed 0x04||x||y otherwise."""
        if self.is_infinity:
            return b"\x00"
        assert self.x is not None and self.y is not None
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Point":
        if data == b"\x00":
            return INFINITY
        if len(data) != 65 or data[0] != 0x04:
            raise CryptoError("invalid P-256 point encoding")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        if x >= P or y >= P:
            raise CryptoError("non-canonical P-256 point coordinate")
        point = Point(x, y)
        if not is_on_curve(point):
            raise CryptoError("decoded point is not on the curve")
        return point


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Check the short-Weierstrass equation ``y^2 = x^3 + ax + b``."""
    if point.is_infinity:
        return True
    assert point.x is not None and point.y is not None
    return (point.y * point.y - (point.x * point.x * point.x + A * point.x + B)) % P == 0


# -- Jacobian-coordinate arithmetic (internal) ---------------------------------

_JPoint = Tuple[int, int, int]  # (X, Y, Z); Z == 0 encodes infinity
_JINF: _JPoint = (1, 1, 0)


def _to_jacobian(point: Point) -> _JPoint:
    if point.is_infinity:
        return _JINF
    assert point.x is not None and point.y is not None
    return point.x, point.y, 1


def _from_jacobian(jpoint: _JPoint) -> Point:
    x, y, z = jpoint
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(jpoint: _JPoint) -> _JPoint:
    x, y, z = jpoint
    if z == 0 or y == 0:
        return _JINF
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x + A * pow(z, 4, P)) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return nx, ny, nz


def _jacobian_add(p1: _JPoint, p2: _JPoint) -> _JPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _JINF
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h2 * h) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return nx, ny, nz


def _jacobian_multiply(jpoint: _JPoint, scalar: int) -> _JPoint:
    scalar %= N
    if scalar == 0 or jpoint[2] == 0:
        return _JINF
    result = _JINF
    addend = jpoint
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return result


# -- public affine interface ---------------------------------------------------

def point_add(p1: Point, p2: Point) -> Point:
    """Group addition of affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


def point_neg(point: Point) -> Point:
    if point.is_infinity:
        return INFINITY
    assert point.x is not None and point.y is not None
    return Point(point.x, (-point.y) % P)


def point_sub(p1: Point, p2: Point) -> Point:
    return point_add(p1, point_neg(p2))


def scalar_mult(scalar: int, point: Point = GENERATOR) -> Point:
    """``scalar * point`` via Jacobian double-and-add."""
    return _from_jacobian(_jacobian_multiply(_to_jacobian(point), scalar))


def random_scalar() -> int:
    """A uniformly random non-zero scalar modulo the group order."""
    return secrets.randbelow(N - 1) + 1


def generate_keypair() -> Tuple[int, Point]:
    """An EC keypair ``(private_scalar, public_point)``."""
    private = random_scalar()
    return private, scalar_mult(private)
