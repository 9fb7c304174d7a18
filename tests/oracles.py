"""Independent reference implementations used only to cross-check the
package. Nothing here imports from the package: the SHA-256 compression
function, the Edwards and Montgomery curve arithmetic, and the bitwise CRC
are all written from their public definitions, so agreement with the
package is meaningful evidence rather than a tautology. The store's
base64 columns are held against whole-value patterns written from RFC 4648.

(The Ed25519 oracle uses hashlib's SHA-512 for seed expansion; the
fingerprint-relevant hash, SHA-256, is reimplemented below.)
"""

from __future__ import annotations

import hashlib
import re

# -- SHA-256 compression function, FIPS 180-4 constants -----------------------

_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_SHA256_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK32 = 0xFFFFFFFF


def _rotr(value: int, count: int) -> int:
    return ((value >> count) | (value << (32 - count))) & _MASK32


def sha256_pure(message: bytes) -> bytes:
    """Bit-for-bit SHA-256 without hashlib."""
    length = len(message)
    message = message + b"\x80"
    message += b"\x00" * ((56 - len(message) % 64) % 64)
    message += (length * 8).to_bytes(8, "big")

    state = list(_SHA256_H0)
    for block_start in range(0, len(message), 64):
        block = message[block_start : block_start + 64]
        w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = state
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + big_s1 + ch + _SHA256_K[t] + w[t]) & _MASK32
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (big_s0 + maj) & _MASK32
            h, g, f, e = g, f, e, (d + temp1) & _MASK32
            d, c, b, a = c, b, a, (temp1 + temp2) & _MASK32
        state = [(orig + new) & _MASK32 for orig, new in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(word.to_bytes(4, "big") for word in state)


def fingerprint_oracle(public_octets: bytes) -> bytes:
    """First 20 octets of SHA-256 over the given octets."""
    return sha256_pure(public_octets)[:20]


# -- Ed25519 public-key derivation, from the curve equations ------------------

_Q = 2**255 - 19
_D = (-121665 * pow(121666, _Q - 2, _Q)) % _Q
_I = pow(2, (_Q - 1) // 4, _Q)


def _inv(x: int) -> int:
    return pow(x, _Q - 2, _Q)


def _xrecover(y: int) -> int:
    xx = (y * y - 1) * _inv(_D * y * y + 1)
    x = pow(xx, (_Q + 3) // 8, _Q)
    if (x * x - xx) % _Q != 0:
        x = (x * _I) % _Q
    if x % 2 != 0:
        x = _Q - x
    return x


_BY = (4 * _inv(5)) % _Q
_BX = _xrecover(_BY)
# extended homogeneous coordinates (X, Y, Z, T): x = X/Z, y = Y/Z, x*y = T/Z
_BASE = (_BX, _BY, 1, _BX * _BY % _Q)
_NEUTRAL = (0, 1, 1, 0)


def _edwards_add(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Point addition in extended coordinates, RFC 8032 section 5.1.4: no
    inverse, which the affine formulas need twice per addition."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _Q
    b = (y1 + x1) * (y2 + x2) % _Q
    c = 2 * t1 * t2 * _D % _Q
    d = 2 * z1 * z2 % _Q
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _Q, g * h % _Q, f * g % _Q, e * h % _Q)


def _edwards_scalarmult(point: tuple[int, ...], scalar: int) -> tuple[int, ...]:
    result = _NEUTRAL
    addend = point
    while scalar:
        if scalar & 1:
            result = _edwards_add(result, addend)
        addend = _edwards_add(addend, addend)
        scalar >>= 1
    return result


def ed25519_public_from_seed(seed: bytes) -> bytes:
    """Derive the 32-octet public key from a 32-octet seed."""
    assert len(seed) == 32
    digest = hashlib.sha512(seed).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    x, y, z, _ = _edwards_scalarmult(_BASE, scalar)
    z_inv = _inv(z)
    x, y = x * z_inv % _Q, y * z_inv % _Q
    encoded = y | ((x & 1) << 255)
    return encoded.to_bytes(32, "little")


# -- X25519 public-key derivation via the Montgomery ladder -------------------

_A24 = 121665


def _x25519_ladder(scalar: int, u: int) -> int:
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (scalar >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % _Q
        aa = a * a % _Q
        b = (x2 - z2) % _Q
        bb = b * b % _Q
        e = (aa - bb) % _Q
        c = (x3 + z3) % _Q
        d = (x3 - z3) % _Q
        da = d * a % _Q
        cb = c * b % _Q
        x3 = (da + cb) % _Q
        x3 = x3 * x3 % _Q
        z3 = (da - cb) % _Q
        z3 = z3 * z3 % _Q
        z3 = z3 * x1 % _Q
        x2 = aa * bb % _Q
        z2 = e * (aa + _A24 * e) % _Q
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return x2 * pow(z2, _Q - 2, _Q) % _Q


def x25519_public_from_scalar(scalar32: bytes) -> bytes:
    """Derive the 32-octet public key; the scalar is clamped here."""
    assert len(scalar32) == 32
    clamped = bytearray(scalar32)
    clamped[0] &= 248
    clamped[31] &= 127
    clamped[31] |= 64
    scalar = int.from_bytes(bytes(clamped), "little")
    u = _x25519_ladder(scalar, 9)
    return u.to_bytes(32, "little")


# -- CRC-32C, bit by bit -------------------------------------------------------

_CRC32C_POLY_REFLECTED = 0x82F63B78


def crc32c_bitwise(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for octet in data:
        crc ^= octet
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC32C_POLY_REFLECTED
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


# -- manual ring-format builder ------------------------------------------------


def build_ring_bytes(
    key_type_tag: int,
    records: list[tuple[bytes, bytes, int, int]],
    *,
    magic: bytes = b"MKAR",
    version: int = 0x01,
    count: int | None = None,
    checksum: int | None = None,
    trailing: bytes = b"",
) -> bytes:
    """Assemble ring bytes directly from the format definition.

    ``records`` holds (handle_octets, fingerprint20, trust, method) in the
    order given - no sorting, so canonical-order violations can be built.
    ``count``/``checksum`` default to the true values but can be overridden
    to craft malformed input with a *valid* checksum.
    """
    body = bytearray()
    body += magic
    body.append(version)
    body.append(key_type_tag)
    body += (count if count is not None else len(records)).to_bytes(4, "big")
    for handle_octets, fingerprint, trust, method in records:
        body.append(len(handle_octets))
        body += handle_octets
        body += fingerprint
        body.append((trust << 4) | method)
    body += trailing
    crc = checksum if checksum is not None else crc32c_bitwise(bytes(body))
    return bytes(body) + crc.to_bytes(4, "big")


# -- canonical base64 columns of the attribute store, RFC 4648 section 3.5 ----

_B64 = "[A-Za-z0-9+/]"
# keyed by octet count mod 3: the last character before "==" or "=" carries
# 4 or 2 zero pad bits
_B64_LAST = {0: _B64, 1: "[AQgw]==", 2: "[AEIMQUYcgkosw048]="}


def _b64_chars(octets: int) -> int:
    return 4 * -(-octets // 3)


def _b64_lines(lasts, lead: str = "") -> re.Pattern:
    line = f"{lead}{_B64}*(?:{'|'.join(lasts)})"
    return re.compile(f"{line}(?:\n{line})*")


# column -> (pattern its values, joined by newlines, must match whole;
# lengths a value may have)
BASE64_COLUMNS = {
    attribute: (
        _b64_lines([_B64_LAST[octets % 3]]),
        range(_b64_chars(octets), _b64_chars(octets) + 1),
    )
    for attribute, octets in (
        ("ed25519_pub", 32), ("x25519_pub", 32), ("sig_x25519", 64), ("sig_rsa", 64)
    )
}
# an RSA component is minimal (no line starts with "A" then A-P, which
# decodes to a leading zero octet) and 1 to 0xFFFF octets
BASE64_COLUMNS["rsa_pub.n"] = BASE64_COLUMNS["rsa_pub.e"] = (
    _b64_lines(_B64_LAST.values(), lead="(?!A[A-P])"),
    range(4, _b64_chars(0xFFFF) + 1, 4),
)


def base64_column_ok(name: str, values: list[str]) -> bool:
    """Whether every value of the store column ``name`` is canonical base64
    of a size the column allows, each value matched whole."""
    pattern, lengths = BASE64_COLUMNS[name]
    joined = "\n".join(values)
    return (
        joined.count("\n") == len(values) - 1  # a newline would split a value
        and all(len(value) in lengths for value in values)
        and pattern.fullmatch(joined) is not None
    )
