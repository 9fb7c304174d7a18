"""Ring semantics (pinning, upgrades, conflicts) and the byte format.

Serialisation is held against a manual builder in ``oracles`` that encodes
the format definition directly, and the checksum against a bitwise CRC-32C
plus the published check value for "123456789".
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyauth import (
    AuthMethod,
    AuthRecord,
    AuthRing,
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    CompareResult,
    DuplicateHandleError,
    Fingerprint,
    FingerprintConflictError,
    IllegalMethodError,
    InvalidRingDataError,
    KeyType,
    ParameterError,
    TruncatedRingError,
    crc32c,
    method_legal_for,
)
from oracles import build_ring_bytes, crc32c_bitwise

# verified against the bitwise oracle and frozen: an empty chat ring
EMPTY_CHAT_RING_HEX = "4d4b4152010100000000b2da710a"

CRC32C_CHECK_VALUE = 0xE3069283  # published check value for b"123456789"


def fp(seed: int) -> Fingerprint:
    return Fingerprint(bytes([seed]) * 20)


def handles():
    return st.text(min_size=1, max_size=40).filter(
        lambda s: 1 <= len(s.encode("utf-8")) <= 255
    )


def fingerprints():
    return st.binary(min_size=20, max_size=20).map(Fingerprint)


def rings():
    @st.composite
    def build(draw):
        key_type = draw(st.sampled_from(list(KeyType)))
        legal = [m for m in AuthMethod if method_legal_for(key_type, m)]
        ring = AuthRing(key_type)
        for handle in draw(st.lists(handles(), max_size=8, unique=True)):
            ring.track(handle, draw(fingerprints()), draw(st.sampled_from(legal)))
        return ring

    return build()


class TestCrc32c:
    def test_check_value(self):
        assert crc32c(b"123456789") == CRC32C_CHECK_VALUE
        assert crc32c_bitwise(b"123456789") == CRC32C_CHECK_VALUE

    def test_empty(self):
        assert crc32c(b"") == 0

    @given(st.binary(max_size=400))
    def test_table_matches_bitwise(self, data):
        assert crc32c(data) == crc32c_bitwise(data)


class TestRingSemantics:
    def test_new_ring_is_empty(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        assert len(ring) == 0
        assert ring.get("bob") is None
        assert ring.compare("bob", fp(1)) is CompareResult.ABSENT

    def test_track_and_compare(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        record = ring.track("bob", fp(1), AuthMethod.SEEN)
        assert record == AuthRecord(fp(1), AuthMethod.SEEN, trust=0)
        assert ring.compare("bob", fp(1)) is CompareResult.MATCH
        assert ring.compare("bob", fp(2)) is CompareResult.MISMATCH
        assert ring.compare("carol", fp(1)) is CompareResult.ABSENT

    def test_method_upgrades_and_never_downgrades(self):
        ring = AuthRing(KeyType.CHAT_X25519)
        ring.track("bob", fp(1), AuthMethod.SEEN)
        upgraded = ring.track("bob", fp(1), AuthMethod.SIGNATURE_VERIFIED)
        assert upgraded.method is AuthMethod.SIGNATURE_VERIFIED
        again = ring.track("bob", fp(1), AuthMethod.SEEN)
        assert again.method is AuthMethod.SIGNATURE_VERIFIED

    def test_conflict_raises_and_preserves(self):
        ring = AuthRing(KeyType.CHAT_X25519)
        ring.track("bob", fp(1), AuthMethod.SIGNATURE_VERIFIED)
        with pytest.raises(FingerprintConflictError) as exc_info:
            ring.track("bob", fp(2), AuthMethod.SEEN)
        assert exc_info.value.tracked == fp(1)
        assert exc_info.value.offered == fp(2)
        assert ring.get("bob") == AuthRecord(fp(1), AuthMethod.SIGNATURE_VERIFIED)

    def test_reset_allows_new_fingerprint(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        ring.track("bob", fp(1), AuthMethod.FINGERPRINT_COMPARISON)
        ring.reset_record("bob")
        assert ring.get("bob") is None
        record = ring.track("bob", fp(2), AuthMethod.SEEN)
        assert record.fingerprint == fp(2)
        assert record.method is AuthMethod.SEEN

    def test_reset_unknown_is_noop(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        ring.reset_record("nobody")
        assert len(ring) == 0

    def test_method_legality_matrix(self):
        identity, chat, sharing = (
            KeyType.IDENTITY_ED25519,
            KeyType.CHAT_X25519,
            KeyType.SHARING_RSA,
        )
        assert method_legal_for(identity, AuthMethod.SEEN)
        assert method_legal_for(identity, AuthMethod.FINGERPRINT_COMPARISON)
        assert not method_legal_for(identity, AuthMethod.SIGNATURE_VERIFIED)
        for sub in (chat, sharing):
            assert method_legal_for(sub, AuthMethod.SEEN)
            assert method_legal_for(sub, AuthMethod.SIGNATURE_VERIFIED)
            assert not method_legal_for(sub, AuthMethod.FINGERPRINT_COMPARISON)

    def test_illegal_methods_rejected(self):
        ring = AuthRing(KeyType.CHAT_X25519)
        with pytest.raises(IllegalMethodError):
            ring.track("bob", fp(1), AuthMethod.FINGERPRINT_COMPARISON)
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        with pytest.raises(IllegalMethodError):
            ring.track("bob", fp(1), AuthMethod.SIGNATURE_VERIFIED)
        assert len(ring) == 0

    def test_handle_limits(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        with pytest.raises(ParameterError):
            ring.track("", fp(1), AuthMethod.SEEN)
        with pytest.raises(ParameterError):
            ring.track("x" * 256, fp(1), AuthMethod.SEEN)
        ring.track("x" * 255, fp(1), AuthMethod.SEEN)
        assert len(ring) == 1

    def test_multibyte_handle_length_counts_octets(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        handle = "é" * 128  # 256 octets in UTF-8
        with pytest.raises(ParameterError):
            ring.track(handle, fp(1), AuthMethod.SEEN)
        ring.track("€" * 85, fp(1), AuthMethod.SEEN)  # 255 octets
        assert len(ring) == 1

    def test_trust_nibble_range(self):
        AuthRecord(fp(1), AuthMethod.SEEN, trust=15)
        with pytest.raises(ParameterError):
            AuthRecord(fp(1), AuthMethod.SEEN, trust=16)
        with pytest.raises(ParameterError):
            AuthRecord(fp(1), AuthMethod.SEEN, trust=-1)


class TestSerialization:
    def test_empty_ring_frozen_bytes(self):
        ring = AuthRing(KeyType.CHAT_X25519)
        assert ring.to_bytes().hex() == EMPTY_CHAT_RING_HEX
        assert ring.to_bytes() == build_ring_bytes(0x01, [])

    def test_known_ring_matches_manual_encoding(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        ring.track("bob", fp(3), AuthMethod.SEEN)
        ring.track("alice", fp(4), AuthMethod.FINGERPRINT_COMPARISON)
        manual = build_ring_bytes(
            0x00,
            [
                (b"alice", fp(4).digest, 0, 2),
                (b"bob", fp(3).digest, 0, 0),
            ],
        )
        assert ring.to_bytes() == manual

    def test_round_trip_resets_nothing(self):
        ring = AuthRing(KeyType.SHARING_RSA)
        ring.track("bob", fp(1), AuthMethod.SIGNATURE_VERIFIED)
        restored = AuthRing.from_bytes(ring.to_bytes())
        assert restored == ring
        assert restored.get("bob").method is AuthMethod.SIGNATURE_VERIFIED

    @given(rings())
    def test_round_trip_property(self, ring):
        assert AuthRing.from_bytes(ring.to_bytes()) == ring

    @given(rings(), st.randoms())
    def test_insertion_order_is_irrelevant(self, ring, rnd):
        entries = ring.records()
        rnd.shuffle(entries)
        rebuilt = AuthRing(ring.key_type)
        for handle, record in entries:
            rebuilt.track(handle, record.fingerprint, record.method)
        assert rebuilt.to_bytes() == ring.to_bytes()

    @given(rings(), st.data())
    def test_any_single_bit_flip_is_a_checksum_error(self, ring, data):
        encoded = bytearray(ring.to_bytes())
        bit = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
        encoded[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ChecksumMismatchError):
            AuthRing.from_bytes(bytes(encoded))

    def test_records_sorted_by_handle_octets(self):
        ring = AuthRing(KeyType.IDENTITY_ED25519)
        for handle in ("m", "z", "a", "mm"):
            ring.track(handle, fp(1), AuthMethod.SEEN)
        assert [h for h, _ in ring.records()] == ["a", "m", "mm", "z"]


class TestParseErrors:
    """Structural errors require a valid checksum to be reachable, so each
    fixture is crafted with the manual builder (which recomputes it)."""

    def test_bad_magic(self):
        data = build_ring_bytes(0x01, [], magic=b"XKAR")
        with pytest.raises(BadMagicError):
            AuthRing.from_bytes(data)

    def test_bad_version(self):
        data = build_ring_bytes(0x01, [], version=0x02)
        with pytest.raises(BadVersionError):
            AuthRing.from_bytes(data)

    def test_too_short(self):
        with pytest.raises(TruncatedRingError):
            AuthRing.from_bytes(b"MKAR")

    def test_count_exceeds_records(self):
        data = build_ring_bytes(0x01, [(b"bob", bytes(20), 0, 0)], count=2)
        with pytest.raises(TruncatedRingError):
            AuthRing.from_bytes(data)

    def test_record_cut_mid_way(self):
        # count says 1 but the record bytes are shortened; checksum is
        # recomputed over the short body so truncation is what surfaces
        body = build_ring_bytes(0x01, [(b"bob", bytes(20), 0, 0)])[:-4]
        short = body[:-5]
        data = short + crc32c_bitwise(short).to_bytes(4, "big")
        with pytest.raises(TruncatedRingError):
            AuthRing.from_bytes(data)

    def test_checksum_mismatch_detected_first(self):
        data = bytearray(build_ring_bytes(0x01, [(b"bob", bytes(20), 0, 0)]))
        data[-1] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            AuthRing.from_bytes(bytes(data))

    def test_duplicate_handle(self):
        data = build_ring_bytes(
            0x01,
            [(b"bob", bytes(20), 0, 0), (b"bob", bytes([1]) * 20, 0, 1)],
        )
        with pytest.raises(DuplicateHandleError):
            AuthRing.from_bytes(data)

    def test_non_canonical_order(self):
        data = build_ring_bytes(
            0x01,
            [(b"zoe", bytes(20), 0, 0), (b"bob", bytes(20), 0, 0)],
        )
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)

    def test_unknown_key_type_tag(self):
        data = build_ring_bytes(0x07, [])
        with pytest.raises(InvalidRingDataError, match="^unknown key type tag 0x07$"):
            AuthRing.from_bytes(data)

    def test_unknown_method_nibble(self):
        data = build_ring_bytes(0x01, [(b"bob", bytes(20), 0, 0x7)])
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)

    def test_illegal_method_for_ring_type(self):
        # fingerprint-comparison inside a chat ring
        data = build_ring_bytes(0x01, [(b"bob", bytes(20), 0, 0x2)])
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)

    def test_trailing_data(self):
        data = build_ring_bytes(0x01, [], trailing=b"\x00")
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)

    def test_invalid_utf8_handle(self):
        data = build_ring_bytes(0x01, [(b"\xff\xfe", bytes(20), 0, 0)])
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)

    def test_empty_handle(self):
        data = build_ring_bytes(0x01, [(b"", bytes(20), 0, 0)])
        with pytest.raises(InvalidRingDataError):
            AuthRing.from_bytes(data)


class TestTrustOpacity:
    """The trust nibble must survive round trips and upgrades but never
    influence decisions. Two rings differing only in trust are driven
    through identical operations and must behave identically."""

    def _ring_with_trust(self, trust: int) -> AuthRing:
        data = build_ring_bytes(
            0x01,
            [
                (b"bob", fp(1).digest, trust, 0),
                (b"carol", fp(2).digest, trust, 1),
            ],
        )
        return AuthRing.from_bytes(data)

    @pytest.mark.parametrize("trust", [1, 7, 15])
    def test_decisions_identical(self, trust):
        plain = self._ring_with_trust(0)
        trusted = self._ring_with_trust(trust)
        for ring in (plain, trusted):
            assert ring.compare("bob", fp(1)) is CompareResult.MATCH
            assert ring.compare("bob", fp(2)) is CompareResult.MISMATCH
            assert ring.compare("dave", fp(1)) is CompareResult.ABSENT
            upgraded = ring.track("bob", fp(1), AuthMethod.SIGNATURE_VERIFIED)
            assert upgraded.method is AuthMethod.SIGNATURE_VERIFIED
            with pytest.raises(FingerprintConflictError):
                ring.track("carol", fp(9), AuthMethod.SEEN)
        # trust survived the upgrade untouched
        assert trusted.get("bob").trust == trust
        assert plain.get("bob").trust == 0

    def test_trust_survives_round_trip(self):
        ring = self._ring_with_trust(11)
        assert AuthRing.from_bytes(ring.to_bytes()).get("carol").trust == 11


class TestMonotonicity:
    """Randomized op sequences against a mirror model: the method never
    decreases and the fingerprint never changes without a reset."""

    @settings(deadline=None, max_examples=40)
    @given(
        key_type=st.sampled_from(list(KeyType)),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["track", "compare", "reset"]),
                st.sampled_from(["ann", "bob", "cat"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=60,
        ),
    )
    def test_against_mirror_model(self, key_type, ops):
        ring = AuthRing(key_type)
        model: dict[str, tuple[Fingerprint, AuthMethod]] = {}
        for op, handle, fp_seed, method_index in ops:
            fingerprint = fp(fp_seed)
            method = AuthMethod(method_index)
            if op == "reset":
                ring.reset_record(handle)
                model.pop(handle, None)
            elif op == "compare":
                result = ring.compare(handle, fingerprint)
                if handle not in model:
                    assert result is CompareResult.ABSENT
                elif model[handle][0] == fingerprint:
                    assert result is CompareResult.MATCH
                else:
                    assert result is CompareResult.MISMATCH
            else:
                if not method_legal_for(key_type, method):
                    with pytest.raises(IllegalMethodError):
                        ring.track(handle, fingerprint, method)
                    continue
                if handle in model and model[handle][0] != fingerprint:
                    with pytest.raises(FingerprintConflictError):
                        ring.track(handle, fingerprint, method)
                else:
                    before = model.get(handle)
                    record = ring.track(handle, fingerprint, method)
                    expected = (
                        method
                        if before is None
                        else max(before[1], method)
                    )
                    assert record.method == expected
                    if before is not None:
                        assert record.method >= before[1]
                        assert record.fingerprint == before[0]
                    model[handle] = (record.fingerprint, record.method)
            # ring and model always agree
            for tracked_handle, (tracked_fp, tracked_method) in model.items():
                record = ring.get(tracked_handle)
                assert record is not None
                assert record.fingerprint == tracked_fp
                assert record.method == tracked_method
            assert len(ring) == len(model)
