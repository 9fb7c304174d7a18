"""Hierarchical key authentication with pin-on-first-sight.

A long-term Ed25519 identity key is pinned per contact on first sight and
attests the X25519 chat and RSA-2048 sharing sub-keys, so a single
out-of-band fingerprint comparison authenticates all of a contact's keys.
Per-key-type authentication rings remember the pinned fingerprint and the
strongest method applied; a simulated attribute store with adversary hooks
makes tampering observable end to end.
"""

from types import ModuleType as _ModuleType

from .authring import (
    AuthMethod,
    AuthRecord,
    AuthRing,
    CompareResult,
    crc32c,
    method_legal_for,
)
from .errors import (
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    ComparisonFailedError,
    DuplicateHandleError,
    FingerprintConflictError,
    FingerprintMismatchError,
    IllegalMethodError,
    InitError,
    InvalidRingDataError,
    KeyAuthError,
    KeyChangedWarningError,
    KeyGenerationError,
    MalformedKeyError,
    MissingKeyError,
    MissingRecordError,
    ParameterError,
    PublishError,
    RingParseError,
    SignatureInvalidError,
    StoreUnavailableError,
    TruncatedRingError,
)
from .keys import (
    ChatKeyPair,
    Fingerprint,
    IdentityKeyPair,
    KeySignature,
    KeyType,
    SharingKeyPair,
    canonical_payload,
    check_keypair_consistency,
    clamp_x25519_scalar,
    derive_ed25519_public,
    derive_x25519_public,
    fingerprint_ec,
    fingerprint_rsa,
    frame_rsa_public,
    generate_chat_keypair,
    generate_identity_keypair,
    generate_sharing_keypair,
    sign_public_key,
    unframe_rsa_public,
    verify_key_signature,
)
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioReport,
    run_scenario,
    run_scenario_batch,
)
from .store import (
    AttributeStore,
    StoreStats,
)
from .workflow import (
    LoadedKey,
    OwnKeyMaterial,
    RepairAction,
    Session,
    init_own_keys,
)

__version__ = "0.1.0"

# every public name imported above, in order; the submodules they bind are not API
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
