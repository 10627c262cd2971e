"""Exception types shared across the library.

Names match the error contracts of the public operations; modules raise these
rather than bare ValueError so callers can branch on failure modes.
"""

from __future__ import annotations


class SecelError(Exception):
    """Base class for all library-specific failures."""


# ---- algebra ----------------------------------------------------------------

class InsufficientShares(SecelError):
    """Fewer than t points/shares were supplied to an interpolation."""


class DuplicatePoint(SecelError):
    """Two interpolation points share the same x coordinate."""


# ---- sharing ----------------------------------------------------------------

class ThresholdTooLarge(SecelError):
    """Requested threshold t exceeds the number of participants."""


class MissingStep1Share(SecelError):
    """Second dealing round started before every first-round share arrived."""


class MissingShare(SecelError):
    """A pairwise key or reconstruction referenced a share that was never received."""


# ---- masking / MAC ----------------------------------------------------------

class ZeroAuthKey(SecelError):
    """The per-round authentication key summed to zero; the round must be resampled."""


class LabelMismatch(SecelError):
    """Masked vectors of different lengths (so unmatched labels) were combined."""


# ---- group variant ----------------------------------------------------------

class NotFound(SecelError):
    """Baby-step giant-step found no exponent below the stated bound."""


# ---- protocol ---------------------------------------------------------------

class RevealTimeout(SecelError):
    """No candidate took the lead."""


class VerificationFailed(SecelError):
    """The aggregate failed the homomorphic MAC check."""


class RecoveryQuorumFailure(SecelError):
    """Fewer than t live share holders exist for a required reconstruction."""


class DecodeFailure(SecelError):
    """An unmasked sum element lies outside what the members' encodings can sum to."""


class RoundRejected(SecelError):
    """A full protocol round ended without a verified, decrypted aggregate."""


# ---- simulator --------------------------------------------------------------

class AuthFailure(SecelError):
    """Authenticated decryption of a channel frame failed."""


class ConfigError(SecelError):
    """A simulation or round configuration document is malformed."""
