"""Exception taxonomy shared by every beatmix module.

Errors that name a broken input contract derive from ``InputError`` so the
command-line layer can map them to exit code 1; everything else is treated
as an internal failure (exit code 2).
"""


class BeatmixError(Exception):
    """Base class for all beatmix errors."""


class InputError(BeatmixError):
    """A caller-supplied file or argument violates its contract."""


# --- audio file I/O -------------------------------------------------------

class UnsupportedFormat(InputError):
    """Not a RIFF/WAVE file, or a codec/bit depth we do not read."""


class CorruptFile(InputError):
    """Structurally broken file (truncated chunks, bad sizes)."""


# --- spectrogram ----------------------------------------------------------

class TooShort(InputError):
    """Signal shorter than one analysis window."""


# --- beat analysis --------------------------------------------------------

class NoOnsets(InputError):
    """Onset envelope carries no energy (e.g. silence)."""


class TooFewBeats(InputError):
    """Downbeat inference needs at least four beats."""


class InvariantViolation(InputError):
    """A loaded annotation breaks a BeatGrid invariant."""


# --- mixup ----------------------------------------------------------------

class LengthMismatch(InputError):
    """Audio clips of unequal length cannot be mixed."""


class ShapeMismatch(InputError):
    """Tensor shapes disagree with each other or with the codec."""


class NoEligibleDownbeat(InputError):
    """No downbeat leaves enough audio after it for a full clip."""


# --- latent codec ---------------------------------------------------------

class InsufficientData(InputError):
    """Too few patches to fit the requested number of components."""


class NonDivisibleShape(InputError):
    """Mel dimensions are not divisible by the patch size."""


class CodecMismatch(InputError):
    """Latent tensor was produced by a different codec."""


class HashMismatch(InputError):
    """Stored content hash does not match the payload (tampered file)."""


# --- embedding gateway ----------------------------------------------------

class SchemaError(InputError):
    """File or response does not follow the documented layout."""


class DimMismatch(InputError):
    """Vector dimensionality disagrees with the declared dimension."""


class DuplicateId(InputError):
    """Two records in one set share an id."""


class ZeroNorm(InputError):
    """Cannot normalize a zero vector."""


class NotAProbability(InputError):
    """Posterior row is negative or does not sum close to one."""


class Timeout(BeatmixError):
    """Embedding service did not answer within the configured budget."""


class BadStatus(BeatmixError):
    """Embedding service answered with a non-success HTTP status."""


# --- metrics --------------------------------------------------------------

class EmptySet(InputError):
    """Metric requires a non-empty input set."""


class InconsistentK(InputError):
    """Posteriors in one set have differing class counts."""


class MissingPartner(InputError):
    """Paired metric input lacks the groundtruth partner for an id."""


# --- pipeline -------------------------------------------------------------

class EmptyCorpus(InputError):
    """Ingest found no audio files."""


class DuplicateBasename(InputError):
    """Two corpus files would collide on the same track id."""


class MissingPrerequisite(InputError):
    """A pipeline stage ran before the stage it depends on."""
