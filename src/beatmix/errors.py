"""Exception taxonomy shared by every beatmix module.

Errors that name a broken input contract are ``InputError``s, so the
command-line layer can map them to exit code 1; everything else is treated
as an internal failure (exit code 2). ``main`` prints only the message, so
a subclass exists only where its name is output: ``analyze`` records a
failed track as ``analysis_error = "<class>: <message>"``, and the classes
below are those its per-track work can raise. Every other fault is a plain
``InputError`` whose message names the file or flag at fault.
"""


class InputError(Exception):
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


# --- JSON and binary files ------------------------------------------------

class SchemaError(InputError):
    """File does not follow the documented layout."""
