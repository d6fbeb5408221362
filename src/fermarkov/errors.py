# src/fermarkov/errors.py

"""Exception hierarchy for the toolkit.

Every error carries enough context in its message to identify the violated
contract (which tolerance, which residual) without a debugger.
"""


class FermarkovError(Exception):
    """Base class for all toolkit errors."""


# --- spectral ---------------------------------------------------------------

class NotHermitian(FermarkovError):
    """Input matrix is not self-adjoint within tolerance."""


class SingularMatrix(FermarkovError):
    """Spectrum violates the positivity floor required by the matrix function."""


# --- CAR construction -------------------------------------------------------

class DimensionTooLarge(FermarkovError):
    """Requested site count exceeds the supported dense-matrix range."""


# --- subalgebra machinery ---------------------------------------------------

class DegenerateCenter(FermarkovError):
    """A random central element failed to separate the central blocks."""


class NotAnAlgebra(FermarkovError):
    """A computed subspace failed the *-algebra closure verification."""


# --- states and entropies ---------------------------------------------------

class NotFaithful(FermarkovError):
    """State density has an eigenvalue at or below the faithfulness floor."""


class SingularReference(FermarkovError):
    """Reference density in a relative entropy is not faithful."""


class SingularRestriction(FermarkovError):
    """Restricted density is not invertible on the subalgebra."""


# --- sufficiency ------------------------------------------------------------

class NotSufficient(FermarkovError):
    """Subalgebra is not sufficient for the given pair of states."""


class FlowUnstable(FermarkovError):
    """Subalgebra is not stable under the modular flow of the reference state."""


# --- Markov analysis --------------------------------------------------------

class NotSaturated(FermarkovError):
    """Entropy inequality is strict; the requested construction needs equality."""


class FactorizationFailed(FermarkovError):
    """Commuting-factor reconstruction exceeded its residual bounds."""


class NotEven(FermarkovError):
    """State is not parity invariant."""


class NotMarkov(FermarkovError):
    """State is not a Markov triplet for the given regions."""


class UnmatchedParityAction(FermarkovError):
    """Parity action on central projections could not be matched to a pairing."""


class BlockCertificationFailed(FermarkovError):
    """A block factor failed its membership certificate."""


# --- generators -------------------------------------------------------------

class RegionTooSmall(FermarkovError):
    """Middle region cannot host the requested number of central blocks."""


class CommutationFailed(FermarkovError):
    """Drawn factor pair does not commute within tolerance after retries."""


# --- CLI / files ------------------------------------------------------------

class ParseError(FermarkovError, ValueError):
    """State file or flag value could not be parsed."""


class NonFiniteNumber(FermarkovError):
    """A document holds NaN or an infinity, which JSON cannot represent."""


class InvariantViolation(FermarkovError):
    """A documented internal cross-check failed; indicates a bug or bad input."""
