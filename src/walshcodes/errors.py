"""Exception hierarchy shared by all modules.

Every failure mode callers are expected to handle gets its own class so
that tests and the CLI can match on the exact condition instead of
string-parsing messages.
"""


class WalshCodesError(Exception):
    pass


class InvariantViolated(WalshCodesError):
    """An exact identity the mathematics guarantees did not hold (Parseval,
    a bent coefficient off its Gauss-sum form, a trace outside its
    subfield, Frobenius-power duals that disagree).  Raised explicitly, so
    the check survives ``python -O``."""


# --- field construction ----------------------------------------------------

class NotPrime(WalshCodesError):
    pass


class ReducibleModulus(WalshCodesError):
    pass


class DegreeMismatch(WalshCodesError):
    pass


class NotASubfield(WalshCodesError):
    pass


class EvenCharacteristic(WalshCodesError):
    pass


class OddCharacteristic(WalshCodesError):
    pass


class FieldTooLarge(WalshCodesError):
    pass


# --- function parsing / classification -------------------------------------

class ParseError(WalshCodesError):
    pass


class UndefinedSymbol(ParseError):
    pass


class ExponentOverflow(ParseError):
    pass


class WrongCodomain(WalshCodesError):
    pass


class NotWeaklyRegular(WalshCodesError):
    pass


class NotBent(WalshCodesError):
    pass


# --- linear codes -----------------------------------------------------------

class RaggedRows(WalshCodesError):
    pass


class EmptyLength(WalshCodesError):
    pass


class TooLarge(WalshCodesError):
    pass


class ZeroCode(WalshCodesError):
    pass


# --- defining-set generators -------------------------------------------------

class BadDegree(WalshCodesError):
    pass


class BadParameters(WalshCodesError):
    pass


class MinusOneNotSquare(WalshCodesError):
    pass


class BadAlpha(WalshCodesError):
    pass


class BadBeta(WalshCodesError):
    pass


class BadL(WalshCodesError):
    pass


class NotIndependent(WalshCodesError):
    pass


class OddK(WalshCodesError):
    pass


class NeedDistinctAlphas(WalshCodesError):
    pass


class AlphaZero(WalshCodesError):
    pass


class EmptySet(WalshCodesError):
    pass


class DimensionTooLarge(WalshCodesError):
    pass


class CannotFrontLoad(WalshCodesError):
    pass


# --- conditions / weight formulas --------------------------------------------

class NonIntegerSum(WalshCodesError):
    """Internal consistency failure: an exact character sum did not
    canonicalize to a rational integer with the required divisibility."""


class HypothesisFailed(WalshCodesError):
    pass


class AlphaOutsidePrimeField(WalshCodesError):
    pass


class AffineFunction(WalshCodesError):
    pass


class EvenCharacteristicOnly(WalshCodesError):
    pass


class NotInDual(WalshCodesError):
    pass


class NotPN(WalshCodesError):
    pass
