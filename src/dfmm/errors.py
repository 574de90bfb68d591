"""Exception taxonomy for the engine.

The errors that engine modules raise on bad input or state derive from
EngineError, so callers (and the CLI) can tell engine failures from
programming errors. Three checks raise ValueError instead, as they
catch a caller's mistake that no scenario input can reach:
``pricing.RebalanceParams`` rejects a negative aggressiveness or cover
coefficient, ``eldf.Eldf`` an unknown extrapolation mode, and
``ledger.BalanceSheet._apply`` an unknown row kind.
InvariantBreach is reserved for fail-stop conditions: the run halts and
logs are preserved.
"""


class EngineError(Exception):
    pass


# --- curve construction / evaluation ---

class TooFewPoints(EngineError):
    pass


class NonMonotoneVolumes(EngineError):
    pass


class NonPositiveDensity(EngineError):
    pass


class OutOfDomain(EngineError):
    pass


class ReversedInterval(EngineError):
    pass


class NoFeasibleRoot(EngineError):
    pass


class SolverDivergence(EngineError):
    pass


# --- ledger ---

class NonPositiveAmount(EngineError):
    pass


class NonFiniteAmount(EngineError):
    """An amount that is infinite, NaN or too large for integer ledger units."""


# --- pricing ---

class NoFeasibleSolution(EngineError):
    pass


class ExceedsCapacity(EngineError):
    pass


class InsufficientInventory(EngineError):
    pass


# --- vaults ---

class BadParams(EngineError):
    pass


class ZeroPrevValue(EngineError):
    pass


# --- treasury ---

class BadRates(EngineError):
    pass


class NegativeReserveInvariantBreach(EngineError):
    """Treasury balance went negative: the auction cap logic is broken."""


# --- metrics ---

class NonPositivePrice(EngineError):
    pass


# --- simulation / cli ---

class ConfigInvalid(EngineError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(EngineError):
    pass


class UnknownLogKind(EngineError):
    pass


class CorruptManifest(EngineError):
    pass


class InvariantBreach(EngineError):
    """Fatal fail-stop: engine state violated a hard invariant."""
