"""Exception taxonomy: one class per reason a run rejects a trade, halts
or refuses its input.

Every ``raise`` in the package raises an EngineError subclass, except
the OSError of a lost log writer and argparse's type error, so callers
(and the CLI) can tell engine failures from programming errors. In a run,
where an error is raised decides what it does: a quote that raises
rejects its trade, the arbitrageur skips a move it cannot size, and any
other engine error halts the run fail-stop with a diagnostic naming the
class and the timestep, the logs kept.

=====================  ===================================================
class                  reason
=====================  ===================================================
BadCurve               the points or fit give no usable density curve:
                       fewer than 3 points, volumes that are negative or
                       not increasing, a price or density that is not
                       positive and finite, an empty domain, a singular fit
OutOfDomain            a volume past a curve's fit domain with
                       extrapolation off, including a value the book
                       cannot source
NoFeasibleSolution     a solver finds no root that meets its residual
                       test, or a quote does not balance
BadParams              a caller passes an argument outside its range
NonFiniteAmount        an amount that is infinite, NaN or too large for
                       ledger units, or an external mid that overflows or
                       underflows to 0
InsufficientInventory  the out-pool holds less than a quote delivers
ExceedsCapacity        a trade would take open inventory past its vault's
                       capacity
ZeroPrevValue          a swaption whose notional was struck at a value
                       of zero or less
InvariantBreach        a fail-stop invariant broke: the conservation
                       audit, or a negative treasury balance
ConfigInvalid          a scenario breaks its validation rules
ParseError             a scenario file, sweep grid or snapshot record
                       does not parse
BadRunDir              a run directory's manifest or log files cannot be
                       read, or an unknown log kind is asked for
=====================  ===================================================
"""


class EngineError(Exception):
    pass


class BadCurve(EngineError):
    pass


class OutOfDomain(EngineError):
    pass


class NoFeasibleSolution(EngineError):
    pass


class BadParams(EngineError):
    pass


class NonFiniteAmount(EngineError):
    pass


class InsufficientInventory(EngineError):
    pass


class ExceedsCapacity(EngineError):
    pass


class ZeroPrevValue(EngineError):
    pass


class InvariantBreach(EngineError):
    pass


class ConfigInvalid(EngineError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(EngineError):
    pass


class BadRunDir(EngineError):
    pass
