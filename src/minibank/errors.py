"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """A scenario configuration is invalid; the message names the offending key."""


class LedgerError(SimulationError):
    """The interbank loan ledger no longer matches the balance sheets."""


class IdentityError(SimulationError):
    """An accounting rule broke: a balance-sheet identity or customer-book
    sum, currency conservation, non-negative customer cash and bank loan
    deposits, the wire-netting tolerance, the guarantee cross-check, or a
    replayed cash path that does not fit the run."""
