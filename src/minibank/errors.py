"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """A scenario configuration is invalid; the message names the offending key."""


class ConsistencyError(SimulationError):
    """A settlement left a balance the model forbids: a negative customer
    cash deposit, negative loan deposits before or after wire netting, or a
    guarantee that does not close the reserve gap."""


class LedgerError(SimulationError):
    """The interbank loan ledger no longer matches the balance sheets."""


class IdentityError(SimulationError):
    """A balance-sheet accounting identity broke beyond tolerance."""
