"""Dynamic-function market maker engine.

External-curve aggregation, accounting-asset ledger, rebalancing-premium
pricing, collateral vaults with swaptions, premium auctions,
treasury and reward accounting, and a deterministic agent-based
simulation harness.
"""

__version__ = "0.1.0"
