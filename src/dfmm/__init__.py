"""Dynamic-function market maker engine.

External-curve aggregation, accounting-asset ledger, rebalancing-premium
pricing, collateral vaults with digital swaptions, premium auctions,
treasury and reward accounting, and a deterministic agent-based
simulation harness.
"""

from .eldf import (
    AssetCurves,
    CurvePoint,
    Eldf,
    eval_eldf,
    fit_eldf,
    integrate_eldf,
    snapshot_to_curves,
    solve_volume_for_value,
)
from .ledger import AssetPool, BalanceSheet, solvency_check
from .pricing import (
    RebalanceParams,
    SwapQuote,
    execute_swap,
    premium_fn,
    quote_swap,
    rp_delta,
    solve_adjusted_notional,
)

__version__ = "0.1.0"
