"""Core contribution of the paper: incentive accounting and fairness.

This subpackage contains the SWAP accounting protocol (with its
time-based amortization), request pricing, cheque settlement, payment
policies, the assembled :class:`~repro.core.incentives.SwapIncentives`
mechanism, and the F1/F2 fairness metrics built on the Gini
coefficient.

The public names load on first use, so reading the fairness metrics
does not import the SWAP accounting, pricing or settlement modules.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fairness": ["FairnessReport", "LorenzCurve", "evaluate_fairness",
                 "f1_values", "f2_values", "gini", "lorenz_curve"],
    "incentives": ["SwapIncentives"],
    "overhead": ["OverheadModel", "OverheadReport", "overhead_report"],
    "policies": ["AllHopsPolicy", "NoPaymentPolicy", "Payment",
                 "PaymentPolicy", "ZeroProximityPolicy", "make_policy"],
    "pricing": ["FlatPricing", "PricingStrategy", "ProximityStepPricing",
                "XorDistancePricing", "make_pricing"],
    "settlement": ["Cheque", "Chequebook", "SettlementService",
                   "SettlementStats"],
    "swap": ["SwapChannel", "SwapLedger", "SwapThresholds"],
})
