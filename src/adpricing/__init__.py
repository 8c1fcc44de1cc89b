"""adpricing: a simulation laboratory for ad-auction pricing models.

Implements the game between N advertisers and an ad platform under six
pricing models (CPM, CPC, CPA, OCPC, OCPM, CPSC), verifies the
theoretical bidding and reporting strategies by Monte-Carlo grid
search, estimates equilibrium payoffs, reproduces the outside-option
entry regions, and simulates the out-site conversion-reporting
collapse under CPA billing.
"""

__version__ = "0.1.0"

import os
import sys

# `import numpy` starts OpenBLAS with a worker thread per extra usable CPU,
# and each spin-waits for about 0.1 s of CPU. The program calls no BLAS
# routine (tests/test_sampling.py guards that), so the pool only spins:
# start it with one thread, unless the caller sized it or numpy is loaded.
if "numpy" not in sys.modules and not any(
    k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .distributions import Beta, Discrete, Distribution, Point, Uniform
from .model import (
    AdvertiserSpec,
    EventChain,
    Game,
    GameValidationError,
    PlatformBelief,
    PricingModel,
    Scenario,
    Strategy,
    in_site,
    out_site,
    pricing_model,
)
from .engine import (
    AuctionOutcome,
    run_auction,
    run_repeated,
    select_winner,
)
from .strategy import (
    best_response_scan,
    cpa_collapse,
    theoretical_play,
)
from .payoffs import (
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    payoff_ordering_suite,
)
from .equilibrium import (
    cpsc_comparison,
    entry_decision,
    sweep_outside_option,
)
from .config import ExperimentConfig, load_config
