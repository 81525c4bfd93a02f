"""Side-channel attacks from Haeberlen et al. (USENIX Security 2011).

Three adversarial analyst programs — state, privacy-budget and timing —
plus a harness that runs each against GUPT and against the PINQ-style
trust model, recording who leaks.  Two more batteries audit the
platform itself with an empirical-ε verifier: SVT variants, and a
hostile batch form run against every execution backend.  Table 1 of the paper is generated
from these outcomes rather than asserted by fiat.
"""

from repro.attacks.state_attack import (
    GlobalChannelProgram,
    InstanceStateProgram,
    read_global_channel,
    reset_global_channel,
)
from repro.attacks.budget_attack import budget_attack_against_gupt, budget_attack_against_pinq
from repro.attacks.timing_attack import StallOnTargetProgram, timing_attack_observable
from repro.attacks.batch_attack import BatchFormProgram
from repro.attacks.harness import (
    AttackOutcome,
    BackendAttackOutcome,
    SvtAttackOutcome,
    run_all_attacks,
    run_batch_form_attacks,
    run_svt_attacks,
)
from repro.attacks.svt_variants import (
    BudgetRefundSVT,
    NoQueryNoiseSVT,
    UnboundedPositivesSVT,
)

__all__ = [
    "AttackOutcome",
    "BackendAttackOutcome",
    "BatchFormProgram",
    "BudgetRefundSVT",
    "GlobalChannelProgram",
    "InstanceStateProgram",
    "NoQueryNoiseSVT",
    "StallOnTargetProgram",
    "SvtAttackOutcome",
    "UnboundedPositivesSVT",
    "budget_attack_against_gupt",
    "budget_attack_against_pinq",
    "read_global_channel",
    "reset_global_channel",
    "run_all_attacks",
    "run_batch_form_attacks",
    "run_svt_attacks",
    "timing_attack_observable",
]
