"""
Single-precision translation error
==================================

Runs the two-point estimator on the float32 rounding tables in both
rounding modes and shows how the resulting slope error epsilon_alpha turns
into a translation error psi(T) = epsilon_alpha * T + epsilon_beta that grows
linearly with the local timestamp.
"""

from synclab.estimators import TimestampPair, interpolate_params
from synclab.precision import (
    CHOP,
    MACHINE_EPS32,
    NEAREST,
    ROUNDED,
    PrecisionLoss,
    convert_timestamps,
    empirical_loss,
    psi_error,
)

# -- one anchored two-point estimate, fp64 vs fp32 in both modes -------------
# timestamps in 1 us ticks: anchor (0, 0), second pair ~17.9 min later with
# the child 127 ticks ahead; the child value is not representable in fp32
pairs = (TimestampPair(0.0, 0.0), TimestampPair(2.0**30 + 127.0, 2.0**30))


def interpolate_at(number, *arithmetic):
    """interpolate_params on the two pairs with every timestamp as
    ``number``, in ``arithmetic`` when one is given."""
    params = interpolate_params(*(convert_timestamps(p, number) for p in pairs), *arithmetic)
    return params.ratio, params.offset


print("interpolated (ratio, offset) from pairs (0, 0) and (2^30+127, 2^30):")
print("  fp64         :", interpolate_at(float))
for mode in (NEAREST, CHOP):
    print(f"  fp32 {mode:8s}:", interpolate_at(ROUNDED[mode].number, ROUNDED[mode]))

# -- the loss is affine in the local timestamp --------------------------------
for mode in (NEAREST, CHOP):
    loss = empirical_loss(interpolate_params, *pairs, mode=mode)
    print(
        f"\n{mode:7s}: eps_alpha = {loss.eps_alpha:+.3e} "
        f"({loss.eps_alpha / MACHINE_EPS32:+.4f} machine epsilons), "
        f"eps_beta = {loss.eps_beta:+.3e}"
    )
    print("  horizon      psi (us)")
    for horizon_s in (1, 10, 60, 600):
        psi = psi_error(loss, horizon_s * 1e6)  # 1 us ticks
        print(f"  {horizon_s:4d} s    {psi:+11.6f}")

# -- worst case: a full machine epsilon on the slope ---------------------------
worst = PrecisionLoss(eps_alpha=-MACHINE_EPS32, eps_beta=0.0)
print("\nworst-case slope loss (one machine epsilon, 2^-23):")
print("  |psi| at  1 s:", f"{abs(psi_error(worst, 1e6)):.4f} us")
print("  |psi| at 10 s:", f"{abs(psi_error(worst, 1e7)):.4f} us")

print(
    "\ntakeaway: single-precision estimation silently costs about 0.1 us per"
    "\nsecond of local time -- microsecond-level sync needs fp64 (or frequent"
    "\nre-anchoring), not a better estimator."
)
