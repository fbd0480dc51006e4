"""Solve one feedback-control problem and inspect the threshold policy.

Estimates a finite-state model of the fading channel, runs average-reward
policy iteration at a chosen feedback price, prints the per-power feedback
thresholds next to their closed-form lower bounds, and cross-checks the
model-predicted gain against a simulated trajectory.
"""

import argparse

import numpy as np

from beamfeedback import (
    FadingParams,
    RewardSpec,
    Run,
    TrajectoryConfig,
    estimate_transition_model,
    make_grid,
    policy_iteration_average,
    simulate_policy,
    threshold_lower_bound,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--antennas", type=int, default=3)
    parser.add_argument("--doppler", type=float, default=0.1,
                        help="normalized Doppler per slot")
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="price charged per feedback slot, bit/s/Hz")
    parser.add_argument("--bins", type=int, default=8,
                        help="power and alignment bins per axis")
    parser.add_argument("--samples", type=int, default=300_000,
                        help="Monte Carlo budget for the transition model")
    parser.add_argument("--slots", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    params = FadingParams(L=args.antennas, doppler_slot=args.doppler)
    rewards = RewardSpec(P=10.0 ** (args.snr_db / 10.0), alpha=args.alpha)
    rng = np.random.default_rng(args.seed)

    spec = make_grid(args.antennas, args.bins, args.bins)
    model = estimate_transition_model(params, spec, args.samples, rng)
    result = policy_iteration_average(model, rewards, spec)

    print(f"L={args.antennas}, doppler={args.doppler}, "
          f"P={rewards.P:.1f}, alpha={args.alpha}")
    print(f"policy iteration converged in {result.iterations} rounds, "
          f"model gain J = {result.J:.4f} bit/s/Hz")
    print(f"{'power bin':>10} {'threshold':>10} {'lower bound':>12}")
    for g, y in zip(spec.g_points, result.policy.y):
        bound = threshold_lower_bound(g, rewards.P, args.alpha)
        print(f"{g:10.3f} {y:10.3f} {bound:12.3f}")

    run = Run(params, TrajectoryConfig(slots=args.slots, warmup=1000, seed=args.seed), spec)
    measured = simulate_policy(result.policy, run, rewards)
    print(f"simulated net {measured.net:.4f} +/- {measured.stderr:.4f} "
          f"(throughput {measured.throughput:.4f}, "
          f"feedback rate {measured.feedback_rate:.3f})")


if __name__ == "__main__":
    main()
