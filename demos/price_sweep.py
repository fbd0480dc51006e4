"""Sweep the feedback price and compare against the best periodic schedule.

Event-driven feedback asks for channel state only when the transmit beam has
drifted far enough to be worth the price; periodic feedback refreshes on a
fixed clock.  This script sweeps the price, prints the controlled policy's
operating point at each value, and shows what the best fixed interval would
have achieved on the same channel trajectory.
"""

import argparse

from beamfeedback import (
    FadingParams,
    Run,
    TrajectoryConfig,
    make_grid,
    periodic_baseline,
    sweep_alpha,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--antennas", type=int, default=3)
    parser.add_argument("--doppler", type=float, default=0.1)
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--bins", type=int, default=8)
    parser.add_argument("--samples", type=int, default=300_000)
    parser.add_argument("--slots", type=int, default=300_000)
    parser.add_argument("--max-period", type=int, default=32)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    params = FadingParams(L=args.antennas, doppler_slot=args.doppler)
    P = 10.0 ** (args.snr_db / 10.0)
    spec = make_grid(args.antennas, args.bins, args.bins)
    # one simulated channel for both schedules: common random numbers
    run = Run(params, TrajectoryConfig(slots=args.slots, warmup=1000, seed=args.seed), spec)

    curve = sweep_alpha(args.alphas, run, P, model_samples=args.samples)

    print(f"{'alpha':>6} {'ctrl net':>9} {'fb rate':>8} {'thresh':>7} "
          f"{'periodic net':>13} {'interval':>9} {'gap':>7}")
    fixed_curve = periodic_baseline(run, P, args.alphas, args.max_period)
    for point, (period, fixed) in zip(curve, fixed_curve):
        gap = point.net - fixed.net
        print(f"{point.alpha:6.2f} {point.net:9.4f} {point.feedback_rate:8.3f} "
              f"{point.avg_threshold:7.3f} {fixed.net:13.4f} {period:9d} "
              f"{gap:7.4f}")
    print("gap = controlled net minus the best fixed-interval net on the "
          "same trajectory")


if __name__ == "__main__":
    main()
