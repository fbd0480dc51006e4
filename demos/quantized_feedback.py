"""Measure what finite-rate feedback costs relative to perfect feedback.

Trains a Lloyd codebook for the channel shape, reports its alignment-loss
statistics against a random codebook of the same size, and compares the net
throughput of the quantized-feedback controller with the perfect-feedback
controller at a few prices on common random numbers.
"""

import argparse
import dataclasses
import math

import numpy as np

from beamfeedback import (
    FadingParams,
    Run,
    TrajectoryConfig,
    epsilon_statistics,
    lloyd_codebook,
    make_grid,
    price_increment_bound,
    quantization_errors,
    random_codebook,
    sweep_alpha,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--antennas", type=int, default=3)
    parser.add_argument("--doppler", type=float, default=0.1)
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--codebook-size", type=int, default=16)
    parser.add_argument("--training", type=int, default=100_000)
    parser.add_argument("--bins", type=int, default=8)
    parser.add_argument("--samples", type=int, default=300_000)
    parser.add_argument("--slots", type=int, default=300_000)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.0, 0.5, 1.0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    L = args.antennas
    P = 10.0 ** (args.snr_db / 10.0)
    params = FadingParams(L=L, doppler_slot=args.doppler)
    spec = make_grid(L, args.bins, args.bins)
    rng = np.random.default_rng(args.seed)

    trained = lloyd_codebook(L, args.codebook_size, args.training, 50, rng)
    untrained = random_codebook(L, args.codebook_size, rng)
    for label, book in (("lloyd", trained), ("random", untrained)):
        moments = epsilon_statistics(quantization_errors(book, 200_000, rng), P, spec.g_points)
        print(f"{label:>6} codebook: mean alignment {moments.mean_eps:.4f}, "
              f"rate cost {-moments.mean_log2_eps:.4f} bit/s/Hz "
              f"(bound {price_increment_bound(L, args.codebook_size):.4f})")

    # one simulated channel for both curves, the second with the codebook
    run = Run(params, TrajectoryConfig(slots=args.slots, warmup=1000, seed=args.seed), spec)
    perfect = sweep_alpha(args.alphas, run, P, model_samples=args.samples)
    quantized = sweep_alpha(args.alphas, dataclasses.replace(run, codebook=trained), P,
                            model_samples=args.samples)

    print(f"{'alpha':>6} {'perfect net':>12} {'quantized net':>14} "
          f"{'loss':>7} {'3 sigma':>8}")
    for exact, lossy in zip(perfect, quantized):
        sigma = math.hypot(exact.stderr, lossy.stderr)
        print(f"{exact.alpha:6.2f} {exact.net:12.4f} {lossy.net:14.4f} "
              f"{exact.net - lossy.net:7.4f} {3 * sigma:8.4f}")
    print(f"quantized threshold at zero price: "
          f"{quantized[0].avg_threshold:.3f} (< 1: feedback is no "
          f"longer worth taking on every slot)")


if __name__ == "__main__":
    main()
