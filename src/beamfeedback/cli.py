"""Command-line driver for model estimation, solving, evaluation, and sweeps.

Configuration is INI-style text with sections for the channel, the grid, the
rewards, the optional codebook, the trajectory, and the output prefix.  Every
run writes a resolved-config echo next to its outputs, and all randomness
derives from the configured seed, so re-running a command reproduces its
output files byte for byte.

Exit codes: 0 success, 1 usage, 2 configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .channel import FadingParams
from .codebook import codebook_to_json, epsilon_statistics, lloyd_codebook, random_codebook
from .mdp import (
    ConvergenceError,
    RewardSpec,
    SingularChainError,
    extract_threshold,
    policy_iteration_average,
    solve_result_to_json,
)
from .simulator import (
    Curve,
    CurvePoint,
    TrajectoryConfig,
    _streams,
    average_threshold,
    curve_to_csv,
    periodic_baseline,
    simulate_policy,
    sweep_alpha,
)
from .state_grid import estimate_transition_model, make_grid, model_to_json

__all__ = ["ExperimentConfig", "ConfigError", "UsageError", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("model", "solve", "evaluate", "sweep", "codebook", "reproduce-fig")
FIGURES = (3, 4, 5, 6, 7)

_DEFAULT_ALPHAS = tuple(round(0.2 * i, 10) for i in range(11))
_MAX_PERIOD = 32


class ConfigError(ValueError):
    """The configuration file is missing, unreadable, or inconsistent."""


class UsageError(ValueError):
    """The command line itself is malformed."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings, defaults applied."""

    L: int = 3
    doppler_slot: float = 0.1
    M: int = 16
    N: int = 16
    model_samples: int = 1_000_000
    P: float = 100.0
    alphas: tuple = _DEFAULT_ALPHAS
    codebook_method: str | None = None
    codebook_size: int = 16
    codebook_training: int = 100_000
    codebook_iterations: int = 50
    slots: int = 400_000
    warmup: int = 1000
    seed: int = 12345
    prefix: str = "run"

    def __post_init__(self):
        if self.L < 1 or self.M < 1 or self.N < 1:
            raise ConfigError("L, M and N must be positive")
        if self.doppler_slot < 0:
            raise ConfigError("doppler_slot must be nonnegative")
        if self.model_samples < 1 or self.slots < 1:
            raise ConfigError("sample and slot counts must be positive")
        if not self.P > 0:
            raise ConfigError("transmit SNR must be positive")
        if not self.alphas or any(a < 0 for a in self.alphas):
            raise ConfigError("alphas must be nonempty and nonnegative")
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ConfigError("alphas must be strictly increasing")
        if self.codebook_method not in (None, "lloyd", "random"):
            raise ConfigError("codebook method must be 'lloyd' or 'random'")
        if not 0 <= self.warmup < self.slots:
            raise ConfigError("warmup must be nonnegative and smaller than slots")

    @property
    def params(self) -> FadingParams:
        return FadingParams(L=self.L, doppler_slot=self.doppler_slot)

    @property
    def trajectory(self) -> TrajectoryConfig:
        return TrajectoryConfig(slots=self.slots, warmup=self.warmup, seed=self.seed)

    def rewards(self, alpha: float) -> RewardSpec:
        return RewardSpec(P=self.P, alpha=float(alpha))

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        cp["channel"] = {"L": str(self.L), "doppler_slot": repr(self.doppler_slot)}
        cp["grid"] = {"M": str(self.M), "N": str(self.N),
                      "samples": str(self.model_samples)}
        cp["rewards"] = {"P": repr(self.P),
                         "alpha": " ".join(repr(a) for a in self.alphas)}
        if self.codebook_method is not None:
            cp["codebook"] = {"method": self.codebook_method,
                              "size": str(self.codebook_size),
                              "training": str(self.codebook_training),
                              "iterations": str(self.codebook_iterations)}
        cp["trajectory"] = {"slots": str(self.slots), "warmup": str(self.warmup),
                            "seed": str(self.seed)}
        cp["output"] = {"prefix": self.prefix}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _parse_alphas(text: str):
    parts = text.replace(",", " ").split()
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad alpha list {text!r}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an INI experiment file."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    kw = {}
    try:
        if cp.has_section("channel"):
            sec = cp["channel"]
            if "l" in sec:
                kw["L"] = sec.getint("l")
            if "doppler_slot" in sec:
                kw["doppler_slot"] = sec.getfloat("doppler_slot")
        if cp.has_section("grid"):
            sec = cp["grid"]
            for key, name in (("m", "M"), ("n", "N")):
                if key in sec:
                    kw[name] = sec.getint(key)
            if "samples" in sec:
                kw["model_samples"] = sec.getint("samples")
        if cp.has_section("rewards"):
            sec = cp["rewards"]
            if "p" in sec and "snr_db" in sec:
                raise ConfigError("give the SNR as either P or snr_db, not both")
            if "p" in sec:
                kw["P"] = sec.getfloat("p")
            elif "snr_db" in sec:
                kw["P"] = RewardSpec.from_snr_db(sec.getfloat("snr_db"), alpha=0.0).P
            if "alpha" in sec:
                kw["alphas"] = _parse_alphas(sec["alpha"])
        if cp.has_section("codebook"):
            sec = cp["codebook"]
            kw["codebook_method"] = sec.get("method", "lloyd")
            if "size" in sec:
                kw["codebook_size"] = sec.getint("size")
            if "training" in sec:
                kw["codebook_training"] = sec.getint("training")
            if "iterations" in sec:
                kw["codebook_iterations"] = sec.getint("iterations")
        if cp.has_section("trajectory"):
            sec = cp["trajectory"]
            if "slots" in sec:
                kw["slots"] = sec.getint("slots")
            if "warmup" in sec:
                kw["warmup"] = sec.getint("warmup")
            if "seed" in sec:
                kw["seed"] = sec.getint("seed")
        if cp.has_section("output") and "prefix" in cp["output"]:
            kw["prefix"] = cp["output"]["prefix"]
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    return ExperimentConfig(**kw)


def _write_text(path: str, text: str):
    """Write atomically so failed runs leave no partial outputs."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str, text: str, quiet: bool):
    _write_text(path, text)
    if not quiet:
        print(f"wrote {path}")


def _build_codebook(cfg: ExperimentConfig):
    if cfg.codebook_method is None:
        return None
    rng = _streams(cfg.seed, 6)
    if cfg.codebook_method == "random":
        return random_codebook(cfg.L, cfg.codebook_size, rng)
    return lloyd_codebook(cfg.L, cfg.codebook_size, cfg.codebook_training,
                          cfg.codebook_iterations, rng)


def _build_model(cfg: ExperimentConfig, codebook):
    spec = make_grid(cfg.L, cfg.M, cfg.N, cfg.model_samples, _streams(cfg.seed, 4))
    model = estimate_transition_model(cfg.params, spec, cfg.model_samples,
                                      _streams(cfg.seed, 5), codebook=codebook)
    return spec, model


def _solve(cfg: ExperimentConfig, alpha: float):
    codebook = _build_codebook(cfg)
    spec, model = _build_model(cfg, codebook)
    eps = None
    if codebook is not None:
        eps = epsilon_statistics(codebook, cfg.L, cfg.P, spec.g_points,
                                 cfg.model_samples, _streams(cfg.seed, 7))
    result = policy_iteration_average(model, cfg.rewards(alpha), spec, eps=eps,
                                      quantized_row=codebook is not None)
    return spec, model, codebook, result


def _metadata(cfg: ExperimentConfig, extra=None) -> str:
    doc = {
        "L": cfg.L,
        "doppler_slot": cfg.doppler_slot,
        "M": cfg.M,
        "N": cfg.N,
        "model_samples": cfg.model_samples,
        "P": cfg.P,
        "alphas": list(cfg.alphas),
        "slots": cfg.slots,
        "warmup": cfg.warmup,
        "seed": cfg.seed,
        "codebook": None if cfg.codebook_method is None else {
            "method": cfg.codebook_method,
            "size": cfg.codebook_size,
            "training": cfg.codebook_training,
            "iterations": cfg.codebook_iterations,
        },
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2)


def _periodic_curve(cfg: ExperimentConfig) -> Curve:
    """Best-interval periodic baseline across the configured prices."""
    best = periodic_baseline(cfg.params, cfg.P, cfg.alphas, _MAX_PERIOD, cfg.trajectory)
    return Curve(points=tuple(
        CurvePoint(alpha=float(a), net=res.net, throughput=res.throughput,
                   feedback_rate=res.feedback_rate, avg_threshold=math.nan,
                   stderr=res.stderr)
        for a, (_, res) in zip(cfg.alphas, best)))


def _controlled_curve(cfg: ExperimentConfig) -> Curve:
    codebook = _build_codebook(cfg)
    spec = make_grid(cfg.L, cfg.M, cfg.N, cfg.model_samples, _streams(cfg.seed, 4))
    return sweep_alpha(list(cfg.alphas), spec, cfg.params, cfg.P,
                       cfg.trajectory, codebook=codebook,
                       model_samples=cfg.model_samples)


def _figure_curves(figure: int, cfg: ExperimentConfig):
    """Canned experiment list for one figure: [(label, Curve), ...]."""
    plain = dataclasses.replace(cfg, codebook_method=None)
    curves = []
    if figure in (3, 5):
        for dop in (0.1, 0.01):
            sub = dataclasses.replace(plain, doppler_slot=dop)
            curves.append((f"controlled_dop{dop}", _controlled_curve(sub)))
            curves.append((f"periodic_dop{dop}", _periodic_curve(sub)))
    elif figure == 4:
        for L in (3, 4):
            sub = dataclasses.replace(plain, L=L)
            curves.append((f"controlled_L{L}", _controlled_curve(sub)))
            curves.append((f"periodic_L{L}", _periodic_curve(sub)))
    else:  # 6 and 7: perfect against codebook-quantized feedback
        quant = dataclasses.replace(
            cfg, codebook_method=cfg.codebook_method or "lloyd")
        curves.append(("perfect", _controlled_curve(plain)))
        curves.append((f"quantized_{quant.codebook_size}",
                       _controlled_curve(quant)))
    return curves


def _combined_csv(curves) -> str:
    from .simulator import CSV_HEADER

    lines = ["curve," + CSV_HEADER]
    for label, curve in curves:
        for row in curve_to_csv(curve).strip().split("\n")[1:]:
            lines.append(f"{label},{row}")
    return "\n".join(lines) + "\n"


def _cmd_model(cfg, quiet):
    codebook = _build_codebook(cfg)
    spec, model = _build_model(cfg, codebook)
    _emit(f"{cfg.prefix}.model.json", model_to_json(spec, model), quiet)


def _cmd_codebook(cfg, quiet):
    codebook = _build_codebook(
        cfg if cfg.codebook_method is not None
        else dataclasses.replace(cfg, codebook_method="lloyd"))
    _emit(f"{cfg.prefix}.codebook.json", codebook_to_json(codebook), quiet)


def _cmd_solve(cfg, quiet):
    spec, _, _, result = _solve(cfg, cfg.alphas[0])
    _emit(f"{cfg.prefix}.solve.json", solve_result_to_json(result, spec), quiet)


def _cmd_evaluate(cfg, quiet):
    alpha = cfg.alphas[0]
    spec, _, codebook, result = _solve(cfg, alpha)
    measured = simulate_policy(result.policy, spec, cfg.params,
                               cfg.rewards(alpha), cfg.trajectory,
                               codebook=codebook)
    profile = extract_threshold(result.policy, spec)
    doc = {
        "alpha": alpha,
        "throughput": measured.throughput,
        "feedback_rate": measured.feedback_rate,
        "net": measured.net,
        "stderr": measured.stderr,
        "model_gain": result.J,
        "avg_threshold": average_threshold(profile, result.pi)
        if profile.is_threshold else None,
    }
    _emit(f"{cfg.prefix}.eval.json", json.dumps(doc, indent=2), quiet)


def _cmd_sweep(cfg, quiet):
    curve = _controlled_curve(cfg)
    _emit(f"{cfg.prefix}.sweep.csv", curve_to_csv(curve), quiet)
    _emit(f"{cfg.prefix}.sweep.meta.json", _metadata(cfg), quiet)


def _cmd_figure(cfg, figure, quiet):
    curves = _figure_curves(figure, cfg)
    stem = f"{cfg.prefix}.fig{figure}"
    for label, curve in curves:
        _emit(f"{stem}.{label}.csv", curve_to_csv(curve), quiet)
    _emit(f"{stem}.csv", _combined_csv(curves), quiet)
    _emit(f"{stem}.meta.json",
          _metadata(cfg, {"figure": figure,
                          "curves": [label for label, _ in curves]}), quiet)


def run(command: str, config_path: str | None = None, figure: int | None = None,
        seed: int | None = None, out_prefix: str | None = None,
        quiet: bool = False) -> int:
    """Execute one CLI command; returns the process exit status."""
    try:
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if command == "reproduce-fig":
            if figure is None:
                raise UsageError("reproduce-fig needs a figure number")
            if figure not in FIGURES:
                raise UsageError(f"figure must be one of {FIGURES}")
        elif figure is not None:
            raise UsageError(f"{command} takes no figure number")
        if config_path is None:
            if command != "reproduce-fig":
                raise UsageError(f"{command} needs --config")
            cfg = ExperimentConfig()
        else:
            cfg = load_config(config_path)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=int(seed))
        if out_prefix is not None:
            cfg = dataclasses.replace(cfg, prefix=out_prefix)

        if command == "model":
            _cmd_model(cfg, quiet)
            echo = f"{cfg.prefix}.model.config.ini"
        elif command == "codebook":
            _cmd_codebook(cfg, quiet)
            echo = f"{cfg.prefix}.codebook.config.ini"
        elif command == "solve":
            _cmd_solve(cfg, quiet)
            echo = f"{cfg.prefix}.solve.config.ini"
        elif command == "evaluate":
            _cmd_evaluate(cfg, quiet)
            echo = f"{cfg.prefix}.eval.config.ini"
        elif command == "sweep":
            _cmd_sweep(cfg, quiet)
            echo = f"{cfg.prefix}.sweep.config.ini"
        else:
            _cmd_figure(cfg, figure, quiet)
            echo = f"{cfg.prefix}.fig{figure}.config.ini"
        _emit(echo, cfg.to_ini(), quiet)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, SingularChainError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse problems to exit code 1
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="beamfeedback",
        description="Optimal event-driven CSI feedback control: estimate "
                    "channel models, solve feedback policies, and evaluate "
                    "them on simulated fading trajectories.",
        epilog="Config sections and keys (defaults in parentheses): "
               "[channel] L (3), doppler_slot (0.1); "
               "[grid] M (16), N (16), samples (1000000); "
               "[rewards] P (100) or snr_db, alpha list (0.0 .. 2.0); "
               "[codebook] method lloyd|random, size (16), training (100000), "
               "iterations (50) — section optional, enables quantized feedback; "
               "[trajectory] slots (400000), warmup (1000), seed (12345); "
               "[output] prefix (run). "
               "solve and evaluate use the first alpha; sweep uses the whole "
               "list.")
    parser.add_argument("command", choices=COMMANDS,
                        help="what to run; reproduce-fig also takes a figure "
                             "number 3-7")
    parser.add_argument("figure", nargs="?", type=int,
                        help="figure number for reproduce-fig")
    parser.add_argument("--config", help="experiment configuration file")
    parser.add_argument("--seed", type=int,
                        help="override the configured seed")
    parser.add_argument("--out", help="override the configured output prefix")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-file progress lines")
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(args.command, config_path=args.config, figure=args.figure,
               seed=args.seed, out_prefix=args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
