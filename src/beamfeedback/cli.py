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
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .channel import FadingParams
from .codebook import codebook_to_json, lloyd_codebook, random_codebook
from .mdp import NumericalError, RewardSpec, solve_result_to_json
from .simulator import (
    _CODEBOOK_STREAM,
    CSV_HEADER,
    Run,
    TrajectoryConfig,
    _design,
    _measure_curve,
    _streams,
    curve_to_csv,
    periodic_baseline,
    simulate_policy,
    sweep_alpha,
)
from .state_grid import make_grid, model_to_json

__all__ = ["ExperimentConfig", "ConfigError", "UsageError", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

FIGURES = (3, 4, 5, 6, 7)

_DEFAULT_ALPHAS = tuple(round(0.2 * i, 10) for i in range(11))
_MAX_PERIOD = 32


class ConfigError(ValueError):
    """The configuration file is missing, unreadable, or inconsistent."""


class UsageError(ValueError):
    """The command line itself is malformed."""


def _text(value) -> str:
    """A config value as the INI text that parses back to it."""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parse_alphas(text: str):
    parts = text.replace(",", " ").split()
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad alpha list {text!r}") from exc


def _key(section: str, name: str, default, parse: Callable[[str], object] = int, aliases=()):
    """A config field's default and its INI key: [section] name, read by parse."""
    return dataclasses.field(default=default, metadata=dict(
        section=section, name=name, parse=parse, aliases=aliases))


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings, defaults applied; each field declares its key."""

    L: int = _key("channel", "L", 3)
    doppler_slot: float = _key("channel", "doppler_slot", 0.1, float)
    M: int = _key("grid", "M", 16)
    N: int = _key("grid", "N", 16)
    model_samples: int = _key("grid", "samples", 1_000_000)
    P: float = _key("rewards", "P", 100.0, float,
                    aliases=(("snr_db", lambda text: 10.0 ** (float(text) / 10.0)),))
    alphas: tuple = _key("rewards", "alpha", _DEFAULT_ALPHAS, _parse_alphas)
    codebook_method: str | None = _key("codebook", "method", None, str)
    codebook_size: int = _key("codebook", "size", 16)
    codebook_training: int = _key("codebook", "training", 100_000)
    codebook_iterations: int = _key("codebook", "iterations", 50)
    slots: int = _key("trajectory", "slots", 400_000)
    warmup: int = _key("trajectory", "warmup", 1000)
    seed: int = _key("trajectory", "seed", 12345)
    prefix: str = _key("output", "prefix", "run", str)

    def __post_init__(self):
        if self.model_samples < 1:
            raise ConfigError("model sample count must be positive")
        if not self.alphas:
            raise ConfigError("alphas must be nonempty")
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ConfigError("alphas must be strictly increasing")
        if self.codebook_method not in (None, "lloyd", "random"):
            raise ConfigError("codebook method must be 'lloyd' or 'random'")
        if self.codebook_size < 1 or self.codebook_iterations < 1:
            raise ConfigError("codebook size and iterations must be positive")
        if self.codebook_training < self.codebook_size:
            raise ConfigError("codebook training set must be at least the codebook size")
        try:  # building the library's own types checks every other setting
            self.params, self.trajectory, *map(self.rewards, self.alphas)
            make_grid(self.L, self.M, self.N)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def params(self) -> FadingParams:
        return FadingParams(L=self.L, doppler_slot=self.doppler_slot)

    @property
    def trajectory(self) -> TrajectoryConfig:
        return TrajectoryConfig(slots=self.slots, warmup=self.warmup, seed=self.seed)

    def rewards(self, alpha: float) -> RewardSpec:
        return RewardSpec(P=self.P, alpha=float(alpha))

    def quantized(self) -> ExperimentConfig:
        """These settings with a codebook: Lloyd-trained unless a method is set."""
        return dataclasses.replace(self, codebook_method=self.codebook_method or "lloyd")

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        for key in _SCHEMA:
            if key.section == "codebook" and self.codebook_method is None:
                continue
            if not cp.has_section(key.section):
                cp.add_section(key.section)
            cp.set(key.section, key.name, _text(getattr(self, key.field)))
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


class _Key(NamedTuple):
    """One config key as its ExperimentConfig field declares it through _key."""

    section: str
    name: str
    field: str
    parse: Callable[[str], object]
    aliases: tuple  # (name, parse) of each other spelling of the value

    @property
    def spellings(self) -> str:
        return " or ".join((self.name, *(alias for alias, _ in self.aliases)))


# Every field's key in field order, the echo's order; parsing, the echo, the
# metadata and --help all read this table, so a new key is one field line.
_SCHEMA = tuple(_Key(field=f.name, **f.metadata) for f in dataclasses.fields(ExperimentConfig))
_SECTIONS = tuple(dict.fromkeys(key.section for key in _SCHEMA))
# (section, name as configparser stores it) -> (key, parser) for every spelling
_SPELLINGS = {(key.section, name.lower()): (key, parse) for key in _SCHEMA
              for name, parse in ((key.name, key.parse), *key.aliases)}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an INI experiment file; unknown sections and keys are errors."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    kw = {}
    for section in cp:  # [DEFAULT] comes first, and no key belongs there
        for name, text in cp[section].items():
            if (section, name) not in _SPELLINGS:
                raise ConfigError(f"unknown key {section}.{name} in {path}")
            key, parse = _SPELLINGS[section, name]
            if key.field in kw:
                raise ConfigError(f"give [{section}] {key.spellings}, not both")
            try:
                kw[key.field] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{name} in {path}: {exc}") from exc
        if section not in (cp.default_section, *_SECTIONS):
            raise ConfigError(f"unknown section [{section}] in {path}")
    cfg = ExperimentConfig(**kw)
    return cfg.quantized() if cp.has_section("codebook") else cfg


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


def _build_codebook(cfg: ExperimentConfig):
    if cfg.codebook_method is None:
        return None
    rng = _streams(cfg.seed, _CODEBOOK_STREAM)
    if cfg.codebook_method == "random":
        return random_codebook(cfg.L, cfg.codebook_size, rng)
    return lloyd_codebook(cfg.L, cfg.codebook_size, cfg.codebook_training,
                          cfg.codebook_iterations, rng)


def _make_run(cfg: ExperimentConfig) -> Run:
    """The configured channel, trajectory, grid and codebook."""
    return Run(cfg.params, cfg.trajectory, make_grid(cfg.L, cfg.M, cfg.N), _build_codebook(cfg))


def _metadata(cfg: ExperimentConfig, **extra) -> str:
    """Every setting but the prefix, the codebook's grouped (null without one)."""
    doc = {key.field: getattr(cfg, key.field) for key in _SCHEMA
           if key.section not in ("codebook", "output")}
    doc["codebook"] = None if cfg.codebook_method is None else {
        key.name: getattr(cfg, key.field) for key in _SCHEMA if key.section == "codebook"}
    return json.dumps({**doc, **extra}, indent=2)


def _figure_curves(figure: int, cfg: ExperimentConfig):
    """Canned experiment list for one figure: [(label, points), ...].  Every
    curve is designed before any run builds its trajectory, and each run is
    dropped before the next builds its own.  Figs 3-5 follow each controlled
    curve with the best periodic one on its run."""
    plain = dataclasses.replace(cfg, codebook_method=None)
    if figure in (6, 7):  # perfect and quantized feedback share one trajectory
        run = _make_run(plain)
        runs = {"perfect": run, f"quantized_{cfg.codebook_size}":
                dataclasses.replace(run, codebook=_build_codebook(cfg.quantized()))}
    else:
        subs = ({f"L{L}": dataclasses.replace(plain, L=L) for L in (3, 4)} if figure == 4 else
                {f"dop{d}": dataclasses.replace(plain, doppler_slot=d) for d in (0.1, 0.01)})
        runs = {f"controlled_{tag}": _make_run(sub) for tag, sub in subs.items()}
    solves = {label: _design(cfg.alphas, r, cfg.P, cfg.model_samples)[1]
              for label, r in runs.items()}
    curves = []
    for label, solved in solves.items():
        run = runs.pop(label)  # the last run's trajectory goes before this one builds
        ys = [s.policy.y for s in solved]
        curves.append((label, _measure_curve(cfg.alphas, ys, run, cfg.P)))
        if figure not in (6, 7):
            periodic = periodic_baseline(run, cfg.P, cfg.alphas, _MAX_PERIOD)
            curves.append((label.replace("controlled", "periodic"), tuple(p for _, p in periodic)))
    return curves


def _combined_csv(curves) -> str:
    lines = ["curve," + CSV_HEADER]
    for label, points in curves:
        for row in curve_to_csv(points).strip().split("\n")[1:]:
            lines.append(f"{label},{row}")
    return "\n".join(lines) + "\n"


# Each command returns its outputs as [(suffix, text), ...]; the files are
# written under the command's stem (prefix.stem) once all of them are ready.

def _cmd_model(cfg):
    run = _make_run(cfg)
    model = _design((), run, cfg.P, cfg.model_samples)[0]
    return [(".json", model_to_json(run.spec, model))]


def _cmd_codebook(cfg):
    return [(".json", codebook_to_json(_build_codebook(cfg.quantized())))]


def _cmd_solve(cfg):
    run = _make_run(cfg)
    model, (result,) = _design(cfg.alphas[:1], run, cfg.P, cfg.model_samples)
    return [(".json", solve_result_to_json(result, run.spec, model))]


def _cmd_evaluate(cfg):
    alpha, run = cfg.alphas[0], _make_run(cfg)
    result = _design(cfg.alphas[:1], run, cfg.P, cfg.model_samples)[1][0]
    measured = simulate_policy(result.policy, run, cfg.rewards(alpha))
    doc = {
        "alpha": alpha,
        "throughput": measured.throughput,
        "feedback_rate": measured.feedback_rate,
        "net": measured.net,
        "stderr": measured.stderr,
        "model_gain": result.J,
        "avg_threshold": measured.avg_threshold,
    }
    return [(".json", json.dumps(doc, indent=2))]


def _cmd_sweep(cfg):
    curve = sweep_alpha(cfg.alphas, _make_run(cfg), cfg.P, cfg.model_samples)
    return [(".csv", curve_to_csv(curve)), (".meta.json", _metadata(cfg))]


def _cmd_figure(cfg, figure):
    curves = _figure_curves(figure, cfg)
    return [*((f".{label}.csv", curve_to_csv(points)) for label, points in curves),
            (".csv", _combined_csv(curves)),
            (".meta.json", _metadata(cfg, figure=figure,
                                     curves=[label for label, _ in curves]))]


# command -> (handler, output stem); the stem of reproduce-fig names the figure
_COMMANDS = {
    "model": (_cmd_model, "model"),
    "solve": (_cmd_solve, "solve"),
    "evaluate": (_cmd_evaluate, "eval"),
    "sweep": (_cmd_sweep, "sweep"),
    "codebook": (_cmd_codebook, "codebook"),
    "reproduce-fig": (_cmd_figure, "fig{figure}"),
}
COMMANDS = tuple(_COMMANDS)


def run(command: str, config_path: str | None = None, figure: int | None = None,
        seed: int | None = None, out_prefix: str | None = None,
        quiet: bool = False) -> int:
    """Execute one CLI command; returns the process exit status."""
    try:
        if command not in _COMMANDS:
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

        handler, stem = _COMMANDS[command]
        outputs = handler(cfg) if figure is None else handler(cfg, figure)
        stem = f"{cfg.prefix}.{stem.format(figure=figure)}"
        for suffix, text in [*outputs, (".config.ini", cfg.to_ini())]:
            _write_text(stem + suffix, text)
            if not quiet:
                print(f"wrote {stem}{suffix}")
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _config_help() -> str:
    """The --help epilog: every section and key with its default value.

    The defaults are read off the dataclass fields, so printing them checks
    no config; a [codebook] section without a method trains Lloyd.
    """
    defaults = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
    defaults["codebook_method"] = "lloyd"
    sections = []
    for section in _SECTIONS:
        keys = [f"{key.spellings} ({_text(defaults[key.field])})"
                for key in _SCHEMA if key.section == section]
        sections.append(f"[{section}] " + ", ".join(keys))
    return ("Config sections and keys, defaults in parentheses: " + "; ".join(sections)
            + ". The [codebook] section is optional and enables quantized feedback "
              "(method lloyd or random). [grid] samples budgets the Monte Carlo "
              "kernels only: the bins and their points are exact. "
              "Unknown sections and keys are errors. "
              "solve and evaluate use the first alpha; sweep uses the whole list.")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse problems to exit code 1
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="beamfeedback",
        description="Optimal event-driven CSI feedback control: estimate "
                    "channel models, solve feedback policies, and evaluate "
                    "them on simulated fading trajectories.",
        epilog=_config_help())
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
