"""The benchmark's workloads: one beamfeedback CLI command and config each.

All four run at SNR 20 dB with the prices 0.2, 1.0 and 2.0 where prices
apply.  Sizes are scaled down from the paper config (1M model samples, 400k
slots, 17-33 s per command) so that one command takes about 4 s on a 2-core
machine and a timed run holds several fresh processes; each workload keeps
the layer that dominates its full-size command.  Why each workload was
chosen is in README.md, and for the two that BENCHMARK.json times, there too.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 12345  # the CLI's own default trajectory seed
PRICES = (0.2, 1.0, 2.0)
SWEEP_OUTPUTS = ("run.sweep.csv", "run.sweep.meta.json", "run.sweep.config.ini")


@dataclass(frozen=True)
class Workload:
    argv: tuple          # CLI command words before --config
    config: dict         # INI sections -> {key: value}
    outputs: tuple       # files the command writes under the prefix "run"
    dominant: str        # layer expected to hold the largest self time

    def ini(self) -> str:
        lines = []
        for section, keys in self.config.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in keys.items()]
        return "\n".join(lines) + "\n"

    @property
    def prices(self):
        return PRICES if "alpha" in self.config["rewards"] else ()


def _config(L=3, grid=16, samples=60_000, slots=25_000, prices=True, **extra):
    cfg = {
        "channel": {"L": L},
        "grid": {"M": grid, "N": grid, "samples": samples},
        "rewards": {"snr_db": 20},
        "trajectory": {"slots": slots},
    }
    if prices:
        cfg["rewards"]["alpha"] = " ".join(repr(a) for a in PRICES)
    cfg.update(extra)
    return cfg


FIG3_CURVES = ("controlled_dop0.1", "periodic_dop0.1",
               "controlled_dop0.01", "periodic_dop0.01")

WORKLOADS = {
    "fig3": Workload(
        argv=("reproduce-fig", "3"),
        config=_config(),
        outputs=tuple(f"run.fig3.{c}.csv" for c in FIG3_CURVES)
        + ("run.fig3.csv", "run.fig3.meta.json", "run.fig3.config.ini"),
        dominant="simulator",
    ),
    "sweep-quantized": Workload(
        argv=("sweep",),
        config=_config(codebook={"method": "lloyd", "size": 16,
                                 "training": 10_000}),
        outputs=SWEEP_OUTPUTS,
        dominant="simulator",
    ),
    "fine-grid": Workload(
        argv=("sweep",),
        config=_config(grid=40, samples=50_000, slots=10_000),
        outputs=SWEEP_OUTPUTS,
        dominant="mdp",
    ),
    "model-L4": Workload(
        argv=("model",),
        config=_config(L=4, samples=25_000, prices=False),
        outputs=("run.model.json", "run.model.config.ini"),
        dominant="state_grid",
    ),
}
