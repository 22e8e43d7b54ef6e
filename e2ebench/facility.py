"""Seeded facility-like sensor values and the pusher plugin that emits them.

Every value is a pure function of ``(seed, host, sensor, cycle)``, so the
output oracle can regenerate any stretch of any series without having
seen the run.  The shapes follow the infrastructure telemetry the
durability benchmark compresses: temperatures drift a few milli-degrees
per sample (a random walk), power caps hold a setpoint and step
occasionally.  Incompressible-enough values keep the codec, block and
disk-footprint figures honest; the tester plugin's counters would
flatter them.

The plugin registers itself as ``e2ebench_facility`` through the public
plugin registry when this module is imported.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.core.pusher.plugin import ConfiguratorBase, PluginSensor, SensorGroup
from repro.core.pusher.registry import register_plugin

PLUGIN_NAME = "e2ebench_facility"
#: Setpoints a power cap switches between.
POWER_LEVELS = np.array([100_000, 150_000, 200_000], dtype=np.int64)
#: Per-cycle probability that a power cap changes setpoint.
POWER_STEP_P = 0.01
#: Share of a host's sensors that are temperatures (the rest are power).
TEMP_SHARE = 0.8


class FacilityModel:
    """Values of one host's sensors, cycle by cycle.

    Cycle ``c`` draws its randomness from ``default_rng((seed, host, c))``,
    so a stretch of cycles can be regenerated from cycle 0 (the oracle)
    or advanced one cycle at a time (the plugin) with identical results.
    """

    def __init__(self, seed: int, host: int, sensors: int) -> None:
        self.seed = seed
        self.host = host
        self.sensors = sensors
        self.n_temp = int(round(sensors * TEMP_SHARE))
        self.n_power = sensors - self.n_temp
        rng = np.random.default_rng((seed, host, 0xF00D))
        self._temp = rng.integers(40_000, 60_000, self.n_temp, dtype=np.int64)
        self._power = rng.choice(POWER_LEVELS, self.n_power)
        self._cycle = -1

    def _draw(self, cycle: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng((self.seed, self.host, cycle))
        steps = rng.integers(-3, 4, self.n_temp, dtype=np.int64)
        switch = rng.random(self.n_power) < POWER_STEP_P
        levels = rng.choice(POWER_LEVELS, self.n_power)
        return steps, switch, levels

    def _step(self) -> None:
        self._cycle += 1
        steps, switch, levels = self._draw(self._cycle)
        self._temp += steps
        self._power = np.where(switch, levels, self._power)

    def values_at(self, cycle: int) -> np.ndarray:
        """All sensor values at ``cycle`` (cycles must not go backwards)."""
        if cycle < self._cycle:
            raise ValueError(f"cycle {cycle} is before {self._cycle}")
        while self._cycle < cycle:
            self._step()
        return np.concatenate((self._temp, self._power))

    def block(self, first: int, count: int) -> np.ndarray:
        """Values of cycles ``[first, first + count)``, shape (count, sensors).

        Independent of the incremental state: regenerates from cycle 0.
        """
        model = FacilityModel(self.seed, self.host, self.sensors)
        out = np.empty((count, self.sensors), dtype=np.int64)
        if first > 0:
            model.values_at(first - 1)
        for i in range(count):
            out[i] = model.values_at(first + i)
        return out


class FacilityGroup(SensorGroup):
    """One host's facility sensors, read collectively each cycle."""

    def __init__(self, *args, seed: int, host: int, base_ns: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seed = seed
        self.host = host
        self.base_ns = base_ns
        self._model: FacilityModel | None = None

    def read_raw(self, timestamp: int) -> list[int]:
        if self._model is None:
            self._model = FacilityModel(self.seed, self.host, len(self.sensors))
        cycle = (timestamp - self.base_ns) // self.interval_ns
        return self._model.values_at(cycle).tolist()


class FacilityConfigurator(ConfiguratorBase):
    """Builds facility groups from ``numSensors``, ``seed``, ``host``, ``baseNs``."""

    plugin_name = PLUGIN_NAME

    def build_group(self, name, config, entity) -> SensorGroup:
        num = config.get_int("numSensors", 0)
        if num < 1:
            raise ConfigError(f"facility group {name!r}: numSensors must be >= 1")
        group = FacilityGroup(
            seed=config.get_int("seed", 0),
            host=config.get_int("host", 0),
            base_ns=config.get_int("baseNs", 0),
            **self.group_common(name, config),
        )
        for i in range(num):
            group.add_sensor(
                PluginSensor(
                    name=f"{name}_s{i}",
                    mqtt_suffix=f"/{name}/s{i}",
                    cache_maxage_ns=self.cache_maxage_ns,
                )
            )
        return group


def plugin_config(seed: int, host: int, sensors: int, interval_ms: int, base_ns: int) -> str:
    """INFO-format configuration of one host's facility group."""
    return (
        f"group g0 {{ interval {interval_ms}\n numSensors {sensors}\n"
        f" seed {seed}\n host {host}\n baseNs {base_ns} }}"
    )


register_plugin(PLUGIN_NAME, FacilityConfigurator)
