"""Run configuration shared by the CLI and the search orchestration.

A :class:`RunConfig` carries every tunable of the pipeline with its
default value, and is the only place such a default is written: the
modules below it read each tunable from the run's config.  Configs are
built from flat JSON objects; unknown keys and values of the wrong type
are rejected so typos fail loudly instead of running defaults or failing
later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

_MODES = ("offline", "online")


@dataclass
class RunConfig:
    """All pipeline tunables, with validated defaults.

    ``l_max`` and ``minpts_cap_fraction`` default to ``None`` meaning
    "pick by mode": 3 layers and a 0.25 cap offline, 6 layers and a
    0.0025 cap online.  Use :meth:`resolved_l_max` and
    :meth:`resolved_minpts_cap_fraction` to read the effective values.
    """

    dataset: str = ""
    mode: str = "offline"
    seeds: list[int] = field(default_factory=lambda: list(range(10)))

    # weak supervision
    label_proportion: float = 0.2

    # recursive parameter space
    pi_eps: int = 5
    pi_minpts: int = 4
    l_max: int | None = None
    minpts_cap_fraction: float | None = None
    round_budget: int = 30

    # episode control
    max_steps: int = 30
    episodes: int = 15
    epsilon_start: float = 0.9
    epsilon_end: float = 0.1

    # reward shaping
    delta: float = 0.2

    # networks and TD3
    hidden_width: int = 32
    body_width: int = 256
    gamma: float = 0.1
    batch_size: int = 16
    buffer_capacity: int = 2000
    tau: float = 0.005
    actor_delay: int = 2
    learning_rate: float = 1e-3
    noise_sigma: float = 0.2
    noise_clip: float = 0.5

    # graph construction and agent allocation
    k_sweep_cap: int = 2048
    alloc_eps: float = 0.3
    alloc_minpts: int = 1
    single_agent: bool = False

    # online mode
    num_blocks: int = 8

    def __post_init__(self) -> None:
        self._check_types()
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not isinstance(self.seeds, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0
            for s in self.seeds
        ):
            raise ValueError("seeds must be a list of nonnegative integers")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if not 0.0 < self.label_proportion <= 1.0:
            raise ValueError("label_proportion must lie in (0, 1]")
        if self.l_max is not None and self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        if self.minpts_cap_fraction is not None and self.minpts_cap_fraction < 0:
            raise ValueError("minpts_cap_fraction must be nonnegative")
        if self.round_budget < 1:
            raise ValueError("round budget must be positive")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("exploration rates must satisfy 0 <= end <= start <= 1")
        for name in ("pi_eps", "pi_minpts", "max_steps", "episodes",
                     "hidden_width", "body_width", "batch_size",
                     "buffer_capacity", "actor_delay", "k_sweep_cap",
                     "num_blocks", "alloc_minpts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.alloc_eps <= 0:
            raise ValueError("alloc_eps must be positive")
        if self.noise_sigma < 0 or self.noise_clip < 0:
            raise ValueError("noise parameters must be nonnegative")

    def _check_types(self) -> None:
        """Check each scalar field against its annotation.  An ``int``
        field takes no bool, float or string, a ``float`` field also takes
        an int but no NaN or infinity, and an ``X | None`` field also takes
        None."""
        hints = get_type_hints(type(self))
        for f in fields(self):
            hint, value = hints[f.name], getattr(self, f.name)
            if get_origin(hint) is list:
                continue  # seeds: checked element by element
            allowed = get_args(hint) if get_origin(hint) in (Union, UnionType) \
                else (hint,)
            if float in allowed:
                allowed += (int,)
            if (isinstance(value, bool) and bool not in allowed
                    or not isinstance(value, allowed)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    def resolved_l_max(self) -> int:
        if self.l_max is not None:
            return self.l_max
        return 3 if self.mode == "offline" else 6

    def resolved_minpts_cap_fraction(self) -> float:
        if self.minpts_cap_fraction is not None:
            return self.minpts_cap_fraction
        return 0.25 if self.mode == "offline" else 0.0025

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)
