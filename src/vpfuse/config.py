"""Flat `key = value` experiment configuration.

A config file is UTF-8, line oriented, `#` starts a comment anywhere in a
line.  Every key is validated against the schema below; unknown keys are
rejected so typos cannot silently fall back to defaults.  Serialization is
canonical (sorted keys, one normalized value format per type), which makes
serialize(parse(text)) idempotent and configs diff-friendly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

STRATEGIES = ("router", "average", "concat", "random-weights", "random-choose")
PROJECTOR_KINDS = ("image", "stc", "com")


class ConfigError(ValueError):
    """Malformed config text, unknown key, bad type or out-of-range value."""


def _parse_int3(s: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated integers, got {s!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_names(s: str) -> tuple[str, ...]:
    # An empty list is left to the checks of the key it is given for.
    return tuple(p.strip() for p in s.split(",") if p.strip())


def _fmt(value: Any) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class _Key:
    kind: str  # int | float | str | int3 | names
    default: Any
    check: Optional[Callable[[Any], Optional[str]]] = None


def _positive(v) -> Optional[str]:
    return None if v > 0 else f"must be positive, got {v}"


def _non_negative(v) -> Optional[str]:
    return None if v >= 0 else f"must be >= 0, got {v}"


def _fraction(v) -> Optional[str]:
    return None if 0.0 <= v <= 1.0 else f"must be in [0, 1], got {v}"


def _beta(v) -> Optional[str]:
    # Adam's bias correction divides by 1 - beta ** t, which is 0 at beta = 1.
    return None if 0.0 <= v < 1.0 else f"must be in [0, 1), got {v}"


def _distinct(v) -> Optional[str]:
    if len(set(v)) != len(v):
        return f"each label may be listed once, got {_fmt(v)!r}"
    return None


def _strategy(v) -> Optional[str]:
    return None if v in STRATEGIES else f"must be one of {STRATEGIES}, got {v!r}"


def _kinds(v) -> Optional[str]:
    if len(v) != 3:
        return f"exactly three projector slots required, got {len(v)}"
    bad = [k for k in v if k not in PROJECTOR_KINDS]
    return f"unknown projector kind(s) {bad}" if bad else None


def _stride_pos(v) -> Optional[str]:
    return None if all(s >= 1 for s in v) else f"stride components must be >= 1, got {v}"


def _pad_ok(v) -> Optional[str]:
    return None if all(p >= 0 for p in v) else f"padding must be >= 0, got {v}"


SCHEMA: dict[str, _Key] = {
    "video.total_frames": _Key("int", 32, _positive),
    "video.grid": _Key("int", 16, _positive),
    "video.patch": _Key("int", 4, _positive),
    "sampler.frames": _Key("int", 8, _positive),
    "encoder.dim": _Key("int", 32, _positive),
    "text.vocab": _Key("int", 18, _positive),
    "text.dim": _Key("int", 32, _positive),
    "text.blocks": _Key("int", 2, _non_negative),
    "text.max_len": _Key("int", 6, _positive),
    "img.prepool": _Key("int", 1, _positive),
    "img.hidden": _Key("int", 32, _positive),
    "stc.kernel": _Key("int", 3, _positive),
    "stc.stride": _Key("int3", (1, 1, 1), _stride_pos),
    "stc.pad": _Key("int3", (1, 1, 1), _pad_ok),
    "stc.channels": _Key("int", 32, _positive),
    "com.context": _Key("int", 2, _positive),
    "com.content": _Key("int", 1, _positive),
    "com.sep_period": _Key("int", 1, _non_negative),  # 0 disables separators
    "router.hidden": _Key("int", 32, _positive),
    "model.dim": _Key("int", 32, _positive),
    "model.classes": _Key("int", 4, _positive),
    "decoder.blocks": _Key("int", 2, _positive),
    "decoder.hidden": _Key("int", 64, _positive),
    "projectors.kinds": _Key("names", ("image", "stc", "com"), _kinds),
    "projectors.active": _Key("names", ("image", "stc", "com"), _distinct),
    "task.noise": _Key("float", 0.1, _fraction),
    "train.batch": _Key("int", 16, _positive),
    "train.pretrain_steps": _Key("int", 1000, _positive),
    "train.tune_steps": _Key("int", 2000, _positive),
    "train.lr": _Key("float", 0.003, _non_negative),
    "train.beta1": _Key("float", 0.9, _beta),
    "train.beta2": _Key("float", 0.999, _beta),
    "train.seed": _Key("int", 1, _non_negative),
    "train.image_ratio": _Key("float", 0.2, _fraction),
    "train.strategy": _Key("str", "router", _strategy),
    "eval.samples": _Key("int", 200, _positive),
}

_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int3": _parse_int3,
    "names": _parse_names,
}


def slot_labels(kinds: tuple[str, ...]) -> tuple[str, ...]:
    """Unique label per projector slot; index-suffixed when kinds repeat."""
    return tuple(kind if kinds.count(kind) == 1 else f"{kind}{i}"
                 for i, kind in enumerate(kinds))


class Config:
    """Validated key/value view with dict-style access.

    Construction checks what no single key can: the grid divisibility and
    the active slots, so every Config, parsed or replaced, serializes to text
    that parses.
    """

    def __init__(self, values: dict[str, Any]):
        self._values = values
        self.patch_grid()
        self.active_slots()

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def replace(self, **overrides: Any) -> "Config":
        """New config with dotted keys overridden (underscores map to dots).

        Each value goes through the file parser as the text ``serialize``
        writes for it, and must parse back to itself.
        """
        vals = dict(self._values)
        for name, value in overrides.items():
            key = name.replace("__", ".")
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            kind = SCHEMA[key].kind
            text = _fmt(value)
            try:
                parsed = _PARSERS[kind](text)
            except ValueError:  # ConfigError included
                parsed = None
            if parsed is None or parsed != (tuple(value) if isinstance(value, list) else value):
                raise ConfigError(f"{key}: expected {kind}, got {type(value).__name__} {text!r}")
            vals[key] = _checked(key, parsed)
        return Config(vals)

    def patch_grid(self) -> int:
        g, p = self["video.grid"], self["video.patch"]
        if g % p != 0:
            raise ConfigError(f"video.grid {g} not divisible by video.patch {p}")
        return g // p

    def slot_labels(self) -> tuple[str, ...]:
        return slot_labels(self["projectors.kinds"])

    def active_slots(self) -> tuple[int, ...]:
        labels = self.slot_labels()
        active = self["projectors.active"]
        if not active:
            raise ConfigError("projectors.active must name at least one slot")
        bad = [a for a in active if a not in labels]
        if bad:
            raise ConfigError(f"projectors.active names {bad} not among slots {labels}")
        return tuple(i for i, lbl in enumerate(labels) if lbl in active)

    def image_slot(self) -> Optional[int]:
        """The first active image-based slot, which single-frame image
        batches go through; None when no such slot is active."""
        kinds = self["projectors.kinds"]
        return next((i for i in self.active_slots() if kinds[i] == "image"), None)

    def serialize(self) -> str:
        lines = [f"{k} = {_fmt(self._values[k])}" for k in sorted(self._values)]
        return "\n".join(lines) + "\n"


def _parse_value(key: str, raw: str) -> Any:
    kind = SCHEMA[key].kind
    try:
        return _PARSERS[kind](raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}: {exc}") from None


def _checked(key: str, value: Any) -> Any:
    """``value`` once it passes ``key``'s checks; every float must be finite."""
    if isinstance(value, float) and not math.isfinite(value):
        problem = f"must be finite, got {value}"
    else:
        check = SCHEMA[key].check
        problem = check(value) if check is not None else None
    if problem:
        raise ConfigError(f"{key}: {problem}")
    return value


def parse_config(text: str) -> Config:
    """Parse config text, apply defaults, check the grid and the active slots.

    Token-budget alignment is a property of the model, not of the text, so
    ``FusionModel`` checks it; the `tokens` command can therefore show a
    misaligned profile's budgets.
    """
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _checked(key, _parse_value(key, raw))

    for key, spec in SCHEMA.items():
        values.setdefault(key, spec.default)
    return Config(values)


def default_config() -> Config:
    return parse_config("")
