"""Plain-text pipeline configuration.

The format is flat ``key = value`` lines under ``[section]`` headers.  Every
key has a typed default; parsing validates the whole file and reports every
violation at once (unknown sections, unknown keys, bad types, out-of-range
values) rather than stopping at the first.

``whitening.drop`` accepts the literal ``auto`` to mean "one anchor block",
i.e. d(d+1)/2 for descriptor dimension d, resolved where the dimension is
known.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from configparser import ConfigParser, Error as ConfigParserError
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "PipelineConfig",
    "ConfigError",
    "load_config",
    "parse_config",
    "dump_defaults",
    "apply_overrides",
]


class ConfigError(ValueError):
    """All configuration violations found in one pass."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the end-to-end pipeline, with working defaults."""

    train_path: str = ""
    corpus_path: str = ""
    ground_truth_path: str = ""
    model_dir: str = "."
    n: int = 8
    mu: float = 1e-2
    variant: str = "faemb"
    outer_iters: int = 20
    seed: int = 0
    s1: float = 0.0
    s2: float = 0.0
    drop: int | None = None
    mode: str = "democratic"
    alpha: float = 0.5
    keep: int = 128
    bits: int = 256
    itq_iters: int = 50
    threads: int = 1


def _parse_int(raw: str) -> int:
    return int(raw, 10)


def _parse_float(raw: str) -> float:
    v = float(raw)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("not finite")
    return v


def _parse_str(raw: str) -> str:
    return raw


def _parse_drop(raw: str) -> int | None:
    if raw.strip().lower() == "auto":
        return None
    return int(raw, 10)


def _ge(limit: float) -> Callable[[Any], str | None]:
    return lambda v: None if v >= limit else f"must be >= {limit}"


def _in_unit(v: float) -> str | None:
    return None if 0.0 < v <= 1.0 else "must lie in (0, 1]"


def _choice(*options: str) -> Callable[[Any], str | None]:
    return lambda v: None if v in options else f"must be one of {', '.join(options)}"


def _drop_ok(v: int | None) -> str | None:
    return None if v is None or v >= 0 else "must be >= 0 or 'auto'"


def _any(v: Any) -> str | None:
    return None


# (section, key, attribute, parser, domain check)
_SCHEMA: list[tuple[str, str, str, Callable[[str], Any], Callable[[Any], str | None]]] = [
    ("paths", "train", "train_path", _parse_str, _any),
    ("paths", "corpus", "corpus_path", _parse_str, _any),
    ("paths", "ground_truth", "ground_truth_path", _parse_str, _any),
    ("paths", "model_dir", "model_dir", _parse_str, _any),
    ("coding", "n", "n", _parse_int, _ge(2)),
    ("coding", "mu", "mu", _parse_float, _ge(0.0)),
    ("coding", "variant", "variant", _parse_str, _choice("faemb", "ffaemb")),
    ("coding", "outer_iters", "outer_iters", _parse_int, _ge(0)),
    ("coding", "seed", "seed", _parse_int, _any),
    ("embedding", "s1", "s1", _parse_float, _ge(0.0)),
    ("embedding", "s2", "s2", _parse_float, _ge(0.0)),
    ("whitening", "drop", "drop", _parse_drop, _drop_ok),
    ("aggregation", "mode", "mode", _parse_str, _choice("democratic", "sum")),
    ("aggregation", "alpha", "alpha", _parse_float, _in_unit),
    ("rotation", "keep", "keep", _parse_int, _ge(1)),
    ("itq", "bits", "bits", _parse_int, _ge(1)),
    ("itq", "iters", "itq_iters", _parse_int, _ge(0)),
    ("runtime", "threads", "threads", _parse_int, _ge(1)),
]


def parse_config(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse and validate config text, reporting every violation at once."""
    parser = ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text, source=source)
    except ConfigParserError as exc:
        raise ConfigError([str(exc)]) from exc

    known = {(s, k): (attr, parse, check) for s, k, attr, parse, check in _SCHEMA}
    known_sections = {s for s, *_ in _SCHEMA}
    violations: list[str] = []
    values: dict[str, Any] = {}
    for section in parser.sections():
        if section not in known_sections:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if (section, key) not in known:
                violations.append(f"unknown key {key!r} in section [{section}]")
                continue
            attr, parse, check = known[(section, key)]
            try:
                value = parse(raw)
            except ValueError:
                violations.append(f"[{section}] {key} = {raw!r}: cannot parse")
                continue
            problem = check(value)
            if problem is not None:
                violations.append(f"[{section}] {key} = {raw!r}: {problem}")
                continue
            values[attr] = value
    if violations:
        raise ConfigError(violations)
    return PipelineConfig(**values)


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), source=str(path))


def dump_defaults() -> str:
    """Render the default configuration as parseable text."""
    defaults = PipelineConfig()
    lines: list[str] = []
    current = None
    for section, key, attr, _, _ in _SCHEMA:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        value = getattr(defaults, attr)
        if value is None:
            value = "auto"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: PipelineConfig, **overrides: Any) -> PipelineConfig:
    """Replace fields with non-None override values (CLI flags beat the file)."""
    names = {f.name for f in fields(PipelineConfig)}
    updates = {}
    for name, value in overrides.items():
        if name not in names:
            raise ValueError(f"unknown config field {name!r}")
        if value is not None:
            updates[name] = value
    return replace(cfg, **updates) if updates else cfg
