"""Flat `key = value` experiment configs with bracketed section headers, and the domain rule of every numeric setting.

The format is deliberately minimal so configs diff cleanly and parse with
no dependencies: sections in square brackets, one `key = value` pair per
line, `#` comments.  A run always writes back a canonical echo of its
config; reloading the echo yields an identical config.

`require` is the one domain check of the package's numeric settings, from
the config keys the CLI reads to the fields of `TrainConfig` and
`SearchConfig` and the arguments of the samplers and the estimator: a
setting must be a finite number at or above its bound (above it, for a
strict bound), and NaN fails.
"""

from __future__ import annotations

import math

__all__ = ["ConfigError", "ExperimentConfig", "require"]

_KINDS = {int: "integer", float: "number", str: "text"}


class ConfigError(ValueError):
    pass


def require(lo, above=False, **values) -> None:
    """Raise a `ValueError` naming the first of `values` that is not a finite number >= lo (> lo with `above`).

    `None` passes; NaN fails.
    """
    for name, value in values.items():
        if value is not None and not (lo < value < math.inf if above else lo <= value < math.inf):
            raise ValueError(f"{name} must be a finite number {'>' if above else '>='} {lo}, got {value}")


class ExperimentConfig:
    def __init__(self):
        self.sections: dict[str, dict[str, str]] = {}

    # -- parsing ----------------------------------------------------------

    @classmethod
    def loads(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        section = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if not section:
                    raise ConfigError(f"line {lineno}: empty section name")
                cfg.sections.setdefault(section, {})
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, _, value = line.partition("=")
            cfg.sections[section][key.strip()] = value.strip()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                return cls.loads(f.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e

    def dumps(self) -> str:
        lines = []
        for name, kv in self.sections.items():
            lines.append(f"[{name}]")
            for k, v in kv.items():
                lines.append(f"{k} = {v}")
            lines.append("")
        return "\n".join(lines)

    def dump(self, path):
        with open(path, "w") as f:
            f.write(self.dumps())

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.sections == other.sections

    # -- typed getters ------------------------------------------------------

    def has(self, section: str, key: str) -> bool:
        return section in self.sections and key in self.sections[section]

    def require(self, section: str, key: str) -> str:
        if not self.has(section, key):
            raise ConfigError(f"missing required config value [{section}] {key}")
        return self.sections[section][key]

    def _get(self, section, key, default, parse, expected):
        """`parse` of the value at `[section] key`, or `default` when the key is absent; a value `parse` rejects is a `ConfigError`."""
        if not self.has(section, key):
            return default
        raw = self.sections[section][key]
        try:
            return parse(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from e

    def settings(self, section: str, **kinds) -> dict:
        """The keys of `kinds` that `[section]` sets, each parsed as its kind (`int`, `float` or `str`).

        A key the section leaves out is left out of the result, so a call
        `f(**cfg.settings(...))` keeps `f`'s default for it.
        """
        return {key: self._get(section, key, None, kind, _KINDS[kind]) for key, kind in kinds.items() if self.has(section, key)}

    def get_str(self, section, key, default=None):
        return self._get(section, key, default, str, "text")

    def get_int(self, section, key, default=None):
        return self._get(section, key, default, int, "integer")

    def get_ints(self, section, key):
        self.require(section, key)
        return self._get(section, key, None, lambda raw: tuple(int(p) for p in raw.replace(",", " ").split()), "integers")

    def get_floats(self, section, key, default, count):
        """Exactly `count` finite numbers, separated by spaces or commas."""

        def parse(raw):
            values = tuple(float(p) for p in raw.replace(",", " ").split())
            if len(values) != count or not all(map(math.isfinite, values)):
                raise ValueError(raw)
            return values

        return self._get(section, key, default, parse, f"{count} finite numbers")
