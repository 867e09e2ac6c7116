"""Flat `key = value` experiment configs with bracketed section headers.

The format is deliberately minimal so configs diff cleanly and parse with
no dependencies: sections in square brackets, one `key = value` pair per
line, `#` comments.  A run always writes back a canonical echo of its
config; reloading the echo yields an identical config.
"""

from __future__ import annotations

import math
from collections import OrderedDict

__all__ = ["ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    pass


class ExperimentConfig:
    def __init__(self, sections=None):
        self.sections: "OrderedDict[str, OrderedDict[str, str]]" = OrderedDict()
        if sections:
            for name, kv in sections.items():
                self.sections[name] = OrderedDict((k, str(v)) for k, v in kv.items())

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
                cfg.sections.setdefault(section, OrderedDict())
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
        return isinstance(other, ExperimentConfig) and dict(self.sections) == dict(other.sections) and all(
            dict(self.sections[k]) == dict(other.sections[k]) for k in self.sections
        )

    # -- typed getters ------------------------------------------------------

    def has(self, section: str, key: str) -> bool:
        return section in self.sections and key in self.sections[section]

    def require(self, section: str, key: str) -> str:
        if not self.has(section, key):
            raise ConfigError(f"missing required config value [{section}] {key}")
        return self.sections[section][key]

    def _raw(self, section, key, default):
        if not self.has(section, key):
            return None
        return self.sections[section][key]

    def get_str(self, section, key, default=None):
        raw = self._raw(section, key, default)
        return default if raw is None else raw

    def get_int(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected integer, got {raw!r}") from e

    def get_float(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected number, got {raw!r}") from e

    def get_bool(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"[{section}] {key}: expected boolean, got {raw!r}")

    def get_ints(self, section, key, default=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected integers, got {raw!r}") from e

    def get_floats(self, section, key, default=None, count=None):
        """Numbers separated by spaces or commas; with `count`, exactly that many finite ones."""
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            values = tuple(float(p) for p in raw.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected numbers, got {raw!r}") from e
        if count is not None and (len(values) != count or not all(map(math.isfinite, values))):
            raise ConfigError(f"[{section}] {key}: expected {count} finite numbers, got {raw!r}")
        return values

    def set(self, section, key, value):
        self.sections.setdefault(section, OrderedDict())[key] = str(value)
