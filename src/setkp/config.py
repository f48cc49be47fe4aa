"""Flat run configuration: defaults < config file < environment < flags.

The model and training keys, with their types and defaults, are the fields of
ModelConfig (all but vocab_size, which the corpus decides) and TsmtConfig;
building a RunConfig runs those classes' checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .corpus import MAX_SEGMENT_TOKENS
from .model import ModelConfig
from .training import TsmtConfig

ENV_PREFIX = "SETKP_"
_MODEL_KEYS = [f.name for f in fields(ModelConfig) if f.name != "vocab_size"]
_TRAIN_KEYS = [f.name for f in fields(TsmtConfig)]
_ModelAndTrainKeys = make_dataclass("_ModelAndTrainKeys", [
    (f.name, f.type, field(default=f.default))
    for f in (*fields(ModelConfig), *fields(TsmtConfig)) if f.name != "vocab_size"
])


@dataclass
class RunConfig(_ModelAndTrainKeys):
    n_docs: int = 64
    max_segment_tokens: int = MAX_SEGMENT_TOKENS
    min_freq: int = 1

    def __post_init__(self):
        if self.n_docs < 1:
            raise ValueError("n_docs must be >= 1")
        if self.max_segment_tokens < MAX_SEGMENT_TOKENS:
            raise ValueError(f"max_segment_tokens must be >= {MAX_SEGMENT_TOKENS}")
        self.model_config(0)
        self.train_config()

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **{k: getattr(self, k) for k in _MODEL_KEYS})

    def train_config(self) -> TsmtConfig:
        return TsmtConfig(**{k: getattr(self, k) for k in _TRAIN_KEYS})


KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_PARSERS = {
    "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean"),
    "int": (int, "an int"),
    "float": (float, "a float"),
}


def _coerce(key: str, raw: str):
    parse, what = _PARSERS[KEY_TYPES[key]]
    raw = raw.strip()
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: {raw!r} is not {what}") from None


def parse_config_file(path: str | Path) -> dict:
    """key = value lines; '#' comments; unknown keys are errors."""
    out = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in KEY_TYPES:
            raise ValueError(f"{path}:{ln}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, raw)
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: {e}") from None
    return out


def env_overrides(environ=None) -> dict:
    env = os.environ if environ is None else environ
    out = {}
    for key in KEY_TYPES:
        var = ENV_PREFIX + key.upper()
        if var in env:
            try:
                out[key] = _coerce(key, env[var])
            except ValueError as e:
                raise ValueError(f"{var}: {e}") from None
    return out


def load_run_config(config_path: str | Path | None = None,
                    flag_overrides: dict | None = None,
                    environ=None) -> RunConfig:
    """Merge the four layers in precedence order."""
    merged: dict = {}
    if config_path is not None:
        merged.update(parse_config_file(config_path))
    merged.update(env_overrides(environ))
    if flag_overrides:
        merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    return RunConfig(**merged)
