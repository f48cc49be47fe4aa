"""Flat run configuration: defaults < config file < flags.

The model and training keys, with their types and defaults, are the fields of
ModelConfig (all but vocab_size, which the corpus decides) and TsmtConfig;
building a RunConfig runs those classes' checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path
from typing import ClassVar

from .corpus import MAX_SEGMENT_TOKENS
from .model import ModelConfig
from .training import TsmtConfig

_MODEL_KEYS = [f.name for f in fields(ModelConfig) if f.name != "vocab_size"]
_TRAIN_KEYS = [f.name for f in fields(TsmtConfig)]
_ModelAndTrainKeys = make_dataclass("_ModelAndTrainKeys", [
    (f.name, f.type, field(default=f.default))
    for f in (*fields(ModelConfig), *fields(TsmtConfig)) if f.name != "vocab_size"
])


@dataclass
class RunConfig(_ModelAndTrainKeys):
    n_docs: int = 64
    # not a key: every command segments a corpus with this one budget
    max_segment_tokens: ClassVar[int] = MAX_SEGMENT_TOKENS

    def __post_init__(self):
        if self.n_docs < 1:
            raise ValueError("n_docs must be >= 1")
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


def parse_config_file(path: str | Path) -> dict:
    """key = value lines; '#' comments; unknown and repeated keys are errors."""
    out, lines = {}, {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in KEY_TYPES:
            raise ValueError(f"{path}:{ln}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{ln}: {key} is already set on line {lines[key]}")
        lines[key] = ln
        parse, what = _PARSERS[KEY_TYPES[key]]
        try:
            out[key] = parse(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{ln}: {key}: {raw!r} is not {what}") from None
    return out


def load_run_config(config_path: str | Path | None = None,
                    flag_overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file's keys, then the flags that were given."""
    merged: dict = {}
    if config_path is not None:
        merged.update(parse_config_file(config_path))
    if flag_overrides:
        merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    return RunConfig(**merged)
