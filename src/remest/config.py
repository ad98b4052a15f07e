"""Strict config ingestion: JSON-compatible dicts to validated model builds.

Unknown keys anywhere in the document are a hard error; there are no silent
defaults for experiment-defining fields, except ``timing``, which is
optional and defaults to "immediate" so documents written before it load
unchanged (and keep their digest).  The digest of the canonical JSON
form stamps every emitted result row so outputs are traceable to their
exact inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError
from .model import AgeFunction, SystemModel, build_model
from .markov import validate_chain

_AGE_KEYS = {
    "exponential_affine": {"a", "b", "c"},
    "polynomial": {"coeffs"},
    "table": {"values", "tail_ratio"},
}

_TOP_KEYS = {
    "alphabet_size",
    "transition",
    "p_s",
    "distortion",
    "age_function",
    "theta_max",
    "delta_max",
    "f_max",
    "lambda_max",
    "tolerances",
    "seed",
    "estimator",
}

_TOL_KEYS = {"eval", "search", "mixture"}
_TIMINGS = ("immediate", "delayed")


@dataclass(frozen=True)
class Tolerances:
    eval: float = 1e-10
    search: float = 1e-3
    mixture: float = 1e-6


@dataclass(frozen=True)
class SystemConfig:
    """Complete experiment description, value-identical to its JSON form."""

    alphabet_size: int
    transition: tuple
    p_s: float
    distortion: str | tuple
    age_function: dict
    theta_max: int
    delta_max: int
    f_max: float
    lambda_max: float
    tolerances: Tolerances
    seed: int
    estimator: str
    timing: str = "immediate"

    def __post_init__(self):
        """Value checks, run by ``from_dict`` and by ``with_overrides``."""
        for name in _TOL_KEYS:
            if getattr(self.tolerances, name) <= 0:
                raise ConfigError(f"tolerance {name!r} must be positive")
        if self.estimator not in ("map", "zoh"):
            raise ConfigError(f"estimator must be 'map' or 'zoh', got {self.estimator!r}")
        if self.timing not in _TIMINGS:
            raise ConfigError(f"timing must be one of {_TIMINGS}, got {self.timing!r}")
        if isinstance(self.distortion, str) and self.distortion != "hamming":
            raise ConfigError(f"distortion must be 'hamming' or a matrix")
        if len(self.transition) != self.alphabet_size:
            raise ConfigError(
                f"alphabet_size {self.alphabet_size} does not match transition matrix"
                f" side {len(self.transition)}"
            )
        if not (0.0 < self.f_max <= 1.0):
            raise ConfigError(f"f_max {self.f_max} outside (0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")

    @staticmethod
    def from_dict(doc: dict) -> "SystemConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        unknown = set(doc) - _TOP_KEYS - {"timing"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = _TOP_KEYS - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")

        age = doc["age_function"]
        if not isinstance(age, dict) or "kind" not in age:
            raise ConfigError("age_function must be an object with a 'kind'")
        kind = age["kind"]
        if kind not in _AGE_KEYS:
            raise ConfigError(f"unknown age_function kind {kind!r}")
        extra = set(age) - _AGE_KEYS[kind] - {"kind"}
        if extra:
            raise ConfigError(f"unknown age_function keys: {sorted(extra)}")
        missing_age = _AGE_KEYS[kind] - set(age)
        if kind == "table":
            missing_age -= {"tail_ratio"}
        if missing_age:
            raise ConfigError(f"missing age_function keys: {sorted(missing_age)}")

        tol_doc = doc["tolerances"]
        if not isinstance(tol_doc, dict):
            raise ConfigError("tolerances must be an object")
        unknown_tol = set(tol_doc) - _TOL_KEYS
        if unknown_tol:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown_tol)}")
        tols = Tolerances(**{k: float(v) for k, v in tol_doc.items()})
        distortion = doc["distortion"]
        if not isinstance(distortion, str):
            distortion = tuple(tuple(float(v) for v in row) for row in distortion)
        age_clean = {"kind": kind}
        for key in sorted(_AGE_KEYS[kind]):
            if key in age:
                if key in ("coeffs", "values"):
                    age_clean[key] = tuple(float(v) for v in age[key])
                else:
                    age_clean[key] = float(age[key])
        return SystemConfig(
            alphabet_size=int(doc["alphabet_size"]),
            transition=tuple(tuple(float(v) for v in row) for row in doc["transition"]),
            p_s=float(doc["p_s"]),
            distortion=distortion,
            age_function=age_clean,
            theta_max=int(doc["theta_max"]),
            delta_max=int(doc["delta_max"]),
            f_max=float(doc["f_max"]),
            lambda_max=float(doc["lambda_max"]),
            tolerances=tols,
            seed=int(doc["seed"]),
            estimator=doc["estimator"],
            timing=doc.get("timing", "immediate"),
        )

    @staticmethod
    def from_file(path) -> "SystemConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return SystemConfig.from_dict(doc)

    def to_dict(self) -> dict:
        age = dict(self.age_function)
        if "coeffs" in age:
            age["coeffs"] = list(age["coeffs"])
        if "values" in age:
            age["values"] = list(age["values"])
        return {
            "alphabet_size": self.alphabet_size,
            "transition": [list(row) for row in self.transition],
            "p_s": self.p_s,
            "distortion": self.distortion
            if isinstance(self.distortion, str)
            else [list(row) for row in self.distortion],
            "age_function": age,
            "theta_max": self.theta_max,
            "delta_max": self.delta_max,
            "f_max": self.f_max,
            "lambda_max": self.lambda_max,
            "tolerances": asdict(self.tolerances),
            "seed": self.seed,
            "estimator": self.estimator,
        } | ({} if self.timing == "immediate" else {"timing": self.timing})

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "SystemConfig":
        allowed = {"seed", "f_max", "theta_max", "delta_max", "estimator", "lambda_max", "timing"}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ConfigError(f"cannot override {sorted(unknown)}")
        return replace(self, **kwargs)

    def age_function_object(self) -> AgeFunction:
        age = self.age_function
        kind = age["kind"]
        if kind == "exponential_affine":
            return AgeFunction.exponential_affine(age["a"], age["b"], age["c"])
        if kind == "polynomial":
            return AgeFunction.polynomial(age["coeffs"])
        return AgeFunction.from_table(age["values"], age.get("tail_ratio", 1.0))

    def build_model(self, timing: str | None = None) -> SystemModel:
        """Model of this config under the given slot timing, by default the
        config's own (see remest.model)."""
        chain = validate_chain(np.array(self.transition))
        return build_model(
            chain=chain,
            p_s=self.p_s,
            distortion=self.distortion
            if isinstance(self.distortion, str)
            else np.array(self.distortion),
            rho=self.age_function_object(),
            theta_max=self.theta_max,
            delta_max=self.delta_max,
            estimator_mode=self.estimator,
            timing=self.timing if timing is None else timing,
        )
