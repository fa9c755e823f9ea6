"""Scenario configuration, named presets, and the flat key = value format.

Config keys mirror the model's parameter names (gamma_RR, theta, psi,
omega, phi, xi1, xi2 and so on).  A preset expands to a full calibration
first and explicit keys override it.  A seed is mandatory: runs are never
seeded from the clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .bank_credit import LendingBehaviour
from .errors import ConfigError
from .interbank import MatchingMode
from .ledger import ReserveBase
from .stochastics import TriangularParams


def _tri(lower: float, peak: float, upper: float) -> TriangularParams:
    return TriangularParams(lower, peak, upper)


def _point(value: float) -> TriangularParams:
    return TriangularParams.point(value)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Complete calibration of one simulation run.

    Defaults are the baseline calibration at desk scale: ten banks, a
    thousand customers, fifty periods, broad reserve base, perfect pooling.
    """

    seed: int
    T: int = 50
    B: int = 10
    C: int = 1000
    A1_0: float = 1e9
    A4_0: float = 1e8
    r_A1: TriangularParams = _tri(0.005, 0.01, 0.015)
    r_A2: TriangularParams = _tri(0.02, 0.03, 0.04)
    r_interbank: TriangularParams = _tri(0.005, 0.015, 0.025)
    r_L1: TriangularParams = _tri(0.005, 0.01, 0.015)
    r_L2: TriangularParams = _tri(0.005, 0.01, 0.015)
    l5_spread: float = 0.03
    gamma_RR: float = 0.1
    gamma_TR_noise: TriangularParams = _point(0.0)
    behaviour: LendingBehaviour = LendingBehaviour.MONEY_MULTIPLICATION
    reserve_base: ReserveBase = ReserveBase.BROAD
    psi: TriangularParams = _tri(0.0, 0.3, 1.0)
    theta: TriangularParams = _tri(0.0, 0.8, 1.0)
    omega: float = 0.5
    phi: float = 0.0
    matching: MatchingMode = MatchingMode.EXOGENOUS
    alpha: float | None = None
    lam: float | None = None
    xi1: float = 0.1
    xi2: float = 0.1
    fixed_payment_matrix: bool = False
    transfer_on_issue: bool = True
    relax_target_base: bool = False
    preset: str | None = None

    def validate(self) -> "ScenarioConfig":
        def bad(key: str, message: str):
            raise ConfigError(f"{key}: {message}")

        if self.seed < 0:
            bad("seed", "must be a non-negative integer")
        if self.T < 0:
            bad("T", "must be non-negative")
        if self.B < 2:
            bad("B", "need at least two banks")
        if self.C < self.B:
            bad("C", "need at least as many customers as banks")
        if not self.A1_0 > 0:
            bad("A1_0", "total base money must be positive")
        if not self.A4_0 > 0:
            bad("A4_0", "total bank capital must be positive")
        if not 0 < self.gamma_RR <= 1:
            bad("gamma_RR", "must lie in (0, 1] (lending targets divide by it)")
        if self.gamma_TR_noise.lower < 0:
            bad("gamma_TR_noise", "must be nonnegative")
        for key, value in (("omega", self.omega), ("phi", self.phi),
                           ("xi1", self.xi1), ("xi2", self.xi2)):
            if not 0 <= value <= 1:
                bad(key, "must lie in [0, 1]")
        for key, law in (("psi", self.psi), ("theta", self.theta)):
            if law.lower < 0 or law.upper > 1:
                bad(key, "ratio law must stay within [0, 1]")
        if self.l5_spread < 0:
            bad("l5_spread", "must be nonnegative")
        if self.matching is MatchingMode.ENDOGENOUS:
            if self.alpha is None or not self.alpha > 0:
                bad("alpha", "endogenous matching needs alpha > 0")
            if self.lam is None or not self.lam > 0:
                bad("lambda", "endogenous matching needs lambda > 0")
        return self


# Benchmark scenarios use constant rates; the baseline calibration draws them.
_BENCHMARK_RATES = dict(
    r_A1=_point(0.01),
    r_A2=_point(0.03),
    r_interbank=_point(0.015),
    r_L1=_point(0.01),
    r_L2=_point(0.01),
)

_MONEY_BOUND_COMMON = dict(
    psi=_point(0.0),          # customer loans are never repaid in these scenarios
    theta=_tri(0.0, 0.5, 1.0),
    phi=0.0,                  # perfect pooling
    # benchmark banks target a constant prudential margin over the
    # regulatory ratio, so the narrow money stock plateaus inside the
    # A1_0 / gamma_RR ceiling instead of riding it
    gamma_TR_noise=_point(0.02),
    **_BENCHMARK_RATES,
)

PRESETS: dict[str, dict] = {
    # Narrow banking with interbank loans repaid in two periods on average:
    # aggregate money plateaus under the reserve bound.
    "fig1_left": dict(
        reserve_base=ReserveBase.NARROW,
        behaviour=LendingBehaviour.FRACTIONAL_RESERVE,
        omega=0.5,
        **_MONEY_BOUND_COMMON,
    ),
    "fig1_right": dict(
        reserve_base=ReserveBase.NARROW,
        behaviour=LendingBehaviour.MONEY_MULTIPLICATION,
        omega=0.5,
        **_MONEY_BOUND_COMMON,
    ),
    # Boundedness comparison with no repayment of interbank loans either:
    # narrow banking stays bounded, broad banking does not.
    "fig2_left": dict(
        reserve_base=ReserveBase.NARROW,
        behaviour=LendingBehaviour.FRACTIONAL_RESERVE,
        omega=1.0,
        **_MONEY_BOUND_COMMON,
    ),
    "fig2_mid": dict(
        reserve_base=ReserveBase.BROAD,
        behaviour=LendingBehaviour.FRACTIONAL_RESERVE,
        omega=1.0,
        **_MONEY_BOUND_COMMON,
    ),
    "fig2_right": dict(
        reserve_base=ReserveBase.BROAD,
        behaviour=LendingBehaviour.MONEY_MULTIPLICATION,
        omega=1.0,
        **_MONEY_BOUND_COMMON,
    ),
    # Baseline calibration under three pooling qualities.
    "baseline_perfect": dict(phi=0.0),
    "baseline_smooth": dict(phi=0.4),
    "baseline_distressed": dict(phi=0.8),
}

PRESET_NOTES = {
    "fig1_left": "narrow base, fractional reserve, no customer repayment, omega 0.5",
    "fig1_right": "narrow base, money multiplication, no customer repayment, omega 0.5",
    "fig2_left": "narrow base, fractional reserve, no repayment of any loans",
    "fig2_mid": "broad base, fractional reserve, no repayment of any loans",
    "fig2_right": "broad base, money multiplication, no repayment of any loans",
    "baseline_perfect": "baseline calibration, perfect pooling (phi 0)",
    "baseline_smooth": "baseline calibration, smooth pooling (phi 0.4)",
    "baseline_distressed": "baseline calibration, distressed pooling (phi 0.8)",
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def get_preset(name: str, seed: int, **overrides) -> ScenarioConfig:
    """Named preset expanded to a full config; explicit overrides win."""
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r} (see `minibank presets`)")
    fields = dict(PRESETS[name])
    fields.update(overrides)
    return ScenarioConfig(seed=seed, preset=name, **fields).validate()


# ---------------------------------------------------------------------------
# Flat key = value serialisation
# ---------------------------------------------------------------------------

_KEY_TO_ATTR = {"lambda": "lam"}

KEY_ORDER = (
    "preset", "seed", "T", "B", "C", "A1_0", "A4_0",
    "r_A1", "r_A2", "r_interbank", "r_L1", "r_L2", "l5_spread",
    "gamma_RR", "gamma_TR_noise", "behaviour", "reserve_base",
    "psi", "theta", "omega", "phi", "matching", "alpha", "lambda",
    "xi1", "xi2", "fixed_payment_matrix", "transfer_on_issue",
    "relax_target_base",
)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_tri(key: str, raw: str) -> TriangularParams:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) == 1:
        return TriangularParams.point(_parse_float(key, parts[0]))
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'value' or 'lower, peak, upper', got {raw!r}")
    return TriangularParams(*(_parse_float(key, p) for p in parts))


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_opt_float(key: str, raw: str) -> float | None:
    if raw.strip().lower() in ("none", ""):
        return None
    return _parse_float(key, raw)


def _parse_enum(enum_cls):
    def parse(key: str, raw: str):
        lowered = raw.strip().lower()
        for member in enum_cls:
            if member.value == lowered:
                return member
        options = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"{key}: expected one of {options}, got {raw!r}")

    return parse


_PARSERS = {
    "seed": _parse_int,
    "T": _parse_int,
    "B": _parse_int,
    "C": _parse_int,
    "A1_0": _parse_float,
    "A4_0": _parse_float,
    "r_A1": _parse_tri,
    "r_A2": _parse_tri,
    "r_interbank": _parse_tri,
    "r_L1": _parse_tri,
    "r_L2": _parse_tri,
    "l5_spread": _parse_float,
    "gamma_RR": _parse_float,
    "gamma_TR_noise": _parse_tri,
    "behaviour": _parse_enum(LendingBehaviour),
    "reserve_base": _parse_enum(ReserveBase),
    "psi": _parse_tri,
    "theta": _parse_tri,
    "omega": _parse_float,
    "phi": _parse_float,
    "matching": _parse_enum(MatchingMode),
    "alpha": _parse_opt_float,
    "lambda": _parse_opt_float,
    "xi1": _parse_float,
    "xi2": _parse_float,
    "fixed_payment_matrix": _parse_bool,
    "transfer_on_issue": _parse_bool,
    "relax_target_base": _parse_bool,
}


def _format_value(value) -> str:
    if isinstance(value, TriangularParams):
        return f"{value.lower!r}, {value.peak!r}, {value.upper!r}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (LendingBehaviour, ReserveBase, MatchingMode)):
        return value.value
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_pairs(config: ScenarioConfig) -> list[tuple[str, str]]:
    pairs = []
    for key in KEY_ORDER:
        attr = _KEY_TO_ATTR.get(key, key)
        value = getattr(config, attr)
        if key == "preset" and value is None:
            continue
        pairs.append((key, _format_value(value)))
    return pairs


def config_to_text(config: ScenarioConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config_to_pairs(config))


def config_hash(config: ScenarioConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()


def parse_config_text(text: str) -> list[tuple[str, str]]:
    """Split a key = value document into ordered pairs; '#' lines are comments."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        pairs.append((key.strip(), raw.strip()))
    return pairs


def config_from_pairs(pairs) -> ScenarioConfig:
    """Build and validate a config from ordered key = value pairs.

    A preset key (wherever it appears) expands first; explicit keys override
    it, and a later duplicate of a key wins over an earlier one.  A seed
    must be present somewhere.
    """
    preset_name = None
    explicit = {}
    for key, raw in pairs:
        if key == "preset":
            preset_name = raw.strip()
            continue
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        explicit[_KEY_TO_ATTR.get(key, key)] = _PARSERS[key](key, raw)

    fields: dict = {}
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(f"preset: unknown preset {preset_name!r}")
        fields.update(PRESETS[preset_name])
        fields["preset"] = preset_name
    fields.update(explicit)
    if "seed" not in fields:
        raise ConfigError("seed: missing (a seed is mandatory; runs never seed from the clock)")
    return ScenarioConfig(**fields).validate()


def load_config_file(path) -> ScenarioConfig:
    return config_from_pairs(parse_config_text(Path(path).read_text()))
