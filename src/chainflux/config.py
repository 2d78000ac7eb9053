"""Experiment configuration: a JSON file with sections.

Sections: ``model`` (chain), ``bath`` (dissipator), ``classical`` (oscillator
chain), ``solver`` (method and workers), ``sweep`` (parameter name and
grid), ``output`` (path and format). Every section is a JSON object.
Everything is validated up front; solving only starts once the whole file
parses. The solver tolerances are fixed (``lindblad.SOLVER``) and are not
part of the config language.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .chain import ChainSpec, GradedProfile, expand_graded, finite
from .classical import ClassicalChainSpec
from .errors import SpecError
from .lindblad import METHOD, SOLVER, DissipatorSpec, TargetZ, TwistedXY, require_max_sites

OUTPUT_FORMATS = ("csv", "json")
# the accepted spellings of 'solver.method': both name the one steady-state solver
STEADY_METHODS = ("auto", METHOD)

# sweepable knobs and the bath family / model form they need
SPIN_SWEEP_PARAMETERS = {
    "f": TargetZ.family,
    "f_left": TargetZ.family,
    "f_right": TargetZ.family,
    "gamma": TargetZ.family,
    "k": TwistedXY.family,
    "k_prime": TwistedXY.family,
    "rate": TwistedXY.family,
    "b": None,
    "alpha": None,
    "delta_mean": "graded",
    "delta_step": "graded",
}
CLASSICAL_SWEEP_PARAMETERS = ("eps", "t_left", "t_right", "alpha_exp")


def _require_keys(section: dict, allowed: set[str], name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise SpecError(f"unknown keys in '{name}' section: {sorted(unknown)}")


def _number(section: dict, key: str, name: str):
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"'{name}.{key}' must be a number, got {value!r}")
    if not finite(value):  # json.loads accepts NaN, Infinity and oversize integers
        raise SpecError(f"'{name}.{key}' must be finite, got {value!r}")
    return value


def _numbers(section: dict, key: str, name: str) -> tuple[float, ...]:
    values = section[key]
    if not isinstance(values, list):
        raise SpecError(f"'{name}.{key}' must be a list of numbers")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"'{name}.{key}' entries must be numbers, got {value!r}")
        if not finite(value):
            raise SpecError(f"'{name}.{key}' entries must be finite, got {value!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class ModelSection:
    chain: ChainSpec
    graded: GradedProfile | None  # set iff the graded-profile form was used
    b_uniform: float | None


@dataclass(frozen=True)
class ClassicalSection:
    chain: ClassicalChainSpec | None  # None in the linearized form until eps is known
    c: tuple[float, ...]
    alpha_exp: float
    base_t: float | None
    a_left: float | None
    a_right: float | None
    eps: float | None


@dataclass(frozen=True)
class SweepSection:
    parameter: str
    grid: tuple[float, ...]


@dataclass(frozen=True)
class OutputSection:
    path: str | None
    format: str


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSection | None
    bath: DissipatorSpec | None
    classical: ClassicalSection | None
    workers: int
    sweep: SweepSection | None
    output: OutputSection
    resolved: dict = field(repr=False)


def _parse_model(section: dict) -> ModelSection:
    allowed = {"n_sites", "alpha", "delta", "b_field", "b_uniform", "delta_mean", "delta_step"}
    _require_keys(section, allowed, "model")
    for key in ("n_sites", "alpha"):
        if key not in section:
            raise SpecError(f"'model.{key}' is required")
    n_sites = section["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool):
        raise SpecError(f"'model.n_sites' must be an integer, got {n_sites!r}")
    require_max_sites(n_sites)  # before any length-n_sites object exists
    alpha = _number(section, "alpha", "model")

    graded_form = "delta_mean" in section or "delta_step" in section
    explicit_form = "delta" in section
    if graded_form == explicit_form:
        raise SpecError(
            "'model' needs either an explicit 'delta' list or the graded form "
            "'delta_mean'/'delta_step', not both and not neither"
        )
    if graded_form and ("delta_mean" not in section or "delta_step" not in section):
        raise SpecError("the graded model form needs both 'delta_mean' and 'delta_step'")
    if graded_form and "b_field" in section:
        raise SpecError("the graded model form takes 'b_uniform', not 'b_field'")
    if "b_field" in section and "b_uniform" in section:
        raise SpecError("'b_field' and 'b_uniform' are mutually exclusive")

    b_uniform = None
    if "b_uniform" in section:
        b_uniform = float(_number(section, "b_uniform", "model"))
        b_field = (b_uniform,) * n_sites
    elif "b_field" in section:
        b_field = _numbers(section, "b_field", "model")
    else:
        b_uniform = 0.0
        b_field = (0.0,) * n_sites

    if graded_form:
        profile = GradedProfile(
            float(_number(section, "delta_mean", "model")),
            float(_number(section, "delta_step", "model")),
        )
        chain = expand_graded(profile, n_sites, alpha=alpha, b_field=b_field[0])
        return ModelSection(chain=chain, graded=profile, b_uniform=b_field[0])
    chain = ChainSpec(
        n_sites=n_sites,
        alpha=alpha,
        delta=_numbers(section, "delta", "model"),
        b_field=b_field,
    )
    return ModelSection(chain=chain, graded=None, b_uniform=b_uniform)


def _parse_bath(section: dict) -> DissipatorSpec:
    if "family" not in section:
        raise SpecError("'bath.family' is required")
    family = section["family"]
    if family == TargetZ.family:
        _require_keys(section, {"family", "gamma", "f", "f_left", "f_right"}, "bath")
        has_shorthand = "f" in section
        has_explicit = "f_left" in section or "f_right" in section
        if has_shorthand and has_explicit:
            raise SpecError("'bath.f' and 'bath.f_left'/'bath.f_right' are mutually exclusive")
        if has_shorthand:
            f = float(_number(section, "f", "bath"))
            f_left, f_right = f, -f
        elif "f_left" in section and "f_right" in section:
            f_left = float(_number(section, "f_left", "bath"))
            f_right = float(_number(section, "f_right", "bath"))
        else:
            raise SpecError("'bath' needs 'f' or both 'f_left' and 'f_right'")
        gamma = float(_number(section, "gamma", "bath")) if "gamma" in section else 1.0
        return TargetZ(f_left=f_left, f_right=f_right, gamma=gamma)
    if family == TwistedXY.family:
        _require_keys(section, {"family", "k", "k_prime", "rate"}, "bath")
        if "k" not in section:
            raise SpecError("'bath.k' is required for the twisted_xy family")
        k = float(_number(section, "k", "bath"))
        k_prime = float(_number(section, "k_prime", "bath")) if "k_prime" in section else -k
        rate = float(_number(section, "rate", "bath")) if "rate" in section else 1.0
        return TwistedXY(k=k, k_prime=k_prime, rate=rate)
    raise SpecError(f"unknown bath family {family!r}; expected 'target_z' or 'twisted_xy'")


def _parse_classical(section: dict) -> ClassicalSection:
    allowed = {"c", "alpha_exp", "t_left", "t_right", "base_t", "a_left", "a_right", "eps"}
    _require_keys(section, allowed, "classical")
    if "c" not in section:
        raise SpecError("'classical.c' must be a list of positive numbers")
    c = _numbers(section, "c", "classical")
    alpha_exp = float(_number(section, "alpha_exp", "classical")) if "alpha_exp" in section else 0.0

    explicit = "t_left" in section or "t_right" in section
    linearized = "base_t" in section or "a_left" in section or "a_right" in section
    if explicit and linearized:
        raise SpecError("'classical' takes either edge temperatures or the linearized form")
    if explicit:
        if "t_left" not in section or "t_right" not in section:
            raise SpecError("'classical' needs both 't_left' and 't_right'")
        chain = ClassicalChainSpec(
            c, alpha_exp,
            float(_number(section, "t_left", "classical")),
            float(_number(section, "t_right", "classical")),
        )
        return ClassicalSection(chain=chain, c=c, alpha_exp=alpha_exp,
                                base_t=None, a_left=None, a_right=None, eps=None)
    if not linearized:
        raise SpecError("'classical' needs edge temperatures or the linearized form")
    for key in ("base_t", "a_left", "a_right"):
        if key not in section:
            raise SpecError(f"the linearized classical form needs '{key}'")
    base_t = float(_number(section, "base_t", "classical"))
    a_left = float(_number(section, "a_left", "classical"))
    a_right = float(_number(section, "a_right", "classical"))
    eps = float(_number(section, "eps", "classical")) if "eps" in section else None
    chain = None
    if eps is not None:
        chain = ClassicalChainSpec(c, alpha_exp, base_t + a_left * eps, base_t + a_right * eps)
    return ClassicalSection(chain=chain, c=c, alpha_exp=alpha_exp,
                            base_t=base_t, a_left=a_left, a_right=a_right, eps=eps)


def _parse_solver(section: dict) -> tuple[str, int]:
    _require_keys(section, {"method", "workers"}, "solver")
    method = section.get("method", "auto")
    if method not in STEADY_METHODS:
        raise SpecError(f"'solver.method' must be one of {STEADY_METHODS}, got {method!r}")
    workers = section.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise SpecError(f"'solver.workers' must be a positive integer, got {workers!r}")
    return method, workers


def _parse_sweep(section: dict, *, classical: bool) -> SweepSection:
    _require_keys(section, {"parameter", "grid"}, "sweep")
    if "parameter" not in section or "grid" not in section:
        raise SpecError("'sweep' needs both 'parameter' and 'grid'")
    parameter = section["parameter"]
    universe = CLASSICAL_SWEEP_PARAMETERS if classical else tuple(SPIN_SWEEP_PARAMETERS)
    if parameter not in universe:
        raise SpecError(f"unknown sweep parameter {parameter!r}; expected one of {sorted(universe)}")
    grid = _numbers(section, "grid", "sweep")
    if not grid:
        raise SpecError("'sweep.grid' must be a non-empty list of numbers")
    return SweepSection(parameter=parameter, grid=grid)


def _check_sweep_compatibility(cfg_sweep: SweepSection, model: ModelSection | None,
                               bath: DissipatorSpec | None) -> None:
    requirement = SPIN_SWEEP_PARAMETERS[cfg_sweep.parameter]
    if requirement in (TargetZ.family, TwistedXY.family) and (
        bath is None or bath.family != requirement
    ):
        raise SpecError(f"sweep parameter {cfg_sweep.parameter!r} needs a {requirement} bath")
    if requirement == "graded" and (model is None or model.graded is None):
        raise SpecError(
            f"sweep parameter {cfg_sweep.parameter!r} needs the graded model form"
        )
    if cfg_sweep.parameter == "b" and model is not None and model.b_uniform is None:
        raise SpecError("sweep parameter 'b' needs a uniform field model")


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; raises SpecError on any defect.

    ``overrides`` maps section names to entries that replace the file's
    before anything is parsed (the CLI flags: ``{"solver": {"method": ...,
    "workers": ...}, "output": {"path": ..., "format": ...}}``), so they are
    checked like file entries. None entries are dropped.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise SpecError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("config root must be a JSON object")
    _require_keys(data, {"model", "bath", "classical", "solver", "sweep", "output"}, "config")
    for name, section in data.items():
        if not isinstance(section, dict):
            raise SpecError(f"'{name}' section must be a JSON object, got {section!r}")
    for name, entries in (overrides or {}).items():
        given = {key: value for key, value in entries.items() if value is not None}
        data[name] = {**data.get(name, {}), **given}

    model = _parse_model(data["model"]) if "model" in data else None
    bath = _parse_bath(data["bath"]) if "bath" in data else None
    classical = _parse_classical(data["classical"]) if "classical" in data else None

    method, workers = _parse_solver(data["solver"]) if "solver" in data else ("auto", 1)

    sweep = None
    if "sweep" in data:
        classical_universe = classical is not None and model is None
        sweep = _parse_sweep(data["sweep"], classical=classical_universe)
        if classical_universe:
            if sweep.parameter == "eps" and classical.base_t is None:
                raise SpecError("sweep parameter 'eps' needs the linearized classical form")
        else:
            _check_sweep_compatibility(sweep, model, bath)

    output_section = data.get("output", {})
    _require_keys(output_section, {"path", "format"}, "output")
    fmt = output_section.get("format", "csv")
    if fmt not in OUTPUT_FORMATS:
        raise SpecError(f"'output.format' must be one of {OUTPUT_FORMATS}, got {fmt!r}")
    output = OutputSection(path=output_section.get("path"), format=fmt)

    config = ExperimentConfig(
        model=model,
        bath=bath,
        classical=classical,
        workers=workers,
        sweep=sweep,
        output=output,
        resolved=_resolve_echo(model, bath, classical, method, workers, sweep, output),
    )
    # resolve every grid point, so an out-of-domain one is a config error before any solve
    for value in sweep.grid if sweep is not None else ():
        if model is None and classical is not None:
            classical_chain_for(config, sweep.parameter, value)
        elif model is not None and bath is not None:
            apply_sweep_value(config, value)
    return config


def _resolve_echo(model, bath, classical, method, workers, sweep, output) -> dict:
    """Fully resolved config for embedding in output files."""
    echo: dict = {"solver": {"method": method, "workers": workers,
                             **dataclasses.asdict(SOLVER)}}
    if model is not None:
        echo["model"] = {
            "n_sites": model.chain.n_sites,
            "alpha": model.chain.alpha,
            "delta": list(model.chain.delta),
            "b_field": list(model.chain.b_field),
        }
        if model.graded is not None:
            echo["model"]["delta_mean"] = model.graded.delta_mean
            echo["model"]["delta_step"] = model.graded.delta_step
    if bath is not None:
        echo["bath"] = {"family": bath.family, **dataclasses.asdict(bath)}
    if classical is not None:
        echo["classical"] = {
            "c": list(classical.c),
            "alpha_exp": classical.alpha_exp,
        }
        for key in ("base_t", "a_left", "a_right", "eps"):
            value = getattr(classical, key)
            if value is not None:
                echo["classical"][key] = value
        if classical.chain is not None:
            echo["classical"]["t_left"] = classical.chain.t_left
            echo["classical"]["t_right"] = classical.chain.t_right
    if sweep is not None:
        echo["sweep"] = {"parameter": sweep.parameter, "grid": list(sweep.grid)}
    echo["output"] = {"path": output.path, "format": output.format}
    return echo


def apply_sweep_value(config: ExperimentConfig, value: float) -> tuple[ChainSpec, DissipatorSpec]:
    """Resolve (chain, bath) for one grid point of a spin sweep."""
    assert config.sweep is not None and config.model is not None and config.bath is not None
    name = config.sweep.parameter
    chain = config.model.chain
    bath = config.bath
    if name in ("f", "k"):
        return chain, bath.with_drive(value)
    if name in ("f_left", "f_right", "gamma", "k_prime", "rate"):
        return chain, dataclasses.replace(bath, **{name: value})
    if name == "b":
        return dataclasses.replace(chain, b_field=(value,) * chain.n_sites), bath
    if name == "alpha":
        return dataclasses.replace(chain, alpha=value), bath
    if name in ("delta_mean", "delta_step"):
        profile = dataclasses.replace(config.model.graded, **{name: value})
        chain = expand_graded(
            profile, chain.n_sites, alpha=chain.alpha, b_field=config.model.b_uniform or 0.0
        )
        return chain, bath
    raise SpecError(f"unknown sweep parameter {name!r}")


def classical_chain_for(config: ExperimentConfig, parameter: str | None = None,
                        value: float | None = None) -> ClassicalChainSpec:
    """Resolve the classical chain, optionally overriding one swept parameter."""
    assert config.classical is not None
    section = config.classical
    if parameter is None:
        if section.chain is None:
            raise SpecError("the linearized classical form needs 'eps' or an eps sweep")
        return section.chain
    if parameter == "eps":
        return ClassicalChainSpec(
            section.c, section.alpha_exp,
            section.base_t + section.a_left * value,
            section.base_t + section.a_right * value,
        )
    base = classical_chain_for(config)
    return dataclasses.replace(base, **{parameter: value})
