"""Config-driven command surface: density | kernel | sweep | gap | paths.

Runs are described by a single key/value config file with nested blocks;
a canonical JSON mirror of the validated config is written next to each
run's outputs.  Data artifacts print floats at 17 significant digits and
are bit-identical across reruns of the same config and seed; wall-clock
timing goes to stderr only, so it never perturbs the artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BracketingError,
    ConfigError,
    NonConvergence,
    OutsideDomain,
    PrincipalValueRequired,
)
from .freeconv import (
    FreeConvolutionState,
    gap_window,
    make_window,
    psi_t,
    t_critical,
)
from .fredholm import GapProblem, gap_probability
from .kernel import RescaledKernelFrame, frame_to_json, sup_sine_deviation
from .measures import InitialConfiguration, MeasureSpec
from .montecarlo import empirical_gap_frequency, paths_csv, dbm_paths, sample_spectra

_FMT = "%.17g"


# -- config text format ------------------------------------------------------
#
#   key = value            scalars: int, float, or bare string
#   key = v1, v2, v3       lists (schema decides element type; empty allowed)
#   block { ... }          one level of nesting
#   # comment to end of line

_MEASURE_KEYS = {
    "kind": str,
    "variance": float,
    "a": float,
    "b": float,
    "exponent": float,
    "center": float,
}
_WINDOW_KEYS = {"x_star": float, "extent": float, "step": float, "epsilon": float}
_QUAD_KEYS = {
    "dc_tol": float,
    "max_levels": int,
    "fredholm_m0": int,
}
_SCHEMA = {
    "measure": _MEASURE_KEYS,
    "window": _WINDOW_KEYS,
    "quadrature": _QUAD_KEYS,
    "n": int,
    "generator": str,
    "points": (float,),
    "gap_center": float,
    "gap_half_width": float,
    "t": float,
    "t_grid": (float,),
    "n_grid": (int,),
    "seed": int,
    "samples": int,
    "sample_index": int,
    "threads": int,
    "out": str,
}


def _coerce_scalar(token: str, kind, key: str):
    token = token.strip()
    if kind is str:
        return token
    try:
        if kind is int:
            return int(token, 0)
        return float(token)
    except ValueError:
        raise ConfigError(f"key '{key}' expects {kind.__name__}, got {token!r}")


def _coerce(raw: str, kind, key: str):
    if isinstance(kind, tuple):
        raw = raw.strip()
        if not raw:
            return []
        return [_coerce_scalar(p, kind[0], key) for p in raw.split(",")]
    if "," in raw:
        raise ConfigError(f"key '{key}' expects a scalar, got a list")
    return _coerce_scalar(raw, kind, key)


def parse_config_text(text: str) -> dict:
    """Schema-validated nested dict from config text; unknown keys rejected."""
    tree: dict = {}
    block: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if block is None:
                raise ConfigError(f"line {lineno}: unmatched '}}'")
            block = None
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if block is not None:
                raise ConfigError(f"line {lineno}: nested block '{name}' too deep")
            if name not in _SCHEMA or not isinstance(_SCHEMA[name], dict):
                raise ConfigError(f"line {lineno}: unknown block '{name}'")
            if name in tree:
                raise ConfigError(f"line {lineno}: duplicate block '{name}'")
            block = name
            tree[name] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (p.strip() for p in line.split("=", 1))
        scope = _SCHEMA if block is None else _SCHEMA[block]
        target = tree if block is None else tree[block]
        if key not in scope or isinstance(scope.get(key), dict):
            where = f"block '{block}'" if block else "top level"
            raise ConfigError(f"line {lineno}: unknown key '{key}' at {where}")
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        target[key] = _coerce(raw, scope[key], key)
    if block is not None:
        raise ConfigError(f"unterminated block '{block}'")
    return tree


def _render_value(val) -> str:
    if isinstance(val, list):
        return ", ".join(_render_value(v) for v in val)
    if isinstance(val, bool):
        raise ConfigError("boolean config values are not supported")
    if isinstance(val, float):
        return _FMT % val
    return str(val)


def serialize_config(tree: dict) -> str:
    """Canonical text form: sorted keys, blocks last, floats at 17 digits."""
    plain = sorted(k for k, v in tree.items() if not isinstance(v, dict))
    blocks = sorted(k for k, v in tree.items() if isinstance(v, dict))
    lines = [f"{k} = {_render_value(tree[k])}" for k in plain]
    for name in blocks:
        lines.append(name + " {")
        for k in sorted(tree[name]):
            lines.append(f"  {k} = {_render_value(tree[name][k])}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


# -- typed view --------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; `tree` is the canonical nested dict."""

    tree: dict

    def get(self, key, default=None):
        return self.tree.get(key, default)

    def block(self, name) -> dict:
        return self.tree.get(name, {})

    def require(self, key):
        if key not in self.tree:
            raise ConfigError(f"config key '{key}' is required for this command")
        return self.tree[key]

    @property
    def seed(self) -> int:
        return int(self.tree.get("seed", 0))

    @property
    def threads(self) -> int | None:
        return self.tree.get("threads")


def validate_config(tree: dict) -> RunConfig:
    for key, val in tree.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}' at top level")
        if isinstance(_SCHEMA[key], dict) != isinstance(val, dict):
            raise ConfigError(f"key '{key}' has the wrong shape")
        if isinstance(val, dict):
            for sub in val:
                if sub not in _SCHEMA[key]:
                    raise ConfigError(f"unknown key '{sub}' in block '{key}'")
    if "t" in tree and "t_grid" in tree:
        raise ConfigError("give either 't' or 't_grid', not both")
    for key in ("samples", "threads"):
        if key in tree and tree[key] < 1:
            raise ConfigError(f"'{key}' must be >= 1, got {tree[key]}")
    return RunConfig(tree=tree)


def _construct(make, *args):
    """make(*args), with the ValueError of a bad config value as a ConfigError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def build_measure(cfg: RunConfig) -> MeasureSpec:
    blk = dict(cfg.block("measure"))
    if not blk:
        raise ConfigError("config block 'measure' is required for this command")
    kind = blk.pop("kind", None)
    if kind == "semicircle":
        mu = _construct(MeasureSpec.semicircle, blk.pop("variance", 1.0))
    elif kind == "uniform":
        mu = _construct(MeasureSpec.uniform, blk.pop("a", -1.0), blk.pop("b", 1.0))
    elif kind == "power":
        if "exponent" not in blk:
            raise ConfigError("power measure needs 'exponent'")
        mu = _construct(
            MeasureSpec.power,
            blk.pop("exponent"),
            blk.pop("center", 0.0),
            (blk.pop("a", -1.0), blk.pop("b", 1.0)),
        )
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")
    if blk:
        raise ConfigError(f"measure keys {sorted(blk)} do not apply to kind '{kind}'")
    return mu


def build_configuration(cfg: RunConfig) -> InitialConfiguration:
    gen = cfg.require("generator")
    if gen == "explicit":
        pts = cfg.require("points")
        if not pts:
            raise ConfigError("explicit generator needs a nonempty 'points' list")
        return _construct(InitialConfiguration.explicit, pts)
    n = int(cfg.require("n"))
    if gen == "quantiles":
        return _construct(InitialConfiguration.from_quantiles, build_measure(cfg), n)
    if gen in ("equispaced", "equispaced_gap"):
        a, b = build_measure(cfg).hull()
        conf = _construct(InitialConfiguration.equispaced, a, b, n)
        if gen == "equispaced_gap":
            if "gap_half_width" not in cfg.tree:
                raise ConfigError("equispaced_gap needs 'gap_half_width'")
            center = float(cfg.get("gap_center", 0.0))
            conf = _construct(conf.with_gap, center, float(cfg.require("gap_half_width")))
        return conf
    raise ConfigError(f"unknown generator {gen!r}")


def _u_grid(cfg: RunConfig) -> np.ndarray:
    blk = cfg.block("window")
    extent = float(blk.get("extent", 2.0))
    step = float(blk.get("step", 0.25))
    if extent <= 0.0 or step <= 0.0:
        raise ConfigError("window extent and step must be positive")
    k = int(round(extent / step))
    return np.arange(-k, k + 1) * step


def build_frame(cfg: RunConfig, conf=None) -> RescaledKernelFrame:
    conf = build_configuration(cfg) if conf is None else conf
    t = float(cfg.require("t"))
    blk = cfg.block("window")
    x_star = float(blk.get("x_star", 0.0))
    grid = _u_grid(cfg)
    if "epsilon" in blk:
        window = gap_window(conf, t, x_star, float(blk["epsilon"]), u_grid=grid)
    else:
        window = make_window(conf.empirical(), t, x_star, u_grid=grid)
    quad = cfg.block("quadrature")
    return RescaledKernelFrame(
        conf,
        t,
        window,
        dc_tol=float(quad.get("dc_tol", 1e-7)),
        max_levels=int(quad.get("max_levels", 8)),
    )


# -- artifact helpers --------------------------------------------------------


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _summary_csv(rows) -> str:
    lines = ["quantity,value,rounded"]
    for name, val in rows:
        lines.append(f"{name},{_FMT % val},{val:.4g}")
    return "\n".join(lines) + "\n"


def _emit_config(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "config.json", json.dumps(cfg.tree, sort_keys=True, indent=2) + "\n")


def _frame_gap_kernel(frame: RescaledKernelFrame):
    def kern(uu, vv):
        return frame.values(np.asarray(uu).ravel(), np.asarray(vv).ravel())

    return kern


# -- commands ----------------------------------------------------------------


def cmd_density(cfg: RunConfig, out: Path) -> int:
    mu = build_measure(cfg)
    t = float(cfg.require("t"))
    if t <= 0.0:
        raise ConfigError(f"density command needs t > 0, got {t}")
    x_star = float(cfg.block("window").get("x_star", 0.0))
    state = FreeConvolutionState(mu, t)
    a, b = mu.hull()
    pad = 2.0 * math.sqrt(t)
    xs = np.linspace(a - pad, b + pad, 201)
    psi = psi_t(state, xs)
    lines = ["x,psi"] + [f"{_FMT % x},{_FMT % p}" for x, p in zip(xs, psi)]
    _emit_config(cfg, out)
    _write(out / "density.csv", "\n".join(lines) + "\n")
    tcr = t_critical(mu, x_star)
    mass = float(np.trapezoid(psi, xs))
    _write(out / "summary.csv", _summary_csv([("t_cr", tcr), ("mass", mass)]))
    print(f"density: t={t:g} t_cr={tcr:.6g} mass={mass:.6g} -> {out}")
    return 0


def cmd_kernel(cfg: RunConfig, out: Path) -> int:
    frame = build_frame(cfg)
    grid = np.asarray(frame.window.u_grid)
    vals = frame.values(grid, grid)
    lines = ["u,v,value"]
    for i, u in enumerate(grid):
        for j, v in enumerate(grid):
            lines.append(f"{_FMT % u},{_FMT % v},{_FMT % vals[i, j]}")
    sine = np.sinc(grid[:, None] - grid[None, :])
    rows = [
        ("sup_sine_deviation", float(np.max(np.abs(vals - sine)))),
        ("sup_abs_value", float(np.max(np.abs(vals)))),
        ("max_sine_amplitude", max(frame.sine_amplitude(u) for u in grid)),
    ]
    _emit_config(cfg, out)
    _write(out / "kernel.csv", "\n".join(lines) + "\n")
    _write(
        out / "frame.json", json.dumps(frame_to_json(frame), sort_keys=True, indent=2) + "\n"
    )
    _write(out / "summary.csv", _summary_csv(rows))
    print(
        f"kernel: n={frame.n} t={frame.t:g} sup|R-sine|={rows[0][1]:.4g} "
        f"sup|R|={rows[1][1]:.4g} A_max={rows[2][1]:.4g} -> {out}"
    )
    return 0


_SWEEP_GAP_INTERVAL = (-0.5, 0.5)


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    ns = [int(v) for v in cfg.require("n_grid")]
    ts = [float(v) for v in cfg.require("t_grid")]
    if not ns:
        raise ConfigError("sweep needs a nonempty 'n_grid'")
    if not ts:
        raise ConfigError("sweep needs a nonempty 't_grid'")
    if len(ts) == 1:
        ts = ts * len(ns)
    if len(ts) != len(ns):
        raise ConfigError(
            f"t_grid length {len(ts)} must be 1 or match n_grid length {len(ns)}"
        )
    quad = cfg.block("quadrature")
    m0 = int(quad.get("fredholm_m0", 8))
    rows = []
    for n, t in zip(ns, ts):
        t0 = time.perf_counter()
        sub = RunConfig(tree={**cfg.tree, "n": n, "t": t})
        frame = build_frame(sub)
        dev = sup_sine_deviation(frame)
        prob = gap_probability(
            GapProblem(_frame_gap_kernel(frame), _SWEEP_GAP_INTERVAL, m=m0)
        ).probability
        secs = time.perf_counter() - t0
        rows.append((n, t, dev, prob, secs))
        print(f"sweep: n={n} t={t:g} took {secs:.2f}s", file=sys.stderr)
    lines = ["n,t,sup_sine_deviation,gap_probability,sup_rounded"]
    for n, t, dev, prob, _ in rows:
        lines.append(f"{n},{_FMT % t},{_FMT % dev},{_FMT % prob},{dev:.4g}")
    _emit_config(cfg, out)
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows -> {out}")
    return 0


def cmd_gap(cfg: RunConfig, out: Path) -> int:
    conf = build_configuration(cfg)
    t = float(cfg.require("t"))
    blk = cfg.block("window")
    if "epsilon" not in blk:
        raise ConfigError("gap command needs window.epsilon")
    eps = float(blk["epsilon"])
    n_samples = int(cfg.get("samples", 2000))
    frame = build_frame(cfg, conf=conf)
    center = frame.window.x_star_t
    interval = (center - eps, center + eps)
    quad = cfg.block("quadrature")
    m0 = int(quad.get("fredholm_m0", 8))
    fred = gap_probability(GapProblem(_frame_gap_kernel(frame), (-1.0, 1.0), m=m0))
    spectra = sample_spectra(conf, t, n_samples, seed=cfg.seed, threads=cfg.threads)
    freq, se = empirical_gap_frequency(spectra, interval)
    blob = {
        "interval": [interval[0], interval[1]],
        "fredholm": fred.to_json(),
        "monte_carlo": {"samples": n_samples, "frequency": freq, "stderr": se},
    }
    _emit_config(cfg, out)
    _write(out / "gap.json", json.dumps(blob, sort_keys=True, indent=2) + "\n")
    _write(
        out / "summary.csv",
        _summary_csv(
            [
                ("fredholm_probability", fred.probability),
                ("fredholm_raw_det", fred.raw_det),
                ("mc_frequency", freq),
                ("mc_stderr", se),
            ]
        ),
    )
    print(
        f"gap: [{interval[0]:.6g}, {interval[1]:.6g}] fredholm={fred.probability:.6g} "
        f"mc={freq:.6g}±{se:.2g} ({n_samples} samples) -> {out}"
    )
    return 0


def cmd_paths(cfg: RunConfig, out: Path) -> int:
    conf = build_configuration(cfg)
    grid = [float(v) for v in cfg.require("t_grid")]
    if not grid:
        raise ConfigError("paths needs a nonempty 't_grid'")
    idx = int(cfg.get("sample_index", 0))
    traj = dbm_paths(conf, grid, idx, seed=cfg.seed)
    _emit_config(cfg, out)
    _write(out / "paths.csv", paths_csv(grid, traj))
    print(f"paths: {len(grid)} times x {conf.n} walkers -> {out}")
    return 0


# -- entry point ---------------------------------------------------------


_COMMANDS = {
    "density": cmd_density,
    "kernel": cmd_kernel,
    "sweep": cmd_sweep,
    "gap": cmd_gap,
    "paths": cmd_paths,
}

_VALIDATION_ERRORS = (
    ConfigError,
    OutsideDomain,
    BracketingError,
    PrincipalValueRequired,
)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dbmlab",
        description="exact kernels, free convolution and gap probabilities "
        "for perturbed Hermitian ensembles",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tree = load_config(args.config)
        if args.seed is not None:
            tree["seed"] = int(args.seed)
        if args.threads is not None:
            tree["threads"] = int(args.threads)
        if args.out is not None:
            tree["out"] = str(args.out)
        cfg = validate_config(tree)
        out = Path(cfg.get("out", "dbmlab_out"))
        return _COMMANDS[args.command](cfg, out)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
