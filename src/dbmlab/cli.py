"""Config-driven command surface: density | kernel | sweep | gap | paths.

Runs are described by a single key/value config file with nested blocks.
Its parsed tree is the one description of a run: the commands read it, and
its JSON mirror ``config.json`` is written next to each run's outputs.  Data artifacts print floats at 17 significant digits and
are bit-identical across reruns of the same config and seed; wall-clock
timing goes to stderr only, so it never perturbs the artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
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
#
# A numeric key is (type, range) and a list key ([type], range), the range
# holding for every element; text keys are bare str.

_RANGES = {
    "finite": math.isfinite,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
}

_MEASURE_KEYS = {
    "kind": str,
    "variance": (float, "finite and > 0"),
    "a": (float, "finite"),
    "b": (float, "finite"),
    "exponent": (float, "finite and > 0"),
    "center": (float, "finite"),
}
_WINDOW_KEYS = {
    "x_star": (float, "finite"),
    "extent": (float, "finite and > 0"),
    "step": (float, "finite and > 0"),
    "epsilon": (float, "finite and > 0"),
}
_SCHEMA = {
    "measure": _MEASURE_KEYS,
    "window": _WINDOW_KEYS,
    "n": (int, ">= 1"),
    "generator": str,
    "points": ([float], "finite"),
    "gap_center": (float, "finite"),
    "gap_half_width": (float, "finite and > 0"),
    "t": (float, "finite and > 0"),
    "t_grid": ([float], "finite and >= 0"),
    "n_grid": ([int], ">= 1"),
    "seed": (int, ">= 0"),
    "samples": (int, ">= 1"),
    "sample_index": (int, ">= 0"),
    "threads": (int, ">= 1"),
    "out": str,
}


def _coerce_scalar(token: str, kind, rule: str, key: str):
    token = token.strip()
    try:
        value = int(token, 0) if kind is int else float(token)
    except ValueError:
        raise ConfigError(f"key '{key}' expects {kind.__name__}, got {token!r}")
    if not _RANGES[rule](value):
        raise ConfigError(f"'{key}' must be {rule}, got {value}")
    return value


def _coerce(raw: str, spec, key: str):
    if spec is not str and isinstance(spec[0], list):
        raw = raw.strip()
        if not raw:
            return []
        return [_coerce_scalar(p, spec[0][0], spec[1], key) for p in raw.split(",")]
    if "," in raw:
        raise ConfigError(f"key '{key}' expects a scalar, got a list")
    if spec is str:
        return raw.strip()
    return _coerce_scalar(raw, *spec, key)


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
        name = key if block is None else f"{block}.{key}"
        target[key] = _coerce(raw, scope[key], name)
    if block is not None:
        raise ConfigError(f"unterminated block '{block}'")
    if "t" in tree and "t_grid" in tree:
        raise ConfigError("give either 't' or 't_grid', not both")
    return tree


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


# -- building from the tree ------------------------------------------------


def _require(tree: dict, key):
    if key not in tree:
        raise ConfigError(f"config key '{key}' is required for this command")
    return tree[key]


def build_measure(tree: dict) -> MeasureSpec:
    blk = dict(tree.get("measure", {}))
    if not blk:
        raise ConfigError("config block 'measure' is required for this command")
    kind = blk.pop("kind", None)
    if kind == "semicircle":
        mu = MeasureSpec.semicircle(blk.pop("variance", 1.0))
    elif kind == "uniform":
        mu = MeasureSpec.uniform(blk.pop("a", -1.0), blk.pop("b", 1.0))
    elif kind == "power":
        if "exponent" not in blk:
            raise ConfigError("power measure needs 'exponent'")
        mu = MeasureSpec.power(
            blk.pop("exponent"),
            blk.pop("center", 0.0),
            (blk.pop("a", -1.0), blk.pop("b", 1.0)),
        )
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")
    if blk:
        raise ConfigError(f"measure keys {sorted(blk)} do not apply to kind '{kind}'")
    return mu


def build_configuration(tree: dict) -> InitialConfiguration:
    gen = _require(tree, "generator")
    if gen == "explicit":
        return InitialConfiguration.explicit(_require(tree, "points"))
    n = int(_require(tree, "n"))
    if gen == "quantiles":
        return InitialConfiguration.from_quantiles(build_measure(tree), n)
    if gen in ("equispaced", "equispaced_gap"):
        a, b = build_measure(tree).hull()
        conf = InitialConfiguration.equispaced(a, b, n)
        if gen == "equispaced_gap":
            if "gap_half_width" not in tree:
                raise ConfigError("equispaced_gap needs 'gap_half_width'")
            center = float(tree.get("gap_center", 0.0))
            conf = conf.with_gap(center, float(tree["gap_half_width"]))
        return conf
    raise ConfigError(f"unknown generator {gen!r}")


def _u_grid(tree: dict) -> np.ndarray:
    blk = tree.get("window", {})
    extent = float(blk.get("extent", 2.0))
    step = float(blk.get("step", 0.25))
    k = int(round(extent / step))
    return np.arange(-k, k + 1) * step


def build_frame(tree: dict, conf=None) -> RescaledKernelFrame:
    conf = build_configuration(tree) if conf is None else conf
    t = float(_require(tree, "t"))
    blk = tree.get("window", {})
    x_star = float(blk.get("x_star", 0.0))
    grid = _u_grid(tree)
    if "epsilon" in blk:
        window = gap_window(conf, t, x_star, float(blk["epsilon"]), u_grid=grid)
    else:
        window = make_window(conf, t, x_star, u_grid=grid)
    return RescaledKernelFrame(conf, t, window)


# -- artifact helpers --------------------------------------------------------


def _summary_csv(rows) -> str:
    lines = ["quantity,value,rounded"]
    for name, val in rows:
        lines.append(f"{name},{_FMT % val},{val:.4g}")
    return "\n".join(lines) + "\n"


def _emit_config(tree: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(tree, sort_keys=True, indent=2) + "\n")


def _frame_gap_kernel(frame: RescaledKernelFrame):
    def kern(uu, vv):
        return frame.values(np.asarray(uu).ravel(), np.asarray(vv).ravel())

    return kern


# -- commands ----------------------------------------------------------------


def cmd_density(tree: dict, out: Path) -> int:
    mu = build_measure(tree)
    t = float(_require(tree, "t"))
    x_star = float(tree.get("window", {}).get("x_star", 0.0))
    state = FreeConvolutionState(mu, t)
    a, b = mu.hull()
    pad = 2.0 * math.sqrt(t)
    xs = np.linspace(a - pad, b + pad, 201)
    psi = psi_t(state, xs)
    lines = ["x,psi"] + [f"{_FMT % x},{_FMT % p}" for x, p in zip(xs, psi)]
    _emit_config(tree, out)
    (out / "density.csv").write_text("\n".join(lines) + "\n")
    tcr = t_critical(mu, x_star)
    mass = float(np.trapezoid(psi, xs))
    (out / "summary.csv").write_text(_summary_csv([("t_cr", tcr), ("mass", mass)]))
    print(f"density: t={t:g} t_cr={tcr:.6g} mass={mass:.6g} -> {out}")
    return 0


def cmd_kernel(tree: dict, out: Path) -> int:
    frame = build_frame(tree)
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
    _emit_config(tree, out)
    (out / "kernel.csv").write_text("\n".join(lines) + "\n")
    (out / "frame.json").write_text(
        json.dumps(frame_to_json(frame), sort_keys=True, indent=2) + "\n"
    )
    (out / "summary.csv").write_text(_summary_csv(rows))
    print(
        f"kernel: n={frame.n} t={frame.t:g} sup|R-sine|={rows[0][1]:.4g} "
        f"sup|R|={rows[1][1]:.4g} A_max={rows[2][1]:.4g} -> {out}"
    )
    return 0


_SWEEP_GAP_INTERVAL = (-0.5, 0.5)


def cmd_sweep(tree: dict, out: Path) -> int:
    ns = [int(v) for v in _require(tree, "n_grid")]
    ts = [float(v) for v in _require(tree, "t_grid")]
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
    rows = []
    for n, t in zip(ns, ts):
        t0 = time.perf_counter()
        frame = build_frame({**tree, "n": n, "t": t})
        dev = sup_sine_deviation(frame)
        prob = gap_probability(
            GapProblem(_frame_gap_kernel(frame), _SWEEP_GAP_INTERVAL)
        ).probability
        secs = time.perf_counter() - t0
        rows.append((n, t, dev, prob, secs))
        print(f"sweep: n={n} t={t:g} took {secs:.2f}s", file=sys.stderr)
    lines = ["n,t,sup_sine_deviation,gap_probability,sup_rounded"]
    for n, t, dev, prob, _ in rows:
        lines.append(f"{n},{_FMT % t},{_FMT % dev},{_FMT % prob},{dev:.4g}")
    _emit_config(tree, out)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows -> {out}")
    return 0


def cmd_gap(tree: dict, out: Path) -> int:
    conf = build_configuration(tree)
    t = float(_require(tree, "t"))
    blk = tree.get("window", {})
    if "epsilon" not in blk:
        raise ConfigError("gap command needs window.epsilon")
    eps = float(blk["epsilon"])
    n_samples = int(tree.get("samples", 2000))
    frame = build_frame(tree, conf=conf)
    center = frame.window.x_star_t
    interval = (center - eps, center + eps)
    fred = gap_probability(GapProblem(_frame_gap_kernel(frame), (-1.0, 1.0)))
    spectra = sample_spectra(
        conf, t, n_samples, seed=int(tree.get("seed", 0)), threads=tree.get("threads")
    )
    freq, se = empirical_gap_frequency(spectra, interval)
    blob = {
        "interval": [interval[0], interval[1]],
        "fredholm": fred.to_json(),
        "monte_carlo": {"samples": n_samples, "frequency": freq, "stderr": se},
    }
    _emit_config(tree, out)
    (out / "gap.json").write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n")
    rows = [
        ("fredholm_probability", fred.probability),
        ("fredholm_raw_det", fred.raw_det),
        ("mc_frequency", freq),
        ("mc_stderr", se),
    ]
    (out / "summary.csv").write_text(_summary_csv(rows))
    print(
        f"gap: [{interval[0]:.6g}, {interval[1]:.6g}] fredholm={fred.probability:.6g} "
        f"mc={freq:.6g}±{se:.2g} ({n_samples} samples) -> {out}"
    )
    return 0


def cmd_paths(tree: dict, out: Path) -> int:
    conf = build_configuration(tree)
    grid = [float(v) for v in _require(tree, "t_grid")]
    if not grid:
        raise ConfigError("paths needs a nonempty 't_grid'")
    idx = int(tree.get("sample_index", 0))
    traj = dbm_paths(conf, grid, idx, seed=int(tree.get("seed", 0)))
    _emit_config(tree, out)
    (out / "paths.csv").write_text(paths_csv(grid, traj))
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
        for key in ("seed", "threads"):
            if getattr(args, key) is not None:
                tree[key] = _coerce(str(getattr(args, key)), _SCHEMA[key], key)
        if args.out is not None:
            tree["out"] = str(args.out)
        return _COMMANDS[args.command](tree, Path(tree.get("out", "dbmlab_out")))
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
