"""Parameter sweeps over DM strength and temperature, with scrambling
times, diagnostics, CSV persistence and a static SVG chart."""

import math
import os
import tempfile
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

from . import __version__ as _version
from .hamiltonian import EVOLUTION_MODELS, ChainConfig, build_dm
from .linalg import FIDELITY_CONVENTION
from .otoc import TimeGrid, otoc_series, scrambling_time
from .thermal import gibbs_state, purity

SWEEPABLE = ("d_strength", "temperature")

DEFAULT_D_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_T_VALUES = (0.05, 0.5, 1.0, 2.0)
DEFAULT_THRESHOLD = 0.9


@dataclass(frozen=True)
class SweepSpec:
    base: ChainConfig
    swept_parameter: str
    values: tuple
    grid: TimeGrid = TimeGrid()
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.swept_parameter not in SWEEPABLE:
            raise ValueError(
                f"swept_parameter={self.swept_parameter!r} not in {SWEEPABLE}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"sweep values must be strictly ascending: {values}")
        for v in values:
            self.base.with_(**{self.swept_parameter: v})  # validates range
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold={self.threshold} outside (0, 1)")
        object.__setattr__(self, "values", values)

    def configs(self):
        return [self.base.with_(**{self.swept_parameter: v}) for v in self.values]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    series: tuple  # OtocSeries per swept value
    scrambling_times: tuple  # float or None per swept value
    initial_purities: tuple
    wall_times: tuple


def _sweep_point(cfg, grid, threshold):
    start = _time.perf_counter()
    series = otoc_series(cfg, grid)
    rho_i = gibbs_state(build_dm(cfg), cfg.temperature)
    return (
        series,
        scrambling_time(series, threshold),
        purity(rho_i),
        _time.perf_counter() - start,
    )


def run_sweep(spec, jobs=None):
    """Evaluate an OTOC series per swept value; points run concurrently.

    Output ordering always follows spec.values regardless of completion
    order, so results are deterministic for any worker count.
    """
    configs = spec.configs()
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be >= 1")
    jobs = min(jobs, len(configs))
    if jobs == 1:
        points = [_sweep_point(c, spec.grid, spec.threshold) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            points = list(
                pool.map(lambda c: _sweep_point(c, spec.grid, spec.threshold), configs)
            )
    series, times, purities, walls = zip(*points)
    return SweepResult(
        spec=spec,
        series=series,
        scrambling_times=times,
        initial_purities=purities,
        wall_times=walls,
    )


def _fmt(x):
    return format(float(x), ".17g")


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"failed writing {path}: {exc}") from exc


def csv_text(result):
    """Serialize a SweepResult to the CSV wire format (with metadata block)."""
    spec = result.spec
    lines = [
        f"# artifact_version={_version}",
        f"# fidelity_convention={FIDELITY_CONVENTION}",
        f"# swept_parameter={spec.swept_parameter}",
        f"# threshold={_fmt(spec.threshold)}",
    ]
    for record in (spec.base, spec.grid):
        for field in fields(record):
            value = getattr(record, field.name)
            text = _fmt(value) if field.type is float else value
            lines.append(f"# {field.name}={text}")
    lines.append("swept_param,swept_value,t,F")
    for value, series in zip(spec.values, result.series):
        for t, f in zip(series.grid.times, series.values):
            lines.append(
                f"{spec.swept_parameter},{_fmt(value)},{_fmt(t)},{_fmt(f)}"
            )
    return "\n".join(lines) + "\n"


def write_csv(result, path):
    """Write the sweep CSV atomically (temp file + rename)."""
    _atomic_write(path, csv_text(result))


def read_csv(path):
    """Parse a sweep CSV back into (metadata dict, rows of floats)."""
    metadata = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key] = value
            elif line and not line.startswith("swept_param,"):
                param, value, t, f = line.split(",")
                rows.append((param, float(value), float(t), float(f)))
    return metadata, rows


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def svg_text(result, width=720, height=480):
    """Render the sweep as a standalone SVG line chart."""
    spec = result.spec
    grid = spec.grid
    margin_l, margin_r, margin_t, margin_b = 60, 150, 20, 45
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    f_max = 1.05

    def sx(t):
        return margin_l + (t - grid.t_start) / (grid.t_end - grid.t_start) * plot_w

    def sy(f):
        return margin_t + (f_max - f) / f_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = grid.t_start + frac * (grid.t_end - grid.t_start)
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin_t + plot_h}" x2="{x:.2f}" '
            f'y2="{margin_t + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin_t + plot_h + 20}" '
            f'text-anchor="middle" font-size="12">{t:g}</text>'
        )
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(f)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{y:.2f}" x2="{margin_l}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_l - 10}" y="{y + 4:.2f}" '
            f'text-anchor="end" font-size="12">{f:g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.2f}" y="{height - 8}" '
        f'text-anchor="middle" font-size="13">t</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {margin_t + plot_h / 2:.2f})">'
        "F(t)</text>"
    )
    for i, (value, series) in enumerate(zip(spec.values, result.series)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{sx(t):.2f},{sy(f):.2f}"
            for t, f in zip(series.grid.times, series.values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 18 * i
        lx = margin_l + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 26}" y="{ly}" font-size="12">'
            f"{spec.swept_parameter}={value:g}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(result, path, width=720, height=480):
    """Write the sweep chart SVG atomically."""
    _atomic_write(path, svg_text(result, width=width, height=height))


@dataclass(frozen=True)
class ModelRow:
    model: str
    d_trend_ok: bool  # scrambling time strictly decreasing in D
    t_trend_ok: bool  # scrambling time non-decreasing in T
    error: Optional[str] = None


@dataclass(frozen=True)
class ModelSelectionReport:
    rows: tuple
    recommended: str  # model name or "inconclusive"


def _strictly_decreasing(times):
    keyed = [math.inf if t is None else t for t in times]
    return all(b < a for a, b in zip(keyed, keyed[1:]))


def _non_decreasing(times):
    keyed = [math.inf if t is None else t for t in times]
    return all(b >= a for a, b in zip(keyed, keyed[1:]))


def model_selection_report(
    base=None,
    grid=None,
    threshold=DEFAULT_THRESHOLD,
    d_values=DEFAULT_D_VALUES,
    t_values=DEFAULT_T_VALUES,
    jobs=None,
):
    """Probe each candidate evolution model against both sweep trends.

    Runs the D sweep and the T sweep under every evolution model and
    records whether scrambling accelerates with D and slows with T.
    The recommended model is the first for which both trends hold.
    """
    if base is None:
        base = ChainConfig()
    if grid is None:
        grid = TimeGrid()
    rows = []
    for model in EVOLUTION_MODELS:
        cfg = base.with_(evolution_model=model)
        try:
            d_spec = SweepSpec(
                base=cfg.with_(temperature=0.05),
                swept_parameter="d_strength",
                values=d_values,
                grid=grid,
                threshold=threshold,
            )
            d_result = run_sweep(d_spec, jobs=jobs)
            t_spec = SweepSpec(
                base=cfg.with_(d_strength=1.0),
                swept_parameter="temperature",
                values=t_values,
                grid=grid,
                threshold=threshold,
            )
            t_result = run_sweep(t_spec, jobs=jobs)
        except Exception as exc:  # keep probing remaining models
            rows.append(ModelRow(model, False, False, error=str(exc)))
            continue
        rows.append(
            ModelRow(
                model,
                _strictly_decreasing(d_result.scrambling_times),
                _non_decreasing(t_result.scrambling_times),
            )
        )
    recommended = next(
        (r.model for r in rows if r.d_trend_ok and r.t_trend_ok), "inconclusive"
    )
    return ModelSelectionReport(rows=tuple(rows), recommended=recommended)
