#!/usr/bin/env python3
"""dmscramble benchmark: three fixed workloads, end-to-end metrics, and a
traced run that derives per-layer metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 benchmarks/run.py                       # every workload, in turn
    python3 benchmarks/run.py --workload tsweep-n9 --seed 3 --seconds 30 --trace 1

Workloads. Sizes, grids, sweep lists and worker counts are fixed; the seed
only jitters the couplings h_x, h_z_amp and j_ising by at most 2 %. Every
workload runs the program's defaults: no --jobs, no BLAS thread variable.

  curve-n8        CLI ``curve``, n=8, D=1, T=0.05, model sum, t in [0, 10]
                  with 101 steps, CSV and SVG written to a temp dir. The
                  per-point kernel at d = 256 with a rank-deficient Gibbs
                  state; one config, so the sweep pool never runs.
  tsweep-n9       CLI ``sweep-t``, n=9, D=1, T in {0.05, 0.5, 1, 2}, t in
                  [0, 10] with 3 steps. Few points, so Hamiltonian builds and
                  diagonalisation dominate; all four points share one
                  Hamiltonian; the default pool width meets BLAS threads.
  modelselect-n6  ``experiment.model_selection_report`` at the default base
                  with t in [0, 10] and 101 steps: 27 series at d = 64,
                  where per-call overhead dominates; D sweeps share no
                  Hamiltonian, T sweeps do. Not listed in BENCHMARK.json:
                  one repetition fills a run, and with the default sweep
                  pool meeting two BLAS threads on two cores its wall time
                  spread 0.17 (quartile distance over median, ten seeds)
                  and its median moved 19 % between two sets an hour apart.

One run repeats the workload while another repetition still fits in
``--seconds`` (at least once) and reports medians. Every repetition's
output is checked after the timed window; an operation is one F(t) series
and counts as failed if the run raised, its output check failed, or its
model-selection row has ``error`` set.

``--trace 0`` reports the end-to-end metrics: wall_s, setup_s (process
start, before numpy and dmscramble are imported, to the first timed call;
median of this process and several fresh set-up processes) and peak_rss_mb.
``--trace 1`` splits ``--seconds`` between untraced and traced
repetitions, reports the per-layer metrics of ``tracer.LAYER_METRICS``
plus trace.overhead_s, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

PROCESS_START = time.perf_counter()  # before numpy and dmscramble are imported

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
DEFAULT_SECONDS = 45
JITTER = 0.02
SETUP_PROBES = 10
REFERENCE_SAMPLES = 2
REFERENCE_TOL = 1e-8  # ROADMAP tolerance for a fast path against the dense one
F0_TOL = 1e-9
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (model, d_trend_ok, t_trend_ok) at the default seed; recommends "sum".
EXPECTED_MODEL_ROWS = (("ising", False, True), ("dm", False, False), ("sum", True, True))


def load_package():
    """Import dmscramble from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import dmscramble

    found = os.path.realpath(os.path.dirname(dmscramble.__file__))
    if os.path.dirname(found) != os.path.realpath(SRC):
        raise ImportError(f"dmscramble imported from {found}, not from {SRC}")
    return dmscramble


def couplings(seed):
    """The seed's jittered couplings; the only inputs the seed changes."""
    import numpy as np
    from dmscramble import ChainConfig

    base = ChainConfig()
    factors = 1.0 + np.random.default_rng(seed).uniform(-JITTER, JITTER, size=3)
    return {key: float(getattr(base, key) * f)
            for key, f in zip(("j_ising", "h_x", "h_z_amp"), factors)}


class CliSweep:
    """A CLI subcommand writing one sweep CSV, checked against the dense path."""

    def __init__(self, seed, subcommand, stem, n, swept, values, steps):
        from dmscramble import ChainConfig, TimeGrid

        c = couplings(seed)
        self.seed = seed
        self.stem = stem
        self.swept = swept
        self.values = values
        self.grid = TimeGrid(0.0, 10.0, steps)
        self.base = ChainConfig(n=n, d_strength=1.0, temperature=0.05,
                                evolution_model="sum", **c)
        self.series = len(values)
        self.reference = DenseReference()
        self.argv = [
            subcommand, "--n", str(n), "--d", "1", "--temperature", "0.05",
            "--evolution-model", "sum", "--t-start", "0", "--t-max", "10",
            "--steps", str(steps), "--j-ising", repr(c["j_ising"]),
            "--hx", repr(c["h_x"]), "--hz-amp", repr(c["h_z_amp"]),
        ]
        if swept == "temperature":
            self.argv += ["--temperatures", ",".join(repr(v) for v in values)]

    def run(self, out_dir):
        from dmscramble import cli

        code = cli.main(self.argv + ["--out", out_dir])
        if code != 0:
            raise RuntimeError(f"dmscramble {self.argv[0]} exited with code {code}")
        return os.path.join(out_dir, self.stem + ".csv")

    def check(self, csv_path):
        """Failed series: bad metadata, F(0) != 1, F outside [0, 1], or a
        sampled point off the dense reference composition by > 1e-8."""
        import numpy as np
        from dmscramble import read_csv

        notes = []
        metadata, rows = read_csv(csv_path)
        for key in ("n", "j_ising", "h_x", "h_z_amp", "d_strength", "temperature"):
            if float(metadata.get(key, "nan")) != float(getattr(self.base, key)):
                notes.append(f"metadata {key}={metadata.get(key)}")
        if notes:
            return self.series, notes
        times = self.grid.times
        curves = {}
        for value in self.values:
            f = np.array([r[3] for r in rows if r[0] == self.swept and r[1] == value])
            t = np.array([r[2] for r in rows if r[0] == self.swept and r[1] == value])
            if len(t) != len(times) or not np.array_equal(t, times):
                notes.append(f"{self.swept}={value}: grid mismatch")
            elif abs(f[0] - 1.0) > F0_TOL:
                notes.append(f"{self.swept}={value}: F(0)={f[0]!r}")
            elif not np.all((f >= 0.0) & (f <= 1.0)):
                notes.append(f"{self.swept}={value}: F outside [0, 1]")
            else:
                curves[value] = f
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(self.values) * (len(times) - 1),
                           size=REFERENCE_SAMPLES, replace=False)
        for pick in sorted(picks):
            value = self.values[pick // (len(times) - 1)]
            k = 1 + pick % (len(times) - 1)
            if value not in curves:
                continue
            cfg = self.base.with_(**{self.swept: value})
            expected = self.reference.f(cfg, times[k])
            if abs(curves[value][k] - expected) > REFERENCE_TOL:
                notes.append(f"{self.swept}={value} t={float(times[k])!r}: "
                             f"F={float(curves[value][k])!r}, reference {expected!r}")
                del curves[value]
        return self.series - len(curves), notes


class DenseReference:
    """F(t) from the public dense composition: gibbs_state, eigh,
    heisenberg_evolve, conjugated_pair, uhlmann_fidelity.

    Neither the DM Hamiltonian nor the evolution eigendecomposition depends
    on the temperature, so each is built once per temperature-free config.
    """

    def __init__(self):
        self._built = {}

    def f(self, cfg, t):
        import numpy as np
        import dmscramble as dm

        key = cfg.with_(temperature=1.0)
        if key not in self._built:
            self._built[key] = (dm.build_dm(cfg), dm.eigh(dm.evolution_hamiltonian(cfg)))
        h_dm, decomposition = self._built[key]
        rho = dm.gibbs_state(h_dm, cfg.temperature)
        v, w = dm.butterfly_operators(cfg.n)
        w_t = dm.heisenberg_evolve(w, None, t, decomposition=decomposition)
        rho_a, rho_b = dm.conjugated_pair(rho, v, w_t)
        return float(np.sqrt(dm.uhlmann_fidelity(rho_a, rho_b)))


class ModelSelect:
    """``model_selection_report`` at the default base with jittered couplings."""

    def __init__(self, seed):
        from dmscramble import ChainConfig, TimeGrid
        from dmscramble.experiment import DEFAULT_D_VALUES, DEFAULT_T_VALUES, EVOLUTION_MODELS

        self.seed = seed
        self.base = ChainConfig(**couplings(seed))
        self.grid = TimeGrid(0.0, 10.0, 101)
        self.per_row = len(DEFAULT_D_VALUES) + len(DEFAULT_T_VALUES)
        self.series = len(EVOLUTION_MODELS) * self.per_row

    def run(self, out_dir):
        from dmscramble import experiment

        return experiment.model_selection_report(base=self.base, grid=self.grid)

    def check(self, report):
        """Failed series: those of a row with ``error`` set and, at the
        default seed, of a row that differs from the committed expectation."""
        rows = [(r.model, r.d_trend_ok, r.t_trend_ok) for r in report.rows]
        notes = [f"model rows {rows}, recommended {report.recommended}"]
        expected = {model: trends for model, *trends in EXPECTED_MODEL_ROWS}
        if sorted(r.model for r in report.rows) != sorted(expected):
            return self.series, notes
        failed = 0
        for row in report.rows:
            got = [row.d_trend_ok, row.t_trend_ok]
            if row.error is not None:
                notes.append(f"{row.model}: error {row.error}")
                failed += self.per_row
            elif self.seed == DEFAULT_SEED and got != expected[row.model]:
                notes.append(f"{row.model}: trends {got} not as committed")
                failed += self.per_row
        return failed, notes


WORKLOADS = {
    "curve-n8": lambda seed: CliSweep(seed, "curve", "curve", 8, "d_strength",
                                      (1.0,), 101),
    "tsweep-n9": lambda seed: CliSweep(seed, "sweep-t", "sweep_t", 9, "temperature",
                                       (0.05, 0.5, 1.0, 2.0), 3),
    "modelselect-n6": ModelSelect,
}


def run_once(workload, traced):
    """One timed repetition: wall time, output, error, temp dir and spans."""
    from tracer import Tracer

    out_dir = tempfile.mkdtemp(prefix="rep-", dir=OUT)
    tracer = Tracer() if traced else None
    output = error = None
    # The program's own report goes to a buffer, not to the result stream.
    with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            output = workload.run(out_dir)
        except Exception as exc:  # a failed run counts all its series as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return {"wall": wall, "output": output, "error": error, "dir": out_dir,
            "spans": tracer.spans if tracer is not None else None}


def repeat(workload, budget, traced):
    """Repeat while another repetition still fits in ``budget`` seconds."""
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(run_once(workload, traced))
        if time.perf_counter() - started + reps[-1]["wall"] > budget:
            return reps


def check(workload, reps):
    """Run every output check (after timing); returns (failed series, notes)."""
    failed = 0
    notes = []
    for rep in reps:
        if rep["error"] is not None:
            failed += workload.series
            notes.append(rep["error"])
        else:
            try:
                f, p = workload.check(rep["output"])
            except Exception as exc:  # an unreadable output fails every series
                f, p = workload.series, [f"check raised {type(exc).__name__}: {exc}"]
            failed += f
            notes += p
        shutil.rmtree(rep["dir"], ignore_errors=True)
    return failed, notes


def setup_probes(name, seed):
    """Set-up time of fresh processes, each measured like this one's."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Results whose environment blocks differ are never compared."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def write_spans(name, seed, reps):
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for index, rep in enumerate(reps):
            for s in rep["spans"]:
                note = s.note if isinstance(s.note, int) or s.note is None else repr(s.note)
                fh.write(json.dumps({"rep": index, "id": s.id, "parent": s.parent,
                                     "thread": s.thread, "layer": s.layer,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "note": note}) + "\n")
    return path


def run_workload(args):
    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import dmscramble from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    os.makedirs(OUT, exist_ok=True)
    budget = args.seconds / 2 if args.trace else args.seconds
    reps = repeat(workload, budget, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = repeat(workload, budget, traced=True) if args.trace else []
    failed, notes = check(workload, reps + traced)
    attempted = workload.series * (len(reps) + len(traced))

    wall_s = statistics.median(r["wall"] for r in reps)
    if args.trace:
        from tracer import LAYER_METRICS, layer_metrics

        per_rep = [layer_metrics(r["spans"]) for r in traced]
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_rep),
                          "unit": unit} for name, unit in LAYER_METRICS.items()}
        overhead = statistics.median(r["wall"] for r in traced) - wall_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"spans written to {write_spans(args.workload, args.seed, traced)}")
    else:
        setup_samples = [setup_s] + setup_probes(args.workload, args.seed)
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} untraced and {len(traced)} traced repetitions, "
          f"walls {[round(r['wall'], 3) for r in reps + traced]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {failed / attempted:.6g} ({failed}/{attempted} series)")
    for note in notes:
        print(f"  check: {note}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS stays per workload."""
    results = {}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    if code:
        return code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: report set-up time only
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
