"""bezmerge benchmark: one closed-loop client in one process, numpy on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The client
sends request i + 1 only after request i returns; in between it only builds
the next input, runs the speed kernel every 0.2 s and, every 1.5 s or so,
times one CLI run, so CLI samples spread over the run like the requests.
Inputs come from --seed (see workloads.py). Every output is checked: finite
controls, end-derivative residuals, the arc-length partition, the paper's
tables on paper-glyphs, and the curve-level L2 distance to an exact rational
optimum (exact.py), computed after the timed loop.

--trace 0 prints the end-to-end metrics: run_merge and merge latency (p50
and p90 over requests of the median latency of each request's grid cell,
i.e. its structure), the median CLI run, set-up time, peak RSS and
accuracy. --trace 1 serves every request untraced and traced, in alternating
order, and prints per-layer self times, call counts and table counts, writing
the spans to .bench_out/. The last stdout line is one JSON object
{correct, attempted, failed, metrics}.

Every time reported (end-to-end and per-layer) is at the reference machine
speed of speed.py: each wall time is multiplied by the host's speed scale,
measured by a calibration kernel every 0.2 s of the run and around each CLI
and set-up process. The process and its children run on one core, the core
the kernel measures. The host this was built on slows each core on its own,
by 25-50% for seconds to minutes; scaled, ten-seed sets agree within a few
percent. The wall-clock medians and the range of the scale are printed on
the lines before the JSON.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ONE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# A request misses the stated accuracy when its curve-level L2 distance to the
# exact optimum exceeds this share of the input's bounding-box diagonal.
STATED_ACCURACY = 1e-6
# End-derivative residuals above this share of the diagonal are wrong output.
RESIDUAL_TOL = 1e-9
# Arc-length knots further than this from an accurate quadrature come from
# another knot rule. Quadrature error alone stays well below it: the package's
# 32-node rule is up to 6e-4 off near cusps of random chains.
KNOT_TOL = 1e-2
# Accuracy figures are reported as log10(x) + 20, x floored at 1e-19, so they
# stay positive for every x from exact to far off.
LOG_FLOOR = 1e-19
SETUP_RUNS = 9
WARMUP_REQUESTS = 8
# One CLI run (~0.2-0.4 s) after every SIDE_INTERVAL seconds of requests.
SIDE_INTERVAL = 1.5
CLI_MIN_RUNS = 3
MIN_TRACED_REQUESTS = 16
# run_merge's own statements between layer calls, as a share of its time.
UNATTRIBUTED_SLACK = 0.01

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import bezmerge
t1 = time.perf_counter()
from workloads import WORKLOADS
req = WORKLOADS[sys.argv[1]](int(sys.argv[2])).request(0)
t2 = time.perf_counter()
bezmerge.run_merge(req.doc, req.params, partition_mode="arc")
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    return env


def measure_setup(workload: str, seed: int, speed: Speed) -> tuple:
    """Median over fresh interpreters of import bezmerge plus the first request.

    Returns (scaled, wall) seconds; speed is sampled around every child.
    """
    scaled, wall = [], []
    # The first child compiles bytecode and is not counted.
    for i in range(SETUP_RUNS + 1):
        speed.sample()
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, workload, str(seed)],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        t1 = time.perf_counter()
        speed.sample()
        if i:
            wall.append(float(out.stdout.strip().splitlines()[-1]))
            scaled.append(wall[-1] * speed.scale(0.5 * (t0 + t1)))
    return statistics.median(scaled), statistics.median(wall)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cell_medians(records, values) -> list:
    """Each request's value replaced by the median value of its grid cell.

    Requests of a cell cost the same; the cell median keeps the spread that
    request structure causes and drops the host's jitter between requests.
    """
    by_cell = {}
    for rec, value in zip(records, values):
        by_cell.setdefault(rec.request.cell, []).append(value)
    median = {cell: statistics.median(v) for cell, v in by_cell.items()}
    return [median[rec.request.cell] for rec in records]


def log_metric(x: float) -> float:
    return math.log10(max(x, LOG_FLOOR)) + 20.0


class Record:
    """One request's inputs, outputs and timing."""

    __slots__ = ("index", "request", "controls", "partition", "errors", "merge_s",
                 "latency_s", "start", "error")

    def __init__(self, index, request):
        self.index = index
        self.request = request
        self.controls = self.partition = self.errors = self.error = None
        self.merge_s = self.latency_s = self.start = 0.0


def serve(rec, call) -> None:
    """Run one request through call(rec) -> (report, seconds), storing the outcome."""
    rec.start = time.perf_counter()
    try:
        report, rec.latency_s = call(rec)
    except Exception as exc:  # counted as a failed request
        rec.error = f"{type(exc).__name__}: {exc}"
    else:
        rec.controls = report.controls
        rec.partition = report.partition
        rec.errors = (report.errors.e2, report.errors.e_inf)
        rec.merge_s = report.merge_seconds


def closed_loop(workload, seconds: float, min_requests: int, speed: Speed, tracer=None,
                side=None) -> tuple:
    """Serve requests 0, 1, ... until `seconds` pass and `min_requests` are done.

    Returns (records, traced records). With a tracer every request is served
    twice, untraced and traced, in alternating order, so the two sets share
    their inputs and differ only by the tracing. side(), when given, runs
    between requests every SIDE_INTERVAL seconds, so that its samples spread
    over the whole loop like the requests' do; speed is sampled every
    speed.INTERVAL_S between requests.
    """
    from bezmerge import run_merge

    def plain(rec):
        t0 = time.perf_counter()
        report = run_merge(rec.request.doc, rec.request.params, partition_mode="arc")
        return report, time.perf_counter() - t0

    def traced(rec):
        return tracer.call(rec.index, run_merge, rec.request.doc, rec.request.params,
                           partition_mode="arc")

    for w in range(WARMUP_REQUESTS):
        req = workload.warmup(w)
        run_merge(req.doc, req.params, partition_mode="arc")
    records, traced_records = [], []
    now = time.perf_counter()
    deadline, next_side = now + seconds, now
    i = 0
    while i < min_requests or time.perf_counter() < deadline:
        speed.tick()
        if side is not None and time.perf_counter() >= next_side:
            side()
            next_side = time.perf_counter() + SIDE_INTERVAL
        rec = Record(i, workload.request(i))
        if tracer is None:
            serve(rec, plain)
        else:
            twin = Record(i, rec.request)
            for r, call in ((rec, plain), (twin, traced))[:: 1 if i % 2 else -1]:
                serve(r, call)
            traced_records.append(twin)
        records.append(rec)
        i += 1
    speed.sample()
    return records, traced_records


def arc_length_knots(segments, panels: int = 16, nodes: int = 16):
    """Knots proportional to cumulative arc length, by composite Gauss-Legendre."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(nodes)
    u = ((np.arange(panels)[:, None] + (x + 1.0) / 2.0) / panels).ravel()
    weights = np.tile(w / (2.0 * panels), panels)
    lengths = []
    for pts in segments:
        n = len(pts) - 1
        hodograph = n * np.diff(pts, axis=0)
        basis = np.array([math.comb(n - 1, j) * u**j * (1.0 - u) ** (n - 1 - j)
                          for j in range(n)])
        lengths.append(float(weights @ np.sqrt(((basis.T @ hodograph) ** 2).sum(axis=1))))
    cum = np.cumsum(lengths)
    return np.concatenate([[0.0], cum / cum[-1]])


def check(rec):
    """(hard failure or None, relative L2 distance to exact, relative residual)."""
    import numpy as np

    import exact
    from workloads import E2_RTOL, EINF_RTOL

    if rec.error is not None:
        return rec.error, math.nan, math.nan
    req = rec.request
    m, k, l = req.params.m, req.params.k, req.params.l
    controls = np.asarray(rec.controls, dtype=float)
    if controls.shape != (m + 1, req.doc.dimension):
        return f"controls have shape {controls.shape}", math.nan, math.nan
    if not (np.all(np.isfinite(controls)) and all(map(math.isfinite, rec.errors))):
        return "non-finite output", math.nan, math.nan
    segments = [seg.points for seg in req.doc.segments]
    allpts = np.vstack(segments)
    diag = float(np.linalg.norm(allpts.max(axis=0) - allpts.min(axis=0)))
    knot_gap = float(np.abs(arc_length_knots(segments) - np.asarray(rec.partition)).max())
    if knot_gap > KNOT_TOL:
        return f"partition is {knot_gap:.1e} off arc length", math.nan, math.nan
    seg_lists = [pts.tolist() for pts in segments]
    ref = exact.exact_merge(seg_lists, rec.partition, m, k, l)
    dev = math.sqrt(float(exact.l2_distance_sq(rec.controls, ref, m))) / diag
    residual = exact.endpoint_residual(rec.controls, seg_lists, m, k, l) / diag
    if residual > RESIDUAL_TOL:
        return f"end-derivative residual {residual:.1e}", dev, residual
    if req.paper is not None:
        scale, e2_ref, einf_ref = req.paper
        e2, e_inf = rec.errors[0] / scale, rec.errors[1] / scale
        if abs(e2 - e2_ref) > E2_RTOL * e2_ref or abs(e_inf - einf_ref) > EINF_RTOL * einf_ref:
            return f"E2 {e2:.3e} / E_inf {e_inf:.3e} off the paper's table", dev, residual
    return None, dev, residual


class CliRuns:
    """Timed runs of `python -m bezmerge.cli merge` on the workload's CLI document."""

    def __init__(self, workload, speed: Speed):
        from bezmerge import run_merge, save_curve

        path, req = workload.cli_request()
        if path is None:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"cli-{workload.name}-{workload.seed}.json"
            save_curve(req.doc, path)
        p = req.params
        self.cmd = [sys.executable, "-m", "bezmerge.cli", "merge", str(path),
                    "--m", str(p.m), "--k", str(p.k), "--l", str(p.l)]
        self.expected = run_merge(req.doc, p, partition_mode="arc").controls
        self.speed = speed
        # (start, end) perf_counter times of each run.
        self.runs, self.failures = [], []

    def __call__(self) -> None:
        import numpy as np

        self.speed.sample()
        t0 = time.perf_counter()
        out = subprocess.run(self.cmd, env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        self.runs.append((t0, time.perf_counter()))
        self.speed.sample()
        if out.returncode != 0:
            self.failures.append(f"CLI exited {out.returncode}: {out.stderr.strip()[-200:]}")
            return
        controls = json.loads(out.stdout)["controls"]
        if not np.all(np.isfinite(controls)) or controls != self.expected:
            self.failures.append("CLI controls differ from run_merge")


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, seconds: float):
    speed = Speed()
    setup, setup_wall = measure_setup(workload.name, workload.seed, speed)
    cli = CliRuns(workload, speed)
    records, _ = closed_loop(workload, seconds, workload.accuracy_requests, speed, side=cli)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(cli.runs) < CLI_MIN_RUNS:
        cli()

    verdicts = [check(rec) for rec in records]
    scored = verdicts[: workload.accuracy_requests]
    misses = sum(1 for hard, dev, _ in scored if hard or not dev <= STATED_ACCURACY)
    devs = [dev for hard, dev, _ in scored if not math.isnan(dev)]
    residuals = [res for hard, _, res in scored if not math.isnan(res)]
    ok = [rec for rec in records if rec.error is None]
    scales = [speed.scale(rec.start) for rec in ok]
    latencies = cell_medians(ok, [rec.latency_s * 1e3 * f for rec, f in zip(ok, scales)])
    merges = cell_medians(ok, [rec.merge_s * 1e3 * f for rec, f in zip(ok, scales)])
    cli_ms = [(t1 - t0) * 1e3 * speed.scale(0.5 * (t0 + t1)) for t0, t1 in cli.runs]
    metrics = {
        "run_merge_ms.p50": metric(statistics.median(latencies), "ms"),
        "run_merge_ms.p90": metric(p90(latencies), "ms"),
        "merge_ms.p50": metric(statistics.median(merges), "ms"),
        "merge_ms.p90": metric(p90(merges), "ms"),
        "cli_ms.p50": metric(statistics.median(cli_ms), "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "accuracy.dev_exact_log10": metric(log_metric(max(devs, default=math.inf)),
                                           "dex_above_1e-20"),
        "accuracy.endpoint_residual_log10": metric(
            log_metric(max(residuals, default=math.inf)), "dex_above_1e-20"),
        # Rule of succession, (misses + 1) / (n + 2): never 0, so a first miss
        # on a clean workload reads as a relative change like any other.
        "fail_ratio": metric((misses + 1) / (len(scored) + 2), "ratio"),
    }
    failures = [hard for hard, _, _ in verdicts if hard] + cli.failures
    print(f"{workload.name}: {len(records)} requests ({len(ok)} ok) in "
          f"{len(set(rec.request.cell for rec in ok))} cells, "
          f"{len(cli.runs)} CLI runs; accuracy set {len(scored)} requests, "
          f"{misses} miss the stated accuracy {STATED_ACCURACY:g}")
    print(f"wall clock: run_merge p50 {statistics.median(r.latency_s for r in ok) * 1e3:.4g} ms, "
          f"merge p50 {statistics.median(r.merge_s for r in ok) * 1e3:.4g} ms, "
          f"CLI p50 {statistics.median(t1 - t0 for t0, t1 in cli.runs) * 1e3:.4g} ms, "
          f"setup {setup_wall:.4g} s; speed scale {min(scales):.3f}"
          f"-{max(scales):.3f} over {len(speed.costs)} samples")
    return metrics, len(records) + len(cli.runs), failures


def per_layer(workload, seconds: float):
    from spans import LAYER_NAMES, Tracer

    tracer = Tracer()
    speed = Speed()
    records, traced = closed_loop(workload, seconds, MIN_TRACED_REQUESTS, speed, tracer)
    failures = [hard for hard, _, _ in map(check, records) if hard]
    failures += [f"request {t.index} traced gives other controls"
                 for r, t in zip(records, traced) if (r.controls, r.error) != (t.controls, t.error)]

    own = tracer.self_times()
    spans = tracer.spans
    roots = [i for i, span in enumerate(spans) if span.parent < 0]
    n = len(roots)
    request_ns = sum(spans[i].end - spans[i].start for i in roots)
    if sum(own) != request_ns:
        failures.append("span self times do not add up to the request times")
    self_ns = dict.fromkeys(LAYER_NAMES, 0)
    scaled_ns = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    for span, t in zip(spans, own):
        if span.parent >= 0:
            self_ns[span.name] += t
            scaled_ns[span.name] += t * speed.scale(span.start * 1e-9)
            calls[span.name] += 1
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.self_ms"] = metric(scaled_ns[name] / n / 1e6, "ms")
        metrics[f"{name}.calls"] = metric(calls[name] / n, "count")
        metrics[f"{name}.share"] = metric(self_ns[name] / request_ns, "ratio")

    def builds(*names):
        return [(tracer.arguments(s), s.result) for s in spans if s.name in names]

    d_builds = builds("merging.d_table", "curveio.d_table")
    c_builds = builds("merging.c_table")
    metrics["subdivision.d_table.entries"] = metric(
        sum(a["partition"].count * (a["m"] + 1) ** 2 for a, _ in d_builds) / n, "count")
    metrics["subdivision.d_table.reuse"] = metric(
        len({(a["m"], a["partition"].knots.tobytes()) for a, _ in d_builds})
        / max(len(d_builds), 1), "ratio")
    metrics["dualbasis.c_table.entries"] = metric(
        sum((a["m"] - a["k"] - a["l"] + 1) ** 2 for a, _ in c_builds) / n, "count")
    metrics["dualbasis.c_table.reuse"] = metric(
        len({(a["m"], a["k"], a["l"]) for a, _ in c_builds}) / max(len(c_builds), 1), "ratio")
    metrics["dualbasis.c_table.peak_log10"] = metric(
        max((math.log10(float(abs(t.coeffs).max())) for _, t in c_builds), default=0.0),
        "log10")
    metrics["merging.dual_mid_coeffs.macs"] = metric(
        sum(a["dtab"].n_segments * (a["m"] + 1) * (a["m"] - a["k"] - a["l"] + 1)
            * a["hat_ps"][0].shape[1] for a, _ in builds("merging.dual_mid_coeffs")) / n,
        "count")
    # The second run of an input is faster; the order alternates, so the
    # geometric mean of the two orders' median ratios cancels that out.
    ratios = [[t.latency_s / r.latency_s for r, t in zip(records, traced)
               if r.error is None and r.index % 2 == parity] for parity in (0, 1)]
    overhead = math.sqrt(statistics.median(ratios[0]) * statistics.median(ratios[1]))
    # Root self time: run_merge's own code between layer calls, plus the
    # wrappers' cost. Layers must account for the rest.
    unattributed = sum(own[i] for i in roots) / request_ns
    if unattributed > max(overhead - 1.0, 0.0) + UNATTRIBUTED_SLACK:
        failures.append(f"layers leave {unattributed:.3f} of traced request time "
                        f"unattributed, beyond the trace overhead {overhead:.3f}")
    metrics["trace.overhead"] = metric(overhead, "ratio")
    metrics["trace.unattributed"] = metric(unattributed, "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-{workload.seed}.json")
    print(f"{workload.name}: {len(records)} requests, each also traced; layers account for "
          f"{1 - unattributed:.4f} of traced request time, trace overhead {overhead:.4f}")
    return metrics, len(records), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bezmerge" / "__init__.py").is_file():
        print(f"error: no bezmerge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)
    # One core for this process and its children: the host slows each core on
    # its own, and the speed scale must come from the core the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import logging

    import bezmerge

    if not Path(bezmerge.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bezmerge from {bezmerge.__file__}", file=sys.stderr)
        return 2
    # High degrees log a conditioning warning per call; keep the records, drop the I/O.
    logging.getLogger("bezmerge").addHandler(logging.NullHandler())

    import exact
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    gap = exact.self_check_against_oracle(seed=args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failures = run(workload, args.seconds)
    if gap > 1e-9:
        failures.append(f"exact reference is {gap:.1e} off merge_oracle at m <= 12")
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
