"""Closed-loop benchmark for laced: one caller, which waits for each result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (each a stream of rounds generated from the seed; a run measures
whole rounds until --seconds of op time have passed):

  sweep      random connected signed graphs on 3-8 vertices through the
             library call laced.embed.embed; 7 of every 20 are accepted, the
             rest are rejected on the definiteness-only path.
  linegraph  `laced embed FILE --json` through laced.cli.main on L(K_n),
             n = 8..12 (10 three times per round), each randomly relabelled
             and switched.
  classify   `laced classify FILE --isometry --json` on signed-permuted
             canonical systems, each given as its full root list and as a
             base only.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op twice,
untraced and traced in alternating order, and prints per-layer figures plus
the tracing overhead.  Every output is checked by the oracle in oracle.py;
the last line of stdout is one JSON object with the result.

Times are wall-clock.  The metrics named *_ref, and setup_s, are times on
the reference host: wall time divided by the host speed, which a probe
measures throughout (see probe.py).  They are the ones a change is judged
by; the plain times are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import inputs
import oracle
from probe import HostClock, loop_s
from warm import warm

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# a run stops between ops once this much wall time has passed, whatever the
# round, so that it always ends within the 180 s a run may take
HARD_STOP_S = 130.0

RANK8 = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


class Op:
    __slots__ = ("index", "klass", "call", "check", "float_input", "size")

    def __init__(self, index, klass, call, check, float_input, size):
        self.index = index
        self.klass = klass
        self.call = call  # the timed call into laced; returns an outcome tuple
        self.check = check  # oracle: outcome -> None or a reason
        # (n, edges, accepted) for the eigenvalue cross-check, which runs
        # after the peak RSS is read; None where there is none
        self.float_input = float_input
        self.size = size  # what the input-mix report reads


def record(op, t0, t1, outcome, plain=None) -> dict:
    """What is kept of one op once its output has been checked and hashed.
    [t0, t1] is when it ran; `plain` is the untraced output of a traced op,
    which must be the same."""
    try:
        reason = op.check(outcome)
    except Exception as e:  # malformed output is a failed op
        reason = f"oracle could not read the output: {type(e).__name__}: {e}"
    if reason is None and plain is not None and output_bytes(plain) != output_bytes(outcome):
        reason = "traced and untraced outputs differ"
    family = None
    if outcome[0] == "cert":
        t = outcome[1].intrinsic_type
        family = t.label if t.family == "E" else t.family
    components, certs = analysed(outcome)
    return {
        "index": op.index, "klass": op.klass, "size": op.size, "t0": t0, "t1": t1,
        "digest": hashlib.sha256(output_bytes(outcome)).hexdigest(), "reason": reason,
        "components": components, "certs": certs, "family": family, "float_input": op.float_input,
    }


def output_bytes(outcome) -> bytes:
    kind = outcome[0]
    if kind == "cert":
        cert = outcome[1]
        doc = {
            "intrinsic_type": cert.intrinsic_type.label,
            "ambient_type": cert.ambient_type.label,
            "vectors": [[str(x) for x in v] for v in cert.vectors],
            "root_count": cert.root_count,
        }
        return json.dumps(doc).encode()
    if kind == "cli":
        return outcome[2].encode() + f"\nexit {outcome[1]}\n".encode()
    return repr(outcome).encode()


def analysed(outcome) -> tuple[int, int]:
    """(components analysed, certificates built) by one op."""
    if outcome[0] == "cert":
        return 1, 1
    if outcome[0] == "cli" and outcome[1] == 0:
        doc = json.loads(outcome[2])
        if "components" in doc:
            return len(doc["components"]), 0
        return 1, 1
    return 0, 0


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sys.modules["laced.cli"].main(argv)
    return ("cli", rc, out.getvalue(), err.getvalue())


# ------------------------------------------------------------------ workloads


class Sweep:
    name = "sweep"
    iso_types = RANK8
    gen_types = [f"D{n}" for n in range(2, 10)] + ["E8"]

    def __init__(self, seed, tmp):
        self.seed = seed

    def round(self, r, first_index):
        from laced.spectra import SignedGraph

        ops = []
        for k, (n, edges, ok) in enumerate(inputs.sweep_block(self.seed, r)):
            g = SignedGraph(n, edges)

            def call(g=g):
                try:
                    return ("cert", sys.modules["laced.embed"].embed(g))
                except ValueError as e:
                    return ("reject", str(e))

            def check(outcome, g=g, n=n, edges=edges, ok=ok):
                return check_sweep(g, n, edges, ok, outcome)

            klass = "accepted" if ok else "rejected"
            ops.append(Op(first_index + k, klass, call, check, (n, edges, ok), n))
        return ops


def check_sweep(g, n, edges, ok, outcome):
    from laced.embed import verify_certificate

    if outcome[0] == "reject":
        if ok:
            return "rejected a graph whose A + 2I is positive semidefinite"
        if outcome[1] != "least eigenvalue below -2":
            return f"unexpected rejection message {outcome[1]!r}"
        return None
    if outcome[0] != "cert":
        return f"op failed: {outcome[1]}"
    if not ok:
        return "accepted a graph whose A + 2I is indefinite"
    cert = outcome[1]
    label = cert.intrinsic_type.label
    if cert.root_count != inputs.root_count(label):
        return f"root_count {cert.root_count} for {label}"
    rank = inputs.rank(inputs.shifted_gram(n, edges))
    reason = oracle.check_certificate(n, edges, label, cert.ambient_type.label, cert.vectors, rank)
    if reason:
        return reason
    if not verify_certificate(g, cert):
        return "verify_certificate rejected the certificate"
    return None


class LineGraph:
    name = "linegraph"
    iso_types = [f"D{k}" for k in inputs.LINEGRAPH_LADDER]
    gen_types: list[str] = []

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp

    def round(self, r, first_index):
        rng = random.Random(f"linegraph:{self.seed}:{r}")
        sizes = list(inputs.LINEGRAPH_ROUND)
        rng.shuffle(sizes)
        ops = []
        for k, size in enumerate(sizes):
            n, edges = inputs.line_graph_of_complete(size, rng)
            path = self.tmp / f"lk{size}-{r}-{k}.sg"
            path.write_text(inputs.graph_text(n, edges), encoding="utf-8")
            argv = ["embed", str(path), "--json"]

            def check(outcome, n=n, edges=edges, size=size):
                return check_linegraph(n, edges, size, outcome)

            call = lambda argv=argv: run_cli(argv)  # noqa: E731
            ops.append(Op(first_index + k, f"L(K{size})", call, check, (n, edges, True), size))
        return ops


def check_linegraph(n, edges, size, outcome):
    from laced import EmbeddingCertificate, SignedGraph, parse_type, verify_certificate

    if outcome[0] != "cli":
        return f"op failed: {outcome[1]}"
    _, rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    doc = json.loads(out)
    if doc["intrinsic_type"] != f"D{size}":
        return f"L(K{size}) reported intrinsic type {doc['intrinsic_type']}, expected D{size}"
    if doc["gram_check"] != "pass":
        return "gram_check is not pass"
    # the vectors e_i + e_j of L(K_k) span a space of dimension k
    reason = oracle.check_certificate(n, edges, doc["intrinsic_type"], doc["ambient_type"], doc["vectors"], size)
    if reason:
        return reason
    cert = EmbeddingCertificate(
        intrinsic_type=parse_type(doc["intrinsic_type"]),
        ambient_type=parse_type(doc["ambient_type"]),
        vectors=tuple(tuple(Fraction(x) for x in v) for v in doc["vectors"]),
        root_count=inputs.root_count(doc["intrinsic_type"]),
    )
    if not verify_certificate(SignedGraph(n, edges), cert):
        return "verify_certificate rejected the certificate"
    return None


class Classify:
    name = "classify"
    iso_types = RANK8 + ["A12", "D12", "D16"]
    gen_types: list[str] = []

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp

    def round(self, r, first_index):
        ops = []
        for k, item in enumerate(inputs.classify_round(self.seed, r)):
            path = self.tmp / f"{item['system']}-{item['form']}-{r}.vec"
            path.write_text(item["text"], encoding="utf-8")
            argv = ["classify", str(path), "--isometry", "--json"]

            def check(outcome, item=item):
                return check_classify(item, outcome)

            ops.append(Op(first_index + k, item["form"], lambda argv=argv: run_cli(argv), check, None, item["size"]))
        return ops


def check_classify(item, outcome):
    if outcome[0] != "cli":
        return f"op failed: {outcome[1]}"
    _, rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    comps = json.loads(out)["components"]
    labels = sorted(c["type"] for c in comps)
    if labels != item["labels"]:
        return f"{item['system']} ({item['form']}) classified as {'+'.join(labels)}"
    for c in comps:
        reason = oracle.check_component(c, item["roots"])
        if reason:
            return f"{item['system']} ({item['form']}): {reason}"
    return None


WORKLOADS = {w.name: w for w in (Sweep, LineGraph, Classify)}


# ------------------------------------------------------------------ measurement


def calibration_ms(reps: int = 5) -> float:
    """The loop at full length, timed at the start and end of a run as a
    diagnostic of host speed."""
    return 1000 * statistics.median(loop_s(200_000) for _ in range(reps))


def warm_args(wl) -> list[str]:
    return [f"iso:{t}" for t in wl.iso_types] + [f"gen:{t}" for t in wl.gen_types]


def setup_times(wl, root: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import laced and warm the lazy caches
    (canonical systems and ordered bases) for the workload's types, each
    timing itself (see warm.py).  Returns their wall times and their times
    on the reference host."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(HERE / "warm.py"), *warm_args(wl)],
            cwd=root, check=True, timeout=60, capture_output=True, text=True,
        )
        times = json.loads(child.stdout)
        raw.append(times["raw_s"])
        ref.append(times["ref_s"])
    return raw, ref


def timed(op):
    t0 = time.perf_counter()
    try:
        outcome = op.call()
    except Exception as e:  # an internal error is a failed op, not a crash of the run
        outcome = ("error", f"{type(e).__name__}: {e}")
    return t0, time.perf_counter(), outcome


def measure(wl, seconds: float, started: float, log, clock=None, tracer=None):
    """Run whole rounds until `seconds` of op time are spent; with a tracer,
    run each op untraced and traced, alternating which goes first.  Each
    op's record goes to the file `log`, and each round's ops are let go once
    the round is done, so that what the harness holds while the program runs
    does not grow with the number of ops.

    Untraced, the clock probes the host throughout, and op time leaves out
    the probes that fell into an op.  Traced, there is no clock, so that no
    probe time lands in a span."""
    ops = 0
    untraced_s = traced_s = 0.0
    busy = 0.0
    r = 0
    while busy < seconds and time.perf_counter() - started < HARD_STOP_S:
        for op in wl.round(r, ops):
            if time.perf_counter() - started >= HARD_STOP_S:
                break
            ops += 1
            if tracer is None:
                probing = clock.probing_s
                t0, t1, outcome = timed(op)
                busy += t1 - t0 - (clock.probing_s - probing)
                log.write(json.dumps(record(op, t0, t1, outcome)) + "\n")
                continue
            plain_first = op.index % 2 == 0
            if plain_first:
                u0, u1, plain = timed(op)
            tracer.install()
            try:
                t0 = time.perf_counter()
                outcome = tracer.op(op.index, lambda: timed(op)[2])
                t1 = time.perf_counter()
            finally:
                tracer.uninstall()
            if not plain_first:
                u0, u1, plain = timed(op)
            log.write(json.dumps(record(op, t0, t1, outcome, plain)) + "\n")
            untraced_s += u1 - u0
            traced_s += t1 - t0
            busy += (u1 - u0) + (t1 - t0)
        r += 1
    return untraced_s, traced_s


def load_records(path: Path) -> list[SimpleNamespace]:
    with open(path, encoding="utf-8") as f:
        return [SimpleNamespace(**json.loads(line)) for line in f]


def float_checks(records) -> None:
    """The eigensolver cross-check, for ops the exact checks passed."""
    for rec in records:
        if rec.reason is None and rec.float_input is not None:
            n, edges, ok = rec.float_input
            edges = [tuple(e) for e in edges]
            rec.reason = oracle.check_acceptance(n, edges) if ok else oracle.check_rejection(n, edges)


def input_mix(wl, records) -> dict:
    if wl.name == "sweep":
        return {
            "accepted_share": sum(rec.klass == "accepted" for rec in records) / len(records),
            "vertices": dict(sorted(Counter(rec.size for rec in records).items())),
            "intrinsic_families": dict(sorted(Counter(rec.family for rec in records if rec.family).items())),
        }
    if wl.name == "linegraph":
        return {
            "n_ladder": list(inputs.LINEGRAPH_LADDER),
            "ops_per_n": dict(sorted(Counter(rec.size for rec in records).items())),
        }
    return {
        "systems": len(inputs.CLASSIFY_SYSTEMS),
        "forms": dict(Counter(rec.klass for rec in records)),
        "vectors_per_file_median": statistics.median(rec.size for rec in records),
    }


def stored_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {"seed": DEFAULT_SEED, "workloads": {}}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, records, setup_raw, setup_ref, peak_rss, failures) -> tuple[dict, dict]:
    """(metrics printed in the result line, the rest).  The *_ref metrics,
    and setup_s, are times on the reference host (see probe.py)."""
    lat = [rec.dt * 1000 for rec in records]
    ref = [rec.ref for rec in records]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_ref_s": (len(records) / sum(ref), "1/s"),
        "latency_p50_ref_ms": (1000 * statistics.median(ref), "ms"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    extra = {
        "setup_raw_s": (statistics.median(setup_raw), "s"),
        "ops_per_s": (len(records) / sum(rec.dt for rec in records), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "fail_ratio": (len(failures) / len(records), "ratio"),
        "host_factor_p50": (statistics.median(rec.dt / rec.ref for rec in records), "ratio"),
    }
    if len(lat) >= 100:
        extra["latency_p90_ms"] = (statistics.quantiles(lat, n=10)[8], "ms")
    if wl.name == "sweep":
        for klass in ("accepted", "rejected"):
            sub = [rec.dt * 1000 for rec in records if rec.klass == klass]
            extra[f"{klass}_p50_ms"] = (statistics.median(sub), "ms")
    return metrics, extra


def per_layer(tracer, records, untraced_s, traced_s) -> tuple[dict, dict]:
    """(metrics printed in the result line, the rest).  Calls are per op and
    self times are shares of the traced op time, so versions that fit a
    different number of ops into the run still compare; the absolute self
    time per op is printed alongside."""
    from tracing import LAYERS, OP

    totals = tracer.layer_totals()
    ops = len(records)
    metrics, extra = {}, {}
    for name in LAYERS + [OP]:
        if name != OP:
            metrics[f"{name}.calls_per_op"] = (totals[name]["calls"] / ops, "count")
        metrics[f"{name}.self_share"] = (totals[name]["self_s"] / traced_s, "ratio")
        extra[f"{name}.self_ms_per_op"] = (1000 * totals[name]["self_s"] / ops, "ms")
    closures = totals["roots.closure"]["calls"]
    metrics["roots.closure.roots_out_per_call"] = (tracer.closure_roots_out / max(closures, 1), "count")
    components = sum(rec.components for rec in records)
    certs = sum(rec.certs for rec in records)
    analyses = sum(totals[n]["calls"] for n in ("roots.find_base", "roots.classify", "roots.isometry_to_canonical"))
    metrics["roots.analyses_per_component"] = (analyses / max(components, 1), "count")
    metrics["embed.verify_certificate.calls_per_cert"] = (
        totals["embed.verify_certificate"]["calls"] / max(certs, 1), "count"
    )
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.op_ms"] = (1000 * traced_s / ops, "ms")
    # self times sum to the op spans' durations by construction; what the
    # wrapped layers cover is the op time outside the harness's own share
    metrics["trace.layer_coverage"] = (1 - totals[OP]["self_s"] / traced_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-digests", action="store_true",
        help=f"store this run's output digests as the reference (seed {DEFAULT_SEED}, --trace 0)",
    )
    args = ap.parse_args(argv)
    started = time.perf_counter()

    # embed checks its own certificate with an assert, which -O removes
    if sys.flags.optimize:
        print("error: refusing to run under python -O: it drops a check in the program", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        print(f"error: --record-digests needs --seed {DEFAULT_SEED} --trace 0", file=sys.stderr)
        return 2
    root = Path.cwd()
    src = root / "src"
    if not (src / "laced" / "__init__.py").is_file():
        print("error: no src/laced here; run from the root of a laced checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import laced  # noqa: F401  (binds laced.embed, laced.cli in sys.modules)
    import laced.cli  # noqa: F401

    if not Path(sys.modules["laced"].__file__).resolve().is_relative_to(src.resolve()):
        print("error: laced was not imported from ./src", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = round(now - mark, 3)
        mark = now

    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        calib_start = calibration_ms()
        setup_raw, setup_ref = ([], []) if args.trace else setup_times(wl, root)
        phase("setup")
        warm(warm_args(wl))
        gc.collect()
        phase("warm")
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        log_path = tmp / "ops.jsonl"
        clock = None if args.trace else HostClock()
        with open(log_path, "w", encoding="utf-8") as log, clock or contextlib.nullcontext():
            untraced_s, traced_s = measure(wl, args.seconds, started, log, clock, tracer)
        phase("measure")
        # read before the records are loaded and the eigensolver loads numpy,
        # so the peak is the program's
        peak_rss = peak_rss_mib()
        records = load_records(log_path)
        for rec in records:
            rec.dt, rec.ref = clock.split(rec.t0, rec.t1) if clock else (rec.t1 - rec.t0, None)
        float_checks(records)
        calib_end = calibration_ms()
        phase("check")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [(rec.index, rec.klass, rec.reason) for rec in records if rec.reason]
    digests = [rec.digest for rec in records]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "optimize_flag": sys.flags.optimize,
        "calibration_ms": {"start": calib_start, "end": calib_end},
        "phases_s": phases,
        "input_mix": input_mix(wl, records),
        "failures": failures[:20],
        "ops": [[rec.klass, round(rec.dt * 1000, 4), rec.ref and round(rec.ref * 1000, 4)] for rec in records],
        "digests": digests,
    }
    if args.seed == DEFAULT_SEED and not args.trace:
        ref = stored_digests()["workloads"].get(wl.name, [])
        report["output_compared_ops"] = min(len(ref), len(digests))
        report["output_changed_ops"] = sum(a != b for a, b in zip(ref, digests))
    if args.record_digests:
        doc = stored_digests()
        doc["workloads"][wl.name] = digests
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.trace:
        metrics, extra = per_layer(tracer, records, untraced_s, traced_s)
        if tracer.missing:
            report["unwrapped"] = sorted(tracer.missing)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        metrics, extra = end_to_end(wl, records, setup_raw, setup_ref, peak_rss, failures)
        report["setup_runs_s"] = {"raw": setup_raw, "ref": setup_ref}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  python {report['python']}  nproc {report['nproc']}")
    print(f"input mix {json.dumps(report['input_mix'])}")
    print(f"calibration_ms start {calib_start:.2f} end {calib_end:.2f}  phases_s {json.dumps(phases)}")
    if "output_changed_ops" in report:
        print(f"output_changed_ops {report['output_changed_ops']} of {report['output_compared_ops']} compared")
    for index, klass, reason in failures[:5]:
        print(f"FAILED op {index} ({klass}): {reason}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    if tracer and tracer.missing:
        print(f"not wrapped (missing in this version): {', '.join(sorted(tracer.missing))}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
