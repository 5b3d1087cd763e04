"""The three workloads: set-up, one timed pass each, and the checks.

A pass calls the package only through the names ``fleetmaint.cli`` imports,
in the order the matching CLI commands call them. Each group of calls that
one CLI command makes is a stage; stages marked as model stages (CP-ALS with
reports, LSTM training with save) add up to ``models_s``. Checks run after a
pass, outside its timing, and compare the results with the synth manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fleetmaint import cli

import fleets

PAPER_RANK = 25
# A fixed sweep count: at tol 1e-5 the paper-scale fleet converged after 52 to
# 169 sweeps depending on the seed, which spread factorize time by more than
# any regression bound. At the CLI's tol of 1e-8 no seed converges within 50
# sweeps, so every seed does the same work.
PAPER_SWEEPS = 50
PAPER_TOL = 1e-8
PAPER_EPOCHS = 1
PREDICT_QUERIES = 1100  # p99 keeps 11 samples beyond it
DEPT_FLEETS = 16


class Run:
    """Stage timers, check counts and the tracer of one benchmark process."""

    def __init__(self) -> None:
        self.tracer = None  # set only while a traced pass runs
        self.stages: list[tuple[str, bool, float, float]] = []  # name, model, start, end
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def stage(self, name: str, model: bool = False):
        """One CLI command's calls; counted as one attempted operation."""
        self.attempted += 1
        span = self.tracer.span(f"cli.{name}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                yield
        except Exception:
            self.fail(f"stage {name} raised:\n{traceback.format_exc()}")
            raise
        self.stages.append((name, model, t0, time.perf_counter()))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name} failed {detail}".rstrip())

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: {message}", file=sys.stderr, flush=True)


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@dataclass(frozen=True)
class Fleet:
    """Where set-up wrote one fleet. The manifest stays on disk until the
    checks read it, so a timed pass starts with a heap like a fresh CLI
    process."""

    vehicles_path: Path
    maintenance_path: Path
    manifest_path: Path
    seed: int
    month_labels: tuple[str, ...]

    def manifest(self) -> dict:
        return json.loads(self.manifest_path.read_text(encoding="utf-8"))


def _tensorize_spec(fleet: Fleet):
    labels = fleet.month_labels
    return cli.TensorizeSpec(window_start=labels[0], window_end=labels[-1])


def _paper_lstm_config(seed: int):
    # the CLI's default 2x64 architecture, trained for a fixed small epoch count
    return cli.LstmConfig(
        embed_dim=32, hidden_dim=64, layers=2, dropout_keep=0.75, bptt_steps=20,
        batch_size=8, epochs=PAPER_EPOCHS, lr=1.0, lr_constant_epochs=6,
        lr_decay=0.7, grad_clip=5.0, seed=seed,
    )


def _demo_lstm_config(seed: int):
    # the configuration cmd_pipeline trains
    return cli.LstmConfig(
        embed_dim=16, hidden_dim=32, layers=1, dropout_keep=0.9, bptt_steps=20,
        batch_size=8, epochs=6, lr=1.0, lr_constant_epochs=4, lr_decay=0.7, seed=seed,
    )


# ---------------------------------------------------------------------------
# stage groups shared by the workloads
# ---------------------------------------------------------------------------


def _read_tables(fleet):
    vehicles = cli.parse_vehicles(fleet.vehicles_path)
    maintenance, rejects = cli.parse_maintenance(fleet.maintenance_path)
    return vehicles, maintenance, rejects


def _tensorize(run, fleet, out: Path) -> dict:
    with run.stage("tensorize"):
        vehicles, maintenance, rejects = _read_tables(fleet)
        build = cli.build_tensor(vehicles, maintenance, _tensorize_spec(fleet))
        cli.save_tensor(build.tensor, out / "tensor.txt")
        cli.write_discard_summary(build, out / "discards.json")
    return dict(vehicles=vehicles, maintenance=maintenance, rejects=rejects, build=build)


def _seqmine(vehicles, maintenance, out: Path) -> dict:
    seqset, unknown = cli.extract_sequences(maintenance, vehicles)
    patterns = cli.differential(seqset, fleets.TARGET_MAKE_MODEL, top_n=8)
    cli.write_diff_csv(patterns, out / "seqmine.csv")
    return dict(seqset=seqset, unknown=unknown, patterns=patterns)


def _train_eval(run, seqset, cfg, out: Path, reload: bool) -> dict:
    with run.stage("train", model=True):
        train_set, valid_set, test_set = cli.split_by_vehicle(
            seqset.as_label_lists(), seed=cfg.seed
        )
        model = cli.train_lstm(train_set, valid_set, cfg)
        model.save(out / "seq_model.txt")
    with run.stage("eval"):
        if reload:
            model = cli.SeqModel.load(out / "seq_model.txt")
        lstm_ppl = cli.perplexity(model, test_set)
        unigram_ppl = cli.perplexity(cli.unigram_baseline(train_set), test_set)
    return dict(seq_model=model, test_set=test_set, lstm_ppl=lstm_ppl,
                unigram_ppl=unigram_ppl)


def _predict_loop(run, model, test_set, seed: int, out: Path) -> dict:
    """Closed loop, one client: each query is sent when the previous returns."""
    rng = np.random.default_rng([seed, 7])
    latencies = []
    answers = []
    with run.stage("predict"):
        for _ in range(PREDICT_QUERIES):
            seq = test_set[int(rng.integers(len(test_set)))]
            prefix = seq[: int(rng.integers(1, len(seq) + 1))]
            t0 = time.perf_counter()
            ranked = cli.predict_next(model, prefix, top_k=5)
            latencies.append(time.perf_counter() - t0)
            answers.append(ranked)
    (out / "predictions.json").write_text(json.dumps(answers), encoding="utf-8")
    return dict(latencies=latencies, answers=answers)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def paper_tensor_pass(run, fleet_set, seed: int, out: Path) -> list[dict]:
    (fleet,) = fleet_set
    res = _tensorize(run, fleet, out)
    with run.stage("parafac", model=True):
        tensor = cli.load_tensor(out / "tensor.txt")
        opts = cli.AlsOptions(rank=PAPER_RANK, max_iters=PAPER_SWEEPS, tol=PAPER_TOL,
                              seed=seed)
        model = cli.cp_als(tensor, opts)
        cli.save_model(model, out / "cp_model.txt")
        cli.export_component_reports(model, out / "reports")
    res.update(fleet=fleet, out=out, loaded_tensor=tensor, cp_model=model)
    return [res]


def paper_sequence_pass(run, fleet_set, seed: int, out: Path) -> list[dict]:
    (fleet,) = fleet_set
    with run.stage("seqmine"):
        vehicles, maintenance, rejects = _read_tables(fleet)
        res = _seqmine(vehicles, maintenance, out)
    res.update(_train_eval(run, res["seqset"], _paper_lstm_config(seed), out, reload=True))
    res.update(_predict_loop(run, res["seq_model"], res["test_set"], seed, out))
    res.update(fleet=fleet, out=out, maintenance=maintenance, rejects=rejects)
    return [res]


def dept_batch_pass(run, fleet_set, seed: int, out: Path) -> list[dict]:
    results = []
    for k, fleet in enumerate(fleet_set):
        dept_seed = fleet.seed
        dept_out = out / f"dept-{k}"
        dept_out.mkdir()
        # the call sequence of cmd_pipeline after synth
        res = _tensorize(run, fleet, dept_out)
        with run.stage("parafac", model=True):
            opts = cli.AlsOptions(rank=5, max_iters=300, tol=1e-8, seed=dept_seed, n_restarts=2)
            model = cli.cp_als(res["build"].tensor, opts)
            cli.save_model(model, dept_out / "cp_model.txt")
            cli.export_component_reports(model, dept_out / "reports")
        with run.stage("seqmine"):
            res.update(_seqmine(res["vehicles"], res["maintenance"], dept_out))
        res.update(_train_eval(run, res["seqset"], _demo_lstm_config(dept_seed), dept_out,
                               reload=False))
        res.update(fleet=fleet, out=dept_out, cp_model=model)
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# checks against the synth manifest
# ---------------------------------------------------------------------------


def _check_tables(run, res) -> None:
    res["manifest"] = res["fleet"].manifest()
    jobs = res["manifest"]["totals"]["jobs"]
    run.check("rows parsed", len(res["maintenance"]) == jobs and not res["rejects"],
              f"{len(res['maintenance'])} parsed, {len(res['rejects'])} rejected, {jobs} written")


def _check_tensor(run, res) -> None:
    build = res["build"]
    tensor = build.tensor
    units, systems, months = tensor.axis_labels
    idx = np.nonzero(tensor.data)
    cells = {
        f"{units[i]}|{systems[j]}|{months[k]}": tensor.data[i, j, k]
        for i, j, k in zip(*idx)
    }
    run.check("tensor cells equal manifest", cells == res["manifest"]["cells"])
    total = tensor.data.sum() + sum(build.discards.values())
    run.check("tensor sum plus discards", total == len(res["maintenance"]),
              f"{total} != {len(res['maintenance'])}")
    if "loaded_tensor" in res:
        loaded = res["loaded_tensor"]
    else:
        loaded = cli.load_tensor(res["out"] / "tensor.txt")
    run.check("tensor round trip", np.array_equal(loaded.data, tensor.data)
              and loaded.axis_labels == tensor.axis_labels)


def _check_cp(run, res) -> None:
    model = res["cp_model"]
    back = cli.load_model(res["out"] / "cp_model.txt")
    same = (
        all(np.array_equal(a, b) for a, b in zip(back.factors, model.factors))
        and np.array_equal(back.weights, model.weights)
        and (back.fit, back.iterations, back.converged, back.fits, back.warnings)
        == (model.fit, model.iterations, model.converged, model.fits, model.warnings)
        and back.axis_labels == model.axis_labels
    )
    run.check("cp model round trip", same)
    run.check("cp fit finite", math.isfinite(model.fit), f"fit={model.fit}")


def _check_sequences(run, res) -> None:
    motif = tuple(res["manifest"]["motifs"][0]["labels"])
    found = [p for p in res["patterns"] if p.pattern == motif]
    run.check("motif mined", bool(found) and found[0].i_ratio > 1 and 0 <= found[0].p <= 1,
              f"{found[:1]}")
    model = res["seq_model"]
    back = cli.SeqModel.load(res["out"] / "seq_model.txt")
    same = (
        back.vocab.labels == model.vocab.labels and back.config == model.config
        and back.params.keys() == model.params.keys()
        and all(np.array_equal(back.params[k], model.params[k]) for k in model.params)
    )
    run.check("seq model round trip", same)
    run.check("perplexities finite",
              math.isfinite(res["lstm_ppl"]) and math.isfinite(res["unigram_ppl"]))


def _check_beats_unigram(run, res) -> None:
    run.check("lstm beats unigram", res["lstm_ppl"] < res["unigram_ppl"],
              f"lstm {res['lstm_ppl']} unigram {res['unigram_ppl']}")


def _check_predictions(run, res) -> None:
    for ranked in res["answers"]:
        probs = [p for _, p in ranked]
        run.check("predicted probabilities finite",
                  all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs), f"{ranked}")


def check_paper_tensor(run, results) -> None:
    (res,) = results
    _check_tables(run, res)
    _check_tensor(run, res)
    dims = res["build"].tensor.dims
    run.check("paper-scale dims", dims == fleets.PAPER_DIMS, f"{dims}")
    _check_cp(run, res)


def check_paper_sequence(run, results) -> None:
    (res,) = results
    _check_tables(run, res)
    _check_sequences(run, res)
    _check_beats_unigram(run, res)
    _check_predictions(run, res)


def check_dept_batch(run, results) -> None:
    # 30 training sequences and 6 epochs do not always beat the unigram
    # baseline; cmd_pipeline reports that as lstm_beats_unigram, and so does
    # the result file, but it is not counted as a failure here
    for res in results:
        _check_tables(run, res)
        _check_tensor(run, res)
        _check_cp(run, res)
        _check_sequences(run, res)


# ---------------------------------------------------------------------------
# set-up: synth.generate writes each fleet's tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    specs: object  # seed -> list of FleetSpec
    setup_repeats: int
    run_pass: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-tensor", lambda s: [fleets.paper_spec(s)], 2,
                 paper_tensor_pass, check_paper_tensor),
        Workload("paper-sequence", lambda s: [fleets.paper_spec(s)], 2,
                 paper_sequence_pass, check_paper_sequence),
        Workload("dept-batch", lambda s: fleets.dept_specs(s, DEPT_FLEETS), 3,
                 dept_batch_pass, check_dept_batch),
    )
}


def setup(run, workload: Workload, seed: int, work: Path, repeats: int):
    """Generate the fleets ``repeats`` times; returns the first set and the
    (start, end) interval of each repeat."""
    specs = workload.specs(seed)
    times = []
    for r in range(repeats):
        t0 = time.perf_counter()
        generated = [cli.generate(spec, work / f"setup-{r}" / f"fleet-{k}")
                     for k, spec in enumerate(specs)]
        times.append((t0, time.perf_counter()))
        if r == 0:
            fleet_set = [
                Fleet(g.vehicles_path, g.maintenance_path, g.manifest_path, g.manifest["seed"],
                      tuple(g.manifest["month_labels"]))
                for g in generated
            ]
        del generated
    first = digest_tree(work / "setup-0")
    for r in range(1, repeats):
        run.check("synth deterministic", digest_tree(work / f"setup-{r}") == first)
    return fleet_set, times
