"""fleetmaint command line: synth, tensorize, parafac, report, seqmine,
train, eval, predict, and the end-to-end pipeline demo.

Every randomized step takes --seed (default 1234). A --config file of
``key = value`` lines (keys are long flag names with dashes or underscores,
switches take true or false) overrides the corresponding flags. Failures
print one machine-parseable ``<category>: <message>`` line to stderr and
exit nonzero: 2 config-error, 3 io-error, 4 data-error, 1 internal-error;
an interrupt (Ctrl-C or SIGTERM) prints ``interrupted`` and exits 130.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from . import __version__
from .ingest import (
    DataError,
    TensorizeSpec,
    build_tensor,
    normalize_system,
    parse_maintenance,
    parse_vehicles,
    write_discard_summary,
    write_json,
)
from .lstm import (
    UNK_TOKEN,
    LstmConfig,
    SeqModel,
    perplexity,
    predict_next,
    split_by_vehicle,
    train as train_lstm,
    unigram_baseline,
)
from .parafac import AlsOptions, cp_als, load_model, save_model
from .report import export_component_reports
from .seqmine import differential, extract_sequences, write_diff_csv
from .synth import demo_spec, generate, month_labels, spec_from_json
from .tensor import load_tensor, save_tensor

DEFAULT_SEED = 1234


class ConfigError(ValueError):
    """Bad flags, bad config file, or an invalid spec file."""


def _config_flags(path, args: argparse.Namespace) -> list[str]:
    """The ``--key=value`` flags of a ``key = value`` config file.

    A key must name one of the subcommand's options exactly; its value is
    then converted and checked like the flag's.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from None
    flags = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest == "config":
            raise ConfigError(f"{path}:{line_no}: a config file cannot name another config file")
        if dest not in vars(args):
            raise ConfigError(f"{path}:{line_no}: unknown option {key.strip()!r}")
        flags.append(f"--{dest.replace('_', '-')}={value.strip()}")
    return flags


def _at_least(low: int):
    """Argument type: an integer no less than ``low``."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number
    return parse


def _component(value: str) -> int | None:
    """Argument type of ``--component``: a 1-based component, or None for ``all``."""
    return None if value == "all" else _at_least(1)(value)


def _boolean(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``config-error`` line instead of usage and exit."""

    def error(self, message):
        raise ConfigError(message)


def _load_tables(vehicles_path, maintenance_path):
    """The vehicle and maintenance tables and the maintenance rows rejected,
    whose count goes to stderr."""
    vehicles = parse_vehicles(vehicles_path)
    maintenance, rejects = parse_maintenance(maintenance_path)
    if rejects:
        print(f"note: {len(rejects)} rejected maintenance rows", file=sys.stderr)
    return vehicles, maintenance, rejects


def _sequences(vehicles, maintenance):
    """The tables' sequence set; the count of maintenance rows whose vehicle
    is unknown goes to stderr."""
    seqset, unknown = extract_sequences(maintenance, vehicles)
    if unknown:
        print(f"note: {len(unknown)} maintenance rows had unknown vehicles", file=sys.stderr)
    return seqset


@contextmanager
def _naming(*paths):
    """A ValueError raised inside names the files it is about: the tensor a
    fit rejects, or both job tables for what they hold together, such as no
    job left to place or no group to mine."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{' and '.join(map(str, paths))}: {exc}") from None


def _add_field_flags(p, cls) -> None:
    """Add the flag of each field of the config dataclass ``cls`` but ``seed``,
    which add_common adds; _from_flags checks the values by building ``cls``."""
    for f in fields(cls):
        if f.name != "seed":
            p.add_argument("--" + f.metadata.get("flag", f.name).replace("_", "-"),
                           default=f.default, type={"int": int, "float": float}.get(f.type),
                           choices=f.metadata.get("choices"), help=f.metadata.get("help"))


def _from_flags(cls, args):
    """A ``cls`` dataclass built from its fields' flags; a value it rejects is a config error."""
    values = {f.name: getattr(args, f.metadata.get("flag", f.name)) for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommand implementations, and the stages that a subcommand and the
# pipeline demo share: ``paths`` are the job tables, named in a data error
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        try:
            spec = spec_from_json(json.loads(Path(args.spec).read_text(encoding="utf-8-sig")))
        except ValueError as exc:  # not UTF-8, not JSON, or not a valid spec
            raise ConfigError(f"malformed fleet spec: {exc}") from None
    else:
        spec = demo_spec(seed=args.seed)
    fleet = generate(spec, args.out)
    print(f"wrote {fleet.vehicles_path}")
    print(f"wrote {fleet.maintenance_path}")
    print(f"wrote {fleet.manifest_path}")
    return 0


def _tensorize(paths, vehicles, maintenance, spec, out, discards):
    """Build the job-count tensor and save it, with the discard summary if asked."""
    with _naming(*paths):
        build = build_tensor(vehicles, maintenance, spec)
    save_tensor(build.tensor, out)
    if discards:
        write_discard_summary(build, discards)
    return build


def _factorize(path, tensor, opts, out, report_dir, svg=True):
    """Fit the CP model of the tensor read from ``path``, save it, print its
    warnings and export its reports if asked; returns it and the report files."""
    with _naming(path):
        model = cp_als(tensor, opts)
    save_model(model, out)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return model, export_component_reports(model, report_dir, svg=svg) if report_dir else []


def _mine(paths, seqset, target, out, bonferroni=False, **options):
    """Mine ``target``'s differential patterns and write them to ``out``."""
    with _naming(*paths):
        patterns = differential(seqset, target, **options)
    write_diff_csv(patterns, out, bonferroni=bonferroni)
    return patterns


def _train(paths, seqset, cfg, out):
    """``seqset``'s label lists split by vehicle into train, valid and test
    with ``cfg``'s seed, and the LSTM trained on them, saved to ``out``."""
    with _naming(*paths):
        splits = split_by_vehicle(seqset.as_label_lists(), seed=cfg.seed)
    model = train_lstm(splits[0], splits[1], cfg)
    model.save(out)
    return model, splits


def _perplexities(model, train_set, seqs) -> list[float]:
    """The perplexities on ``seqs`` of ``model`` and of ``train_set``'s unigram
    baseline; a nan or inf one is a data error, as JSON has no literal for it."""
    values = [perplexity(scored, seqs) for scored in (model, unigram_baseline(train_set))]
    for value in values:
        if not math.isfinite(value):
            raise DataError(f"the model's perplexity is not finite ({value}): "
                            "its weights overflow the forward pass")
    return values


def cmd_tensorize(args) -> int:
    spec = _from_flags(TensorizeSpec, args)
    paths = args.vehicles, args.maintenance
    vehicles, maintenance, _ = _load_tables(*paths)
    build = _tensorize(paths, vehicles, maintenance, spec, args.out, args.discards)
    if args.discards:
        print(f"wrote {args.discards}")
    print(f"wrote {args.out} dims={build.tensor.dims} placed={build.placed}")
    return 0


def cmd_parafac(args) -> int:
    opts = _from_flags(AlsOptions, args)
    model, written = _factorize(args.tensor, load_tensor(args.tensor), opts, args.out,
                                args.report_dir, svg=args.format != "csv")
    print(
        f"wrote {args.out} rank={model.rank} fit={model.fit:.6f} "
        f"iterations={model.iterations} converged={model.converged}"
    )
    if args.report_dir:
        print(f"wrote {len(written)} report files under {args.report_dir}")
    return 0


def cmd_report(args) -> int:
    model = load_model(args.model)
    if args.component is not None and args.component > model.rank:
        raise ConfigError(f"--component {args.component} is past the model's rank {model.rank}")
    components = None if args.component is None else [args.component]
    written = export_component_reports(model, args.out, components, svg=args.format != "csv")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_seqmine(args) -> int:
    if args.max_len < args.min_len:
        raise ConfigError(f"--max-len {args.max_len} is below --min-len {args.min_len}")
    paths = args.vehicles, args.maintenance
    seqset = _sequences(*_load_tables(*paths)[:2])
    patterns = _mine(paths, seqset, args.target, args.out, args.bonferroni,
                     min_len=args.min_len, max_len=args.max_len, top_n=args.top_n)
    print(f"wrote {args.out} patterns={len(patterns)}")
    return 0


def cmd_train(args) -> int:
    cfg = _from_flags(LstmConfig, args)
    paths = args.vehicles, args.maintenance
    model, _ = _train(paths, _sequences(*_load_tables(*paths)[:2]), cfg, args.out)
    best = min(model.history["valid_perplexity"])
    print(f"wrote {args.out} vocab={model.vocab.size} valid_perplexity={best}")
    return 0


def cmd_eval(args) -> int:
    model = SeqModel.load(args.model)
    paths = args.vehicles, args.maintenance
    lists = _sequences(*_load_tables(*paths)[:2]).as_label_lists()
    with _naming(*paths):
        train_set, valid_set, test_set = split_by_vehicle(lists, seed=args.seed)
    chosen = {"train": train_set, "valid": valid_set, "test": test_set, "all": lists}[args.split]
    lstm_ppl, baseline_ppl = _perplexities(model, train_set, chosen)
    payload = {
        "split": args.split,
        "sequences": len(chosen),
        "lstm_perplexity": lstm_ppl,
        "unigram_perplexity": baseline_ppl,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _prefix_labels(text: str, vocabulary: tuple[str, ...]) -> list[str]:
    """The labels of a comma-separated prefix, each normalized like a System
    Description; empty ones are dropped. Where consecutive pieces rejoin into
    a vocabulary label that holds commas, the longest such run is one label."""
    widest = 1 + max((label.count(",") for label in vocabulary), default=0)
    pieces = text.split(",")
    labels, i = [], 0
    while i < len(pieces):
        for j in range(min(len(pieces), i + widest), i, -1):
            label = normalize_system(",".join(pieces[i:j]))
            if j == i + 1 or label in vocabulary:
                break
        if label:
            labels.append(label)
        i = j
    return labels


def cmd_predict(args) -> int:
    model = SeqModel.load(args.model)
    prefix = _prefix_labels(args.prefix, model.vocab.labels)
    unknown = [label for label in dict.fromkeys(prefix) if label not in model.vocab.labels]
    if unknown:
        print(f"note: prefix labels read as {UNK_TOKEN}: {', '.join(map(repr, unknown))}",
              file=sys.stderr)
    ranked = predict_next(model, prefix, top_k=args.top_k)
    for label, prob in ranked:
        print(f"{prob:.6f}\t{label}")
    return 0


def cmd_pipeline(args) -> int:
    if not args.demo:
        raise ConfigError("pipeline currently supports --demo only")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = demo_spec(seed=args.seed)
    fleet = generate(spec, out / "data")
    paths = fleet.vehicles_path, fleet.maintenance_path
    vehicles, maintenance, rejects = _load_tables(*paths)
    labels = month_labels(spec.window_start, spec.months)
    tspec = TensorizeSpec(window_start=labels[0], window_end=labels[-1])
    build = _tensorize(paths, vehicles, maintenance, tspec, out / "tensor.txt",
                       out / "discards.json")
    conserved = build.tensor.values.sum() + sum(build.discards.values()) == len(maintenance)
    opts = AlsOptions(rank=5, max_iters=300, tol=1e-8, seed=args.seed, n_restarts=2)
    cp_model, _ = _factorize(out / "tensor.txt", build.tensor, opts, out / "cp_model.txt",
                             out / "reports")
    seqset = _sequences(vehicles, maintenance)
    patterns = _mine(paths, seqset, "DODGE CHARGER", out / "seqmine.csv", top_n=8)
    # a smaller, shorter run than the defaults
    cfg = LstmConfig(embed_dim=16, hidden_dim=32, layers=1, dropout_keep=0.9, epochs=6,
                     lr_constant_epochs=4, seed=args.seed)
    seq_model, (train_set, _, test_set) = _train(paths, seqset, cfg, out / "seq_model.txt")
    lstm_ppl, baseline_ppl = _perplexities(seq_model, train_set, test_set)

    metrics = {
        "seed": args.seed,
        "jobs": len(maintenance),
        "rejected_rows": len(rejects),
        "tensor_dims": list(build.tensor.dims),
        "tensor_sum": build.tensor.values.sum(),
        "discards": build.discards,
        "conservation_ok": bool(conserved),
        "cp_fit": cp_model.fit,
        "cp_iterations": cp_model.iterations,
        "cp_converged": cp_model.converged,
        "top_pattern": list(patterns[0].pattern),
        "top_pattern_i_ratio": patterns[0].i_ratio,
        "top_pattern_p": patterns[0].p,
        "lstm_test_perplexity": lstm_ppl,
        "unigram_test_perplexity": baseline_ppl,
        "lstm_beats_unigram": bool(lstm_ppl < baseline_ppl),
    }
    write_json(metrics, out / "metrics.json")

    print(f"pipeline demo complete under {out}")
    print(f"  conservation: {'ok' if conserved else 'FAILED'}")
    print(f"  tensor: dims={build.tensor.dims} sum={build.tensor.values.sum():.0f}")
    print(f"  parafac: fit={cp_model.fit:.4f} iters={cp_model.iterations}")
    print(f"  top pattern: {patterns[0].pattern} i_ratio={patterns[0].i_ratio:.2f}")
    print(f"  lstm test perplexity: {lstm_ppl:.4f} (unigram {baseline_ppl:.4f})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fleetmaint",
        description="Fleet maintenance analytics: tensors, PARAFAC, sequence mining, LSTM.",
    )
    parser.add_argument("--version", action="version", version=f"fleetmaint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED,
                           help="seed for randomized steps (default %(default)s)")
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; values override flags")

    p = sub.add_parser("synth", help="generate a synthetic fleet")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", type=str, default=None, help="fleet spec JSON (default: demo spec)")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tensorize", help="build the job-count tensor from CSVs")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    _add_field_flags(p, TensorizeSpec)
    p.add_argument("--out", required=True, help="tensor output path")
    p.add_argument("--discards", default=None, help="discard summary JSON path")
    add_common(p)
    p.set_defaults(func=cmd_tensorize)

    p = sub.add_parser("parafac", help="CP-ALS factorization of a tensor file")
    p.add_argument("--tensor", required=True)
    _add_field_flags(p, AlsOptions)
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--report-dir", default=None, help="also export per-component reports")
    p.add_argument("--format", choices=("csv", "svg"), default="svg",
                   help="report format: csv only, or csv plus svg charts")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_parafac)

    p = sub.add_parser("report", help="export factor loading reports for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--component", type=_component, default="all",
                   help="1-based component or 'all'")
    p.add_argument("--format", choices=("csv", "svg"), default="svg")
    p.add_argument("--out", required=True, help="output directory")
    add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("seqmine", help="differential sequence mining for a make/model")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--target", required=True, help='target make/model, e.g. "DODGE CHARGER"')
    p.add_argument("--min-len", type=_at_least(1), default=3)
    p.add_argument("--max-len", type=_at_least(1), default=4)
    p.add_argument("--top-n", type=_at_least(1), default=8)
    p.add_argument("--bonferroni", nargs="?", type=_boolean, const=True, default=False,
                   metavar="true|false", help="append a Bonferroni-adjusted p column")
    p.add_argument("--out", required=True, help="CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_seqmine)

    p = sub.add_parser("train", help="train the LSTM next-job model")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--out", required=True, help="model output path")
    _add_field_flags(p, LstmConfig)
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity of a trained model on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="rank likely next jobs after a prefix")
    p.add_argument("--model", required=True)
    p.add_argument("--prefix", default="", help="comma-separated system labels")
    p.add_argument("--top-k", type=_at_least(1), default=5)
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pipeline", help="end-to-end demo: synth through eval")
    p.add_argument("--demo", nargs="?", type=_boolean, const=True, default=False,
                   metavar="true|false", help="run the built-in demo fleet")
    p.add_argument("--out", required=True, help="output directory")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # SIGTERM ends a command as Ctrl-C does; only the main thread may set a handler
    previous = (signal.signal(signal.SIGTERM, signal.default_int_handler)
                if threading.current_thread() is threading.main_thread() else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # parsed again with the file's flags last, so they override
            args = parser.parse_args(argv + _config_flags(args.config, args))
        return args.func(args)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError) as exc:
        print(f"data-error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # last-resort guard
        print(f"internal-error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
