"""The command line as a state machine: one scratch directory, a rule per
subcommand with tiny model flags, and inputs drawn from the paths the machine
has written, a missing path, a directory and /dev/null. Outputs go to their
usual names there, or to a directory, under a missing directory, under a file,
or to /dev/null.

After every command: it exited 0, or printed one categorized error line and
exited 2, 3 or 4; if it failed, the scratch directory is as it was before it
ran (``report`` and ``pipeline``, which write directories, aside); and every
file in the directory reloads through its reader, or is a table.

This is model-based testing after QuickCheck (Claessen & Hughes 2000), with
Hypothesis's stateful API (MacIver et al. 2019).
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import Phase, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, multiple, rule

from fleetmaint.cli import main
from test_pipeline_property import check_outcome, reload

SPEC = {"seed": 5, "vehicles": {"DODGE CHARGER": 3, "FORD F150": 3}, "window_start": "2015-01",
        "months": 6, "systems": ["Brakes", "Tires", "Exhaust"], "background_rate": 0.8}
# inputs besides the written files: a missing path, a directory and a device
ODD = ("missing.txt", "dir", "/dev/null")
# the commands that write a directory, which a failure may leave changed
WRITE_DIRECTORIES = {"report", "pipeline"}
# the paths in the scratch directory that a command wrote, and the odd inputs
written = Bundle("written")


def mostly(usual: str, other):
    """``usual`` three times in four, else a value of ``other``."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 0 else st.just(usual))


def inputs(usual: str):
    """An input path: mostly the flag's usual file, else a path the machine wrote or an odd one."""
    return mostly(usual, written)


def targets(usual: str):
    """An output path: mostly the usual one, else a directory, a path under a
    missing directory or under a file, or /dev/null."""
    return mostly(usual, st.sampled_from(
        ["dir", f"missing/{usual}", f"vehicles.csv/{usual}", "/dev/null"]))


class CliMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def teardown(self):
        self._tmp.cleanup()

    def path(self, name: str) -> str:
        return str(self.root / name)

    def snapshot(self) -> dict:
        return {str(p.relative_to(self.root)): None if p.is_dir() else p.read_bytes()
                for p in sorted(self.root.rglob("*"))}

    def run(self, *argv) -> bool:
        """Run a command and check its outcome; whether it exited 0."""
        before = self.snapshot()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
        check_outcome(code, stdout.getvalue(), stderr.getvalue())
        # --hypothesis-show-statistics shows how often each command got through
        event(f"{argv[0]} exit {code}")
        if code and argv[0] not in WRITE_DIRECTORIES:
            assert self.snapshot() == before, (argv, stderr.getvalue())
        return code == 0

    def tables(self, vehicles: str, maintenance: str) -> list:
        return ["--vehicles", self.path(vehicles), "--maintenance", self.path(maintenance)]

    def wrote(self, ok: bool, *names):
        """The names written in the scratch directory by a command that exited 0."""
        return multiple(*(name for name in names if ok and name and name != "/dev/null"))

    @initialize(target=written)
    def chain(self):
        """A fleet, and its tensor, CP model and LSTM, where the rules look first;
        each is written with flags other than a rule's first choice, so that a
        rule writing over it changes its bytes."""
        (self.root / "spec.json").write_text(json.dumps(SPEC))
        (self.root / "dir").mkdir()
        tables = ("vehicles.csv", "maintenance.csv")
        wrote = [self.synth("spec.json", "."),
                 self.tensorize(*tables, "tensor.txt", "discards.json", "2015-04"),
                 self.parafac("tensor.txt", "cp_model.txt", "1"),
                 self.train(*tables, "seq_model.txt", "2")]
        assert all(results.values for results in wrote)
        return multiple("spec.json", *ODD, *(name for results in wrote for name in results.values))

    @rule(target=written, spec=inputs("spec.json"),
          out=st.sampled_from([".", "dir", "vehicles.csv", "/dev/null"]))
    def synth(self, spec, out):
        ok = self.run("synth", "--spec", self.path(spec), "--out", self.path(out))
        return self.wrote(ok, *(os.path.normpath(f"{out}/{name}") for name in
                                ("vehicles.csv", "maintenance.csv", "manifest.json")))

    @rule(target=written, vehicles=inputs("vehicles.csv"), maintenance=inputs("maintenance.csv"),
          out=targets("tensor.txt"),
          discards=st.one_of(st.sampled_from([None, "same"]), targets("discards.json")),
          end=st.sampled_from(["2015-06", "2015-04"]))
    def tensorize(self, vehicles, maintenance, out, discards, end):
        discards = out if discards == "same" else discards
        ok = self.run("tensorize", *self.tables(vehicles, maintenance), "--window-start",
                      "2015-01", "--window-end", end, "--out", self.path(out),
                      *(["--discards", self.path(discards)] if discards else []))
        return self.wrote(ok, out, discards)

    @rule(target=written, tensor=inputs("tensor.txt"), out=targets("cp_model.txt"),
          rank=st.sampled_from(["2", "1"]))
    def parafac(self, tensor, out, rank):
        ok = self.run("parafac", "--tensor", self.path(tensor), "--rank", rank, "--max-iters", "5",
                      "--out", self.path(out))
        return self.wrote(ok, out)

    @rule(model=inputs("cp_model.txt"), out=st.sampled_from(["reports", "dir", "/dev/null"]),
          component=st.sampled_from(["all", "1", "3"]))
    def report(self, model, out, component):
        self.run("report", "--model", self.path(model), "--component", component,
                 "--out", self.path(out))

    @rule(target=written, vehicles=inputs("vehicles.csv"), maintenance=inputs("maintenance.csv"),
          make=st.sampled_from(["FORD F150", "DODGE CHARGER", "NO SUCH MAKE"]),
          out=targets("seqmine.csv"))
    def seqmine(self, vehicles, maintenance, make, out):
        ok = self.run("seqmine", *self.tables(vehicles, maintenance), "--target", make,
                      "--out", self.path(out))
        return self.wrote(ok, out)

    @rule(target=written, vehicles=inputs("vehicles.csv"), maintenance=inputs("maintenance.csv"),
          out=targets("seq_model.txt"), seed=st.sampled_from(["1", "2"]))
    def train(self, vehicles, maintenance, out, seed):
        ok = self.run("train", *self.tables(vehicles, maintenance), "--seed", seed,
                      "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4", "--layers", "1",
                      "--out", self.path(out))
        return self.wrote(ok, out)

    @rule(model=inputs("seq_model.txt"), vehicles=inputs("vehicles.csv"),
          maintenance=inputs("maintenance.csv"))
    def eval(self, model, vehicles, maintenance):
        self.run("eval", "--model", self.path(model), *self.tables(vehicles, maintenance))

    @rule(model=inputs("seq_model.txt"), prefix=st.sampled_from(["", "Brakes,Tires", "nosuch"]))
    def predict(self, model, prefix):
        self.run("predict", "--model", self.path(model), "--prefix", prefix)

    @rule(out=inputs("run"), demo=st.booleans())
    def pipeline(self, out, demo):
        # the demo takes seconds, so it runs only where its directory cannot be made
        path = self.path(out)
        demo = demo and os.path.exists(path) and not os.path.isdir(path)
        self.run("pipeline", "--out", path, *(["--demo"] if demo else []))

    @invariant()
    def every_file_reloads(self):
        for path in self.root.rglob("*"):
            if path.is_file():
                reload(path)


# no shrinking: each step runs a whole command, so minimizing a failure takes
# minutes; generation is derandomized, so the failure found is the same
CliMachine.TestCase.settings = settings(max_examples=30, stateful_step_count=20, deadline=None,
                                        derandomize=True, database=None,
                                        phases=[p for p in Phase if p is not Phase.shrink])
test_cli_state_machine = CliMachine.TestCase
