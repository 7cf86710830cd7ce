"""The benchmark's workloads: their inputs, how each op's outcome is read, and
the correctness gate every run must pass.

An op is one ``tensorcert.cli.main([...])`` call.  The package receives only
the pattern files written here and the command-line flags; everything it
returns is read back from the artifact it writes, never from the exit code
alone.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

import tensorcert.certifier as certifier
import tensorcert.oracle as oracle
from tensorcert.assumptions import TSelection
from tensorcert.core import SamplingPattern, Shape
from tensorcert.geometry import RankSpec

# The acceptance sweep of tests/test_acceptance.py: (dims, j, ranks, p).
SWEEP_CONFIGS = (
    ((3, 3, 3), 1, (1, 2), 0.75),
    ((3, 3, 3), 1, (1, 2), 0.60),
    ((3, 3, 3), 1, (1, 1), 0.50),
    ((3, 3, 3), 2, (2,), 0.50),
    ((3, 3, 3), 2, (2,), 0.65),
    ((4, 4, 4), 1, (2, 2), 0.80),
    ((3, 3, 3, 3), 1, (1, 1, 1), 0.45),
    ((3, 3, 3, 3), 2, (2, 2), 0.85),
)
SWEEP_PATTERN_SEED = 5  # pattern draws of the acceptance sweep
SWEEP_TRIALS = 12  # first draws per config of the acceptance sweep's 40: one pass is ~10 s
CERT_SEED = 3  # --seed of every certificate, as in the acceptance sweep
ORACLE_SEED = 11  # generic instance the sweep's verdicts are checked against
PAPER_STARTS = 24  # --starts of the acceptance test's paper-examples call
MC_OPS = ((64, 20), (64, 20), (256, 4))  # (n1, trials) of the proper1 simulations, in turn
MC_PASS = 48  # ops in one pass, ~14 s
MC_K, MC_EPS = 4, 0.1
WILSON_Z_99 = 2.5758293035489004


class GateError(AssertionError):
    """An op's output disagrees with an independent check."""


@dataclass
class Op:
    key: int  # position in the workload's op list; repeats share it
    argv: list[str]  # flags, without --out
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    """What one op returned; `seconds` is the cli.main call alone."""

    key: int
    rc: Optional[int]
    seconds: float
    artifact: Optional[bytes]
    stdout: str
    crash: Optional[str] = None  # class of an exception escaping cli.main
    outcome: str = ""
    failed: bool = False
    host: float = 1.0  # host factor around the op (see hostspeed.py)


def acceptance_draw(dims: Sequence[int], p: float, seed: int, trial: int) -> list[tuple[int, ...]]:
    """Bernoulli(p) pattern, drawn as the package's sample_pattern draws it:
    one Philox stream keyed on (seed, trial), first dimension fastest."""
    rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
    draws = rng.random(math.prod(dims))
    coords = (tuple(reversed(rev)) for rev in itertools.product(*(range(1, n + 1) for n in reversed(dims))))
    return [c for c, u in zip(coords, draws) if u < p]


def shuffled(coords: Sequence[tuple[int, ...]], seed: Sequence[int]) -> list[tuple[int, ...]]:
    """The same entries in a seeded order.  The package sorts the entries of a
    pattern when it reads it, so the work and every answer stay the same."""
    rng = np.random.default_rng(list(seed))
    return [coords[i] for i in rng.permutation(len(coords))]


def write_pattern_file(path: str, dims: Sequence[int], coords: Sequence[tuple[int, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(dims), "observed": [list(c) for c in coords]}, fh)


def _derived_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (2**31 - 1)


def wilson_lower(successes: int, total: int, z: float = WILSON_Z_99) -> float:
    if total == 0:
        return 0.0
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half)


def _artifact(record: Record) -> dict:
    if record.artifact is None:
        raise GateError(f"op {record.key} exited {record.rc} without an artifact")
    return json.loads(record.artifact)


def _check_repeats(records: Sequence[Record]) -> None:
    """Every op is deterministic, so a repeated op must give identical output."""
    first: dict[int, Record] = {}
    for r in records:
        seen = first.setdefault(r.key, r)
        if (seen.rc, seen.artifact, seen.stdout) != (r.rc, r.artifact, r.stdout):
            raise GateError(f"op {r.key} gave different output on a repeat")


def _finite_certificate(d: dict, mode: str) -> "certifier.FiniteCertificate":
    return certifier.FiniteCertificate(
        verdict=d["verdict"],
        num_free_core=d["numFreeCore"],
        witness_columns=tuple(d["witnessColumns"]) if d["witnessColumns"] is not None else None,
        violating_subset=tuple(d["violatingSubset"]) if d["violatingSubset"] is not None else None,
        selection=TSelection(entries=tuple(tuple(c) for c in d["selection"]), mode=mode),
        num_columns=d["numColumns"],
        reason=d.get("reason", ""),
    )


class SweepWorkload:
    """check-finite or check-unique over the acceptance sweep's patterns.

    The corpus is fixed: the acceptance sweep's first twelve draws at pattern
    seed 5, trial by trial, the eight configs round-robin.  An op's cost depends so
    much on its pattern that fresh draws, or even relabelled modes, moved a
    25-second run's median latency by up to a third between seeds.  So the
    workload seed only shuffles the order of the entries inside each file:
    the package gets different bytes and does the same work."""

    def __init__(self, name: str, command: str):
        self.name = name
        self.command = command
        self._oracle_cache: dict[tuple[int, int], str] = {}

    def build(self, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
        trials = 1 if tiny else SWEEP_TRIALS
        ops = []
        for trial in range(trials):
            for ci, (dims, j, ranks, p) in enumerate(SWEEP_CONFIGS):
                coords = shuffled(acceptance_draw(dims, p, SWEEP_PATTERN_SEED, trial), (seed, ci, trial))
                path = os.path.join(workdir, f"pattern-{ci}-{trial}.json")
                write_pattern_file(path, dims, coords)
                argv = [self.command, path, "--rank", ",".join(map(str, ranks)), "--j", str(j),
                        "--seed", str(CERT_SEED)]
                ops.append(Op(len(ops), argv, {"config": ci, "trial": trial, "coords": coords}))
        return ops

    def outcome(self, op: Op, record: Record) -> tuple[str, bool]:
        if record.rc == 1:
            # The command refuses a pattern that fails the certificate's
            # preconditions, e.g. one with no admissible selection.  On a
            # pattern the oracle finds not finitely completable that is the
            # right answer; on one it finds finitely completable it is a miss.
            if self._oracle_verdict(op) == "infinite":
                return "refused-infinite", False
            return "refused-finite", True
        if record.rc not in (0, 2):
            return f"exit-{record.rc}", True
        cert = _artifact(record)["certificate"]
        verdict = cert["verdict"]
        return verdict, verdict.startswith("undecided")

    def refusal_class(self, op: Op) -> str:
        """Name of the error a refused op raised, from the library call."""
        pattern, spec = self._instance(op)
        fn = certifier.certify_finite if self.command == "check-finite" else certifier.certify_unique
        try:
            fn(pattern, spec, seed=CERT_SEED)
        except Exception as exc:  # the class is what we record
            return type(exc).__name__
        return "none"

    def _instance(self, op: Op) -> tuple[SamplingPattern, RankSpec]:
        dims, j, ranks, _p = SWEEP_CONFIGS[op.meta["config"]]
        return SamplingPattern.from_coords(dims, op.meta["coords"]), RankSpec(j=j, ranks=ranks)

    def _oracle_verdict(self, op: Op) -> str:
        key = (op.meta["config"], op.meta["trial"])
        if key not in self._oracle_cache:
            pattern, spec = self._instance(op)
            instance = oracle.generate_instance(pattern.shape, spec, seed=ORACLE_SEED)
            report = oracle.jacobian_rank(instance, pattern, mode="coreAndFactors")
            self._oracle_cache[key] = report.verdict
        return self._oracle_cache[key]

    def _check_finite_cert(self, op: Op, cert: dict, mode: str) -> None:
        verdict = cert["verdict"]
        if verdict not in ("finite", "not-finite"):
            return
        expected = "finite" if verdict == "finite" else "infinite"
        if self._oracle_verdict(op) != expected:
            raise GateError(f"op {op.key}: certificate says {verdict}, oracle says {self._oracle_verdict(op)}")
        if verdict == "finite" and cert["witnessColumns"] is not None:
            pattern, spec = self._instance(op)
            if not certifier.verify_finite_witness(pattern, spec, _finite_certificate(cert, mode)):
                raise GateError(f"op {op.key}: finite witness does not replay")

    def check(self, ops: Sequence[Op], records: Sequence[Record]) -> None:
        _check_repeats(records)
        for r in {r.key: r for r in records}.values():
            op = ops[r.key]
            if r.crash is not None or r.rc not in (0, 2):
                continue
            cert = _artifact(r)["certificate"]
            if self.command == "check-finite":
                self._check_finite_cert(op, cert, "A")
                continue
            if cert["verdict"] == "unique":
                if self._oracle_verdict(op) != "finite":
                    raise GateError(f"op {op.key}: unique verdict on an oracle-infinite pattern")
                if cert["finite"]["verdict"] != "finite":
                    raise GateError(f"op {op.key}: unique verdict without a finite part")
                self._check_finite_cert(op, cert["finite"], "A+")
            else:
                self._check_finite_cert(op, cert["finite"], "A")


class PaperExamples:
    """The paper-examples command at the acceptance test's start count, at
    program seeds 0, 1, 2, ... in turn.  Starts drawn at other seeds differ
    in cost by up to a factor of two, and the ten or so ops of a run are too
    few to average that out, so the seed list is the same for every workload
    seed.  At 24 starts some seeds miss a completion (seed 6 does); those
    ops fail."""

    name = "paper-examples"
    CHECKS = 5

    def build(self, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
        starts = 2 if tiny else PAPER_STARTS
        return [Op(i, ["paper-examples", "--starts", str(starts), "--seed", str(i)]) for i in range(64)]

    def outcome(self, op: Op, record: Record) -> tuple[str, bool]:
        if record.rc == 0:
            return "pass", False
        return ("fail" if record.rc == 1 else f"exit-{record.rc}"), True

    def check(self, ops: Sequence[Op], records: Sequence[Record]) -> None:
        _check_repeats(records)
        for r in records:
            if r.crash is not None:
                continue
            lines = r.stdout.splitlines()
            passes = sum(line.startswith("PASS ") for line in lines)
            fails = sum(line.startswith("FAIL ") for line in lines)
            if passes + fails != self.CHECKS:
                raise GateError(f"op {r.key}: {passes + fails} check lines, expected {self.CHECKS}")
            if (r.rc == 0) != (passes == self.CHECKS):
                raise GateError(f"op {r.key}: exit {r.rc} with {passes} PASS lines")
            if r.artifact is None or r.artifact.decode() != r.stdout:
                raise GateError(f"op {r.key}: artifact differs from the printed checks")


def proper1_threshold(n1: int, k: int = MC_K, eps: float = MC_EPS) -> int:
    """Per-column count above the closed-form threshold, as in the acceptance test."""
    return math.floor(6 * math.log(n1) + 2 * math.log(k / eps) + 4) + 1


class MonteCarlo:
    """simulate --property proper1 at 64x4, 64x4 and 256x4 in turn, each op
    with its own seed derived from the workload seed."""

    name = "montecarlo"

    def build(self, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
        ops = []
        for i in range(2 if tiny else MC_PASS):
            n1, trials = MC_OPS[i % len(MC_OPS)]
            argv = ["simulate", "--dims", f"{n1},{MC_K}", "--property", "proper1",
                    "--trials", str(1 if tiny else trials), "--per-column-l", str(proper1_threshold(n1)),
                    "--seed", str(_derived_seed(seed, i))]
            ops.append(Op(i, argv, {"n1": n1}))
        return ops

    def outcome(self, op: Op, record: Record) -> tuple[str, bool]:
        if record.rc != 0:
            return f"exit-{record.rc}", True
        counts = _artifact(record)["result"]["counts"]
        return ("undecided" if counts["undecided"] else "estimated"), bool(counts["undecided"])

    def check(self, ops: Sequence[Op], records: Sequence[Record]) -> None:
        _check_repeats(records)
        totals: dict[int, list[int]] = {}
        for r in {r.key: r for r in records}.values():
            if r.crash is not None or r.rc != 0:
                continue
            counts = _artifact(r)["result"]["counts"]
            trials = int(ops[r.key].argv[ops[r.key].argv.index("--trials") + 1])
            if counts["undecided"] or counts["pass"] + counts["fail"] != trials:
                raise GateError(f"op {r.key}: not every trial decided: {counts}")
            acc = totals.setdefault(ops[r.key].meta["n1"], [0, 0])
            acc[0] += counts["fail"]
            acc[1] += trials
        for n1, (fails, trials) in totals.items():
            if wilson_lower(fails, trials) > MC_EPS / MC_K:
                raise GateError(f"{n1}x{MC_K}: failure rate {fails}/{trials} exceeds eps/k")


WORKLOADS = {
    "certify-sweep": lambda: SweepWorkload("certify-sweep", "check-finite"),
    "unique-sweep": lambda: SweepWorkload("unique-sweep", "check-unique"),
    "paper-examples": PaperExamples,
    "montecarlo": MonteCarlo,
}
