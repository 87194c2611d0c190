"""The benchmark's workloads: inputs from the seed, a fixed list of ops per round, checks.

Every workload is a closed loop with one client and one op at a time.  An
op is either a lattice-lab CLI command run in a child process (``argv``) or
an in-process call of a public lattice_lab function (``call``).  Its
``check`` receives ``(exit code, stdout)`` or the call's return value and
returns an error message, or None when the output is correct.

* ``evidence``: ``verify <id>`` for each check id.  All harness and
  martingales work at d <= 64; no file I/O and no ``validate``.
* ``classify-ladder``: in-process ``classify`` at N = d in {64, 128, 256}.
  Only the pair-defect kernel and the reductions on it.
* ``file-roundtrip``: ``gen``, ``validate --contractive`` and ``classify
  --json`` on instance files at N = d in {64, 96}.  JSON load and dump and
  the filtration laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from tracing import CHECK_IDS


@dataclass
class Op:
    label: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


def _cli_json(result) -> tuple[dict | None, str | None]:
    code, out = result
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


class Evidence:
    """``verify <id> --trials 100 --json`` for each of the 8 check ids, on seeds drawn
    from the run's seed.

    One op per check id rather than one ``verify all``: the short ops let the
    fastest-of-rounds latency see the program's cost through the host's speed
    swings, and the CLI start-up share of each op shows in op_p50_s.
    """

    SEEDS_PER_ROUND = 1
    martingale_share = 0.0  # the workload makes no classify ops of its own

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.SEEDS_PER_ROUND)]

    @staticmethod
    def _check(ids: tuple[str, ...]):
        def check(result) -> str | None:
            data, err = _cli_json(result)
            if err:
                return err
            statuses: dict[str, list[str]] = {}
            for r in data["results"]:
                statuses.setdefault(r["id"], []).append(r["status"])
            if sorted(statuses) != sorted(ids):
                return f"results for {sorted(statuses)}, expected {sorted(ids)}"
            for check_id, seen in statuses.items():
                if "VIOLATED" in seen:
                    return f"{check_id} VIOLATED"
                if "CONFIRMED" not in seen:
                    return f"{check_id} confirmed nothing: {seen}"
            return None

        return check

    def warmup_ops(self) -> list[Op]:
        ids = ("eventual-not-closed",)
        return [Op("verify eventual-not-closed", self._check(ids),
                   argv=["verify", "eventual-not-closed", "--json"])]

    def round_ops(self) -> list[Op]:
        return [
            Op(f"verify {check_id} --seed {s}", self._check((check_id,)),
               argv=["verify", check_id, "--seed", str(s), "--trials", "100", "--json"])
            for s in self.seeds
            for check_id in CHECK_IDS
        ]


@dataclass
class Case:
    """One classify input with the verdicts its construction guarantees."""

    label: str
    seq: object
    filt: object
    expect: dict
    want: dict | None = None  # oracle result, computed on first check


class ClassifyLadder:
    """``classify(seq, filt)`` on eight constructions at each rung of the size ladder."""

    SIZES = (64, 128, 256)

    def __init__(self, seed: int, workdir: str) -> None:
        import lattice_lab as L

        rng = np.random.default_rng(seed)
        self.cases: list[Case] = []
        for n in self.SIZES:
            filt = L.build_random_nested(n, n, int(rng.integers(2**31 - 1)), "l1")
            space, w = filt.space, filt.space.weights
            term = L.terminal_sequence(filt, L.vector(space, rng.uniform(-1.0, 1.0, n)))
            cut = int(rng.integers(2, n))
            head = rng.uniform(-1.0, 1.0, (cut - 1, n))
            eventual = L.sequence(space, [*head, *(v.coords for v in term.vectors[cut - 1:])])
            z = rng.uniform(-1.0, 1.0, n)
            z /= w @ np.abs(z)
            asym = L.sequence(space, [v.coords + z / k for k, v in enumerate(term.vectors, 1)])
            h_filt, h_seq, _family = L.harmonic_tail_example(n)
            del _family
            p_filt, p_seq = L.pairing_example(n // 2)
            d_filt, d_seq = L.haar_example(int(math.log2(n)))
            martingale = {"is_martingale": True, "e_witness": 1, "x_verdict": "X_MARTINGALE"}
            self.cases += [
                Case(f"random-nested terminal N={n}", term, filt, martingale),
                Case(f"random-nested eventual N={n}", eventual, filt,
                     {"is_martingale": False, "e_witness_at_most": cut}),
                Case(f"random-nested asymptotic N={n}", asym, filt,
                     {"is_martingale": False, "profile_le_2_over_n": True}),
                Case(f"random-nested abs-terminal N={n}", L.abs_seq(term), filt, {}),
                Case(f"harmonic tail N={n}", h_seq, h_filt,
                     {"is_martingale": False, "e_witness": None, "x_verdict": "X_MARTINGALE"}),
                Case(f"pairing d={n}", p_seq, p_filt, martingale),
                Case(f"pairing abs d={n}", L.abs_seq(p_seq), p_filt,
                     {"is_martingale": False, "e_witness": None, "one_step": 1.0}),
                Case(f"haar d={n}", d_seq, d_filt, martingale),
            ]
        self.martingale_share = sum(
            c.expect.get("is_martingale", False) for c in self.cases) / len(self.cases)

    @staticmethod
    def _op(case: Case) -> Op:
        import lattice_lab as L

        def check(report) -> str | None:
            if case.want is None:
                ops = [e.matrix for e in case.filt.ops]
                xs = np.array([v.coords for v in case.seq.vectors])
                case.want = oracle.classification(ops, xs, case.filt.space.weights)
                err = oracle.check_expectation(case.want, case.expect)
                if err:
                    return err
            return oracle.compare_classification(report.to_dict(), case.want)

        return Op(case.label, check, call=lambda: L.classify(case.seq, case.filt))

    def warmup_ops(self) -> list[Op]:
        return [self._op(self.cases[0])]

    def round_ops(self) -> list[Op]:
        return [self._op(c) for c in self.cases]


class FileRoundtrip:
    """gen, validate --contractive, classify --json on four instance kinds per rung."""

    # N = d per rung.  It stops at 96: at 128 one round takes about 20 s, so
    # fewer than two rounds fit in a run, and a 256 rung costs about 60 s per
    # op group at 2.5 GB.  The Haar instance needs d = 2**levels, so its
    # second rung has d = 128 (N = 7 operators).
    SIZES = (64, 96)

    def __init__(self, seed: int, workdir: str) -> None:
        import lattice_lab as L

        self.workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        self.warmup_seed = int(rng.integers(2**31 - 1))
        self.instances = []
        for n in self.SIZES:
            nested_seed = int(rng.integers(2**31 - 1))
            levels = math.ceil(math.log2(n))
            x = rng.uniform(-1.0, 1.0, n)
            built = [
                (f"random-nested N={n}", f"random-nested --size {n} --seed {nested_seed}",
                 L.build_random_nested(n, n, nested_seed), None),
                (f"harmonic N={n}", f"harmonic --size {n}", *L.harmonic_tail_example(n)[:2]),
                (f"pairing d={n}", f"pairing --size {n // 2}", *L.pairing_example(n // 2)),
                (f"dyadic d={2**levels}", f"haar --size {levels}", *L.haar_example(levels)),
            ]
            for label, gen_args, filt, seq in built:
                if seq is None:  # gen writes no sequence; the benchmark appends x_k = E_k x
                    xs = np.array([e.matrix @ x for e in filt.ops])
                else:
                    xs = np.array([v.coords for v in seq.vectors])
                self.instances.append({
                    "label": label,
                    "argv": ["gen", *gen_args.split()],
                    "weights": filt.space.weights,
                    "ops": [e.matrix for e in filt.ops],
                    "xs": xs,
                    "append_sequence": seq is None,
                })
        self.martingale_share = 3 / 4  # random-nested terminal, pairing and Haar; not harmonic

    def warmup_ops(self) -> list[Op]:
        path = self.workdir / "warmup.json"

        def check(result) -> str | None:
            path.unlink(missing_ok=True)
            return None if result[0] == 0 else f"exit code {result[0]}"

        return [Op("gen random-nested (warm-up)", check,
                   argv=["gen", "random-nested", "--size", str(self.SIZES[-1]), "--seed",
                         str(self.warmup_seed), "--out", str(path)])]

    def round_ops(self) -> list[Op]:
        ops = []
        for i, inst in enumerate(self.instances):
            path = self.workdir / f"instance-{i}.json"
            state: dict = {}
            ops += [
                Op(f"gen {inst['label']}", self._check_gen(inst, path, state),
                   argv=[*inst["argv"], "--out", str(path)]),
                Op(f"validate {inst['label']}", self._check_validate(inst, state),
                   argv=["validate", str(path), "--contractive", "--json"]),
                Op(f"classify {inst['label']}", self._check_classify(inst, path, state),
                   argv=["classify", str(path), "--json"]),
            ]
        return ops

    @staticmethod
    def _check_gen(inst: dict, path: Path, state: dict):
        def check(result) -> str | None:
            if result[0] != 0:
                return f"exit code {result[0]}"
            data = json.loads(path.read_text(encoding="utf-8"))
            space = data["space"]
            if space["dim"] != inst["ops"][0].shape[0]:
                return f"round trip: dim {space['dim']}"
            weights = inst["weights"]
            if (weights is None) != ("weights" not in space) or (
                weights is not None and not np.array_equal(space["weights"], weights)
            ):
                return "round trip: space weights differ from the builder's"
            ops = [np.array(o["matrix"], dtype=float) for o in data["filtration"]["operators"]]
            if len(ops) != len(inst["ops"]) or not all(
                np.array_equal(a, b) for a, b in zip(ops, inst["ops"])
            ):
                return "round trip: operators differ from the builder's"
            if inst["append_sequence"]:
                if "sequence" in data:
                    return "gen wrote a sequence for a builder that has none"
                tail = ',\n  "sequence": ' + json.dumps({"vectors": inst["xs"].tolist()}) + "\n}\n"
                with open(path, "r+b") as fh:
                    fh.seek(-2, 2)
                    if fh.read(2) != b"}\n":
                        return "instance file does not end with '}\\n'"
                    fh.seek(-2, 2)
                    fh.write(tail.encode("utf-8"))
            elif not np.array_equal(np.array(data["sequence"]["vectors"], dtype=float), inst["xs"]):
                return "round trip: sequence differs from the builder's"
            state["ops"] = ops
            return None

        return check

    @staticmethod
    def _check_validate(inst: dict, state: dict):
        def check(result) -> str | None:
            data, err = _cli_json(result)
            if err:
                return err
            if "ops" not in state:
                return "no instance file to check against"
            if not data["passed"]:
                return "validate reports a failed law on a builder's filtration"
            return oracle.check_validation(data, state["ops"], inst["weights"])

        return check

    @staticmethod
    def _check_classify(inst: dict, path: Path, state: dict):
        def check(result) -> str | None:
            path.unlink(missing_ok=True)
            data, err = _cli_json(result)
            if err:
                return err
            if "ops" not in state:
                return "no instance file to check against"
            want = oracle.classification(state.pop("ops"), inst["xs"], inst["weights"])
            return oracle.compare_classification(data, want)

        return check


WORKLOADS = {
    "evidence": Evidence,
    "classify-ladder": ClassifyLadder,
    "file-roundtrip": FileRoundtrip,
}
