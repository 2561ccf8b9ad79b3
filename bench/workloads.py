"""The four benchmark workloads: their op sequences and their oracles.

An op is one or more in-process ``colsel.cli.main(argv)`` calls chained
through in-memory text.  A workload's op sequence is a whole number of
passes, each a fixed list of ops whose inputs are drawn from the workload
seed and the pass index, so the same seed always gives the same ops.  What
an op runs, apart from its random inputs, depends on the pass index only, so
every seed does the same kind and amount of work.  The oracles run after the
timed region and never call colsel.  Why each workload was chosen is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference


@dataclass
class Step:
    """One CLI call: its argv, exit code (or the error it raised) and stdout."""

    argv: list
    rc: object
    stdout: str


@dataclass
class Op:
    index: int
    pass_index: int
    label: str
    params: dict = field(default_factory=dict)


def kv(line: str) -> dict:
    """Parse a ``key=value key=value`` report line."""
    return dict(tok.split("=", 1) for tok in line.split())


def csv_text(a: np.ndarray) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)


def _rc_failures(steps) -> list:
    return [f"{' '.join(s.argv)}: exit {s.rc!r}" for s in steps if s.rc != 0]


class Workload:
    name = ""
    # roughly one pass's time on the 2-core box the benchmark was tuned on; it
    # only sets how many passes fill --seconds
    nominal_pass_s = 1.0

    SMOKE_PASSES = 1

    def __init__(self, seed: int, smoke: bool, nproc: int):
        self.seed = seed
        self.smoke = smoke
        self.nproc = nproc

    def passes(self, seconds: float) -> int:
        """How many passes make the op sequence of a run of about ``seconds``."""
        if self.smoke:
            return self.SMOKE_PASSES
        return max(1, round(seconds / self.nominal_pass_s))

    def rng(self, *keys) -> np.random.Generator:
        return np.random.default_rng([self.seed, *keys])

    def pass_ops(self, p: int) -> list:
        raise NotImplementedError

    def run(self, op: Op, call) -> list:
        raise NotImplementedError

    def check(self, op: Op, steps: list, partner) -> list:
        """Failure messages for one op; ``partner`` holds the steps of the op
        named by ``op.params["partner"]`` in the same sequence, if any."""
        raise NotImplementedError

    def known_defect(self, op: Op, steps: list, messages: list) -> bool:
        """Whether a failed op, with the failure ``messages`` that ``check``
        gave, shows exactly one of the defects listed as known."""
        return False

    def scored(self, op: Op, steps: list):
        """Subsets or candidates scored, from the ``subsets_evaluated`` that
        ``select`` prints; None where the workload runs no ``select``."""
        return None

    def warmup(self, call):
        """Run each CLI path once, outside every timer."""


# ---------------------------------------------------------------------------

CRITERIA = ("vol", "rvol", "sopt", "norm-two", "pinv-norm:p=4", "cond:p=4", "srank", "res-two")
SCALED_CRITERIA = CRITERIA[1:]  # vol(cA) = c^k vol(A) leaves float64 range
# d in value(cA) = c**d * value(A)
SCALE_POWER = {"rvol": 0, "sopt": 0, "norm-two": 1, "pinv-norm:p=4": -1,
               "cond:p=4": 0, "srank": 0, "res-two": 1}
SCALES = (1e-100, 1e100)
# At 1e±100 these return 0.0 with the first subset (ROADMAP item 2): sigma**-p
# and products of sigma overflow or underflow, and the non-finite value is
# scored as a valid 0.0.
KNOWN_SCALE_DEFECTS = frozenset({"sopt", "pinv-norm:p=4", "cond:p=4"})
# the failure messages of ROADMAP item 2's defect, and of nothing else
SCALE_SYMPTOMS = ("scaled witness ", "scaled value ")
REL_TOL = 1e-9


class ExactEnum(Workload):
    name = "exact-enum"
    nominal_pass_s = 6.0

    def __init__(self, seed, smoke, nproc):
        super().__init__(seed, smoke, nproc)
        self.rows, self.cols, self.k = (8, 10, 3) if smoke else (12, 20, 6)
        self._bases = {}
        self._refs = {}

    def pass_ops(self, p):
        base = self.rng(1, p).standard_normal((self.rows, self.cols))
        self._bases[p] = base
        # two inputs in eight are scaled, at positions 3 and 7, rotating
        # through the non-vol criteria from pass to pass: passes 0, 1 and 2
        # scale sopt, pinv-norm and cond, one each
        first = (2 * p) % len(SCALED_CRITERIA)
        scaled = [SCALED_CRITERIA[(first + r) % len(SCALED_CRITERIA)] for r in range(2)]
        plain = [c for c in CRITERIA if c not in scaled]
        inputs = [(c, 1.0) for c in plain[:3]] + [(scaled[0], SCALES[0])]
        inputs += [(c, 1.0) for c in plain[3:]] + [(scaled[1], SCALES[1])]
        ops = []
        for criterion, scale in inputs:
            text = csv_text(base * scale) if scale != 1.0 else csv_text(base)
            first_index = None
            for threads in (1, self.nproc):
                index = p * 2 * len(inputs) + len(ops)
                params = {"criterion": criterion, "scale": scale, "threads": threads, "text": text}
                if first_index is None:
                    first_index = index
                else:
                    params["partner"] = first_index
                tag = f"{criterion} t{threads}" + (f" x{scale:g}" if scale != 1.0 else "")
                ops.append(Op(index, p, tag, params))
        return ops

    def run(self, op, call):
        prm = op.params
        return [call(["select", "--method", "exact", "--k", str(self.k),
                      "--criterion", prm["criterion"], "--threads", str(prm["threads"])],
                     prm["text"])]

    def _reference(self, p, criterion):
        key = (p, criterion)
        if key not in self._refs:
            self._refs[key] = reference.exact_optimum(self._bases[p], self.k, criterion)
        return self._refs[key]

    def check(self, op, steps, partner):
        failures = _rc_failures(steps)
        if failures:
            return failures
        prm = op.params
        criterion, scale = prm["criterion"], prm["scale"]
        out = steps[0].stdout
        if partner is not None and partner[0].stdout != out:
            failures.append("stdout differs between --threads 1 and --threads "
                            f"{prm['threads']}")
        rep = kv(out)
        expected_count = math.comb(self.cols, self.k)
        if int(rep["subsets_evaluated"]) != expected_count:
            failures.append(f"subsets_evaluated={rep['subsets_evaluated']} != {expected_count}")
        value = float(rep["value"])
        witness = tuple(int(i) for i in rep["subset"].split(","))
        base = self._bases[op.pass_index]
        optimum, ref_witness = self._reference(op.pass_index, criterion)
        if scale == 1.0:
            reached = reference.criterion_values(base, np.array([witness]), criterion)[0]
            if reference.relative_error(reached, optimum) > REL_TOL:
                failures.append(f"witness {witness} reaches {reached!r}, optimum {optimum!r}")
            if reference.relative_error(value, optimum) > REL_TOL:
                failures.append(f"value {value!r} != optimum {optimum!r}")
        else:
            expected = scale ** SCALE_POWER[criterion] * optimum
            if witness != ref_witness:
                failures.append(f"scaled witness {witness} != unscaled witness {ref_witness}")
            if reference.relative_error(value, expected) > REL_TOL:
                failures.append(f"scaled value {value!r} != c^d * optimum = {expected!r}")
        return failures

    def known_defect(self, op, steps, messages):
        prm = op.params
        return (prm["scale"] != 1.0 and prm["criterion"] in KNOWN_SCALE_DEFECTS
                and all(m.startswith(SCALE_SYMPTOMS) for m in messages))

    def scored(self, op, steps):
        return int(kv(steps[0].stdout)["subsets_evaluated"])

    def warmup(self, call):
        text = csv_text(self.rng(0).standard_normal((4, 5)))
        for criterion in CRITERIA:
            for threads in (1, self.nproc):
                call(["select", "--method", "exact", "--k", "2", "--criterion", criterion,
                      "--threads", str(threads)], text)
        # one op at full size, so that the first timed op does not pay for
        # growing the heap its batches reuse
        call(["select", "--method", "exact", "--k", str(self.k), "--criterion", "res-two",
              "--threads", "1"], csv_text(self.rng(0).standard_normal((self.rows, self.cols))))


# ---------------------------------------------------------------------------

class SeededOps(Workload):
    """One op per pass, whose input is one CLI seed drawn from the workload seed
    and the pass index."""

    def pass_ops(self, p):
        s = self.seed * 1_000_000 + p
        return [Op(p, p, f"s={s}", {"s": s})]


class X3cVerify(SeededOps):
    name = "x3c-verify"
    nominal_pass_s = 0.45
    SMOKE_PASSES = 4

    def __init__(self, seed, smoke, nproc):
        super().__init__(seed, smoke, nproc)
        self.m, self.n, self.extra = (3, 8, 3) if smoke else (5, 14, 9)

    def run(self, op, call):
        s = str(op.params["s"])
        m = str(self.m)
        gen_false = call(["x3c", "gen-false", "--m", m, "--n", str(self.n), "--seed", s])
        steps = [gen_false,
                 call(["x3c", "verify"], gen_false.stdout),
                 call(["gap"], gen_false.stdout)]
        gen_true = call(["x3c", "gen-true", "--m", m, "--extra", str(self.extra), "--seed", s])
        steps += [gen_true, call(["x3c", "verify"], gen_true.stdout)]
        reduced = call(["x3c", "reduce"], gen_true.stdout)
        steps += [reduced,
                  call(["decide", "--criterion", "rvol", "--k", m, "--b", "1"], reduced.stdout)]
        return steps

    def check(self, op, steps, partner):
        failures = _rc_failures(steps)
        if failures:
            return failures
        _, verify_false, _, gen_true, verify_true, _, decide = steps
        if verify_false.stdout != "solvable=no agreement=yes\n":
            failures.append(f"gen-false | verify printed {verify_false.stdout!r}")
        if verify_true.stdout != "solvable=yes agreement=yes\n":
            failures.append(f"gen-true | verify printed {verify_true.stdout!r}")
        rep = kv(decide.stdout)
        if rep.get("answer") != "yes":
            return failures + [f"decide printed {decide.stdout!r}"]
        lines = gen_true.stdout.splitlines()
        sets = [tuple(int(e) for e in line.split()) for line in lines[1:]]
        chosen = [sets[int(i)] for i in rep["witness"].split(",")]
        covered = sorted(e for triple in chosen for e in triple)
        if len(chosen) != self.m or covered != list(range(1, 3 * self.m + 1)):
            failures.append(f"decide witness {chosen} is not an exact cover of 1..{3 * self.m}")
        return failures

    def warmup(self, call):
        inst = call(["x3c", "gen-false", "--m", "2", "--n", "3", "--seed", "0"]).stdout
        call(["x3c", "verify"], inst)
        call(["gap"], inst)
        inst = call(["x3c", "gen-true", "--m", "2", "--extra", "1", "--seed", "0"]).stdout
        call(["decide", "--criterion", "rvol", "--k", "2", "--b", "1"],
             call(["x3c", "reduce"], inst).stdout)


# ---------------------------------------------------------------------------

class Heuristic(Workload):
    name = "heuristic"
    nominal_pass_s = 1.2
    SMOKE_PASSES = 4
    MAX_SWEEPS = 100

    def __init__(self, seed, smoke, nproc):
        super().__init__(seed, smoke, nproc)
        self.rows, self.cols, self.k = (10, 20, 3) if smoke else (60, 200, 12)

    def pass_ops(self, p):
        a = self.rng(3, p).standard_normal((self.rows, self.cols))
        return [Op(p, p, f"input {p}", {"a": a, "text": csv_text(a)})]

    def run(self, op, call):
        text, k = op.params["text"], str(self.k)
        return [
            call(["select", "--method", "greedy", "--criterion", "res-frobenius", "--k", k], text),
            call(["select", "--method", "local-swap", "--k", k, "--seed", str(op.index),
                  "--max-sweeps", str(self.MAX_SWEEPS)], text),
            call(["select", "--method", "greedy", "--criterion", "vol", "--k", k], text),
        ]

    def check(self, op, steps, partner):
        failures = _rc_failures(steps)
        if failures:
            return failures
        a = op.params["a"]
        for step, recompute in zip(steps, (
            lambda c: reference.residual_frobenius(a, c),
            reference.volume,
            reference.volume,
        )):
            rep = kv(step.stdout)
            subset = [int(i) for i in rep["subset"].split(",")]
            if len(subset) != self.k:
                failures.append(f"{step.argv[2]}: {len(subset)} columns, expected {self.k}")
                continue
            expected = recompute(a[:, subset])
            value = float(rep["value"])
            if reference.relative_error(value, expected) > REL_TOL:
                failures.append(f"{' '.join(step.argv[1:5])}: value {value!r}, "
                                f"numpy gives {expected!r}")
        swap = kv(steps[1].stdout)
        per_sweep = self.k * (self.cols - self.k)
        sweeps = int(swap["subsets_evaluated"]) // per_sweep
        if sweeps < self.MAX_SWEEPS:
            subset = [int(i) for i in swap["subset"].split(",")]
            gain = reference.best_swap_gain(a, subset)
            if gain > math.log1p(REL_TOL):
                failures.append(f"local-swap stopped after {sweeps} sweeps but a swap "
                                f"raises the volume by a factor {math.exp(gain)!r}")
        return failures

    def scored(self, op, steps):
        return sum(int(kv(step.stdout)["subsets_evaluated"]) for step in steps)

    def warmup(self, call):
        text = csv_text(self.rng(0).standard_normal((4, 6)))
        call(["select", "--method", "greedy", "--criterion", "res-frobenius", "--k", "2"], text)
        call(["select", "--method", "local-swap", "--k", "2"], text)
        call(["select", "--method", "greedy", "--criterion", "vol", "--k", "2"], text)


# ---------------------------------------------------------------------------

LEMMA_IDS = frozenset({
    "e_inter", "e_mean", "e_sc", "e_srk", "l_cond", "l_fi", "l_inter", "l_inter2",
    "l_norm", "l_pi0", "l_pi1", "l_pinv", "l_srank", "l_vol", "lem:orth", "r_schattenp",
})


class Lemmas(SeededOps):
    name = "lemmas"
    nominal_pass_s = 0.11
    SMOKE_PASSES = 4

    def __init__(self, seed, smoke, nproc):
        super().__init__(seed, smoke, nproc)
        self.trials = 2 if smoke else 25

    def run(self, op, call):
        return [call(["lemmas", "--seed", str(op.params["s"]), "--trials", str(self.trials)])]

    def check(self, op, steps, partner):
        failures = _rc_failures(steps)
        if failures:
            return failures
        reports = [kv(line) for line in steps[0].stdout.splitlines()]
        ids = {rep["lemma"] for rep in reports}
        if ids != LEMMA_IDS:
            failures.append(f"lemma ids missing {sorted(LEMMA_IDS - ids)}, "
                            f"unexpected {sorted(ids - LEMMA_IDS)}")
        failures += [f"lemma {rep['lemma']}: {rep['failures']} failures"
                     for rep in reports if rep["failures"] != "0"]
        return failures

    def known_defect(self, op, steps, messages):
        # l_pi0 compares the partitioned pseudo-inverse with the direct one under
        # an absolute 1e-9, though the entries grow as 1/sigma_min: one
        # ill-conditioned draw in a few thousand misses it by rounding alone
        # (relative error 1e-10 at condition number 2.6e5).  A broken
        # partitioned_pinv would fail every partition trial, not one.
        if steps[0].rc != 1:
            return False
        reports = [kv(line) for line in steps[0].stdout.splitlines()]
        failing = [rep for rep in reports if rep["failures"] != "0"]
        return (len(failing) == 1 and failing[0]["lemma"] == "l_pi0"
                and failing[0]["failures"] == "1")

    def warmup(self, call):
        call(["lemmas", "--seed", "0", "--trials", "1"])


WORKLOADS = {w.name: w for w in (ExactEnum, X3cVerify, Heuristic, Lemmas)}
