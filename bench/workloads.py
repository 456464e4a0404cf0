"""The benchmark's workloads: lists of CLI argument vectors.

Every op is one `hahn_lsq.cli.main(argv)` call, and a run repeats whole
rounds of a workload's ops.  The op lists do not depend on run.py's
--seed, which sets only the order of the ops, shuffled anew for each
round.  `sweep` and `tables` run the same ops in every round.
`fit-large` draws fresh fit parameters for every round from a generator
seeded with the round number, so that nothing keyed on (alpha, beta, N)
can be reused from one fit to the next, while every run sees the same
schedule of fits and so the same accuracy.  The draws are
stratified: every round has the same degrees and the same spread of
alpha and N.
"""

import random
from dataclasses import dataclass

SWEEP_FUNCTIONS = ("exp", "sin3", "poly:0.5,-1.5,0.25,2.0")
SWEEP_CONV_ALPHAS = (0.0, 0.5, 1.0)
SWEEP_SHARP_ALPHAS = (0.0, 0.5, 2.0)
FIT_FUNCTIONS = ("exp", "sin3", "runge")
FIT_DEGREES = tuple(range(40, 81, 2))
# Past n = 66, symmetric fits with alpha in [1.7, 2] come within 0.7 of the
# 1e-9 tolerance (see CHANGES.md); alpha stops at 1.5, where the worst of
# 150 draws is 1.5e-10.
FIT_ALPHA_MAX = 1.5
FIT_ASYMMETRIC = 4  # at n = 40, N <= 3280: inside the validated range n <= 40, N <= 10^4
TABLE_ALPHAS = (0.0, 0.5, 1.0, 3.0)
TABLE_BLOCKS = ((1, 35), (36, 70), (71, 105), (106, 140))
BASIS = dict(alpha=0.5, N=400, n=20)


@dataclass(frozen=True)
class Op:
    id: int
    command: str
    argv: tuple
    alpha: float
    beta: float = None
    n: int = None
    N: int = None
    function: str = None
    n_lo: int = None
    n_hi: int = None
    fmt: str = "csv"

    @property
    def degrees(self):
        return range(self.n_lo, self.n_hi + 1) if self.n is None else (self.n,)

    def keys(self):
        """The (alpha, beta, N) triples whose weight or constants this op uses."""
        beta = self.alpha if self.beta is None else self.beta
        if self.N is not None:
            return [(self.alpha, beta, self.N)]
        out = []
        for n in self.degrees:
            if self.command == "compare":
                out += [(self.alpha, beta, 10 * n * n), (self.alpha, beta, n**3)]
            else:
                out.append((self.alpha, beta, max(2 * n * (n + 1), 1)))
        return out


def _sweep(round_index):
    specs = []
    for f in SWEEP_FUNCTIONS:
        for a in SWEEP_CONV_ALPHAS:
            for n in range(1, 31):
                specs.append(dict(command="convergence", function=f, alpha=a, n=n,
                                  argv=("convergence", "--function", f, "--alpha", repr(a), "--n", str(n))))
    for a in SWEEP_SHARP_ALPHAS:
        for n in range(1, 21):
            specs.append(dict(command="sharpness", alpha=a, n=n,
                              argv=("sharpness", "--alpha", repr(a), "--n", str(n))))
    for s in specs:
        s["N"] = 2 * s["n"] * (s["n"] + 1)  # the c4 rule the CLI applies by default
    return specs


def _fit_large(round_index):
    rng = random.Random(round_index)
    specs = []
    strata = rng.sample(range(len(FIT_DEGREES)), len(FIT_DEGREES))
    for j, n in enumerate(FIT_DEGREES):
        alpha = round(FIT_ALPHA_MAX * (strata[j] + rng.random()) / len(FIT_DEGREES), 4)
        specs.append(dict(n=n, N=rng.randint(2 * n * n, 2 * n * (n + 1)), alpha=alpha, beta=alpha,
                          function=FIT_FUNCTIONS[j % len(FIT_FUNCTIONS)]))
    for k in range(FIT_ASYMMETRIC):
        # alpha in [k/2, k/2 + 1/2], beta two strata away: |alpha - beta| >= 1/2
        alpha = round(0.5 * (k + rng.random()), 4)
        beta = round(0.5 * ((k + 2) % 4 + rng.random()), 4)
        specs.append(dict(n=40, N=rng.randint(3200, 3280), alpha=alpha, beta=beta,
                          function=FIT_FUNCTIONS[k % len(FIT_FUNCTIONS)]))
    for s in specs:
        s["command"] = "fit"
        beta = () if s["beta"] == s["alpha"] else ("--beta", repr(s["beta"]))
        s["argv"] = ("fit", "--function", s["function"], "--alpha", repr(s["alpha"]), *beta,
                     "--nodes", str(s["N"]), "--n", str(s["n"]))
    assert len({(s["alpha"], s["beta"], s["N"]) for s in specs}) == len(specs)
    return specs


def _tables(round_index):
    specs = []
    for a in TABLE_ALPHAS:
        for command in ("bounds", "compare"):
            for lo, hi in TABLE_BLOCKS:
                specs.append(dict(command=command, alpha=a, n_lo=lo, n_hi=hi,
                                  argv=(command, "--alpha", repr(a), "--n-range", f"{lo}..{hi}")))
    for fmt in ("csv", "json"):
        a, N, n = BASIS["alpha"], BASIS["N"], BASIS["n"]
        specs.append(dict(command="basis", alpha=a, N=N, n=n, fmt=fmt,
                          argv=("basis", "--alpha", repr(a), "--nodes", str(N), "--n", str(n),
                                "--format", fmt)))
    return specs


WORKLOADS = {"sweep": _sweep, "fit-large": _fit_large, "tables": _tables}
FRESH_EACH_ROUND = {"fit-large"}


def ops(workload, round_index=0):
    return [Op(id=i, **spec) for i, spec in enumerate(WORKLOADS[workload](round_index))]


def repeat_share(op_list):
    """Share of (alpha, beta, N) uses in one round that repeat an earlier use."""
    keys = [k for op in op_list for k in op.keys()]
    return 1.0 - len(set(keys)) / len(keys)
