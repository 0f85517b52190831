"""The benchmark's workloads: fixed ``loopcmc`` command lines.

Each op is one CLI invocation.  Inputs are fixed; the seed only permutes the
op order within a pass.  ``OUT`` in an argv is replaced by the op's output
directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OUT = "{out}"

# Every pinned gallery member, one op each.  The h values span series
# truncation orders from 3 to 24, so a change that helps only narrow or only
# wide bands shows in the per-op latencies.
GALLERY_MEMBERS = (
    ("sphere", "1"),
    ("catenoid", "1e-10"), ("catenoid", "0.1"), ("catenoid", "10"),
    ("helicoid", "1e-10"), ("helicoid", "0.1"), ("helicoid", "5"),
    ("enneper", "0"),
    ("smyth", "1e-8"), ("smyth", "1"),
    ("order5", "1e-8"), ("order5", "2"),
    ("kusner", "1"),
)

KUSNER_MU = "i*(sqrt(5)*z^3+1)^2/(z^6+sqrt(5)*z^3-1)^2"
KUSNER_NU = "z^2*(z^3-sqrt(5))/(sqrt(5)*z^3+1)"
ORDER5_A = "5.1 + 1.5*z^5 + 0.35*z^10"
ORDER5_Q = f"({ORDER5_A})*(1.25*z^3 + 4.15*z^8)"

# Minimal members through the classical Weierstrass integral: (name, data
# flags, half-width of the gallery domain, grid size).  order5 is given as a
# normalized potential, so its h = 0 member takes the numeric-nu path.
MINIMAL_MEMBERS = (
    ("catenoid", ["--mu=-exp(-z)/2", "--nu=-exp(z)"], "1", 201),
    ("helicoid", ["--mu=-i*exp(-z)/2", "--nu=-exp(z)"], "1", 201),
    ("enneper", ["--mu=1", "--nu=z^2"], "1", 201),
    ("kusner", [f"--mu={KUSNER_MU}", f"--nu={KUSNER_NU}"], "0.3", 201),
    ("order5", [f"--a={ORDER5_A}", f"--Q={ORDER5_Q}"], "0.4", 51),
)

# Acceptance criterion 8's dressing job.
DRESS_ARGV = ["dress", "--a", "(1+0.1*z)^2", "--Q", "1", "--atilde", "1",
              "--h", "0.5,1,2", "--K", "6", "--grid", "41",
              "--xrange", "-0.8", "0.8", "--yrange", "-0.8", "0.8",
              "--out", OUT]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    gate: str          # "gallery" | "minimal" | "dressing"
    golden: str = ""   # tests/golden subdirectory holding this op's mesh

    def command(self, outdir):
        return [outdir if a == OUT else a for a in self.argv]


GOLDEN_ENTRIES = ("catenoid", "helicoid", "smyth", "kusner")


def _gallery_ops():
    return [Op(f"{entry}_h{h}",
               ("gallery", entry, "--h", h, "--out", OUT),
               "gallery", entry if entry in GOLDEN_ENTRIES else "")
            for entry, h in GALLERY_MEMBERS]


def _minimal_ops():
    ops = []
    for name, data, half, n in MINIMAL_MEMBERS:
        argv = ["mesh", *data, "--h", "0", "--grid", str(n),
                "--xrange", f"-{half}", half, "--yrange", f"-{half}", half,
                "--format", "both", "--prefix", name, "--out", OUT]
        ops.append(Op(f"{name}_min", tuple(argv), "minimal"))
    return ops


WORKLOADS = {
    "gallery": _gallery_ops,
    "minimal": _minimal_ops,
    "dressing": lambda: [Op("dress_crit8", tuple(DRESS_ARGV), "dressing")],
}


def ops(workload):
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload]()


def pass_order(n_ops, rng: random.Random):
    """Op indices in the order one pass runs them."""
    order = list(range(n_ops))
    rng.shuffle(order)
    return order
