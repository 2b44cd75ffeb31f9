"""Four identities that the Gini mean meets exactly, held where no oracle goes.

For every positive sample ``a`` with weights ``w`` and every pair (p, q):

* homogeneity: ln G(2^j·a) = ln G(a) + j·ln 2;
* reflection: ln G_{p,q}(1/a) = −ln G_{−q,−p}(a), on values that are powers
  of two, so that 1/a is exact;
* weight scaling: multiplying every weight by 2^k leaves G unchanged;
* row splitting: replacing a row (a, w) by two rows (a, w/2) leaves G
  unchanged.

Each is held to ``1e-12 * max(1, |ln G|)`` on seeded draws under both kernel
backends: values 2^e·U(1, 2) across the normal double range, weights
1e-3…1e3, n from 2 to 10,000, and |p| up to 2, 30 and 300.

The draws set q = p ± gap·(1 + |p|), so the gap is the measure of the
tangent test in ``means``, |p − q| / (1 + max(|p|, |q|)), to within a factor
1 + gap.  :data:`GAP_MIN` is the smallest gap at which today's secant met the
bound on this module's draws (seeds 1 to 24, 7,200 draws per identity at the
gap): the worst defect was 8.9e-13 at 2e-3, 1.2e-12 at 1.5e-3, 2.4e-12 at
1e-3, 1.9e-11 at 1e-4 and 1.8e-10 at 1e-5, by homogeneity or weight scaling.
Smaller gaps wait for ROADMAP item 1, which makes the slope accurate at
every gap.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ginikit import ExponentPair, PositiveSample, gini_mean

from helpers import env_importing_from

#: The bound on each identity's defect, relative to max(1, |ln G|).
BOUND = 1e-12
#: The smallest gap the draws take (see the module docstring).
GAP_MIN = 2e-3
#: The largest |p| of each set of draws, and the draws of each set: half of
#: them at :data:`GAP_MIN`, half at gaps from it up to 4.
P_MAX = (2.0, 30.0, 300.0)
DRAWS = 200
LN2 = math.log(2.0)


def _ln_g(values: np.ndarray, weights: np.ndarray, p: float, q: float) -> float:
    return math.log(gini_mean(PositiveSample(values, weights), ExponentPair(p, q)))


def _draw(
    rng: np.random.Generator, p_max: float, gap: float, powers_of_two: bool
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """A sample whose binades lie in [-1000, 990], so that 2^±20 times its
    values are normal doubles, and a pair with the given gap."""
    n = round(10.0 ** rng.uniform(math.log10(2.0), 4.0))
    centre, spread = rng.integers(-990, 990), rng.integers(0, 1000)
    binades = rng.integers(max(-1000, centre - spread), min(990, centre + spread) + 1, n)
    mantissas = 1.0 if powers_of_two else rng.uniform(1.0, 2.0, n)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, n)
    p = rng.uniform(-p_max, p_max)
    q = p + rng.choice([-1.0, 1.0]) * gap * (1.0 + abs(p))
    return np.ldexp(mantissas, binades), weights, p, q


def identity_defects(seed: int) -> dict[str, float]:
    """The worst defect of each identity over the draws of ``seed``,
    relative to max(1, |ln G|)."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("homogeneity", "reflection", "weight scaling", "row splitting"), 0.0)

    def record(identity: str, got: float, want: float, ln_g: float) -> None:
        worst[identity] = max(worst[identity], abs(got - want) / max(1.0, abs(ln_g)))

    for p_max in P_MAX:
        for draw in range(DRAWS):
            gap = GAP_MIN if draw % 2 else GAP_MIN * (4.0 / GAP_MIN) ** rng.uniform()
            values, weights, p, q = _draw(rng, p_max, gap, powers_of_two=False)
            ln_g = _ln_g(values, weights, p, q)
            j, k = int(rng.integers(-20, 21)), int(rng.integers(-40, 41))
            record("homogeneity", _ln_g(np.ldexp(values, j), weights, p, q), ln_g + j * LN2, ln_g)
            record("weight scaling", _ln_g(values, np.ldexp(weights, k), p, q), ln_g, ln_g)
            row = int(rng.integers(values.size))
            halves = weights.copy()
            halves[row] /= 2.0
            split = _ln_g(np.append(values, values[row]), np.append(halves, halves[row]), p, q)
            record("row splitting", split, ln_g, ln_g)
            values, weights, p, q = _draw(rng, p_max, gap, powers_of_two=True)
            ln_g = _ln_g(values, weights, p, q)
            reflected = -_ln_g(values, weights, -q, -p)
            record("reflection", _ln_g(1.0 / values, weights, p, q), reflected, ln_g)
    return worst


def test_identities_hold_to_the_bound_under_both_backends(compiled_src):
    tests_dir = str(Path(__file__).resolve().parent)
    script = (
        "import json, ginikit, test_identities; print(ginikit.backend_name()); "
        "print(json.dumps(test_identities.identity_defects(1)))"
    )
    runs = {}
    for pure, backend in (("0", "compiled"), ("1", "python")):
        env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
        env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        name, defects = done.stdout.splitlines()
        assert name == backend
        runs[backend] = json.loads(defects)
    # the backends agree to the bit, so their defects are the same numbers
    assert runs["compiled"] == runs["python"]
    assert max(runs["python"].values()) <= BOUND, runs["python"]
