"""Seeded inputs, operations and LP-free correctness oracles of the workloads.

Inputs are drawn with the standard library's ``random.Random`` so that they
are plain Python numbers: the same seed gives the same bytes on every
commit and every numpy version, and generating them needs no import of
numpy or ctxpoly (whose import cost belongs to ``setup_s``).

``worker.py`` drives a workload object through these steps, in order:

* ``generate(seed)`` and ``write_files`` -- pure Python, before any timing
  starts;
* importing ``imports`` -- timed as part of ``setup_s``;
* ``prepare(warmup, pool)`` -- converts inputs into ctxpoly values; not
  timed;
* ``before_op(item)`` -- untimed clean-up before each measured op;
* ``op(item)`` -- one operation: the warm-up op counts towards ``setup_s``,
  the loop's ops are the measured latencies;
* ``check(item, result)`` -- the oracle, outside the timed window.  It
  returns ``None`` or a one-line reason the result is wrong.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random

#: Documented precision of ctxpoly distances (``ctxpoly.DISTANCE_TOL``).
DISTANCE_TOL = 1e-7
#: Documented LP feasibility tolerance (``ctxpoly.LP_TOL``).
LP_TOL = 1e-8
#: Simplest-scenario inputs whose largest facet value lies within this of 0
#: are redrawn, so no verdict rests on a value the LP tolerance cannot split.
BOUNDARY_MARGIN = 1e-6

SIMPLEST_SCENARIO_DOC = {
    "kind": "scenario",
    "preps": 4,
    "meas": 2,
    "outcomes": 2,
    "prep_equivs": [{"alpha": [0.5, 0.5, 0.0, 0.0], "beta": [0.0, 0.0, 0.5, 0.5]}],
    "meas_equivs": [],
}

# The eight tight functionals of the simplest scenario, written out again
# here so the oracle shares no code with ctxpoly.  Each term is
# (measurement, preparation, sign) on q[i][j] = p(outcome 1 | i, j), 0-based;
# the value is sum(sign * q) - 1 and the behavior is contextual exactly when
# some value is positive.
FACETS = (
    ("h1", ((0, 1, 1), (1, 1, 1), (0, 3, -1), (1, 2, -1))),
    ("h2", ((0, 1, 1), (1, 1, 1), (0, 2, -1), (1, 3, -1))),
    ("h3", ((1, 1, 1), (0, 2, 1), (0, 1, -1), (1, 3, -1))),
    ("h4", ((0, 1, 1), (1, 2, 1), (1, 1, -1), (0, 3, -1))),
    ("h5", ((1, 1, 1), (0, 3, 1), (0, 1, -1), (1, 2, -1))),
    ("h6", ((1, 2, 1), (0, 3, 1), (0, 1, -1), (1, 1, -1))),
    ("h7", ((0, 1, 1), (1, 3, 1), (1, 1, -1), (0, 2, -1))),
    ("h8", ((0, 2, 1), (1, 3, 1), (1, 1, -1), (0, 1, -1))),
)


def facet_values(q) -> dict[str, float]:
    """Values of h1..h8 on the outcome-1 table q (2 x 4)."""
    return {label: sum(sign * q[i][j] for i, j, sign in terms) - 1.0 for label, terms in FACETS}


def reference_distance(q) -> float:
    """l1 distance of a simplest behavior to its noncontextual polytope.

    A facet touches four cells with unit weights on the outcome-1 entry, and
    moving one cell by delta changes its l1 deviation by 2 * delta, so the
    violation h needs a worst cell deviation of at least h / 2.  Spreading the
    shift evenly over the four cells attains it.
    """
    return max(0.0, max(facet_values(q).values())) / 2.0


def draw_simplest(rng: random.Random) -> list[list[float]]:
    """Uniform valid behavior of the simplest scenario, as its 2 x 4
    outcome-1 table, away from the polytope boundary by BOUNDARY_MARGIN.

    Per measurement three cells are free and the fourth is pinned by the
    preparation equivalence q1 + q2 = q3 + q4; draws leaving [0, 1] are
    rejected.
    """
    while True:
        rows = []
        for _ in range(2):
            while True:
                q1, q2, q3 = rng.random(), rng.random(), rng.random()
                q4 = q1 + q2 - q3
                if 0.0 <= q4 <= 1.0:
                    rows.append([q1, q2, q3, q4])
                    break
        if abs(max(facet_values(rows).values())) >= BOUNDARY_MARGIN:
            return rows


def behavior_doc(q) -> dict:
    return {"kind": "behavior", "probs": [[[1.0 - p, p] for p in row] for row in q]}


def canonical_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _contextual(q) -> bool:
    return max(facet_values(q).values()) > 0.0


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    draws = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    total = sum(draws)
    return [x / total for x in draws]


def _unit_vector(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return [x / norm for x in v]


def _dot(u, v) -> float:
    return sum(x * y for x, y in zip(u, v))


def _noisy_states(rng: random.Random, noise: float) -> list[list[float]]:
    """Bloch vectors of four noisy preparations: +a, -a, +b, -b for random
    unit a and b, each turned within the plane of a and b by an angle of up
    to ``noise`` and shrunk by up to ``2 * noise``.

    Without noise both pairs mix to the maximally mixed state, so the
    preparation equivalence holds exactly.  The noise breaks it by about
    ``noise``, and only within the plane the four states span, where mixing
    them repairs it with a shift of the same order.  Noise off that plane can
    only be repaired by mixing them heavily, which leaves no contextuality.
    """
    a = _unit_vector(rng)
    while True:
        b = _unit_vector(rng)
        if abs(_dot(a, b)) < 0.99:
            break
    # Orthonormal basis (a, e) of the plane.
    e = [y - _dot(a, b) * x for x, y in zip(a, b)]
    norm = math.sqrt(_dot(e, e))
    e = [x / norm for x in e]
    states = []
    for v in (a, [-x for x in a], b, [-x for x in b]):
        c1, c2 = _dot(v, a), _dot(v, e)
        angle = rng.uniform(-noise, noise)
        shrink = 1.0 - rng.uniform(0.0, 2.0 * noise)
        d1 = shrink * (c1 * math.cos(angle) - c2 * math.sin(angle))
        d2 = shrink * (c1 * math.sin(angle) + c2 * math.cos(angle))
        states.append([d1 * x + d2 * y for x, y in zip(a, e)])
    return states


def _noisy_effect(rng: random.Random, noise: float) -> list[float]:
    """Bloch vector of a dichotomic measurement: a random unit vector with
    every component moved by up to ``noise``, kept inside the unit ball.
    Measurement noise leaves the preparation equivalence exact."""
    v = [x + rng.uniform(-noise, noise) for x in _unit_vector(rng)]
    norm = math.sqrt(_dot(v, v))
    return [x / max(1.0, norm) for x in v]


def pair_facet_value(p) -> float:
    """Largest simplest-scenario facet value over the measurement pairs of a
    behavior table p (measurements x 4 preparations x 2 outcomes) of the
    simplest family.

    Restricting a noncontextual model to two measurements leaves a
    noncontextual model of the simplest scenario, so a positive value proves
    the behavior contextual, and half of it bounds its distance from below.
    The eight facets are closed under swapping the two measurements, so
    unordered pairs suffice.
    """
    return float(max(
        max(facet_values([p[i][:, 1], p[k][:, 1]]).values())
        for i, k in itertools.combinations(range(len(p)), 2)
    ))


class Workload:
    imports = ("ctxpoly",)
    #: Contextual sources counted from the program's verdicts and from the
    #: LP-free pair oracle, for workloads whose contextual share is only
    #: known once the program has run.
    contextual_seen = None

    def write_files(self, workdir: str, warmup, pool) -> None:
        """Files the op reads, written before timing starts; most workloads have none."""

    def before_op(self, item) -> None:
        """Untimed clean-up before each measured op; most workloads need none."""


class SimplestCli(Workload):
    """Seeded behaviors of the simplest scenario, decided through the CLI;
    the first part of ``SmallLps``.

    One op runs ``ctx check`` and ``ctx distance`` in-process on pre-written
    document files, both with ``--output``.
    """

    pool_size = 256
    imports = ("ctxpoly", "ctxpoly.cli")

    def generate(self, seed: int):
        rng = random.Random(seed)
        warmup = draw_simplest(rng)
        return warmup, [draw_simplest(rng) for _ in range(self.pool_size)]

    def contextual_share(self, pool) -> tuple[int, int]:
        return sum(_contextual(q) for q in pool), len(pool)

    def write_files(self, workdir: str, warmup, pool) -> None:
        """Document files the op reads; written before timing starts."""
        self.scenario_path = os.path.join(workdir, "scenario.json")
        self.check_path = os.path.join(workdir, "check.json")
        self.distance_path = os.path.join(workdir, "distance.json")
        with open(self.scenario_path, "wb") as fh:
            fh.write(canonical_json(SIMPLEST_SCENARIO_DOC))
        self.items = []
        for idx, q in enumerate([warmup] + pool):
            path = os.path.join(workdir, f"behavior{idx:04d}.json")
            with open(path, "wb") as fh:
                fh.write(canonical_json(behavior_doc(q)))
            self.items.append((path, q))

    def prepare(self, warmup, pool):
        import ctxpoly.cli

        self.cli = ctxpoly.cli
        return self.items[0], self.items[1:]

    def before_op(self, item) -> None:
        """Remove the previous op's outputs, so check() never reads them."""
        for path in (self.check_path, self.distance_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def op(self, item):
        path, _ = item
        common = ["--scenario", self.scenario_path, "--behavior", path]
        rc_check = self.cli.run_cli(["check", *common, "--output", self.check_path])
        rc_distance = self.cli.run_cli(["distance", *common, "--output", self.distance_path])
        return rc_check, rc_distance

    def check(self, item, result):
        _, q = item
        if result != (0, 0):
            return f"exit codes {result}"
        try:
            with open(self.check_path, encoding="utf-8") as fh:
                verdict = json.load(fh)
            with open(self.distance_path, encoding="utf-8") as fh:
                d = json.load(fh)["d"]
        except FileNotFoundError as exc:
            return f"exit code 0 but no output file {os.path.basename(exc.filename)}"
        values = facet_values(q)
        if verdict["contextual"] != _contextual(q):
            return f"verdict contextual={verdict['contextual']}, facets say {_contextual(q)}"
        if verdict["contextual"] and values.get(verdict["violated"], 0.0) <= 0.0:
            return f"named facet {verdict['violated']} is not violated"
        ref = reference_distance(q)
        if abs(d - ref) > DISTANCE_TOL:
            return f"distance {d!r} differs from reference {ref!r}"
        return None


class PowerN4(Workload):
    """The 4-fold power of the simplest scenario: one LP of 4096 variables.

    One op composes four seeded simplest blocks with ``compose_behaviors``,
    then runs ``is_noncontextual`` and ``l1_distance`` on the composite.
    """

    name = "power-n4"
    n_blocks = 4
    pool_size = 64

    def generate(self, seed: int):
        rng = random.Random(seed)
        draw = lambda: [draw_simplest(rng) for _ in range(self.n_blocks)]  # noqa: E731
        warmup = draw()
        return warmup, [draw() for _ in range(self.pool_size)]

    def contextual_share(self, pool) -> tuple[int, int]:
        return sum(any(_contextual(q) for q in blocks) for blocks in pool), len(pool)

    def prepare(self, warmup, pool):
        import ctxpoly

        self.cp = ctxpoly
        self.scenario = ctxpoly.power_scenario(ctxpoly.make_simplest_scenario(), self.n_blocks)

        def item(blocks):
            behaviors = [ctxpoly.Behavior(behavior_doc(q)["probs"]) for q in blocks]
            return behaviors, blocks

        return item(warmup), [item(blocks) for blocks in pool]

    def op(self, item):
        behaviors, _ = item
        composite = behaviors[0]
        for block in behaviors[1:]:
            composite = self.cp.compose.compose_behaviors(composite, block)
        verdict = self.cp.ncmodel.is_noncontextual(self.scenario, composite)
        d = self.cp.monotone.l1_distance(self.scenario, composite)
        return verdict.contextual, d

    def check(self, item, result):
        _, blocks = item
        contextual, d = result
        expected = any(_contextual(q) for q in blocks)
        if contextual != expected:
            return f"verdict contextual={contextual}, block facets say {expected}"
        # The polytope of a block composite is the product of the block
        # polytopes over disjoint cells, so the max-over-cells distance is
        # the largest block distance.
        ref = max(reference_distance(q) for q in blocks)
        if abs(d - ref) > DISTANCE_TOL:
            return f"distance {d!r} differs from largest block reference {ref!r}"
        return None


class ResourceOps(Workload):
    """Rounds of the resource-theory pipeline on a noisy six-measurement qubit
    realization of the simplest-family scenario; the second part of
    ``SmallLps``.

    One op: ``behavior_from_quantum`` of a realization with 1% noise on its
    states and effects, ``secondary_procedures``,
    ``apply_free_operation`` (a relabeling on even items, a stochastic map on
    odd ones), ``is_noncontextual`` and ``l1_distance`` on source and image,
    then ``find_simulation`` of a two-measurement target drawn from the six.
    """

    n_meas = 6
    noise = 0.01
    pool_size = 256

    def _draw(self, rng: random.Random, idx: int) -> dict:
        n = self.n_meas
        item = {
            "bloch_states": _noisy_states(rng, self.noise),
            "bloch_meas": [_noisy_effect(rng, self.noise) for _ in range(n)],
        }
        if idx % 2 == 0:
            item["relabel"] = {
                "preps": rng.sample(range(4), 4),
                "meas": rng.sample(range(n), n),
                "flip": [rng.random() < 0.5 for _ in range(n)],
            }
        else:
            # Each preparation block {0,1} and {2,3} is mixed within itself by
            # a 2x2 stochastic matrix whose columns straddle 1/2, so both
            # sides of the equivalence have a convex preimage and transport
            # succeeds through the LP path.
            blocks = [[rng.uniform(0.55, 0.95), rng.uniform(0.05, 0.45)] for _ in range(2)]
            item["stochastic"] = {
                "prep_blocks": blocks,
                "q_M": [_dirichlet(rng, n) for _ in range(n)],
                "q_O": [[_dirichlet(rng, 2) for _ in range(2)] for _ in range(n)],
            }
        i, k = rng.sample(range(n), 2)
        item["target"] = {
            "mixed": [i, k],
            "weight": rng.uniform(0.2, 0.8),
            "post": [[_dirichlet(rng, 2) for _ in range(2)] for _ in range(2)],
            "verbatim": rng.randrange(n),
        }
        return item

    def generate(self, seed: int):
        rng = random.Random(seed)
        warmup = self._draw(rng, 1)
        return warmup, [self._draw(rng, idx) for idx in range(self.pool_size)]

    def contextual_share(self, pool):
        """Not known before secondary_procedures has run; see contextual_seen."""
        return None

    def prepare(self, warmup, pool):
        import numpy as np

        import ctxpoly

        self.np = np
        self.cp = ctxpoly
        self.scenario = ctxpoly.make_simplest_scenario(n_meas=self.n_meas)
        self.contextual_seen = {"ctxpoly": 0, "pair_oracle": 0, "checked": 0}
        return self._prepare_item(warmup), [self._prepare_item(item) for item in pool]

    def _prepare_item(self, item: dict) -> dict:
        np, cp = self.np, self.cp
        sigma = np.array(
            [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
        )
        eye = np.eye(2, dtype=complex)
        bloch = lambda v, sign: (eye + sign * np.einsum("a,abc->bc", np.array(v), sigma)) / 2  # noqa: E731
        states = [bloch(v, 1) for v in item["bloch_states"]]
        povms = [[bloch(v, -1), bloch(v, 1)] for v in item["bloch_meas"]]
        n = self.n_meas
        if "relabel" in item:
            spec = item["relabel"]
            swap = np.array([[0.0, 1.0], [1.0, 0.0]])
            operation = cp.FreeOperation(
                q_P=np.eye(4)[:, spec["preps"]],
                q_M=np.eye(n)[:, spec["meas"]],
                q_O=np.stack([swap if f else np.eye(2) for f in spec["flip"]]),
            )
        else:
            spec = item["stochastic"]
            q_p = np.zeros((4, 4))
            for b, (a, c) in enumerate(spec["prep_blocks"]):
                q_p[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[a, c], [1 - a, 1 - c]]
            operation = cp.FreeOperation(
                q_P=q_p,
                q_M=np.array(spec["q_M"]).T,
                q_O=np.array(spec["q_O"]).transpose(0, 2, 1),
            )
        target = item["target"]
        weight = target["weight"]
        return {
            "states": np.array(states),
            "povms": np.array(povms),
            "operation": operation,
            "mix": (target["mixed"], np.array([weight, 1 - weight])),
            "post": np.array(target["post"]).transpose(0, 2, 1),  # (branch, new, old)
            "verbatim": target["verbatim"],
        }

    def target_probs(self, item: dict, source):
        """Statistics of the target measurements computed from the simulators:
        a mixture of two post-processed measurements, and a verbatim copy."""
        np = self.np
        (i, k), weights = item["mix"]
        p = source.probs
        mixed = sum(
            w * np.einsum("nk,jk->jn", post, p[m]) for w, post, m in zip(weights, item["post"], (i, k))
        )
        return np.stack([mixed, p[item["verbatim"]]])

    def op(self, item):
        cp = self.cp
        realization = cp.quantum.QuantumRealization(states=item["states"], povms=item["povms"])
        measured = cp.quantum.behavior_from_quantum(realization)
        secondary = cp.freeops.secondary_procedures(self.scenario, measured)
        source = secondary.behavior
        image_scenario, image = cp.freeops.apply_free_operation(item["operation"], self.scenario, source)
        verdicts = (
            cp.ncmodel.is_noncontextual(self.scenario, source).contextual,
            cp.ncmodel.is_noncontextual(image_scenario, image).contextual,
        )
        distances = (
            cp.monotone.l1_distance(self.scenario, source),
            cp.monotone.l1_distance(image_scenario, image),
        )
        target = cp.Behavior(self.target_probs(item, source))
        witness = cp.simulability.find_simulation(source, target)
        return source, verdicts, distances, target, witness

    def check(self, item, result):
        np = self.np
        source, (source_contextual, _), (d_source, d_image), target, witness = result
        p = source.probs
        witnessed = pair_facet_value(p)
        seen = self.contextual_seen
        seen["ctxpoly"] += source_contextual
        seen["pair_oracle"] += witnessed > BOUNDARY_MARGIN
        seen["checked"] += 1
        if witnessed > BOUNDARY_MARGIN:
            if not source_contextual:
                return f"source verdict noncontextual, but a measurement pair violates a facet by {witnessed!r}"
            if d_source < witnessed / 2 - DISTANCE_TOL:
                return f"source distance {d_source!r} below the pair facet bound {witnessed / 2!r}"
        if d_image > d_source + DISTANCE_TOL:
            return f"distance grew under a free operation: {d_source!r} -> {d_image!r}"
        if p.min() < -LP_TOL or p.max() > 1 + LP_TOL:
            return "secondary behavior leaves [0, 1]"
        if np.abs(p.sum(axis=2) - 1).max() > LP_TOL:
            return "secondary behavior is not normalized"
        # The even-mixture equivalence of preparations {0,1} and {2,3}.
        if np.abs(p[:, 0] + p[:, 1] - p[:, 2] - p[:, 3]).max() / 2 > LP_TOL:
            return "secondary behavior breaks the preparation equivalence"
        if witness is None:
            return "no simulation found for a target built from the simulators"
        reproduced = np.einsum("tink,ijk,it->tjn", witness.q_O, p, witness.q_M)
        residual = float(np.abs(reproduced - target.probs).max())
        if max(residual, witness.residual) > LP_TOL:
            return f"simulation residual {max(residual, witness.residual):.3g} above {LP_TOL}"
        return None


class SmallLps(Workload):
    """Many small LPs of every shape: one op is a ``SimplestCli`` op followed
    by a ``ResourceOps`` op, on the items at the same pool index.

    The two are one workload because the benchmark's total time is fixed:
    with two workloads instead of three each run can measure for longer,
    which a shared machine whose speed drifts by up to 30% over minutes
    needs (README.md).  Each part keeps its inputs, drawn from its own
    ``random.Random(seed)``, and its oracle; an op fails when either oracle
    rejects it.
    """

    name = "small-lps"
    imports = SimplestCli.imports

    def __init__(self):
        self.cli = SimplestCli()
        self.resource = ResourceOps()

    def generate(self, seed: int):
        cli_warmup, cli_pool = self.cli.generate(seed)
        resource_warmup, resource_pool = self.resource.generate(seed)
        return [cli_warmup, resource_warmup], [list(pair) for pair in zip(cli_pool, resource_pool)]

    def contextual_share(self, pool) -> tuple[int, int]:
        """Of the CLI part; the resource part's share is in contextual_seen."""
        return self.cli.contextual_share([q for q, _ in pool])

    def write_files(self, workdir: str, warmup, pool) -> None:
        self.cli.write_files(workdir, warmup[0], [q for q, _ in pool])

    def prepare(self, warmup, pool):
        cli_warmup, cli_items = self.cli.prepare(warmup[0], [q for q, _ in pool])
        resource_warmup, resource_items = self.resource.prepare(warmup[1], [r for _, r in pool])
        self.contextual_seen = self.resource.contextual_seen
        return (cli_warmup, resource_warmup), list(zip(cli_items, resource_items))

    def before_op(self, item) -> None:
        self.cli.before_op(item[0])

    def op(self, item):
        return self.cli.op(item[0]), self.resource.op(item[1])

    def check(self, item, result):
        return self.cli.check(item[0], result[0]) or self.resource.check(item[1], result[1])


WORKLOADS = {w.name: w for w in (SmallLps, PowerN4)}
