"""The four benchmark workloads: seeded inputs, one unit of work, output checks.

Every call goes through gqd's public surface: the library functions a user
imports (``gqd.gqd``, ``gqd.symmetric_discord``, ``gqd.discord_asymmetric``)
and the ``gqd.cli.main`` entry point.  Names are looked up at call time, so
the traced run can wrap module attributes underneath.

A unit is the smallest piece of work whose item mix is fixed: one cycle of
four states for ``minimize``, one ``at-scan`` command for the scans, one
``selftest`` command for ``selftest``.  ``plan(rng)`` draws a unit's inputs;
``run(plan)`` does the work and checks it, and can repeat a plan exactly.
``warmup()`` makes one small call on the same path and checks nothing.

Outputs are checked with tolerances, never byte for byte: against closed
forms where the paper gives one, otherwise against ``reference.json``,
recorded at commit 68e19aa by ``record_reference.py``.  Inputs without a
closed form come from fixed pools so that every seed has a reference.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gqd
import gqd.cli

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

ORACLE_TOL = 1e-6          # Werner-GHZ closed form; Werner symmetric = asymmetric = GQD
RANDOM_TOL = 1e-6          # random states against their recorded minimum
SCAN_TOL = 1e-9            # scan values against their recorded values
GRID_TOL = 1e-12           # scan deltas against their recorded grid
CRITICAL_WINDOW = (0.95, 1.05)

RANDOM_POOL = 16           # random_density seeds 0..15 at each of n = 2 and n = 4
SELFTEST_COUNT = 200

# Command-line grids, as strings so the reference records exactly what ran.
# scan-small: the default 57-point grid with its start jittered by 0.00-0.04.
SCAN_SMALL_GRIDS = [
    {"--delta-min": f"{0.2 + 0.01 * k:.2f}", "--delta-max": "1.8",
     "--grid-step": "0.05", "--fine-step": "0.01"}
    for k in range(5)
]
# scan-large: 5 points spanning 0.9-1.1, shifted by -0.004..+0.002.
SCAN_LARGE_GRIDS = [
    {"--delta-min": f"{0.9 + j:.3f}", "--delta-max": f"{1.1 + j:.3f}",
     "--grid-step": "0.05", "--fine-step": "0"}
    for j in (-0.004, -0.002, 0.0, 0.002)
]


@dataclass
class UnitResult:
    items: int
    failed: int
    notes: list[str] = field(default_factory=list)


def werner_ghz_closed_form(mu: float) -> float:
    """GQD of the Werner-GHZ state, written out here independently of gqd."""
    def xlog2(x):
        return x * math.log2(x) if x > 1e-15 else 0.0
    return -0.25 * xlog2(1 + 3 * mu) + 0.125 * xlog2(1 - mu) + 0.125 * xlog2(1 + 7 * mu)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``gqd.cli.main(argv)`` in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = gqd.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _failure(what: str) -> str:
    return f"{what}: {traceback.format_exc(limit=2).strip().splitlines()[-1]}"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class Minimize:
    """Product-basis minimization of discord: the correlations optimizer does the work."""

    name = "minimize"

    def __init__(self, reference: dict):
        self.reference = reference.get("random")
        self.decks: dict[int, list[int]] = {2: [], 4: []}

    def warmup(self) -> None:
        gqd.gqd(gqd.werner_ghz(0.5), "fixed-z")
        gqd.discord_asymmetric(gqd.werner(0.5))

    def plan(self, rng) -> dict:
        return {
            "werner_ghz_mu": float(rng.uniform(0.0, 1.0)),
            "werner_mu": float(rng.uniform(0.0, 1.0)),
            "random_n2": self._deal(2, rng),
            "random_n4": self._deal(4, rng),
        }

    def _deal(self, n: int, rng) -> int:
        """Next pool index from a shuffled deck: a run repeats no state until all were used."""
        deck = self.decks[n]
        if not deck:
            deck.extend(int(k) for k in rng.permutation(RANDOM_POOL))
        return deck.pop()

    def run(self, plan: dict) -> UnitResult:
        checks = [
            self._werner_ghz(plan["werner_ghz_mu"]),
            self._werner(plan["werner_mu"]),
            self._random(2, plan["random_n2"]),
            self._random(4, plan["random_n4"]),
        ]
        notes = [note for note in checks if note]
        return UnitResult(items=len(checks), failed=len(notes), notes=notes)

    # Each check returns None when the item passed, else a note.
    def _werner_ghz(self, mu: float) -> str | None:
        try:
            value = gqd.gqd(gqd.werner_ghz(mu), "minimize").value
        except Exception:
            return _failure(f"werner-ghz mu={mu}")
        err = abs(value - werner_ghz_closed_form(mu))
        return None if err <= ORACLE_TOL else f"werner-ghz mu={mu}: off the closed form by {err:.3e}"

    def _werner(self, mu: float) -> str | None:
        try:
            rho = gqd.werner(mu)
            values = (gqd.symmetric_discord(rho), gqd.discord_asymmetric(rho),
                      gqd.gqd(rho, "minimize").value)
        except Exception:
            return _failure(f"werner mu={mu}")
        spread = max(values) - min(values)
        return None if spread <= ORACLE_TOL else f"werner mu={mu}: sym/asym/gqd {values}"

    def _random(self, n: int, k: int) -> str | None:
        expected = self.reference[f"n{n}"][k]
        try:
            result = gqd.gqd(gqd.random_density((2,) * n, seed=expected["seed"]), "minimize")
        except Exception:
            return _failure(f"random n={n} seed={expected['seed']}")
        err = abs(result.value - expected["value"])
        if err > RANDOM_TOL or not result.converged:
            return (f"random n={n} seed={expected['seed']}: off the reference by {err:.3e}, "
                    f"converged={result.converged}")
        return None


def crossings(deltas: list[float], values: list[float]) -> list[float]:
    """Linearly interpolated sign changes of the central-difference derivative."""
    x = deltas[1:-1]
    d = [(values[i + 1] - values[i - 1]) / (deltas[i + 1] - deltas[i - 1])
         for i in range(1, len(deltas) - 1)]
    roots = []
    for i in range(len(d) - 1):
        if d[i] == 0.0:
            roots.append(x[i])
        elif d[i] * d[i + 1] < 0.0:
            roots.append(x[i] - d[i] * (x[i + 1] - x[i]) / (d[i + 1] - d[i]))
    if d and d[-1] == 0.0:
        roots.append(x[-1])
    return roots


class Scan:
    """Quartet GQD of Ashkin-Teller ground states across delta, through ``at-scan``."""

    def __init__(self, name: str, sites: int, grids: list[dict], sparse: bool,
                 workdir: Path, reference: dict):
        self.name = name
        self.sites = sites
        self.grids = grids
        self.workdir = workdir
        self.reference = reference.get(name)
        if self.reference is not None and [r["args"] for r in self.reference] != grids:
            raise RuntimeError(f"reference.json does not match the {name} grids; re-record it")
        # The sparse solver is opt-in behind --iterative as of 68e19aa; a
        # build that retires the flag gets the same command without it.
        self.extra = ["--iterative"] if sparse and self._offers("--iterative") else []

    @staticmethod
    def _offers(flag: str) -> bool:
        _, usage = call_cli(["at-scan", "--help"])
        return flag in usage

    def argv(self, grid: dict, out: Path, sites: int | None = None) -> list[str]:
        argv = ["at-scan", "--sites", str(sites or self.sites), "--group", "quartet",
                "--strategy", "fixed-x", "--format", "csv", "--out", str(out)]
        for flag, value in grid.items():
            argv += [flag, value]
        return argv + self.extra

    def execute(self, grid: dict) -> tuple[list[float], list[float]]:
        """Run one at-scan and read (deltas, values) back from its CSV output."""
        out = self.workdir / f"{self.name}.csv"
        code, _ = call_cli(self.argv(grid, out))
        if code != 0:
            raise RuntimeError(f"at-scan exited with {code}")
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(r[0]) for r in rows], [float(r[1]) for r in rows]

    def warmup(self) -> None:
        grid = {"--delta-min": "0.5", "--delta-max": "1.5", "--grid-step": "0.5", "--fine-step": "0"}
        call_cli(self.argv(grid, self.workdir / "warmup.csv", sites=2))

    def plan(self, rng) -> dict:
        return {"grid": int(rng.integers(len(self.grids)))}

    def run(self, plan: dict) -> UnitResult:
        expected = self.reference[plan["grid"]]
        n = len(expected["deltas"])
        label = f"{self.name} grid={plan['grid']}"
        try:
            deltas, values = self.execute(expected["args"])
        except Exception:
            return UnitResult(n, n, [_failure(label)])
        if len(deltas) != n or any(abs(a - b) > GRID_TOL for a, b in zip(deltas, expected["deltas"])):
            return UnitResult(n, n, [f"{label}: grid differs from the reference"])
        roots = [r for r in crossings(deltas, values)
                 if CRITICAL_WINDOW[0] <= r <= CRITICAL_WINDOW[1]]
        if len(roots) != 1:
            return UnitResult(n, n, [f"{label}: derivative crossings in window {roots}"])
        bad = [(d, v, r) for d, v, r in zip(deltas, values, expected["values"])
               if abs(v - r) > SCAN_TOL]
        notes = [f"{label}: delta={d} value {v!r} vs reference {r!r}" for d, v, r in bad[:3]]
        return UnitResult(n, len(bad), notes)


class Selftest:
    """``selftest`` suites: many small validations, partial traces and dephasings."""

    name = "selftest"
    _COUNTS = re.compile(r"^\s+\S+: (\d+)/(\d+) ", re.MULTILINE)

    def warmup(self) -> None:
        call_cli(["selftest", "--count", "1", "--seed", "0"])

    def plan(self, rng) -> dict:
        return {"seed": int(rng.integers(2**31))}

    def run(self, plan: dict) -> UnitResult:
        label = f"selftest seed={plan['seed']}"
        try:
            code, text = call_cli(["selftest", "--count", str(SELFTEST_COUNT),
                                   "--seed", str(plan["seed"])])
        except Exception:
            return UnitResult(1, 1, [_failure(label)])
        counts = [(int(p), int(t)) for p, t in self._COUNTS.findall(text)]
        items = sum(t for _, t in counts) or 1
        failed = sum(t - p for p, t in counts)
        passed = code == 0 and text.rstrip().endswith("PASS")
        if not passed and failed == 0:
            failed = items
        return UnitResult(items, failed, [] if passed else [f"{label}: exit {code}\n{text}"])


def make(name: str, workdir: Path, reference: dict | None = None):
    """The workload called ``name``; ``reference`` defaults to reference.json."""
    if reference is None:
        reference = load_reference()
    if name == "minimize":
        return Minimize(reference)
    if name == "scan-small":
        return Scan(name, 4, SCAN_SMALL_GRIDS, False, workdir, reference)
    if name == "scan-large":
        return Scan(name, 8, SCAN_LARGE_GRIDS, True, workdir, reference)
    if name == "selftest":
        return Selftest()
    raise ValueError(f"unknown workload {name!r}")
