"""The three benchmark workloads: inputs from a seed, one timed body, output checks.

Each workload is a class with
  setup(seed, work)   build the inputs (config parse, market generation)
  body()              one closed-loop pass over the public API; returns outputs
  check(out)          [(name, ok)] for every checked output of that body
  record(out)         values reported but not gated
  max_stderr(out)     largest Monte-Carlo standard error the body reported
  reference_of(out)   what capture_reference.py stores for this seed (None:
                      nothing beyond the files it writes itself)
  findings(work)      by-design failures, recorded but never gated

Why these three (each stresses layers the others skip):
  fig1-cert    deterministic ODE work only: the four fig1 solves plus the
               slope certificate's Feynman-Kac window solves. No chain
               sampling, so a Monte-Carlo kernel change must not move it.
  validate-mc  the `rsmerton validate` verb with the fixed-point and MC
               oracles on the bundled two-regime market: almost all time is
               chain sampling and the path-cell walk, few jumps per path.
  regimes-32   two generated 32-regime markets: per-state loops are 16x wider
               than at S = 2, paths jump often (20/yr), and the fast market
               (1400/yr) drives the step-doubling loop to 16384 steps.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

from rsmerton import cli, equilibrium, simulate
from rsmerton.core_model import market_spec_from_json
from rsmerton.ctmc import RngSpec

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
Z_LIMIT = 3.0
TABLE_TOL = 1e-9


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference outputs from capture_reference.py, or None for an uncaptured seed."""
    path = REFERENCE_DIR / f"{workload}-{seed}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _sha256(values) -> str:
    """sha256 of the float64 bytes of an array of outputs."""
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _same_bits(ref_sha: str | None, values) -> bool | None:
    """Whether outputs are bit-identical to the reference (None: no reference)."""
    return None if ref_sha is None else _sha256(values) == ref_sha


class Workload:
    name = ""

    def record(self, out: dict) -> dict:
        return {}

    def max_stderr(self, out: dict) -> float | None:
        return None

    def findings(self, work: Path) -> dict:
        return {}


class Fig1Cert(Workload):
    """`reproduce_fig1` (four gammas, grid 2048) plus `slope_certificate` at gamma = -1.

    The certificate runs at 2 interior points (t = 0.1 in state 0, t = 0.9 in
    state 1), not the CLI's 5, so that a body takes a few seconds and a run
    holds several bodies whose median rejects the machine's slow spells.
    """

    name = "fig1-cert"
    GRID = 2048
    CERT_GAMMA = -1.0
    CERT_POINTS = 2

    def setup(self, seed: int, work: Path):
        # The bundled market is fixed; the seed has nothing to drive here.
        self.out_dir = work / "fig1"
        self.cert_spec = cli.benchmark_spec(self.CERT_GAMMA)

    def body(self) -> dict:
        summary = cli.reproduce_fig1(str(self.out_dir), grid=self.GRID)
        cert = cli.slope_certificate(self.cert_spec, n_interior_points=self.CERT_POINTS)
        return {"summary": summary, "cert": cert}

    @staticmethod
    def csv_texts(out: dict) -> dict[str, str]:
        return {tag: Path(p).read_text() for tag, p in out["summary"]["files"].items()}

    def check(self, out: dict) -> list[tuple[str, bool]]:
        checks = []
        for tag, text in self.csv_texts(out).items():
            ok = _csv_matches(text, REFERENCE_DIR / f"fig1_g{tag}.csv.gz")
            checks.append((f"csv_g{tag}_matches_reference", ok))
        for key, value in out["summary"]["checks"].items():
            checks.append((f"fig1_{key}", bool(value)))
        checks.append(("slope_certificate_passed", bool(out["cert"]["passed"])))
        return checks

    def record(self, out: dict) -> dict:
        return {"worst_slope": out["cert"]["worst_slope"]}

    def reference_of(self, out: dict) -> None:
        for tag, text in self.csv_texts(out).items():
            (REFERENCE_DIR / f"fig1_g{tag}.csv.gz").write_bytes(
                gzip.compress(text.encode(), compresslevel=9, mtime=0))


def _csv_matches(text: str, ref_path: Path) -> bool:
    """Identical bytes, or the same rows with every number within TABLE_TOL.

    The '# ...' metadata line is exempt from the numeric comparison, so a
    solver-version bump alone is not a mismatch. No reference file: no match.
    """
    if not ref_path.is_file():
        return False
    ref = gzip.decompress(ref_path.read_bytes()).decode()
    if text == ref:
        return True
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    ref_body = [ln for ln in ref.splitlines() if not ln.startswith("#")]
    if len(body) != len(ref_body) or body[0] != ref_body[0]:
        return False
    a = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    b = np.array([[float(v) for v in ln.split(",")] for ln in ref_body[1:]])
    return bool(np.abs(a - b).max() <= TABLE_TOL)


class ValidateMC(Workload):
    """`cli.run` on the bundled market at gamma = -1: curves, validation, fixed_point, mc."""

    name = "validate-mc"
    # Small enough for 3 bodies a run; the gates then fail by chance on about
    # 6% of seeds, against 1% at 40 000 paths (README, "Why these sizes").
    PATHS = 10_000
    GRID = 2048

    def setup(self, seed: int, work: Path):
        self.out_dir = work / "validate"
        doc = {
            "market": {**cli.BENCHMARK_MARKET, "gamma": -1.0},
            "gammas": [-1.0],
            "outputs": ["curves", "validation", "fixed_point", "mc"],
            "grid": self.GRID,
            "paths": self.PATHS,
            "seed": seed,
            "out_dir": str(self.out_dir),
        }
        self.config = cli.load_config(json.dumps(doc))
        self.ref = load_reference(self.name, seed)

    def body(self) -> dict:
        status = cli.run(self.config)
        report = json.loads((self.out_dir / "validation_report.json").read_text())
        return {"status": status, "entry": report["runs"]["-1"]}

    def check(self, out: dict) -> list[tuple[str, bool]]:
        e = out["entry"]
        checks = [("validation_passed", bool(e["validation"]["passed"])),
                  ("fixed_point_passed", bool(e["fixed_point"]["passed"]))]
        for row in e["mc_value"]["rows"]:
            checks.append((f"z_vs_frozen_oracle_state{row['state']}",
                           abs(row["z_vs_frozen_oracle"]) <= Z_LIMIT))
        return checks

    def _mc_numbers(self, out: dict) -> list[float]:
        e = out["entry"]
        fp = e["fixed_point"]
        nums = [fp["max_deviation"], fp["max_stderr"]]
        for row in e["mc_value"]["rows"]:
            nums += [row["estimate"], row["stderr"]]
        return nums

    def record(self, out: dict) -> dict:
        rows = out["entry"]["mc_value"]["rows"]
        return {
            "exit_status": out["status"],
            "z_vs_ansatz": [r["z_vs_ansatz"] for r in rows],
            "z_vs_frozen_oracle": [r["z_vs_frozen_oracle"] for r in rows],
            "mc_bit_identical_to_reference": _same_bits(
                self.ref and self.ref["mc_sha256"], self._mc_numbers(out)),
        }

    def max_stderr(self, out: dict) -> float:
        e = out["entry"]
        return max([e["fixed_point"]["max_stderr"]] + [r["stderr"] for r in e["mc_value"]["rows"]])

    def reference_of(self, out: dict) -> dict:
        nums = self._mc_numbers(out)
        return {"mc_sha256": _sha256(nums), "mc_numbers": nums}


def regime_market(seed: int, exit_rate: float, states: int = 32) -> dict:
    """A random S-regime market whose every state leaves at `exit_rate` per year.

    Off-diagonal rates are exponential weights rescaled so each row sums to
    exit_rate. r, alpha - r, sigma and rho each take S evenly spaced values in
    a narrow band. State 0, where estimate_J starts and whose rho it freezes,
    takes the middle values; the rest are dealt to the other regimes in a
    random order. Fixing the values keeps the Monte-Carlo variance, and so
    `mc_s_at_se1e-3`, nearly the same from seed to seed. Narrow bands keep the
    Picard oracle's standard error at 1 000 paths below a fifth of its 2e-3
    gate floor, so the gate does not fail by chance on any of the 32 states.
    """
    g = np.random.default_rng([seed, int(exit_rate)])
    rates = g.exponential(1.0, (states, states))
    np.fill_diagonal(rates, 0.0)
    rates *= exit_rate / rates.sum(axis=1, keepdims=True)
    np.fill_diagonal(rates, -rates.sum(axis=1))

    def band(lo, hi):
        values = np.linspace(lo, hi, states)
        mid = states // 2
        return np.concatenate([values[mid:mid + 1], g.permutation(np.delete(values, mid))])

    r = band(0.035, 0.045)
    return {
        "states": states,
        "r": r.tolist(),
        "alpha": (r + band(0.115, 0.135)).tolist(),
        "sigma": band(0.22, 0.24).tolist(),
        "generator": rates.tolist(),
        "rho": band(0.45, 0.55).tolist(),
        "gamma": -1.0,
        "horizon": 1.0,
    }


class Regimes32(Workload):
    """Slow 32-regime market: solve_g, Feynman-Kac, estimate_J, picard_apply; fast market: solve_g.

    At S = 32 the path walk costs per cell, not per path, so the body is kept
    near 12 s by coarser cells: 512 for estimate_J, and 16 for the Picard
    quadrature from t = 0.5 (quad_cells = 32 over the whole horizon).
    """

    name = "regimes-32"
    SLOW_EXIT, FAST_EXIT = 20.0, 1400.0
    J_PATHS = 8000
    J_GRID = 512
    PICARD_PATHS = 1000
    PICARD_TIMES = (0.5,)
    PICARD_CELLS = 32
    REF_TIMES = np.linspace(0.0, 1.0, 17)

    def setup(self, seed: int, work: Path):
        self.seed = seed
        self.docs = {"slow": regime_market(seed, self.SLOW_EXIT),
                     "fast": regime_market(seed, self.FAST_EXIT)}
        self.slow = market_spec_from_json(json.dumps(self.docs["slow"]))
        self.fast = market_spec_from_json(json.dumps(self.docs["fast"]))
        self.ref = load_reference(self.name, seed)

    def body(self) -> dict:
        slow = self.slow
        sol = equilibrium.solve_g(slow)
        strategy = simulate.ProportionalStrategy.from_policy(sol)
        fk = simulate.feynman_kac_value(strategy, float(slow.rho[0]), slow)
        est = simulate.estimate_J(strategy, 0.0, 1.0, 0, slow, self.J_PATHS,
                                  RngSpec(seed=self.seed, stream=1), n_grid=self.J_GRID)
        picard = equilibrium.picard_apply(slow, sol.g_table, self.PICARD_PATHS,
                                          RngSpec(seed=self.seed, stream=2),
                                          eval_times=np.array(self.PICARD_TIMES),
                                          quad_cells=self.PICARD_CELLS)
        fast = equilibrium.solve_g(self.fast)
        return {"slow": sol.g_table, "fast": fast.g_table, "fk": fk.value(0.0, 1.0, 0),
                "est": est, "picard": picard}

    def _table_ok(self, table, key: str) -> bool:
        v = table.values
        ok = bool(np.isfinite(v).all() and (v > 0).all() and (v[-1] == 1.0).all())
        if self.ref is not None:
            ref = self.ref[key]
            ok = ok and table.grid.size - 1 == ref["steps"] and bool(
                np.abs(table.interpolate(self.REF_TIMES) - np.array(ref["rows"])).max()
                <= TABLE_TOL
            )
        return ok

    def check(self, out: dict) -> list[tuple[str, bool]]:
        p = out["picard"]
        dev = p.deviation_from(out["slow"])
        est = out["est"]
        z = (est.estimate - out["fk"]) / est.stderr
        return [
            ("slow_g_table", self._table_ok(out["slow"], "slow")),
            ("fast_g_table", self._table_ok(out["fast"], "fast")),
            ("picard_gate", bool((dev <= np.maximum(3.0 * p.stderr, 2e-3)).all())),
            ("estimate_J_vs_feynman_kac", abs(z) <= Z_LIMIT),
        ]

    def _mc_numbers(self, out: dict) -> list[float]:
        p = out["picard"]
        return [out["est"].estimate, out["est"].stderr, *p.values.ravel(), *p.stderr.ravel()]

    def record(self, out: dict) -> dict:
        p = out["picard"]
        est = out["est"]
        return {
            "steps": {"slow": int(out["slow"].grid.size - 1),
                      "fast": int(out["fast"].grid.size - 1)},
            "z_estimate_J_vs_feynman_kac": (est.estimate - out["fk"]) / est.stderr,
            "picard_max_dev_over_gate": float(
                (p.deviation_from(out["slow"]) / np.maximum(3.0 * p.stderr, 2e-3)).max()
            ),
            "mc_bit_identical_to_reference": _same_bits(
                self.ref and self.ref["mc_sha256"], self._mc_numbers(out)),
            "g_tables_bit_identical_to_reference": self.ref and all(
                _same_bits(self.ref[key]["sha256"], out[key].values) for key in ("slow", "fast")),
        }

    def max_stderr(self, out: dict) -> float:
        return float(max(out["est"].stderr, out["picard"].stderr.max()))

    def reference_of(self, out: dict) -> dict:
        nums = self._mc_numbers(out)
        ref = {"mc_sha256": _sha256(nums), "mc_numbers": nums}
        for key in ("slow", "fast"):
            t = out[key]
            ref[key] = {"steps": int(t.grid.size - 1),
                        "rows": t.interpolate(self.REF_TIMES).tolist(),
                        "sha256": _sha256(t.values)}
        return ref

    def findings(self, work: Path) -> dict:
        """`rsmerton validate` on both markets: residual and rho-ordering, not gated."""
        found = {}
        for key, doc in self.docs.items():
            out_dir = work / f"findings-{key}"
            config = cli.load_config(json.dumps({
                "market": doc, "outputs": ["validation"], "seed": self.seed,
                "out_dir": str(out_dir)}))
            status = cli.run(config)
            v = json.loads((out_dir / "validation_report.json").read_text())["runs"]["-1"]
            v = v["validation"]
            found[key] = {"validate_exit_status": status,
                          "residual_norm": v["residual_norm"],
                          "higher_rho_higher_consumption": v["higher_rho_higher_consumption"]}
        return found


WORKLOADS = {w.name: w for w in (Fig1Cert, ValidateMC, Regimes32)}
