"""Monte Carlo studies comparing mean estimators on synthetic data.

Baselines provided alongside the penalized pseudo-Huber fit:

``sample_mean``
    The plain average.
``median_of_means``
    Block means after a seeded shuffle, then their median; the default block
    count is ceil(log(1/delta)).
``fixed_tau_ph``
    Pseudo-Huber location fit with tau pinned to sigma_known * sqrt(n) / z,
    i.e. what one would run if the true noise scale were known.  Exists to
    quantify what the joint fit gives up by estimating tau.

Studies are deterministic: replication seeds derive from
SeedSequence([base_seed, n, replication, stream]), so any row can be
reproduced in isolation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import noise as noise_mod
from . import oracle as oracle_mod
from .loss import as_sample
from .solver import EstimatorConfig, fit, fit_fixed_tau

QUANTILE_LEVELS = (0.5, 0.9, 0.95, 0.99)
ESTIMATORS = ("penalized_ph", "sample_mean", "median_of_means", "fixed_tau_ph")
CSV_COLUMNS = (
    "estimator",
    "n",
    "q50",
    "q90",
    "q95",
    "q99",
    "median_tau_hat",
    "tau_star",
    "coverage",
    "slope",
)
# adaptivity band for tau_hat relative to tau_star
TAU_BAND = (0.4, 5.0)


def sample_mean(data) -> float:
    return float(np.mean(as_sample(data)))


def median_of_means(data, blocks, seed=0) -> float:
    """Median of block means over a seeded random partition.

    The sample is shuffled with ``numpy.random.default_rng(seed)`` and cut
    into ``blocks`` contiguous slices of near-equal size.  blocks=1 recovers
    the sample mean; blocks=n recovers the median.
    """
    y = as_sample(data)
    if int(blocks) != blocks or blocks < 1:
        raise ValueError(f"blocks must be a positive integer, got {blocks!r}")
    blocks = int(blocks)
    if blocks > y.size:
        raise ValueError(f"blocks={blocks} exceeds the sample size {y.size}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(y.size)
    means = [float(y[idx].mean()) for idx in np.array_split(perm, blocks)]
    return float(np.median(means))


def default_blocks(delta: float) -> int:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return max(1, math.ceil(math.log(1.0 / delta)))


def fixed_tau_ph(data, sigma_known, config: EstimatorConfig | None = None) -> float:
    """Location fit with tau pinned from a known noise scale."""
    cfg = config if config is not None else EstimatorConfig()
    y = as_sample(data)
    if not (math.isfinite(sigma_known) and sigma_known > 0.0):
        raise ValueError(f"sigma_known must be positive and finite, got {sigma_known!r}")
    tau = sigma_known * math.sqrt(y.size) / cfg.z
    return fit_fixed_tau(y, tau, cfg)


def replication_seed(base_seed, n, replication, stream=0) -> int:
    """Deterministic, well-mixed 64-bit seed for one replication."""
    ss = np.random.SeedSequence(
        [int(base_seed) & 0xFFFFFFFFFFFFFFFF, int(n), int(replication), int(stream)]
    )
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class StudySpec:
    """Configuration of a Monte Carlo study.

    ``z_override`` feeds straight into the estimator config and the oracle;
    ``mom_blocks`` overrides the median-of-means block count (default
    ceil(log(1/delta)), capped at n).
    """

    noise: noise_mod.NoiseModel
    n_grid: tuple[int, ...]
    sigma: float = 1.0
    mu_true: float = 0.0
    delta: float = 0.05
    replications: int = 100
    base_seed: int = 0
    estimators: tuple[str, ...] = ("penalized_ph", "sample_mean")
    z_override: float | None = None
    mom_blocks: int | None = None

    def __post_init__(self):
        if not self.n_grid:
            raise ValueError("n_grid is empty")
        for n in self.n_grid:
            if int(n) != n or n < 1:
                raise ValueError(f"n_grid entries must be positive integers, got {n!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if int(self.replications) != self.replications or self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(
                f"unknown estimator(s): {', '.join(sorted(unknown))}; "
                f"expected a subset of {', '.join(ESTIMATORS)}"
            )
        if not self.estimators:
            raise ValueError("estimators is empty")

    def config(self) -> EstimatorConfig:
        return EstimatorConfig(delta=self.delta, z_override=self.z_override)


@dataclass(frozen=True)
class StudyRow:
    """Aggregates for one (estimator, n) cell.

    Deviation quantiles are over |mu_hat - mu_true| across replications.
    tau fields are filled only for penalized_ph and only where the study
    computes them; ``failures`` counts replications whose fit did not
    converge (or raised).
    """

    estimator: str
    n: int
    q50: float
    q90: float
    q95: float
    q99: float
    median_tau_hat: float | None = None
    tau_star: float | None = None
    coverage: float | None = None
    slope: float | None = None
    failures: int = 0


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...] = field(default_factory=tuple)


def _deviation_quantiles(deviations) -> tuple[float, float, float, float]:
    qs = np.quantile(np.asarray(deviations, dtype=float), QUANTILE_LEVELS)
    return tuple(float(q) for q in qs)


def run_deviation_study(spec: StudySpec) -> StudyResult:
    """Deviation quantiles of every requested estimator over the n-grid."""
    cfg = spec.config()
    if "fixed_tau_ph" in spec.estimators and spec.sigma <= 0.0:
        raise ValueError("fixed_tau_ph requires sigma > 0")
    rows = []
    for n in spec.n_grid:
        devs = {est: [] for est in spec.estimators}
        tau_hats = []
        failures = {est: 0 for est in spec.estimators}
        blocks = min(int(n), spec.mom_blocks or default_blocks(spec.delta))
        for r in range(spec.replications):
            y = noise_mod.sample(
                spec.noise, spec.sigma, n, spec.mu_true,
                replication_seed(spec.base_seed, n, r),
            )
            for est in spec.estimators:
                if est == "penalized_ph":
                    try:
                        res = fit(y, cfg)
                        value = res.mu_hat
                        tau_hats.append(res.tau_hat)
                        if not res.converged:
                            failures[est] += 1
                    except RuntimeError:
                        value = math.inf
                        failures[est] += 1
                elif est == "sample_mean":
                    value = sample_mean(y)
                elif est == "median_of_means":
                    value = median_of_means(
                        y, blocks, seed=replication_seed(spec.base_seed, n, r, stream=1)
                    )
                else:  # fixed_tau_ph
                    value = fixed_tau_ph(y, spec.sigma, cfg)
                devs[est].append(abs(value - spec.mu_true))
        for est in spec.estimators:
            q50, q90, q95, q99 = _deviation_quantiles(devs[est])
            rows.append(
                StudyRow(
                    estimator=est,
                    n=int(n),
                    q50=q50,
                    q90=q90,
                    q95=q95,
                    q99=q99,
                    median_tau_hat=(
                        float(np.median(tau_hats))
                        if est == "penalized_ph" and tau_hats
                        else None
                    ),
                    failures=failures[est],
                )
            )
    return StudyResult(rows=tuple(rows))


def run_tau_adaptivity_study(spec: StudySpec) -> StudyResult:
    """Coverage of tau_hat against the population tau_star over the n-grid.

    Requires n > z^2 for every grid point (the oracle is undefined
    otherwise).  Each row reports the fraction of replications with
    tau_hat in [0.4 tau_star, 5 tau_star], the median tau_hat, and, once per
    study, the log-log slope of median tau_hat against n.
    """
    cfg = spec.config()
    z = cfg.z
    for n in spec.n_grid:
        if n <= z * z:
            raise ValueError(
                f"adaptivity study needs n > z^2 for every grid point "
                f"(n={n}, z^2={z * z:.6g})"
            )
    if spec.sigma <= 0.0:
        raise ValueError("adaptivity study requires sigma > 0")
    medians = []
    per_n = []
    for n in spec.n_grid:
        sol = oracle_mod.tau_star(spec.noise, spec.sigma, int(n), z)
        devs = []
        tau_hats = []
        failures = 0
        for r in range(spec.replications):
            y = noise_mod.sample(
                spec.noise, spec.sigma, n, spec.mu_true,
                replication_seed(spec.base_seed, n, r),
            )
            try:
                res = fit(y, cfg)
                devs.append(abs(res.mu_hat - spec.mu_true))
                tau_hats.append(res.tau_hat)
                if not res.converged:
                    failures += 1
            except RuntimeError:
                devs.append(math.inf)
                failures += 1
        tau_arr = np.asarray(tau_hats)
        coverage = float(
            np.mean(
                (tau_arr >= TAU_BAND[0] * sol.tau_star)
                & (tau_arr <= TAU_BAND[1] * sol.tau_star)
            )
        ) if tau_arr.size else 0.0
        med_tau = float(np.median(tau_arr)) if tau_arr.size else math.nan
        medians.append(med_tau)
        per_n.append((int(n), devs, med_tau, sol.tau_star, coverage, failures))
    slope = None
    if len(spec.n_grid) >= 2:
        slope = float(
            np.polyfit(np.log(np.asarray(spec.n_grid, dtype=float)), np.log(medians), 1)[0]
        )
    rows = []
    for n, devs, med_tau, ts, coverage, failures in per_n:
        q50, q90, q95, q99 = _deviation_quantiles(devs)
        rows.append(
            StudyRow(
                estimator="penalized_ph",
                n=n,
                q50=q50,
                q90=q90,
                q95=q95,
                q99=q99,
                median_tau_hat=med_tau,
                tau_star=ts,
                coverage=coverage,
                slope=slope,
                failures=failures,
            )
        )
    return StudyResult(rows=tuple(rows))


def merge_adaptivity(deviation: StudyResult, adaptivity: StudyResult) -> StudyResult:
    """Fold adaptivity columns into the matching penalized_ph deviation rows."""
    extras = {(row.estimator, row.n): row for row in adaptivity.rows}
    merged = []
    for row in deviation.rows:
        extra = extras.get((row.estimator, row.n))
        if extra is None:
            merged.append(row)
        else:
            merged.append(
                replace(
                    row,
                    median_tau_hat=extra.median_tau_hat,
                    tau_star=extra.tau_star,
                    coverage=extra.coverage,
                    slope=extra.slope,
                )
            )
    return StudyResult(rows=tuple(merged))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(result: StudyResult, path) -> None:
    """One row per (estimator, n); floats at full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([_cell(getattr(row, col)) for col in CSV_COLUMNS])


def write_json(result: StudyResult, path) -> None:
    """JSON mirror of the result; bytes are stable under a load/dump cycle."""
    payload = {"rows": [asdict(row) for row in result.rows]}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
