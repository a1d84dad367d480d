"""Monte-Carlo report container shared by the sampling modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MCReport:
    """Monte-Carlo estimate with its standard error and seed metadata.

    When a comparison target is supplied the z-score (estimate - target)/stderr
    is recorded; stderr is the sample standard deviation over sqrt(n_paths).
    """

    estimate: float
    stderr: float
    n_paths: int
    algorithm: str
    seed: int
    stream: int
    target: float | None = None
    z_score: float | None = None

    @classmethod
    def from_samples(cls, samples, rng_spec, target: float | None = None) -> "MCReport":
        import numpy as np

        samples = np.asarray(samples, dtype=float)
        n = samples.size
        est = float(samples.mean())
        se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        z = None
        if target is not None:
            z = (est - target) / se if se > 0 else (0.0 if est == target else float("inf"))
        return cls(
            estimate=est,
            stderr=se,
            n_paths=n,
            algorithm=rng_spec.algorithm,
            seed=rng_spec.seed,
            stream=rng_spec.stream,
            target=target,
            z_score=z,
        )
