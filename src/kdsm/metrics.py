"""Ranking metrics for uplift predictions.

Subjects are ranked by predicted uplift, descending; ties are broken by a
seeded random shuffle applied before a stable sort, so the seed is part of
every evaluation call. At each prefix size k the uplift curve estimates the
incremental positives had everyone in the prefix been treated, and the Qini
curve the incremental positives among the treated of the prefix. AUUC is the
area under the per-subject-normalized uplift curve; the Qini coefficient is
the area between the Qini curve and its random-ranking diagonal, in
per-subject^2 units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .errors import MetricError, UndefinedMetricError


@dataclass
class RankingEval:
    """Ranking order plus cumulative counts at every prefix size k = 1..n.

    Arrays are indexed by k-1: `n_t[k-1]` is the number of treated subjects
    among the k highest-ranked, `r_t[k-1]` the positives among those, and
    `n_c`/`r_c` the control counterparts.
    """

    order: np.ndarray
    n_t: np.ndarray
    n_c: np.ndarray
    r_t: np.ndarray
    r_c: np.ndarray
    tie_seed: int

    @property
    def n(self) -> int:
        return self.order.shape[0]


def _check_eval_inputs(predictions, treatment, outcome):
    predictions = np.asarray(predictions, dtype=np.float64)
    treatment = np.asarray(treatment, dtype=np.float64)
    outcome = np.asarray(outcome, dtype=np.float64)
    if predictions.ndim != 1 or not predictions.shape == treatment.shape == outcome.shape:
        raise MetricError("predictions, treatment, outcome must be 1-d arrays of equal length")
    n = predictions.shape[0]
    for name, values in (("treatment", treatment), ("outcome", outcome)):
        bad = np.flatnonzero((values != 0.0) & (values != 1.0))
        if bad.size:
            raise MetricError(f"{name} at position {bad[0]} is {float(values[bad[0]])!r}, not 0 or 1")
    treatment, outcome = treatment.astype(np.int64), outcome.astype(np.int64)
    if n < 2:
        raise MetricError(f"need at least 2 subjects to rank, got {n}")
    bad = np.flatnonzero(~np.isfinite(predictions))
    if bad.size:
        raise MetricError(f"prediction at position {bad[0]} is {float(predictions[bad[0]])!r}, not finite")
    if not (treatment == 1).any() or not (treatment == 0).any():
        raise MetricError("both treatment arms must be present")
    return predictions, treatment, outcome


def _tie_shuffled_order(predictions: np.ndarray, tie_seed: int) -> np.ndarray:
    """Descending order of predictions; tied groups appear in an order that is
    uniform given tie_seed (shuffle first, then stable sort)."""
    perm = np.random.default_rng(tie_seed).permutation(predictions.shape[0])
    return perm[np.argsort(-predictions[perm], kind="stable")]


def rank_eval(predictions, treatment, outcome, tie_seed: int = 0) -> RankingEval:
    """Rank subjects by prediction (descending, seeded tie-break) and
    accumulate per-prefix treated/control counts in one pass."""
    predictions, treatment, outcome = _check_eval_inputs(predictions, treatment, outcome)
    order = _tie_shuffled_order(predictions, tie_seed)
    t_o = treatment[order]
    y_o = outcome[order]
    return RankingEval(
        order=order,
        n_t=np.cumsum(t_o),
        n_c=np.cumsum(1 - t_o),
        r_t=np.cumsum(t_o * y_o),
        r_c=np.cumsum((1 - t_o) * y_o),
        tie_seed=tie_seed,
    )


def uplift_curve(ev: RankingEval) -> np.ndarray:
    """Estimated incremental positives if the top-k were all treated, at index
    k-1: (r_t/n_t - r_c/n_c) * (n_t + n_c); prefixes missing an arm score 0."""
    both = (ev.n_t > 0) & (ev.n_c > 0)
    values = np.zeros(ev.n, dtype=np.float64)
    nt = ev.n_t[both].astype(np.float64)
    nc = ev.n_c[both].astype(np.float64)
    values[both] = (ev.r_t[both] / nt - ev.r_c[both] / nc) * (nt + nc)
    return values


def qini_curve(ev: RankingEval) -> np.ndarray:
    """Incremental positives among the treated of the top-k, at index k-1:
    r_t - r_c * n_t/n_c; prefixes with no control subjects score r_t."""
    return np.where(
        ev.n_c > 0,
        ev.r_t - ev.r_c * (ev.n_t / np.maximum(ev.n_c, 1)),
        ev.r_t.astype(np.float64),
    )


def auuc(ev: RankingEval) -> float:
    """Area under the uplift curve, normalized so a random ranking scores
    about 0.5: mean over k of uplift(k)/uplift(n). Undefined when
    uplift(n) <= 0."""
    values = uplift_curve(ev)
    final = values[-1]
    if not final > 0:
        raise UndefinedMetricError(
            f"AUUC is undefined: uplift at k=n is {float(final)!r} (needs to be > 0)"
        )
    return float(np.mean(values / final))


def qini_coefficient(ev: RankingEval) -> float:
    """Mean signed area between the Qini curve and the random-ranking
    diagonal, in per-subject^2 units: (1/n^2) * sum_k (Q(k) - (k/n) Q(n))."""
    values = qini_curve(ev)
    n = ev.n
    ks = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(values - (ks / n) * values[-1]) / (n * n))


def summary(ev: RankingEval) -> dict:
    """The summary record the CLI writes for one ranking: AUUC, Qini
    coefficient, n and tie seed. Raises UndefinedMetricError when AUUC is
    undefined."""
    return {
        "auuc": auuc(ev),
        "qini": qini_coefficient(ev),
        "n": ev.n,
        "tie_seed": ev.tie_seed,
    }


def evaluate_predictions(predictions, treatment, outcome, tie_seed: int = 0) -> dict:
    """Rank the predictions and return their `summary` record."""
    return summary(rank_eval(predictions, treatment, outcome, tie_seed))


def write_curve_csv(values: np.ndarray, path: str) -> None:
    """Write curve values as `k,value` CSV, k from 1, with exact float representation."""
    values = np.asarray(values, dtype=np.float64).tolist()
    rows = "".join([f"{k},{v!r}\n" for k, v in enumerate(values, 1)])
    with atomic_write(path) as fh:
        fh.write("k,value\n" + rows)
