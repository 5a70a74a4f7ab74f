"""The three acceptance operating points as seeded benchmark workloads.

Constructing a workload is its set-up (cold basis builds and set-up
checks); it then runs trials by index.  A trial's inputs depend only on the workload seed and the trial
index, so a run is reproducible whatever its length.  ``trial`` returns a
row for the correctness gate; ``gate`` turns the rows of a run into named
checks taken from ``tests/test_acceptance.py``.

Only public API is used: the benchmark must run unchanged across refactors
of the operator internals (no ``sparse_matrix()``, ``_sparse`` or
``cache_rows``).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

# Pinned constants of the acceptance suite (tests/test_acceptance.py).
ROC_LAMBDA = 0.2732336812165897


class Roc:
    """Criterion 07: N=6, n_bos=4 (D=126), both detectors on every instance.

    Trial 2i draws the spiked instance of pair i and trial 2i+1 the
    unspiked one, from the same stream, as the acceptance test does.
    """

    ACCEPTANCE_SEED = 1000

    def __init__(self, tp, seed: int):
        self.tp, self.seed = tp, seed
        self.params = tp.ModelParams(N=6, n_bos=4, lambda_bar=ROC_LAMBDA, seed=seed)
        nbos_proj = tp.projection_nbos(self.params)
        self.params_proj = tp.ModelParams(N=6, n_bos=nbos_proj, lambda_bar=ROC_LAMBDA, seed=seed)
        self.cfg = tp.DetectionConfig(c_prime=0.2, slack=10.0)
        tp.build_basis(6, 4)
        tp.build_basis(6, nbos_proj)
        self._unspiked = {}  # pair index -> unspiked instance drawn with its spiked twin

    def trial(self, t: int) -> dict:
        tp = self.tp
        pair, spiked = t // 2, t % 2 == 0
        if spiked or pair not in self._unspiked:
            rng = tp.derived_rng(self.seed, "roc", pair)
            spiked_t, _ = tp.sample_instance(self.params, spiked=True, rng=rng)
            self._unspiked[pair], _ = tp.sample_instance(self.params, spiked=False, rng=rng)
        tensor = spiked_t if spiked else self._unspiked.pop(pair)
        return {
            "spectral": tp.detect_spectral(tensor, self.params, seed=pair).spiked,
            "projection": tp.detect_projection(tensor, self.params_proj, self.cfg, seed=pair).spiked,
        }

    @staticmethod
    def gate(rows: list) -> dict:
        # an errored trial (None) counts as a miss when spiked and as a
        # false alarm when unspiked
        checks = {}
        for det in ("spectral", "projection"):
            pos = [r[det] if r else False for s, r in rows if s]
            neg = [r[det] if r else True for s, r in rows if not s]
            tpr = float(np.mean(pos)) if pos else float("nan")
            fpr = float(np.mean(neg)) if neg else 0.0
            checks[f"{det}_tpr>=0.9"] = {"value": tpr, "ok": bool(tpr >= 0.9)}
            checks[f"{det}_fpr<=0.1"] = {"value": fpr, "ok": bool(fpr <= 0.1)}
        return checks

    def kind(self, t: int) -> bool:
        return t % 2 == 0


class Cascade:
    """Criterion 09: N=3, n_bos=8, lambda=0.03, one halving (k=1) per
    unspiked instance; the k=0-versus-flat identity is checked in set-up."""

    ACCEPTANCE_SEED = 55

    def __init__(self, tp, seed: int):
        self.tp, self.seed = tp, seed
        self.params = tp.ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=seed)
        self.cfg = tp.DetectionConfig()
        tp.build_basis(3, 8)
        tp.build_basis(3, 4)
        t0, _ = tp.sample_instance(self.params, spiked=True, rng=tp.derived_rng(seed, "k0", 0))
        ms = tp.multistep_run(t0, self.params, cfg=self.cfg, seed=0, k=0)
        flat = tp.detect_projection(t0, self.params, self.cfg, seed=0)
        self.k0_ok = ms.statistic == flat.statistic and ms.verdict == flat.verdict

    def trial(self, t: int) -> dict:
        tp = self.tp
        t0, _ = tp.sample_instance(
            self.params, spiked=False, rng=tp.derived_rng(self.seed, "chain", t)
        )
        ms = tp.multistep_run(t0, self.params, cfg=self.cfg, seed=t, k=1)
        expected = sqrt(1.0 / ms.p_threshold) * sqrt(1.0 / max(ms.q_j[1], np.finfo(float).tiny))
        return {
            "chain": ms.chain_product,
            "q0": ms.q_j[0],
            "cost_ok": abs(ms.cost_estimate - expected) <= 1e-12 * expected,
        }

    def gate(self, rows: list) -> dict:
        done = [r for _, r in rows if r]
        chain = float(np.mean([r["chain"] for r in done])) if done else float("nan")
        q0 = float(np.mean([r["q0"] for r in done])) if done else float("nan")
        return {
            "k0_matches_flat": {"value": bool(self.k0_ok), "ok": bool(self.k0_ok)},
            "chain<=1.15*q0": {"value": [chain, 1.15 * q0], "ok": bool(chain <= 1.15 * q0)},
            "cost_closed_form": {
                "value": sum(r["cost_ok"] for r in done),
                "ok": bool(done) and all(r["cost_ok"] for r in done),
            },
        }

    def kind(self, t: int) -> bool:
        return False


# Criterion 11 runs 50 spiked and 20 unspiked trials; interleave them 5:2.
_RECOVERY_PATTERN = (True, True, False, True, True, False, True)


class Recovery:
    """Criterion 11: N=16, n_bos=4 (D=3876), lambda=0.12, with the dense
    limit below D so the Ritz projector runs.  Detected spiked trials go on
    to spdm, candidate extraction and boosting."""

    ACCEPTANCE_SEED = 99

    def __init__(self, tp, seed: int):
        self.tp, self.seed = tp, seed
        self.params = tp.ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=seed)
        self.cfg = tp.DetectionConfig(dense_limit=1500)
        self.thr = tp.p_threshold(self.params, self.cfg)
        tp.build_basis(16, 4)

    def kind(self, t: int) -> bool:
        return _RECOVERY_PATTERN[t % len(_RECOVERY_PATTERN)]

    def _index(self, t: int) -> int:
        """Position of trial t among the trials of its own kind."""
        block, pos = divmod(t, len(_RECOVERY_PATTERN))
        kind = _RECOVERY_PATTERN[pos]
        per_block = sum(1 for k in _RECOVERY_PATTERN if k == kind)
        return block * per_block + sum(1 for k in _RECOVERY_PATTERN[:pos] if k == kind)

    def trial(self, t: int) -> dict:
        tp = self.tp
        spiked, j = self.kind(t), self._index(t)
        tag = "recov16" if spiked else "recov16-null"
        tensor, v_ref = tp.sample_instance(
            self.params, spiked=spiked, rng=tp.derived_rng(self.seed, tag, j)
        )
        outcome = tp.projection_statistic(tensor, self.params, self.cfg, seed=j)
        row = {"detected": outcome.statistic >= self.thr, "win": False}
        if spiked and row["detected"]:
            rho = tp.spdm(outcome.projected.normalized(), normalization="per_boson")
            cand = tp.randomized_recover(rho, tp.derived_rng(j, "randomized-recover"))
            boosted, _ = tp.boost(tensor, cand)
            row["win"] = abs(tp.corr(boosted, v_ref)) >= 0.9
        return row

    @staticmethod
    def gate(rows: list) -> dict:
        spiked = [r for s, r in rows if s]
        unspiked = [r for s, r in rows if not s]
        wins = sum(1 for r in spiked if r and r["win"])
        false_alarms = sum(1 for r in unspiked if r is None or r["detected"])
        return {
            "boosted_wins>=0.7*spiked": {
                "value": [wins, len(spiked)],
                "ok": bool(spiked) and wins >= int(0.7 * len(spiked)),
            },
            "no_unspiked_detections": {"value": false_alarms, "ok": false_alarms == 0},
        }


WORKLOADS = {"roc": Roc, "cascade": Cascade, "recovery": Recovery}
